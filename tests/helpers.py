"""Shared test utilities: corpus builders, finite-difference gradient checks,
and an exhaustive average-precision oracle.

Everything here is deliberately independent of the library's internals: the
oracles re-derive expected values from first principles (definition-level
loops, pure-Python accumulation) so library bugs cannot cancel out.
"""

from __future__ import annotations

import importlib
import math
import threading

import numpy as np

from sinr.data import ObservationSet
from sinr.losses import (
    BatchTargets,
    LossConfig,
    LossVariant,
    compute_loss,
    draw_j_prime,
    needs_pseudo_negatives,
)
from sinr.net import NetConfig, NetParams, backward, forward, init_params, logit_grad_in_place


def hand_off_to_a_pool_thread(monkeypatch, module: str, attr: str) -> threading.Event:
    """Wrap ``module.attr`` so that the main thread's calls wait (up to 30 s)
    until a pool thread has made one, which makes a pool thread run chunks of
    a ``map_row_chunks`` with several workers and chunks. Returns the event
    that the first pool-thread call sets."""
    mod = importlib.import_module(module)
    helper_ran = threading.Event()

    def wrapped(*args, _real=getattr(mod, attr), **kwargs):
        if threading.current_thread() is threading.main_thread():
            helper_ran.wait(timeout=30)
        else:
            helper_ran.set()
        return _real(*args, **kwargs)

    monkeypatch.setattr(mod, attr, wrapped)
    return helper_ran


# ---------------------------------------------------------------------------
# Observation corpora
# ---------------------------------------------------------------------------


def random_obs(
    rng: np.random.Generator,
    n_species: int = 5,
    n_records: int = 200,
    lon_range: tuple[float, float] = (-170.0, 170.0),
    lat_range: tuple[float, float] = (-80.0, 80.0),
) -> ObservationSet:
    """Uniformly scattered records with species drawn uniformly."""
    return ObservationSet(
        species_ids=tuple(f"sp{i:03d}" for i in range(n_species)),
        species_index=rng.integers(0, n_species, n_records).astype(np.int64),
        lons=rng.uniform(*lon_range, n_records),
        lats=rng.uniform(*lat_range, n_records),
    )


DISK_CENTERS = ((-90.0, 30.0), (0.0, -30.0), (100.0, 15.0))
DISK_RADIUS_DEG = 20.0


def disk_obs(rng: np.random.Generator, n_records: int) -> ObservationSet:
    """Three species occupying disjoint disks (rejection-sampled uniformly).

    The disks are far apart, so a trained model should separate them
    cleanly; `disk_labels` provides the matching ground truth for any grid.
    """
    species = rng.integers(0, 3, n_records).astype(np.int64)
    lons = np.empty(n_records)
    lats = np.empty(n_records)
    for i, s in enumerate(species):
        cx, cy = DISK_CENTERS[s]
        while True:
            dx, dy = rng.uniform(-DISK_RADIUS_DEG, DISK_RADIUS_DEG, 2)
            if dx * dx + dy * dy <= DISK_RADIUS_DEG**2:
                lons[i] = cx + dx
                lats[i] = cy + dy
                break
    return ObservationSet(
        species_ids=("disk-a", "disk-b", "disk-c"),
        species_index=species,
        lons=lons,
        lats=lats,
    )


def disk_labels(lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """(n, 3) presence truth for `disk_obs`: inside the disk or not."""
    out = np.zeros((len(lons), len(DISK_CENTERS)), dtype=np.int8)
    for s, (cx, cy) in enumerate(DISK_CENTERS):
        out[:, s] = (lons - cx) ** 2 + (lats - cy) ** 2 <= DISK_RADIUS_DEG**2
    return out


# ---------------------------------------------------------------------------
# Reference sigmoid
# ---------------------------------------------------------------------------


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-branch stable sigmoid with boolean-mask selects, clamped
    strictly inside (0, 1): ``1 / (1 + exp(-z))`` where z >= 0 and
    ``exp(z) / (1 + exp(z))`` elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    one = z.dtype.type(1)
    zero = z.dtype.type(0)
    return np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero))


# ---------------------------------------------------------------------------
# Reference average precision (definition-level, O(n^2))
# ---------------------------------------------------------------------------


def ap_oracle(scores, labels) -> float:
    """Average precision straight from its definition.

    Rank by descending score with ties keeping input order, then average
    precision@k over the positive ranks — written with explicit loops and a
    stable insertion ranking so it shares no code with the implementation.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for k, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / k
    if hits == 0:
        raise ValueError("no positives")
    return total / hits


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def loss(variant: LossVariant | str, y, targets, lam: float = 2048.0, **kwargs):
    """``compute_loss`` as ``(value, d_y, d_y_rand)``; ``kwargs`` are its
    ``y_hat_rand`` and ``j_prime``."""
    result = compute_loss(LossConfig(variant, lam), y, targets, **kwargs)
    return result.value, result.d_y_hat, result.d_y_hat_rand


def composed_loss(params: NetParams, cfg: NetConfig, x_all, b, variant, targets, lam, j_prime):
    """Forward on data+pseudo rows, then the loss — the training objective."""
    _, y_all = forward(params, cfg, x_all, mode="eval")
    value, _, _ = loss(variant, y_all[:b], targets, lam,
                       y_hat_rand=y_all[b:] if len(x_all) > b else None, j_prime=j_prime)
    return value


def composed_grads(params: NetParams, cfg: NetConfig, x_all, b, variant, targets, lam, j_prime):
    """Analytic parameter gradients of `composed_loss`."""
    _, y_all, cache = forward(params, cfg, x_all, mode="eval", return_cache=True)
    _, d_y, d_y_rand = loss(variant, y_all[:b], targets, lam,
                            y_hat_rand=y_all[b:] if len(x_all) > b else None, j_prime=j_prime)
    if len(x_all) > b:
        d_all = np.concatenate([d_y, np.zeros_like(y_all[b:]) if d_y_rand is None else d_y_rand])
    else:
        d_all = d_y
    return backward(params, cfg, cache, d_z=logit_grad_in_place(y_all, d_all))


def reference_step(params: NetParams, cfg, x, targets, rng_dropout, rng_negatives):
    """One training step's ``(loss value, parameter gradients)`` on whole
    matrices: ``forward``, ``compute_loss`` on the full batch, the
    concatenated dL/dy, the dL/dy -> dL/dz chain, then ``backward``.

    ``cfg`` is a ``TrainConfig``; ``x`` holds the batch rows, then the
    pseudo-location rows when the loss uses them.
    """
    b = targets.batch_size
    pseudo = needs_pseudo_negatives(cfg.loss.variant)
    _, y_all, cache = forward(params, cfg.net, x, mode="train", rng=rng_dropout,
                              return_cache=True)
    result = compute_loss(cfg.loss, y_all[:b], targets,
                          y_hat_rand=y_all[b:] if pseudo else None,
                          j_prime=None if pseudo else draw_j_prime(targets, rng_negatives))
    d_y = np.concatenate([result.d_y_hat, result.d_y_hat_rand]) if pseudo else result.d_y_hat
    d_z = 1.0 - y_all
    d_z *= y_all
    np.multiply(d_y, d_z, out=d_z)
    return result.value, backward(params, cfg.net, cache, d_z=d_z)


def fd_grads(objective, params: NetParams, h: float = 1e-5) -> NetParams:
    """Central-difference gradient of a scalar objective over every parameter
    coordinate."""
    arrays = [a.copy() for a in params.flat()]
    grads = [np.zeros_like(a) for a in arrays]
    for a, g in zip(arrays, grads):
        flat_a = a.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + h
            up = objective(NetParams.from_flat(arrays))
            flat_a[i] = orig - h
            down = objective(NetParams.from_flat(arrays))
            flat_a[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
    return NetParams.from_flat(grads)


def max_rel_error(analytic: NetParams, numeric: NetParams) -> float:
    """Worst per-array error relative to that array's gradient magnitude."""
    worst = 0.0
    for a, n in zip(analytic.flat(), numeric.flat()):
        scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(n).max(initial=0.0)), 1e-12)
        worst = max(worst, float(np.abs(a - n).max(initial=0.0)) / scale)
    return worst


def well_conditioned_setup(seed: int, h: float = 1e-5):
    """Draw a (net, batch, targets) tuple suitable for finite differencing.

    Redraws (by returning None) whenever a pre-activation sits close enough
    to a ReLU kink for the FD step to cross it, or a prediction is near the
    clamp boundary — both would make central differences disagree with the
    (correct) one-sided analytic gradient for reasons that are not bugs.
    """
    rng = np.random.default_rng(seed)
    cfg = NetConfig(
        input_dim=int(rng.integers(2, 7)),
        n_species=int(rng.integers(1, 6)),
        hidden_dim=int(rng.integers(2, 17)),
        n_residual_layers=int(rng.integers(0, 4)),
        dropout_p=0.0,
        seed=int(rng.integers(0, 2**31)),
    )
    params = init_params(cfg)
    params = NetParams.from_flat([a.astype(np.float64) for a in params.flat()])
    b = int(rng.integers(1, 5))
    x_data = rng.uniform(-1.0, 1.0, (b, cfg.input_dim))
    x_pseudo = rng.uniform(-1.0, 1.0, (b, cfg.input_dim))
    x_all = np.concatenate([x_data, x_pseudo])
    _, y_all, cache = forward(params, cfg, x_all, mode="eval", return_cache=True)
    margin = 1e-3
    preacts = [cache.a_in] + cache.block_u + cache.block_v
    for arr in preacts:
        if arr is not None and np.any(np.abs(arr) < margin):
            return None
    if np.any(y_all < 1e-4) or np.any(y_all > 1.0 - 1e-4):
        return None
    targets = BatchTargets(rng.integers(0, cfg.n_species, b).astype(np.int64), cfg.n_species)
    j_prime = None
    if cfg.n_species > 1:
        u = rng.integers(0, cfg.n_species - 1, b)
        j_prime = (u + (u >= targets.positive_index)).astype(np.int64)
    lam = float(np.exp(rng.uniform(math.log(1.0), math.log(2048.0))))
    return cfg, params, x_all, b, targets, lam, j_prime


def gather_gradcheck_setups(n: int, start_seed: int = 0):
    """First `n` well-conditioned setups from a deterministic seed scan."""
    out = []
    seed = start_seed
    while len(out) < n:
        setup = well_conditioned_setup(seed)
        if setup is not None:
            out.append(setup)
        seed += 1
    return out
