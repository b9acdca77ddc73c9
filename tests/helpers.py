"""Shared test utilities: corpus builders, finite-difference gradient checks,
an exhaustive average-precision oracle, and parameter-tree and manifest
helpers.

Everything here is deliberately independent of the library's internals: the
oracles re-derive expected values from first principles (definition-level
loops, pure-Python accumulation) so library bugs cannot cancel out.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import struct
import threading
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import sinr.net
from sinr.data import ObservationSet
from sinr.evaluate import EVAL_GRID_MAGIC, EvalGrid, f1_at_threshold
from sinr.geo import GridSpec, InputLayout
from sinr.losses import (
    CLAMP_EPS,
    BatchTargets,
    LossConfig,
    LossVariant,
    compute_loss,
    draw_j_prime,
    needs_pseudo_negatives,
)
from sinr.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ForwardCache,
    NetConfig,
    NetParams,
    NonFiniteGradientError,
    ResidualBlock,
    backward,
    forward,
    init_params,
)
from sinr.train import TrainState, train_config_to_dict


def hand_off_to_a_pool_thread(monkeypatch, module: str, attr: str) -> threading.Event:
    """Wrap ``module.attr`` so that the main thread's first call waits (up to
    30 s) until a pool thread has made one, which makes a pool thread run
    chunks of a ``map_ranges`` with several workers and ranges. Returns the
    event that the first pool-thread call sets. Code that never calls it on
    a pool thread costs one 30 s wait, not one per call."""
    mod = importlib.import_module(module)
    helper_ran = threading.Event()
    main_waited = False

    def wrapped(*args, _real=getattr(mod, attr), **kwargs):
        nonlocal main_waited
        if threading.current_thread() is threading.main_thread():
            if not main_waited:
                main_waited = True
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
# Reference EVALGRID reader and writer
# ---------------------------------------------------------------------------


def reference_save_eval_grid(eval_grid: EvalGrid, path) -> None:
    """The EVALGRID text form written one ``id cell label`` line at a time."""
    with open(path, "w") as fh:
        fh.write(f"{EVAL_GRID_MAGIC} {eval_grid.grid.resolution} {len(eval_grid.species_ids)}\n")
        for s, sid in enumerate(eval_grid.species_ids):
            for cell in np.flatnonzero(eval_grid.labels[s] != -1):
                fh.write(f"{sid} {cell} {int(eval_grid.labels[s, cell])}\n")


_REFERENCE_PLAIN_BODY = re.compile(r"(?:\S+ [0-9]+ [01]\n)*")


def reference_load_eval_grid(path) -> EvalGrid:
    """An EVALGRID reader that checks a plain body with a whole-body regex and
    converts its tokens as Python strings, and reads any other body line by
    line; errors have the library's types and messages."""
    with open(path) as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    if body and not body.endswith("\n"):
        body += "\n"
    plain = first != "" and first == first.strip() and _REFERENCE_PLAIN_BODY.fullmatch(body)
    lines = [first] if plain else [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty evaluation grid file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != EVAL_GRID_MAGIC:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    try:
        resolution, n_species = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    try:
        grid = GridSpec(resolution)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    entries = None
    if plain:
        tokens = body.split()
        ids = tokens[0::3]
        try:
            cells = np.array(tokens[1::3], dtype=np.int64)
        except OverflowError:
            cells = None
        if cells is not None and not (cells.size and cells.max() >= grid.n_cells):
            index = {sid: i for i, sid in enumerate(dict.fromkeys(ids))}
            species = np.fromiter(map(index.__getitem__, ids), np.int64, count=len(ids))
            values = (np.array(tokens[2::3], dtype=str) == "1").astype(np.int8)
            entries = tuple(index), species, cells, values
    if entries is None:
        catalog: dict[str, int] = {}
        rows = []
        for ln in body.split("\n")[:-1] if plain else lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed line {ln!r}")
            sid, cell_s, label_s = parts
            try:
                cell, label = int(cell_s), int(label_s)
            except ValueError:
                raise ValueError(f"{path}: malformed line {ln!r}") from None
            if not (0 <= cell < grid.n_cells):
                raise ValueError(f"{path}: cell index {cell} outside [0, {grid.n_cells})")
            if label not in (0, 1):
                raise ValueError(f"{path}: label must be 0 or 1, got {label}")
            rows.append((catalog.setdefault(sid, len(catalog)), cell, label))
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
        entries = tuple(catalog), table[:, 0], table[:, 1], table[:, 2].astype(np.int8)
    species_ids, species, cells, values = entries
    if len(species_ids) != n_species:
        raise ValueError(
            f"{path}: header declares {n_species} species, file lists {len(species_ids)}"
        )
    keys = species * grid.n_cells + cells
    _, first_seen = np.unique(keys, return_index=True)
    if first_seen.size != keys.size:
        repeat = np.ones(keys.size, dtype=bool)
        repeat[first_seen] = False
        i = int(np.argmax(repeat))
        raise ValueError(
            f"{path}: duplicate entry for species index {species[i]}, cell {cells[i]}"
        )
    labels = np.full((n_species, grid.n_cells), -1, dtype=np.int8)
    labels[species, cells] = values
    return EvalGrid(grid=grid, species_ids=species_ids, labels=labels)


# ---------------------------------------------------------------------------
# Reference initialization
# ---------------------------------------------------------------------------


def reference_init_params(cfg: NetConfig) -> NetParams:
    """Parameters drawn layer by layer: uniform weights on
    ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]`` from ``cfg.seed`` in the order input
    weights, each block's ``w1`` and ``w2``, head weights; zero biases."""
    rng = np.random.default_rng(int(cfg.seed) & 0xFFFFFFFFFFFFFFFF)

    def draw(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    h = cfg.hidden_dim
    if cfg.identity_encoder:
        w_in = b_in = None
        blocks: tuple[ResidualBlock, ...] = ()
    else:
        w_in = draw(cfg.input_dim, (cfg.input_dim, h))
        b_in = np.zeros(h, dtype=np.float32)
        blocks = tuple(
            ResidualBlock(
                draw(h, (h, h)),
                np.zeros(h, dtype=np.float32),
                draw(h, (h, h)),
                np.zeros(h, dtype=np.float32),
            )
            for _ in range(cfg.n_residual_layers)
        )
    w_head = draw(cfg.feature_dim, (cfg.feature_dim, cfg.n_species))
    b_head = np.zeros(cfg.n_species, dtype=np.float32)
    return NetParams(w_in, b_in, blocks, w_head, b_head)


# ---------------------------------------------------------------------------
# Reference Adam
# ---------------------------------------------------------------------------


def reference_adam_step(params: NetParams, grads: NetParams, state: AdamState,
                        lr: float) -> tuple[NetParams, AdamState]:
    """Adam as whole-array expressions that build new parameter and moment
    trees, leaving every input untouched; returns the new params and state."""
    for name, g in zip(grads.names(), grads.flat()):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
                f"non-finite gradient entries in {name} at step {state.t + 1}"
            )
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t

    def tree(fn, *trees):
        return NetParams.from_flat([fn(*arrs) for arrs in zip(*(x.flat() for x in trees))])

    new_m = tree(lambda m, g: ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g, state.m, grads)
    new_v = tree(lambda v, g: ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g, state.v, grads)
    new_p = tree(lambda p, m, v: p - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS),
                 params, new_m, new_v)
    for p in new_p.flat():
        if not np.all(np.isfinite(p)):
            raise NonFiniteGradientError(
                f"non-finite parameters after the update at step {t} (lr={lr!r})"
            )
    return new_p, AdamState(m=new_m, v=new_v, t=t)


# ---------------------------------------------------------------------------
# Reference model file and checkpoint bytes
# ---------------------------------------------------------------------------


def reference_model_bytes(params: NetParams, cfg: NetConfig, input_layout: InputLayout,
                          species_ids: tuple[str, ...]) -> bytes:
    """A model file as one joined blob: the header fields, the species ids,
    the float count, then every parameter array's float32 ``tobytes``."""
    out = [struct.pack("<4sIIIIIIIdq", b"SINR", 1, int(cfg.identity_encoder),
                       {"coords": 0, "env": 1, "env+coords": 2}[InputLayout(input_layout).value],
                       cfg.input_dim, cfg.hidden_dim, cfg.n_residual_layers, cfg.n_species,
                       cfg.dropout_p, int(cfg.seed)),
           struct.pack("<I", len(species_ids))]
    for sid in species_ids:
        raw = sid.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw]
    out.append(struct.pack("<Q", sum(a.size for a in params.flat())))
    out += [a.astype("<f4").tobytes() for a in params.flat()]
    return b"".join(out)


def reference_checkpoint_bytes(state: TrainState) -> bytes:
    """A checkpoint as one joined blob: the model file, the ``CKPT`` section
    header, m, v, the loss history, the four generator states and the
    configuration as length-prefixed JSON."""
    cfg = state.cfg

    def packed_json(obj) -> bytes:
        raw = json.dumps(obj).encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    out = [reference_model_bytes(state.params, cfg.net, cfg.input_layout, state.species_ids),
           b"CKPT", struct.pack("<II", 3, state.epochs_done), state.corpus_sha256,
           struct.pack("<Q", state.adam.t)]
    out += [a.astype("<f4").tobytes() for tree in (state.adam.m, state.adam.v)
            for a in tree.flat()]
    losses = np.asarray(state.step_losses, dtype="<f8")
    out += [struct.pack("<Q", losses.size), losses.tobytes()]
    out += [packed_json(rng.bit_generator.state) for rng in
            (state.rng_batch, state.rng_locations, state.rng_negatives, state.rng_dropout)]
    out.append(packed_json(train_config_to_dict(cfg)))
    return b"".join(out)


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


def reference_f1_max_threshold(scores, labels) -> float:
    """The F1-maximizing threshold as one ``f1_at_threshold`` pass per
    candidate (0, 1 and the midpoints of consecutive unique scores), in
    ascending order, keeping the first strict maximum."""
    scores = np.asarray(scores, dtype=np.float64)
    uniq = np.unique(scores)
    candidates = np.concatenate([[0.0], (uniq[:-1] + uniq[1:]) / 2.0, [1.0]])
    best_t, best_f1 = None, -1.0
    for t in np.sort(candidates):
        f1 = f1_at_threshold(scores, labels, t)
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def read_index(variant: LossVariant | str, targets: BatchTargets, j_prime=None):
    """``(rows, columns)`` of the dense head entries a read variant's
    training step computes, laid out as ``forward``'s ``read`` takes them:
    the positive's column at each record row and then at each
    pseudo-location row (ssdl), or the positive's and ``j_prime``'s at each
    record row (slds). None for full, which reads every entry."""
    selection = LossVariant(variant).value.split("-")[1]
    j = targets.positive_index
    if selection == "full":
        return None
    cols = np.tile(j, 2)[:, None] if selection == "ssdl" else np.stack([j, j_prime], axis=1)
    return np.arange(len(cols))[:, None], cols


def loss(variant: LossVariant | str, y, targets, lam: float = 2048.0, *, y_hat_rand=None,
         j_prime=None):
    """``compute_loss`` on float64 copies of the entries of the dense
    predictions ``y`` (and ``y_hat_rand``, the pseudo-location rows) that the
    variant reads (:func:`read_index`), as ``(value, dL/dz, dL/dz_rand or
    None)``: dense arrays with +0 at every entry not read. The inputs are
    left untouched."""
    b = targets.batch_size
    y_all = np.array(y if y_hat_rand is None else np.concatenate([y, y_hat_rand]),
                     dtype=np.float64)
    at = read_index(variant, targets, j_prime)
    got = y_all if at is None else y_all[at]
    value = compute_loss(LossConfig(variant, lam), got[:b], targets,
                         y_hat_rand=None if y_hat_rand is None else got[b:])
    if at is not None:
        y_all[...] = 0
        y_all[at] = got
    return value, y_all[:b], None if y_hat_rand is None else y_all[b:]


def composed_loss(params: NetParams, cfg: NetConfig, x_all, b, variant, targets, lam, j_prime):
    """Forward on data+pseudo rows, then the loss — the training objective."""
    _, y_all = forward(params, cfg, x_all, mode="eval")
    value, _, _ = loss(variant, y_all[:b], targets, lam,
                       y_hat_rand=y_all[b:] if len(x_all) > b else None, j_prime=j_prime)
    return value


def composed_grads(params: NetParams, cfg: NetConfig, x_all, b, variant, targets, lam, j_prime):
    """Analytic parameter gradients of `composed_loss`, as a training step
    takes them: the head only at the entries the loss reads (``forward``'s
    ``read``, none for full), whose predictions ``compute_loss`` overwrites
    with dL/dz, which seed ``backward``. ``x_all`` holds pseudo-location rows
    only for variants that read them."""
    at = read_index(variant, targets, j_prime)
    _, y_all, cache = forward(params, cfg, x_all, mode="eval", return_cache=True,
                              read=None if at is None else at[1])
    compute_loss(LossConfig(variant, lam), y_all[:b], targets,
                 y_hat_rand=y_all[b:] if len(x_all) > b else None)
    return backward(params, cfg, cache, d_z=y_all)


@dataclass
class EncoderRecord:
    """What the whole-array encoder computed that a ``ForwardCache`` does not
    keep: the input layer's output ``a`` before its ReLU, each block's first
    pre-activations ``u`` and its float dropout masks (None without dropout)."""

    a: np.ndarray
    u: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)


def reference_encoder(params: NetParams, cfg: NetConfig, x, mode: str = "eval",
                      rng: np.random.Generator | None = None):
    """``(features, cache, record)`` of the location encoder on whole arrays:
    the input layer, then each residual block in turn over every row, its
    dropout mask (in train mode) drawn from ``rng`` as the block runs. The
    cache is what ``backward`` reads; the :class:`EncoderRecord` holds the
    rest, for :func:`reference_backward`."""
    dtype = params.w_head.dtype
    x = np.asarray(x).astype(dtype, copy=False)
    a = x @ params.w_in + params.b_in
    h = np.maximum(a, 0)
    dropout = mode == "train" and cfg.dropout_p > 0.0 and len(params.blocks) > 0
    keep = 1.0 - cfg.dropout_p
    scale = dtype.type(1) / dtype.type(keep) if dropout else None
    cache, record = ForwardCache(x=x, h=[h], dropout_scale=scale), EncoderRecord(a)
    for blk in params.blocks:
        u = h @ blk.w1 + blk.b1
        r = np.maximum(u, 0)
        if dropout:
            mask = (rng.random(size=r.shape) < keep).astype(dtype) / dtype.type(keep)
            d = r * mask
        else:
            mask, d = None, r
        v = d @ blk.w2 + blk.b2
        h = h + np.maximum(v, 0)
        cache.h.append(h)
        cache.d.append(d)
        cache.v.append(v)
        record.u.append(u)
        record.masks.append(mask)
    return h, cache, record


def reference_backward(params: NetParams, cfg: NetConfig, cache: ForwardCache,
                       record: EncoderRecord, d_z) -> NetParams:
    """``backward`` on whole arrays, reading the ReLU masks from the
    pre-activations ``record.a`` and ``record.u`` and the dropout masks from
    ``record.masks`` instead of from ``d`` and the block inputs."""
    dtype = params.w_head.dtype
    feats = cache.features
    dz = np.asarray(d_z).astype(dtype, copy=False)
    g_w_head, g_b_head = feats.T @ dz, dz.sum(axis=0)
    dh = dz @ params.w_head.T
    if cfg.identity_encoder:
        return NetParams(None, None, (), g_w_head, g_b_head)
    g_blocks = []
    for i in range(len(params.blocks) - 1, -1, -1):
        blk = params.blocks[i]
        dv = dh * (cache.v[i] > 0)
        g_w2 = cache.d[i].T @ dv
        g_b2 = dv.sum(axis=0)
        dd = dv @ blk.w2.T
        mask = record.masks[i]
        dr = dd * mask if mask is not None else dd
        du = dr * (record.u[i] > 0)
        g_w1 = cache.h[i].T @ du
        g_b1 = du.sum(axis=0)
        g_blocks.append(ResidualBlock(g_w1, g_b1, g_w2, g_b2))
        dh = dh + du @ blk.w1.T
    da = dh * (record.a > 0)
    return NetParams(cache.x.T @ da, da.sum(axis=0), tuple(reversed(g_blocks)),
                     g_w_head, g_b_head)


def reference_loss(cfg: LossConfig, y, targets: BatchTargets, y_rand=None, j_prime=None):
    """``(value, dL/dz, dL/dz of y_rand or None)`` of a loss on whole arrays,
    from its closed forms, with new dL/dz arrays in the predictions' dtype.

    A positive entry's dL/dz is ``w (y - 1) / n``, computed in float64 and
    rounded once; an ``an`` absence's is ``y / n`` and an ``me`` absence's
    ``y (1 - y) (log(1 - c) - log c) / n``, both in the dtype, with ``c`` the
    prediction clipped to ``[CLAMP_EPS, 1 - CLAMP_EPS]``, ``n = S B`` for
    full and ``B`` otherwise, and ``w = lam`` for the full positive, else 1.
    Entries a variant does not read get +0. The value takes ``-log c`` of a
    positive in float64 and an absence's terms in the dtype (``me``: its two
    products summed apart), with row sums and the mean in float64."""
    family, selection = cfg.variant.value.split("-")
    b, s = y.shape
    rows, j = np.arange(b), targets.positive_index
    n, w = (s * b, cfg.lam) if selection == "full" else (b, 1.0)

    def absence(p, mask):
        c = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
        if family == "an":
            value = -np.where(mask, np.log1p(-c), 0).sum(axis=1, dtype=np.float64)
            grad = p / n
        else:
            value = -(np.where(mask, c * np.log(c), 0).sum(axis=1, dtype=np.float64)
                      + np.where(mask, (1 - c) * np.log1p(-c), 0).sum(axis=1, dtype=np.float64))
            grad = (1 - p) * p * (np.log1p(-c) - np.log(c)) / n
        return value, np.where(mask, grad, 0)

    def columns(cols):
        mask = np.zeros((b, s), dtype=bool)
        mask[rows, cols] = True
        return mask

    pos = y[rows, j]
    rows_value = -w * np.log(np.clip(pos, CLAMP_EPS, 1.0 - CLAMP_EPS).astype(np.float64))
    if selection == "full":
        value, d_z = absence(y, ~columns(j))
        value_rand, d_z_rand = absence(y_rand, np.ones((b, s), dtype=bool))
        rows_value = (value + value_rand + rows_value) / s
    elif selection == "ssdl":
        value, d_z_rand = absence(y_rand, columns(j))
        rows_value = rows_value + value
        d_z = np.zeros_like(y)
    else:
        value, d_z = absence(y, columns(j_prime))
        rows_value, d_z_rand = rows_value + value, None
    d_z[rows, j] = (pos.astype(np.float64) - 1.0) * w / n
    return float(np.mean(rows_value)), d_z, d_z_rand


def reference_step(params: NetParams, cfg, x, targets, rng_dropout, rng_negatives):
    """One training step's ``(loss value, parameter gradients)`` on whole
    matrices: ``forward`` with every head entry's sigmoid, the dL/dz of
    :func:`reference_loss` on the full batch, then ``backward``, with every
    head product in one block.

    ``cfg`` is a ``TrainConfig``; ``x`` holds the batch rows, then the
    pseudo-location rows when the loss uses them.
    """
    with mock.patch.object(sinr.net, "GEMM_MAX_BLOCKS", 1):
        return _whole_step(params, cfg, x, targets, rng_dropout, rng_negatives)


def _whole_step(params: NetParams, cfg, x, targets, rng_dropout, rng_negatives):
    b = targets.batch_size
    pseudo = needs_pseudo_negatives(cfg.loss.variant)
    _, y_all, cache = forward(params, cfg.net, x, mode="train", rng=rng_dropout,
                              return_cache=True)
    j_prime = None if pseudo else draw_j_prime(targets, rng_negatives)
    value, d_z, d_z_rand = reference_loss(cfg.loss, y_all[:b], targets,
                                          y_all[b:] if pseudo else None, j_prime)
    d_z = np.concatenate([d_z, d_z_rand]) if pseudo else d_z
    return value, backward(params, cfg.net, cache, d_z=d_z)


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
    _, y_all = forward(params, cfg, x_all, mode="eval")
    _, cache, record = reference_encoder(params, cfg, x_all)
    margin = 1e-3
    for arr in [record.a] + record.u + cache.v:
        if np.any(np.abs(arr) < margin):
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


# ---------------------------------------------------------------------------
# Parameter trees and manifests
# ---------------------------------------------------------------------------


def params_close(a: NetParams, b: NetParams, **kwargs) -> bool:
    """True when every corresponding array pair is allclose."""
    fa, fb = a.flat(), b.flat()
    return len(fa) == len(fb) and all(
        x.shape == y.shape and np.allclose(x, y, **kwargs) for x, y in zip(fa, fb)
    )


def cast_params(params: NetParams, dtype) -> NetParams:
    """A copy of ``params`` with every array in ``dtype``."""
    return NetParams.from_flat([a.astype(dtype) for a in params.flat()])


def read_manifest(path) -> dict[str, str]:
    """The ``key=value`` lines of a manifest as a dict."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            out[key] = value
    return out
