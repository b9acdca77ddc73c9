"""Deterministic minibatch training that continues from its own checkpoint.

A run is fully determined by its :class:`TrainConfig`: all randomness
(parameter init, batch draws, pseudo-locations, sampled negative species,
dropout masks) flows from independent generators spawned off the single
``master_seed``, and a checkpoint captures every piece of mutable state.
:func:`train` is the one entry point: handed the checkpoint of an
interrupted run, it continues that run to bit-identical parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    EnvRasterStack,
    ObservationSet,
    assemble_inputs,
    sample_batch,
    sample_uniform_locations,
    subsample_cap,
)
from .geo import InputLayout, input_dim
from .losses import (
    BatchTargets,
    FullLoss,
    LossConfig,
    LossVariant,
    compute_loss,
    draw_j_prime,
    needs_pseudo_negatives,
)
from .net import (
    AdamState,
    ModelFormatError,
    NetConfig,
    NetParams,
    _Reader,
    _write_model,
    _write_params,
    adam_step,
    backward,
    forward,
    init_adam,
    init_params,
    read_model,
)
from .util import atomic_write, errors_named, seed_u64

#: Per-epoch multiplicative learning-rate decay factor.
LR_DECAY = 0.98

_CKPT_MAGIC = b"CKPT"
_CKPT_VERSION = 3


class TrainingDivergedError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""

    def __init__(self, epoch: int, step: int, value: float):
        super().__init__(
            f"non-finite loss {value!r} at epoch {epoch}, step {step}; "
            "training aborted before the parameter update"
        )
        self.epoch = epoch
        self.step = step


class CheckpointFormatError(ModelFormatError):
    """The checkpoint file is malformed or inconsistent."""


def lr_at_epoch(initial_lr: float, epoch: int) -> float:
    """Learning rate for a 0-based epoch: ``initial_lr * LR_DECAY ** epoch``."""
    if not (np.isfinite(initial_lr) and initial_lr > 0):
        raise ValueError(f"initial_lr must be positive and finite, got {initial_lr}")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return initial_lr * LR_DECAY**epoch


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run.

    ``cap_per_species`` (when set) subsamples each species down to at most
    that many records before training, drawn from ``master_seed`` so that the
    retained subset is reproducible and nested across cap values.
    """

    net: NetConfig
    loss: LossConfig
    epochs: int = 10
    batch_size: int = 2048
    initial_lr: float = 5e-4
    master_seed: int = 0
    input_layout: InputLayout = InputLayout.COORDS
    cap_per_species: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.cap_per_species is not None and self.cap_per_species < 1:
            raise ValueError(
                f"cap_per_species must be >= 1 when set, got {self.cap_per_species}"
            )
        object.__setattr__(self, "input_layout", InputLayout(self.input_layout))


@dataclass
class TrainState:
    """Mutable mid-run state; exactly what a checkpoint stores."""

    cfg: TrainConfig
    species_ids: tuple[str, ...]
    params: NetParams
    adam: AdamState
    epochs_done: int
    corpus_sha256: bytes  # of the effective corpus; a continued run refuses other records
    step_losses: list[float] = field(default_factory=list)
    rng_batch: np.random.Generator = None
    rng_locations: np.random.Generator = None
    rng_negatives: np.random.Generator = None
    rng_dropout: np.random.Generator = None


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus the loss of every step that produced them."""

    params: NetParams
    cfg: TrainConfig
    species_ids: tuple[str, ...]
    step_losses: np.ndarray  # float64, epoch after epoch
    n_records_used: int


def _spawn_rngs(master_seed: int) -> list[np.random.Generator]:
    """Four independent streams: batches, pseudo-locations, sampled negative
    species, dropout — in that fixed order."""
    children = np.random.SeedSequence(seed_u64(master_seed)).spawn(4)
    return [np.random.default_rng(c) for c in children]


def _effective_obs(cfg: TrainConfig, obs: ObservationSet) -> ObservationSet:
    """Apply the per-species cap (when set) to the corpus."""
    cap = cfg.cap_per_species
    if cap is None:
        return obs
    return subsample_cap(obs, cap, cfg.master_seed)


def _corpus_sha256(obs: ObservationSet) -> bytes:
    """sha256 of the records a run trains on: species index, lons, lats."""
    digest = hashlib.sha256()
    for arr, dtype in ((obs.species_index, "<i8"), (obs.lons, "<f8"), (obs.lats, "<f8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return digest.digest()


def _check_inputs(cfg: TrainConfig, obs: ObservationSet, env: EnvRasterStack | None) -> None:
    if obs.n_records == 0:
        raise ValueError("cannot train on an empty observation set")
    if obs.n_species != cfg.net.n_species:
        raise ValueError(
            f"model expects {cfg.net.n_species} species but the corpus has {obs.n_species}"
        )
    layout = cfg.input_layout
    if layout is not InputLayout.COORDS and env is None:
        raise ValueError(f"input layout {layout.value!r} requires environmental rasters")
    expected = input_dim(layout, env.n_layers if env is not None else 0)
    if cfg.net.input_dim != expected:
        raise ValueError(
            f"net input_dim {cfg.net.input_dim} does not match layout "
            f"{layout.value!r} (expected {expected})"
        )
    out = env.outside(obs.lons, obs.lats) if layout is not InputLayout.COORDS else ()
    if len(out):
        raise ValueError(f"training records outside the raster extent {env.extent}: "
                         f"{len(out)}, the first at ({obs.lons[out[0]]}, {obs.lats[out[0]]})")


def steps_per_epoch(n_records: int, batch_size: int) -> int:
    """Number of optimizer steps per epoch: ``ceil(n_records / batch_size)``."""
    return math.ceil(n_records / batch_size)


def _pseudo_bounds(env: EnvRasterStack | None, layout: InputLayout):
    if layout is InputLayout.COORDS or env is None:
        return (-180.0, 180.0, -90.0, 90.0)
    # With environmental inputs the model's domain is the raster extent, so
    # pseudo-locations are drawn over it rather than the full globe.
    return (env.lon_min, env.lon_max, env.lat_min, env.lat_max)


def _loss_and_grads(
    state: TrainState, x: np.ndarray, targets: BatchTargets, epoch: int, step: int,
    grads: NetParams | None = None,
) -> tuple[float, NetParams]:
    """Loss value and parameter gradients of one batch; ``x`` holds its rows,
    then any pseudo-location rows. The gradients are written into ``grads``
    (a new tree when None); an ssdl or slds step's head comes back as its
    read columns (:class:`NetParams`). Those steps compute the head only at the
    entries their loss reads (``forward``'s ``read``), so their cost does not
    grow with S: the positive's column at each record and at its
    pseudo-location (ssdl), or the positive's and a drawn negative species'
    (slds); ``compute_loss`` overwrites them with dL/dz. A full step's
    forward runs the encoder alone, and ``backward`` the head block by block
    with :class:`FullLoss`, so no ``(2B, S)`` array is held."""
    cfg = state.cfg
    b, j = targets.batch_size, targets.positive_index
    pseudo = needs_pseudo_negatives(cfg.loss.variant)
    read = np.empty((len(x), 0), dtype=np.int64)  # full: the encoder alone
    if cfg.loss.variant in (LossVariant.AN_SSDL, LossVariant.ME_SSDL):
        read = np.tile(j, 2)[:, None]
    elif not pseudo:  # slds variants draw the negative species of the whole batch in one call
        read = np.stack([j, draw_j_prime(targets, state.rng_negatives)], axis=1)
    _, y_all, cache = forward(state.params, cfg.net, x, rng=state.rng_dropout, return_cache=True,
                              read=read)
    if read.shape[1]:
        value = compute_loss(cfg.loss, y_all[:b], targets, y_hat_rand=y_all[b:] if pseudo else None)
        grads = backward(state.params, cfg.net, cache, d_z=y_all, out=grads)
    else:
        d_z = FullLoss(cfg.loss, targets, state.params.b_head)
        grads = backward(state.params, cfg.net, cache, d_z=d_z, out=grads)
        value = d_z.value()
    if not np.isfinite(value):
        raise TrainingDivergedError(epoch, step, value)
    return value, grads


def _run(
    state: TrainState,
    obs: ObservationSet,
    env: EnvRasterStack | None,
    checkpoint_path=None,
    on_epoch=None,
) -> TrainResult:
    cfg = state.cfg
    n_steps = steps_per_epoch(obs.n_records, cfg.batch_size)
    layout = cfg.input_layout
    pseudo = needs_pseudo_negatives(cfg.loss.variant)
    bounds = _pseudo_bounds(env, layout)
    b = cfg.batch_size
    grads = None  # one gradient tree for the run, written by every step's backward

    for epoch in range(state.epochs_done, cfg.epochs):
        lr = lr_at_epoch(cfg.initial_lr, epoch)
        for step in range(n_steps):
            x, targets = sample_batch(obs, b, layout, state.rng_batch, env)
            if pseudo:
                plons, plats = sample_uniform_locations(b, state.rng_locations, bounds)
                x = np.concatenate([x, assemble_inputs(plons, plats, layout, env)])
            # A diverging step overflows. The finite-loss check and adam_step's
            # finite-gradient and finite-parameter checks report it; numpy's
            # warnings would only print source lines ahead of that error.
            with np.errstate(over="ignore", invalid="ignore"):
                value, grads = _loss_and_grads(state, x, targets, epoch, step, grads)
                adam_step(state.params, grads, state.adam, lr)
            state.step_losses.append(value)
        state.epochs_done = epoch + 1
        if on_epoch is not None:
            on_epoch(epoch, float(np.mean(state.step_losses[-n_steps:])), lr)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state)

    return TrainResult(
        params=state.params,
        cfg=cfg,
        species_ids=state.species_ids,
        step_losses=np.asarray(state.step_losses, dtype=np.float64),
        n_records_used=obs.n_records,
    )


def train(
    cfg: TrainConfig,
    obs: ObservationSet,
    env: EnvRasterStack | None = None,
    *,
    checkpoint_path=None,
    on_epoch=None,
) -> TrainResult:
    """Run training to ``cfg.epochs``; with ``checkpoint_path``, write a
    checkpoint there after every epoch.

    When ``checkpoint_path`` names an existing file, the run it holds
    continues instead of a fresh one. Its configuration must equal ``cfg``,
    and its species catalog, step count and record digest must fit the
    corpus (after ``cap_per_species``); otherwise a ``ValueError`` names the
    file, which is left as it was. With the same corpus and rasters, the
    result is bit-identical to the uninterrupted run.
    ``on_epoch(epoch_index, mean_loss, lr)`` is called as each epoch ends.
    """
    state = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
        with errors_named(checkpoint_path):
            if state.cfg != cfg:
                raise ValueError("checkpoint configuration does not match the expected one")
    obs = _effective_obs(cfg, obs)
    _check_inputs(cfg, obs, env)
    if state is None:
        rngs = _spawn_rngs(cfg.master_seed)
        params = init_params(cfg.net)
        state = TrainState(
            cfg=cfg,
            species_ids=obs.species_ids,
            params=params,
            adam=init_adam(params),
            epochs_done=0,
            corpus_sha256=_corpus_sha256(obs),
            rng_batch=rngs[0],
            rng_locations=rngs[1],
            rng_negatives=rngs[2],
            rng_dropout=rngs[3],
        )
    else:
        with errors_named(checkpoint_path):
            if obs.species_ids != state.species_ids:
                raise ValueError("checkpoint species catalog does not match the corpus")
            n_steps = steps_per_epoch(obs.n_records, cfg.batch_size)
            if len(state.step_losses) != state.epochs_done * n_steps:
                raise ValueError("checkpoint step count does not match the corpus size")
            if _corpus_sha256(obs) != state.corpus_sha256:
                raise ValueError("checkpoint was written for other observation records")
    return _run(state, obs, env, checkpoint_path, on_epoch)


# ---------------------------------------------------------------------------
# Config serialization (checkpoints, manifests)
# ---------------------------------------------------------------------------


def train_config_to_dict(cfg: TrainConfig) -> dict:
    d = asdict(cfg)
    d["loss"]["variant"] = cfg.loss.variant.value
    d["input_layout"] = cfg.input_layout.value
    return d


def train_config_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(
        net=NetConfig(**d["net"]),
        loss=LossConfig(variant=LossVariant(d["loss"]["variant"]), lam=d["loss"]["lam"]),
        epochs=d["epochs"],
        batch_size=d["batch_size"],
        initial_lr=d["initial_lr"],
        master_seed=d["master_seed"],
        input_layout=InputLayout(d["input_layout"]),
        cap_per_species=d["cap_per_species"],
    )


# ---------------------------------------------------------------------------
# Checkpoint file: model blob, then a "CKPT" section with the sha256 of the
# training records, optimizer moments, rng states, loss history, and the full
# TrainConfig.
# ---------------------------------------------------------------------------


def _pack_json(obj) -> bytes:
    raw = json.dumps(obj).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _take_json(r: _Reader):
    (n,) = struct.unpack("<I", r.take(4))
    try:
        return json.loads(r.take(n).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also arrays nested too deep
        raise CheckpointFormatError(f"malformed JSON section: {exc}") from exc


def save_checkpoint(path, state: TrainState) -> None:
    """Write the complete training state, piece by piece and array by array;
    atomic via write-then-rename."""
    cfg = state.cfg
    losses = np.asarray(state.step_losses, dtype=np.float64)
    with atomic_write(path, "wb") as fh:
        _write_model(fh, state.params, cfg.net, cfg.input_layout, state.species_ids)
        fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, state.epochs_done)
                 + state.corpus_sha256 + struct.pack("<Q", state.adam.t))
        _write_params(fh, state.adam.m)
        _write_params(fh, state.adam.v)
        fh.write(struct.pack("<Q", losses.size))
        fh.write(losses)
        for rng in (state.rng_batch, state.rng_locations, state.rng_negatives, state.rng_dropout):
            fh.write(_pack_json(rng.bit_generator.state))
        fh.write(_pack_json(train_config_to_dict(cfg)))


def load_checkpoint(path) -> TrainState:
    with errors_named(path), open(path, "rb") as fh:
        r = _Reader(fh)
        model = read_model(r)
        if r.take(4) != _CKPT_MAGIC:
            raise CheckpointFormatError("missing checkpoint section after model data")
        version, epochs_done = struct.unpack("<II", r.take(8))
        if version != _CKPT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        corpus_sha256 = r.take(32)
        (t,) = struct.unpack("<Q", r.take(8))
        m_tree = r.params(model.cfg)
        v_tree = r.params(model.cfg)
        # NaN fails v >= 0 too; v = +inf is kept: (1 - b2) * g * g overflows float32 at |g| > 5.8e20
        if not all(np.isfinite(m).all() and (v >= 0).all()
                   for m, v in zip(m_tree.flat(), v_tree.flat())):
            raise CheckpointFormatError("optimizer moments must be finite (m) and non-negative (v)")
        (n_losses,) = struct.unpack("<Q", r.take(8))
        losses = np.frombuffer(r.take(8 * n_losses), dtype="<f8").tolist()

        rngs = []
        for _ in range(4):
            rng_state = _take_json(r)
            rng = np.random.default_rng()
            bitgen = rng_state.get("bit_generator") if isinstance(rng_state, dict) else None
            if rng.bit_generator.state["bit_generator"] != bitgen:
                raise CheckpointFormatError(f"unsupported random generator {bitgen!r}")
            try:
                rng.bit_generator.state = rng_state
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise CheckpointFormatError(f"malformed random generator state: {exc!r}") from exc
            rngs.append(rng)

        cfg_dict = _take_json(r)
        try:
            cfg = train_config_from_dict(cfg_dict)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"malformed training configuration: {exc!r}") from exc
        if r.pos != r.size:
            raise CheckpointFormatError(f"{r.size - r.pos} unexpected trailing bytes in checkpoint")
        if model.cfg != cfg.net or model.input_layout is not cfg.input_layout:
            raise CheckpointFormatError("model section disagrees with the training configuration")
        if epochs_done > cfg.epochs:
            raise CheckpointFormatError("checkpoint claims more epochs than configured")
        if t != len(losses):  # each step records one loss and one optimizer update
            raise CheckpointFormatError("loss history disagrees with the optimizer step count")
    return TrainState(
        cfg=cfg,
        species_ids=model.species_ids,
        params=model.params,
        adam=AdamState(m=m_tree, v=v_tree, t=int(t)),
        epochs_done=int(epochs_done),
        corpus_sha256=corpus_sha256,
        step_losses=losses,
        rng_batch=rngs[0],
        rng_locations=rngs[1],
        rng_negatives=rngs[2],
        rng_dropout=rngs[3],
    )
