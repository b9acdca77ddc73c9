"""Deterministic training loop, learning-rate schedule, divergence handling,
and checkpoint/resume bit-exactness."""

import dataclasses
import importlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinr.net
import sinr.parallel
from helpers import (
    cast_params,
    composed_loss,
    fd_grads,
    gather_gradcheck_setups,
    hand_off_to_a_pool_thread,
    max_rel_error,
    random_obs,
    reference_checkpoint_bytes,
    reference_model_bytes,
    reference_step,
)
from sinr.data import (
    ObservationSet,
    assemble_inputs,
    load_env_rasters,
    subsample_cap,
    write_env_raster,
)
from sinr.geo import InputLayout
from sinr.losses import (
    BatchTargets,
    LossConfig,
    LossVariant,
    draw_j_prime,
    needs_pseudo_negatives,
)
from sinr.net import (
    AdamState,
    ModelFormatError,
    NetConfig,
    encoder_tiles,
    forward,
    gemm_blocks,
    init_adam,
    init_params,
    model_from_bytes,
    model_to_bytes,
    params_equal,
    save_model,
)
from sinr.parallel import row_chunks
from sinr.train import (
    LR_DECAY,
    CheckpointFormatError,
    TrainConfig,
    TrainingDivergedError,
    TrainState,
    _loss_and_grads,
    load_checkpoint,
    lr_at_epoch,
    resume,
    save_checkpoint,
    steps_per_epoch,
    train,
    train_config_from_dict,
    train_config_to_dict,
)


def small_cfg(**over) -> TrainConfig:
    defaults = dict(
        net=NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=1,
                      dropout_p=0.5, seed=1),
        loss=LossConfig(LossVariant.AN_FULL, lam=64.0),
        epochs=4,
        batch_size=16,
        initial_lr=5e-4,
        master_seed=7,
    )
    defaults.update(over)
    return TrainConfig(**defaults)


@pytest.fixture
def obs():
    return random_obs(np.random.default_rng(1), n_species=3, n_records=50)


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_values():
    assert lr_at_epoch(5e-4, 0) == 5e-4
    # reference: decay applied once per completed epoch, accumulated stepwise
    expected = 5e-4
    for _ in range(9):
        expected *= LR_DECAY
    assert abs(lr_at_epoch(5e-4, 9) - expected) < 1e-18
    assert abs(lr_at_epoch(5e-4, 9) - 4.1687388106507485e-4) < 1e-12


def test_lr_schedule_monotone_non_increasing():
    lrs = [lr_at_epoch(1e-3, e) for e in range(200)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(lr > 0 for lr in lrs)


def test_steps_per_epoch_ceiling():
    assert steps_per_epoch(10, 3) == 4
    assert steps_per_epoch(9, 3) == 3
    assert steps_per_epoch(1, 2048) == 1
    assert steps_per_epoch(2049, 2048) == 2


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        small_cfg(epochs=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        small_cfg(batch_size=0)
    with pytest.raises(ValueError):
        small_cfg(cap_per_species=0)
    assert small_cfg(input_layout="env+coords").input_layout is InputLayout.ENV_PLUS_COORDS
    assert small_cfg().cap_per_species is None


def test_train_config_dict_round_trip():
    cfg = small_cfg(input_layout=InputLayout.ENV_PLUS_COORDS, cap_per_species=3)
    assert train_config_from_dict(train_config_to_dict(cfg)) == cfg


def test_env_layout_requires_rasters(obs):
    cfg = small_cfg(
        net=NetConfig(input_dim=1, n_species=3, identity_encoder=True, dropout_p=0.0),
        input_layout=InputLayout.ENV,
    )
    with pytest.raises(ValueError, match="environmental rasters"):
        train(cfg, obs)


def test_input_dim_must_match_layout(obs):
    cfg = small_cfg(net=NetConfig(input_dim=3, n_species=3, hidden_dim=8,
                                  n_residual_layers=1, dropout_p=0.0))
    with pytest.raises(ValueError, match="input_dim"):
        train(cfg, obs)


def test_species_count_must_match(obs):
    cfg = small_cfg(net=NetConfig(input_dim=4, n_species=7, hidden_dim=8,
                                  n_residual_layers=1, dropout_p=0.0))
    with pytest.raises(ValueError, match="species"):
        train(cfg, obs)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_training_is_deterministic(obs):
    cfg = small_cfg()
    a = train(cfg, obs)
    b = train(cfg, obs)
    assert params_equal(a.params, b.params)
    assert a.log.step_losses.tobytes() == b.log.step_losses.tobytes()
    assert a.adam.t == b.adam.t
    assert model_to_bytes(a.params, cfg.net) == model_to_bytes(b.params, cfg.net)


def test_master_seed_changes_the_run(obs):
    a = train(small_cfg(), obs)
    b = train(small_cfg(master_seed=8), obs)
    assert not params_equal(a.params, b.params)


def test_log_shape_and_epoch_means(obs):
    cfg = small_cfg()
    result = train(cfg, obs)
    n_steps = steps_per_epoch(obs.n_records, cfg.batch_size)
    assert result.log.steps_per_epoch == n_steps
    assert len(result.log.step_losses) == n_steps * cfg.epochs
    means = result.log.epoch_means()
    assert means.shape == (cfg.epochs,)
    np.testing.assert_allclose(
        means[0], result.log.step_losses[:n_steps].mean(), rtol=1e-12
    )
    assert result.n_records_used == obs.n_records


def test_on_epoch_callback(obs):
    cfg = small_cfg()
    seen = []
    result = train(cfg, obs, on_epoch=lambda e, loss, lr: seen.append((e, loss, lr)))
    assert [e for e, _, _ in seen] == list(range(cfg.epochs))
    np.testing.assert_allclose([m for _, m, _ in seen], result.log.epoch_means(), rtol=1e-12)
    np.testing.assert_allclose(
        [lr for _, _, lr in seen],
        [lr_at_epoch(cfg.initial_lr, e) for e in range(cfg.epochs)],
        rtol=1e-15,
    )


def test_sampler_cap_is_applied(obs):
    cfg = small_cfg(cap_per_species=5)
    result = train(cfg, obs)
    assert result.n_records_used == int(np.minimum(obs.counts(), 5).sum())
    # The cap draws its subsample from master_seed.
    capped = subsample_cap(obs, 5, cfg.master_seed)
    uncapped_run = train(dataclasses.replace(cfg, cap_per_species=None), capped)
    assert params_equal(result.params, uncapped_run.params)


def test_divergence_aborts_with_step_position(obs):
    cfg = small_cfg(initial_lr=1e25, epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="step") as exc_info:
            train(cfg, obs)
    assert exc_info.value.epoch == 0
    assert exc_info.value.step >= 1


# ---------------------------------------------------------------------------
# Pseudo-negative accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant,consumes",
    [(LossVariant.AN_SSDL, True), (LossVariant.AN_FULL, True),
     (LossVariant.AN_SLDS, False), (LossVariant.ME_SLDS, False)],
)
def test_pseudo_location_stream_usage(tmp_path, obs, variant, consumes):
    """SSDL/FULL runs draw one pseudo-location per batch element; SLDS runs
    must leave the location stream untouched."""
    cfg = small_cfg(loss=LossConfig(variant, lam=64.0), epochs=1)
    ckpt = tmp_path / "state.ckpt"
    train(cfg, obs, checkpoint_path=ckpt)
    state = load_checkpoint(ckpt)
    fresh = np.random.SeedSequence(cfg.master_seed).spawn(4)[1]
    untouched = np.random.default_rng(fresh).bit_generator.state
    moved = state.rng_locations.bit_generator.state != untouched
    assert moved is consumes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", [LossVariant.AN_FULL, LossVariant.ME_FULL])
def test_row_blocked_step_matches_the_whole_matrix_step(monkeypatch, variant, dtype):
    """A full loss's head products run over row and column blocks, and its
    bias, sigmoid, loss and dL/dz over row chunks, on 1, 2 or 3 workers; its
    loss value and gradients must have the bits of the whole-matrix
    composition.

    The blocks here hold at least 20 rows x 1,000 species over 64 features,
    or all rows x at least 96 species. OpenBLAS runs an SGEMM of
    M*N*K <= 1e6 on another kernel, with other rounding; these blocks have
    M*N*K > 1.28e6, so each gets the kernel, and so the bits, of the whole
    product. DGEMM blocks of this shape match the whole product too. The
    chunks hold 7 rows."""
    b, s = 105, 1000
    cfg = small_cfg(
        net=NetConfig(input_dim=4, n_species=s, hidden_dim=64, n_residual_layers=2, seed=2),
        loss=LossConfig(variant, lam=50.0),
        batch_size=b,
    )
    params = cast_params(init_params(cfg.net), dtype)
    rng = np.random.default_rng(9)
    n_rows = 2 * b if needs_pseudo_negatives(variant) else b
    x = rng.uniform(-1.0, 1.0, (n_rows, cfg.net.input_dim))
    targets = BatchTargets(rng.integers(0, s, b), s)
    want_value, want = reference_step(
        params, cfg, x, targets, np.random.default_rng(1), np.random.default_rng(2)
    )

    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "1")
    monkeypatch.setattr(sinr.net, "GEMM_BLOCK_MACS", 20 * s * 64)
    assert len(gemm_blocks(n_rows, s * 64)) >= 5 and len(gemm_blocks(s, n_rows * 64)) >= 5
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 7 * s)
    assert len(row_chunks(b, s)) == 15
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sinr.parallel, "worker_count", lambda: workers)
            handed_off = [hand_off_to_a_pool_thread(m, module, attr) for module, attr in
                          (("sinr.net", "_sigmoid"), ("sinr.losses", "_loss_rows"))
                          if workers > 1]
            state = TrainState(
                cfg, tuple(map(str, range(s))), params, init_adam(params), 0, b"",
                rng_dropout=np.random.default_rng(1), rng_negatives=np.random.default_rng(2),
            )
            value, got = _loss_and_grads(state, x, targets, 0, 0)
        assert all(event.is_set() for event in handed_off)
        assert struct.pack("<d", value) == struct.pack("<d", want_value)
        for name, g, w in zip(want.names(), got.flat(), want.flat()):
            assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes(), name


READ_VARIANTS = [LossVariant.AN_SSDL, LossVariant.ME_SSDL, LossVariant.AN_SLDS,
                 LossVariant.ME_SLDS]

# (batch size, species, positive species of the batch), over 64 features.
READ_CASES = {
    "one-species": (125, 1000, [7]),  # every entry of a step in one or two columns
    "two-species": (300, 50, [3, 40]),
    "many-species": (1000, 3000, range(0, 3000, 7)),
}


def _step_state(cfg, params) -> TrainState:
    return TrainState(
        cfg, tuple(map(str, range(cfg.net.n_species))), params, init_adam(params), 0, b"",
        rng_dropout=np.random.default_rng(1), rng_negatives=np.random.default_rng(2),
    )


def _read_step(cfg, params, x, targets):
    return _loss_and_grads(_step_state(cfg, params), x, targets, 0, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(READ_CASES))
@pytest.mark.parametrize("variant", READ_VARIANTS)
def test_read_head_step_matches_the_dense_step(monkeypatch, variant, case, dtype):
    """ssdl and slds steps compute the head only at the entries their loss
    reads, as row-wise dot products. In float64 their loss value and every
    gradient agree with the whole-matrix step (``reference_step``: every
    head entry, dL/dz +0 where unread, the dense GEMMs) within 1e-12
    relative; in float32 within 1e-4. Their bytes do not depend on the
    workers (1, 2, 3), the row chunks (the default, or 700 entries: 10 ssdl
    or 5 slds rows of the read head at H=64), or the encoder tiles."""
    b, s, species = READ_CASES[case]
    pseudo = needs_pseudo_negatives(variant)
    cfg = small_cfg(
        net=NetConfig(input_dim=4, n_species=s, hidden_dim=64, n_residual_layers=2, seed=2),
        loss=LossConfig(variant),
        batch_size=b,
    )
    params = cast_params(init_params(cfg.net), dtype)
    params = dataclasses.replace(params, b_head=np.linspace(-1, 1, s).astype(dtype))
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, (2 * b if pseudo else b, cfg.net.input_dim))
    j = rng.choice(list(species), b)
    j[: len(species)] = list(species)  # every listed species occurs
    targets = BatchTargets(j, s)
    want_value, want = reference_step(
        params, cfg, x, targets, np.random.default_rng(1), np.random.default_rng(2)
    )

    got = {}
    for workers, chunk, split in [(1, sinr.parallel.CHUNK_ENTRIES, False), (2, 700, True),
                                  (3, 700, True), (2, sinr.parallel.CHUNK_ENTRIES, False)]:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sinr.parallel, "worker_count", lambda: workers)
            m.setattr(sinr.parallel, "CHUNK_ENTRIES", chunk)
            if split:
                m.setattr(sinr.net, "BLAS_PINNED", "1")
                m.setattr(sinr.net, "GEMM_BLOCK_MACS", 20 * 64 * 64)
                assert len(encoder_tiles(len(x), 64)) >= 4
            value, grads = _read_step(cfg, params, x, targets)
        got[workers, chunk] = struct.pack("<d", value), [g.tobytes() for g in grads.flat()]
    assert all(g == got[1, sinr.parallel.CHUNK_ENTRIES] for g in got.values())

    tolerance = 1e-12 if dtype == np.float64 else 1e-4
    assert abs(value - want_value) <= tolerance * abs(want_value)
    for name, g, w in zip(want.names(), grads.flat(), want.flat()):
        assert g.dtype == w.dtype == dtype, name
    assert max_rel_error(grads, want) < tolerance


@pytest.mark.parametrize("variant", READ_VARIANTS)
def test_read_head_step_gradients_match_finite_differences(variant):
    """float64, dropout off, tiny networks: the gradients of a training
    step that computes the head only at the entries its loss reads match
    central differences of the same objective (the dense forward, the
    loss at those entries, the same pseudo-locations and negative species)
    to 1e-6 relative."""
    for cfg, params, x_all, b, targets, _, _ in gather_gradcheck_setups(3, start_seed=2000):
        if cfg.n_species < 2 and not needs_pseudo_negatives(variant):
            continue
        x = x_all if needs_pseudo_negatives(variant) else x_all[:b]
        train_cfg = small_cfg(net=cfg, loss=LossConfig(variant), batch_size=b)
        j_prime = None
        if not needs_pseudo_negatives(variant):
            j_prime = draw_j_prime(targets, np.random.default_rng(2))

        def objective(p):
            return composed_loss(p, cfg, x, b, variant, targets, 1.0, j_prime)

        _, analytic = _read_step(train_cfg, params, x, targets)
        assert max_rel_error(analytic, fd_grads(objective, params)) < 1e-6


@pytest.mark.parametrize("variant", [LossVariant.AN_SSDL, LossVariant.AN_SLDS])
def test_read_head_step_does_not_scale_with_species(variant):
    """At S=50,000, H=16, one block and a batch of 64, the traced peak of a
    step stays below 2 head-sized (H x S float32) arrays plus 1 MiB: the
    dense head gradient it returns, and nothing of the batch's width times
    S (an slds step that built its 64 x 50,000 head output peaked above
    that)."""
    s, h, b = 50_000, 16, 64
    cfg = small_cfg(net=NetConfig(input_dim=4, n_species=s, hidden_dim=h, n_residual_layers=1,
                                  seed=3),
                    loss=LossConfig(variant), batch_size=b)
    params = init_params(cfg.net)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (2 * b if needs_pseudo_negatives(variant) else b, 4))
    targets = BatchTargets(rng.integers(0, s, b), s)
    state = _step_state(cfg, params)
    tracemalloc.start()
    try:
        _loss_and_grads(state, x, targets, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * h * s * 4 + 2**20


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def test_resume_matches_uninterrupted_run(tmp_path, obs):
    cfg = small_cfg(epochs=5)
    straight = train(cfg, obs)

    ckpt = tmp_path / "run.ckpt"
    partial = train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=2)
    assert len(partial.log.step_losses) == 2 * partial.log.steps_per_epoch
    finished = resume(ckpt, obs, expect_cfg=cfg)

    assert params_equal(straight.params, finished.params)
    assert straight.log.step_losses.tobytes() == finished.log.step_losses.tobytes()
    assert straight.adam.t == finished.adam.t
    assert model_to_bytes(straight.params, cfg.net) == model_to_bytes(finished.params, cfg.net)


def test_resume_from_every_epoch_boundary(tmp_path, obs):
    cfg = small_cfg(epochs=3)
    straight = train(cfg, obs)
    for stop in (1, 2, 3):
        ckpt = tmp_path / f"stop{stop}.ckpt"
        train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=stop)
        finished = resume(ckpt, obs)
        assert params_equal(straight.params, finished.params), stop


def test_checkpoint_roundtrips_optimizer_state(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "state.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    state = load_checkpoint(ckpt)
    assert state.epochs_done == 1
    assert state.cfg == cfg
    assert state.adam.t == steps_per_epoch(obs.n_records, cfg.batch_size)
    save_checkpoint(tmp_path / "again.ckpt", state)
    state2 = load_checkpoint(tmp_path / "again.ckpt")
    assert params_equal(state.params, state2.params)
    assert params_equal(state.adam.m, state2.adam.m)
    assert params_equal(state.adam.v, state2.adam.v)
    assert state.rng_batch.bit_generator.state == state2.rng_batch.bit_generator.state
    assert state.rng_dropout.bit_generator.state == state2.rng_dropout.bit_generator.state


def test_checkpoint_is_written_array_by_array(tmp_path):
    """At H=256, S=4,000 and 4 blocks (an 18 MiB file), ``save_checkpoint``
    writes the bytes of joining every piece into one blob, and its traced
    peak stays below a tenth of the file: no array is copied to bytes and
    the file is never held whole. Copying the head weights alone would add
    4 MB, and joining peaked at twice the file."""
    cfg = small_cfg(net=NetConfig(input_dim=4, n_species=4000, hidden_dim=256,
                                  n_residual_layers=4, seed=3))
    params = init_params(cfg.net)
    rng = np.random.default_rng(4)
    m, v = (dataclasses.replace(params, **{  # distinct moment trees
        name: rng.standard_normal(getattr(params, name).shape).astype(np.float32)
        for name in ("w_head", "b_head")}) for _ in range(2))
    state = TrainState(
        cfg, tuple(f"sp{i}" for i in range(4000)), params, AdamState(m, v, t=40), 2,
        bytes(range(32)), step_losses=rng.random(40).tolist(),
        rng_batch=np.random.default_rng(1), rng_locations=np.random.default_rng(2),
        rng_negatives=np.random.default_rng(3), rng_dropout=np.random.default_rng(4),
    )
    path = tmp_path / "run.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blob = path.read_bytes()
    assert blob == reference_checkpoint_bytes(state)
    assert len(blob) > 17 * 2**20 and peak < len(blob) / 10
    save_model(params, cfg.net, tmp_path / "run.model", species_ids=state.species_ids)
    want = reference_model_bytes(params, cfg.net, InputLayout.COORDS, state.species_ids)
    assert (tmp_path / "run.model").read_bytes() == want
    assert model_to_bytes(params, cfg.net, species_ids=state.species_ids) == want
    assert blob.startswith(want)


def test_loading_a_checkpoint_reads_each_array_into_place(tmp_path):
    """At S=10,000, H=256 and 4 blocks (a 35.5 MiB file), ``load_checkpoint``
    reads each array of its three parameter trees straight from the file
    into its buffer, so its traced peak stays below 1.25x the file. Reading
    the whole file into bytes first and copying each block out of it peaked
    at 2.02x."""
    cfg = small_cfg(net=NetConfig(input_dim=4, n_species=10_000, hidden_dim=256,
                                  n_residual_layers=4, seed=3))
    params = init_params(cfg.net)
    state = TrainState(
        cfg, tuple(f"sp{i}" for i in range(10_000)), params, init_adam(params), 0,
        bytes(range(32)), rng_batch=np.random.default_rng(1),
        rng_locations=np.random.default_rng(2), rng_negatives=np.random.default_rng(3),
        rng_dropout=np.random.default_rng(4),
    )
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, state)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params_equal(loaded.params, params) and loaded.species_ids == state.species_ids
    assert params_equal(loaded.adam.m, state.adam.m) and params_equal(loaded.adam.v, state.adam.v)
    size = path.stat().st_size
    assert size > 35 * 2**20 and peak < 1.25 * size, peak / size


def test_species_catalog_is_written_in_pieces(tmp_path, monkeypatch):
    """``save_model`` with a 50,000-id catalog writes the joined reference
    bytes while its traced peak stays below 1 MiB: the catalog goes out in
    pieces of about ``CATALOG_PIECE_BYTES``, never as two bytes objects per
    id joined whole (13.1 MiB). Pieces of 7 bytes, which end inside ids and
    length fields, give the same bytes."""
    s = 50_000
    cfg = NetConfig(input_dim=4, n_species=s, hidden_dim=2, n_residual_layers=1, seed=3)
    params = init_params(cfg)
    ids = tuple(f"sp{i}" + "\u00e9" * (i % 5) for i in range(s))
    want = reference_model_bytes(params, cfg, InputLayout.ENV, ids)
    path = tmp_path / "big.sinr"
    tracemalloc.start()
    try:
        save_model(params, cfg, path, input_layout=InputLayout.ENV, species_ids=ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == want
    assert peak < 2**20, peak
    monkeypatch.setattr(sinr.net, "CATALOG_PIECE_BYTES", 7)
    assert model_to_bytes(params, cfg, InputLayout.ENV, ids) == want


def test_resume_rejects_mismatched_config(tmp_path, obs):
    cfg = small_cfg(epochs=3)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: checkpoint configuration"):
        resume(ckpt, obs, expect_cfg=small_cfg(epochs=3, master_seed=99))


def test_resume_rejects_mismatched_corpus(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    renamed = ObservationSet(
        ("x", "y", "z"), obs.species_index, obs.lons, obs.lats
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: checkpoint species catalog"):
        resume(ckpt, renamed)


def test_checkpoint_rejects_corruption(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    blob = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob + b"tail")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(bad)
    bad.write_bytes(blob[: len(blob) - 8])
    with pytest.raises(ModelFormatError):  # truncation keeps its dedicated type
        load_checkpoint(bad)
    bad.write_bytes(b"\x00" + blob[1:])  # corrupt the model magic
    with pytest.raises(ModelFormatError):
        load_checkpoint(bad)
    at = model_from_bytes(blob)[1] + 4  # the version field after the "CKPT" magic
    bad.write_bytes(blob[:at] + struct.pack("<I", 2) + blob[at + 4 :])
    with pytest.raises(CheckpointFormatError, match="version 2"):
        load_checkpoint(bad)  # a version-2 file holds its configuration in another layout
    for moment, value in (("m", np.nan), ("m", -np.inf), ("v", -1.0), ("v", np.nan)):
        state = load_checkpoint(ckpt)
        getattr(state.adam, moment).w_head[0, 0] = value
        save_checkpoint(bad, state)
        with pytest.raises(CheckpointFormatError, match="optimizer moments"):
            load_checkpoint(bad)
    state = load_checkpoint(ckpt)  # (1 - b2) * g * g overflows float32 for finite |g| > 5.8e20
    state.adam.v.w_head[0, 0] = np.inf
    save_checkpoint(bad, state)
    assert params_equal(load_checkpoint(bad).adam.v, state.adam.v)


def _replace_config_section(blob: bytes, cfg: TrainConfig, section: bytes) -> bytes:
    """The training configuration is the checkpoint's final length-prefixed
    JSON section; swap in ``section``."""
    raw = json.dumps(train_config_to_dict(cfg)).encode("utf-8")
    assert blob.endswith(struct.pack("<I", len(raw)) + raw)
    return blob[: len(blob) - len(raw) - 4] + struct.pack("<I", len(section)) + section


def test_checkpoint_config_errors_are_format_errors(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    blob = ckpt.read_bytes()
    no_input_dim = train_config_to_dict(cfg)
    del no_input_dim["net"]["input_dim"]
    no_epochs = train_config_to_dict(cfg)
    del no_epochs["epochs"]
    sections = [json.dumps(d).encode() for d in (no_input_dim, no_epochs)]
    sections += [b"{not json", b"\xff\xfe", b"[1, 2]"]
    bad = tmp_path / "bad.ckpt"
    for section in sections:
        bad.write_bytes(_replace_config_section(blob, cfg, section))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)


def test_checkpoint_step_history_is_cross_checked(tmp_path, obs):
    cfg = small_cfg(epochs=3)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=2)
    state = load_checkpoint(ckpt)
    bad = tmp_path / "bad.ckpt"

    state.adam = dataclasses.replace(state.adam, t=state.adam.t + 1)
    save_checkpoint(bad, state)
    with pytest.raises(CheckpointFormatError, match="step count"):
        load_checkpoint(bad)

    state.step_losses.append(0.5)  # t matches again, but the epochs are uneven
    save_checkpoint(bad, state)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: checkpoint step count"):
        resume(bad, obs)


def test_resume_rejects_a_corpus_of_another_size(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    bigger = random_obs(np.random.default_rng(1), n_species=3, n_records=90)
    assert bigger.species_ids == obs.species_ids
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: checkpoint step count"):
        resume(ckpt, bigger)


def test_resume_rejects_other_records_of_the_same_catalog_and_size(tmp_path, obs):
    cfg = small_cfg(epochs=2)
    ckpt = tmp_path / "run.ckpt"
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    moved = dataclasses.replace(obs, lons=obs.lons[::-1].copy())
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: checkpoint was written for "
                                         "other observation records$"):
        resume(ckpt, moved)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A checkpoint of a tiny run, its model prefix, and a scratch file path."""
    cfg = small_cfg(
        epochs=2,
        net=NetConfig(input_dim=4, n_species=3, hidden_dim=2, n_residual_layers=1, seed=1),
    )
    ckpt = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    obs = random_obs(np.random.default_rng(1), n_species=3, n_records=20)
    train(cfg, obs, checkpoint_path=ckpt, stop_after_epoch=1)
    blob = ckpt.read_bytes()
    return blob, model_from_bytes(blob)[1], ckpt


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    data=st.data(),
    which=st.sampled_from(["model", "checkpoint"]),
)
def test_corrupted_files_raise_only_format_errors(small_checkpoint, data, which):
    blob, model_len, path = small_checkpoint
    if which == "model":
        blob = blob[:model_len]
    cut = data.draw(st.just(len(blob)) | st.integers(0, len(blob)), label="cut")
    buf = bytearray(blob[:cut])
    if buf:
        flips = data.draw(st.lists(st.integers(0, 8 * len(buf) - 1), max_size=3), label="flips")
        for bit in flips:
            buf[bit // 8] ^= 1 << (bit % 8)
    try:
        if which == "model":
            model_from_bytes(bytes(buf))
        else:
            path.write_bytes(bytes(buf))
            load_checkpoint(path)
    except ModelFormatError:
        pass


def test_stop_after_epoch_validation(obs):
    cfg = small_cfg(epochs=3)
    with pytest.raises(ValueError):
        train(cfg, obs, stop_after_epoch=0)
    with pytest.raises(ValueError):
        train(cfg, obs, stop_after_epoch=4)


# ---------------------------------------------------------------------------
# A linearly separable toy converges (identity encoder = logistic regression)
# ---------------------------------------------------------------------------


def test_identity_encoder_converges_on_separable_toy(tmp_path):
    rows, cols = 18, 36
    write_env_raster(
        tmp_path / "lat.env",
        np.repeat(np.linspace(9.0, -9.0, rows)[:, None], cols, axis=1),
        (-180.0, 180.0, -90.0, 90.0),
    )
    stack = load_env_rasters([tmp_path / "lat.env"])

    rng = np.random.default_rng(3)
    n = 2000
    north = rng.integers(0, 2, n).astype(bool)
    lats = np.where(north, rng.uniform(15, 80, n), rng.uniform(-80, -15, n))
    obs = ObservationSet(
        ("boreal", "austral"),
        np.where(north, 0, 1).astype(np.int64),
        rng.uniform(-170, 170, n),
        lats,
    )
    cfg = TrainConfig(
        net=NetConfig(input_dim=1, n_species=2, identity_encoder=True,
                      dropout_p=0.0, seed=2),
        loss=LossConfig(LossVariant.AN_SLDS),
        epochs=10,
        batch_size=32,
        initial_lr=1e-2,
        master_seed=11,
        input_layout=InputLayout.ENV,
    )
    result = train(cfg, obs, stack)
    x = assemble_inputs(obs.lons, obs.lats, InputLayout.ENV, stack)
    _, y = forward(result.params, cfg.net, x)
    accuracy = float(np.mean(np.argmax(y, axis=1) == obs.species_index))
    assert accuracy > 0.99
