"""Residual coordinate network: forward/backward correctness, initialization,
dropout semantics, the Adam optimizer, and the binary model file format."""

import dataclasses
import io
import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest

import sinr.net
import sinr.parallel
from helpers import (
    cast_params,
    composed_grads,
    composed_loss,
    fd_grads,
    gather_gradcheck_setups,
    max_rel_error,
    params_close,
    reference_adam_step,
    reference_backward,
    reference_encoder,
    reference_init_params,
    reference_sigmoid,
)
from sinr.geo import InputLayout
from sinr.losses import BatchTargets, LossVariant
from sinr.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    BadMagicError,
    ModelFormatError,
    NetConfig,
    NetParams,
    NonFiniteGradientError,
    TruncatedFileError,
    UnsupportedVersionError,
    _Reader,
    _sigmoid,
    adam_step,
    backward,
    encoder_tiles,
    forward,
    gemm_blocks,
    head_columns,
    init_adam,
    init_params,
    model_from_bytes,
    model_to_bytes,
    param_shapes,
    params_equal,
    read_model,
    read_model_file,
    save_model,
    zeros_like_params,
)


def f64_params(cfg: NetConfig):
    p = init_params(cfg)
    return NetParams.from_flat([a.astype(np.float64) for a in p.flat()])


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(LossVariant))
def test_analytic_gradients_match_finite_differences(variant):
    for cfg, params, x_all, b, targets, lam, j_prime in gather_gradcheck_setups(
        3, start_seed=1000
    ):
        if variant in (LossVariant.AN_SLDS, LossVariant.ME_SLDS):
            if cfg.n_species < 2:
                continue
            x_used = x_all[:b]
        else:
            x_used = x_all

        def objective(p):
            return composed_loss(p, cfg, x_used, b, variant, targets, lam, j_prime)

        analytic = composed_grads(params, cfg, x_used, b, variant, targets, lam, j_prime)
        numeric = fd_grads(objective, params)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-6, (variant, err)


def test_head_bias_gradient_closed_form():
    """For the objective sum(y_hat), each head bias gets the batch sum of
    y*(1-y) for its species — the sigmoid derivative alone."""
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=2,
                    dropout_p=0.0, seed=5)
    params = f64_params(cfg)
    x = np.random.default_rng(2).uniform(-1, 1, (6, 4))
    _, y, cache = forward(params, cfg, x, mode="eval", return_cache=True)
    grads = backward(params, cfg, cache, d_z=y * (1 - y))
    np.testing.assert_allclose(grads.b_head, (y * (1 - y)).sum(axis=0), rtol=1e-12)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_is_deterministic_and_seed_sensitive():
    cfg = NetConfig(input_dim=4, n_species=5, hidden_dim=16, n_residual_layers=2, seed=42)
    assert params_equal(init_params(cfg), init_params(cfg))
    other = NetConfig(input_dim=4, n_species=5, hidden_dim=16, n_residual_layers=2, seed=43)
    assert not params_equal(init_params(cfg), init_params(other))


def test_init_distribution():
    cfg = NetConfig(input_dim=4, n_species=10, hidden_dim=256, n_residual_layers=2, seed=0)
    params = init_params(cfg)
    assert all(a.dtype == np.float32 for a in params.flat())
    assert np.all(params.b_in == 0) and np.all(params.b_head == 0)
    for blk in params.blocks:
        assert np.all(blk.b1 == 0) and np.all(blk.b2 == 0)
        for w in (blk.w1, blk.w2):
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.abs(w).max() <= bound
            # uniform(-bound, bound) has sd bound/sqrt(3); 65536 draws pin it tightly
            assert abs(w.std() - bound / np.sqrt(3)) < 0.05 * bound
    assert np.abs(params.w_in).max() <= 1.0 / np.sqrt(cfg.input_dim)


def test_param_shapes_match_init():
    for cfg in (
        NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=0),
        NetConfig(input_dim=6, n_species=2, hidden_dim=5, n_residual_layers=3),
        NetConfig(input_dim=7, n_species=4, identity_encoder=True),
    ):
        assert [a.shape for a in init_params(cfg).flat()] == param_shapes(cfg)


def test_init_has_the_bits_of_the_layer_by_layer_draws():
    """Walking ``param_shapes`` draws what drawing layer by layer draws, over
    648 configurations: identity encoder on and off, 0/1/4 blocks, three input
    widths, hidden widths and species counts, and seeds 0, 5, -3 and 2^63-1."""
    n = 0
    for identity, blocks, d, h, s, seed in itertools.product(
        (False, True), (0, 1, 4), (4, 6, 26), (1, 16, 256), (1, 3, 1000), (0, 5, -3, 2**63 - 1)
    ):
        cfg = NetConfig(input_dim=d, n_species=s, hidden_dim=h, n_residual_layers=blocks,
                        seed=seed, identity_encoder=identity)
        got, want = init_params(cfg).flat(), reference_init_params(cfg).flat()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        n += 1
    assert n == 648


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------


def test_zeroed_second_linear_makes_blocks_identity():
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=8, n_residual_layers=3,
                    dropout_p=0.0, seed=7)
    params = init_params(cfg)
    flat = params.flat()
    # zero every block's second linear: out = h + relu(0) = h
    new_flat = list(flat)
    for i in range(len(params.blocks)):
        base = 2 + 4 * i
        new_flat[base + 2] = np.zeros_like(flat[base + 2])  # w2
        new_flat[base + 3] = np.zeros_like(flat[base + 3])  # b2
    zeroed = NetParams.from_flat(new_flat)
    x = np.random.default_rng(0).uniform(-1, 1, (5, 4)).astype(np.float32)
    h, y = forward(zeroed, cfg, x)
    a = x @ params.w_in + params.b_in
    expected_h = np.maximum(a, 0)
    np.testing.assert_allclose(h, expected_h, atol=1e-6)
    z = expected_h @ params.w_head + params.b_head
    np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(-z.astype(np.float64))), atol=1e-6)


def test_identity_encoder_is_logistic_regression():
    cfg = NetConfig(input_dim=5, n_species=3, identity_encoder=True, dropout_p=0.0, seed=1)
    params = f64_params(cfg)
    assert params.w_in is None and params.blocks == ()
    x = np.random.default_rng(4).uniform(-2, 2, (7, 5))
    h, y = forward(params, cfg, x)
    np.testing.assert_array_equal(h, x)
    z = x @ params.w_head + params.b_head
    np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)
    # closed-form logistic-regression gradient
    _, _, cache = forward(params, cfg, x, return_cache=True)
    d_y = np.random.default_rng(5).uniform(-1, 1, y.shape)
    dz = d_y * y * (1 - y)
    grads = backward(params, cfg, cache, d_z=dz)
    np.testing.assert_allclose(grads.w_head, x.T @ dz, rtol=1e-12)
    np.testing.assert_allclose(grads.b_head, dz.sum(axis=0), rtol=1e-12)


def test_sigmoid_outputs_are_probabilities_even_for_huge_logits():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    big = NetParams.from_flat(
        [np.array([[1000.0], [0.0]], dtype=np.float32), np.array([0.0], dtype=np.float32)],
    )
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    _, y = forward(big, cfg, x)
    assert np.all((y > 0.0) & (y < 1.0))
    assert y[0, 0] > 0.999999 and y[1, 0] < 1e-6
    assert y[2, 0] == 0.5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_reference_bit_for_bit(dtype):
    fi = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, fi.smallest_subnormal, -fi.smallest_subnormal,
             fi.tiny, -fi.tiny, 88.7, -88.7, 104.0, -104.0, 709.8, -709.8, fi.max, -fi.max]
    rng = np.random.default_rng(0)
    z = np.concatenate([np.array(edges, dtype=dtype),
                        (rng.standard_normal(5000) * 40).astype(dtype)])
    m = (rng.standard_normal((37, 53)) * 20).astype(dtype)
    for arr in (z, m, m.T, m[::2, ::3], np.empty((0, 4), dtype=dtype)):
        before = arr.copy()
        got, want = _sigmoid(arr), reference_sigmoid(arr)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(arr, before)
    assert np.isnan(_sigmoid(np.array([np.nan], dtype=dtype))[0])


def test_backward_leaves_its_inputs_untouched():
    cfg = NetConfig(input_dim=3, n_species=6, hidden_dim=5, n_residual_layers=1)
    rng = np.random.default_rng(4)
    for params in (init_params(cfg), f64_params(cfg)):
        _, y, cache = forward(params, cfg, rng.standard_normal((8, 3)), mode="train",
                              rng=np.random.default_rng(1), return_cache=True)
        features_before = cache.features.copy()
        for d_dtype in (np.float32, np.float64):
            d_z = rng.standard_normal(y.shape).astype(d_dtype)
            d_z_before = d_z.copy()
            backward(params, cfg, cache, d_z=d_z)
            np.testing.assert_array_equal(d_z, d_z_before)
            np.testing.assert_array_equal(cache.features, features_before)


@pytest.fixture
def pinned(monkeypatch):
    """Plans as with BLAS pinned to one thread, whatever this process has."""
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "1")


@pytest.mark.parametrize("entries", [1, 7, 64, 1 << 21])
def test_row_blocks_are_never_short(monkeypatch, pinned, entries):
    """Every row or column is in exactly one block, and each block is at
    least 2 wide and past ``GEMM_BLOCK_MACS`` multiply-adds, unless it is
    the whole product."""
    monkeypatch.setattr(sinr.net, "GEMM_BLOCK_MACS", entries)
    for n in range(40):
        for line_macs in (1, 3, 16, 5000, 3_000_000):
            blocks = gemm_blocks(n, line_macs)
            edges = [0] + [b for _, b in blocks]
            assert [a for a, _ in blocks] == edges[:-1] and edges[-1] == n
            assert len(blocks) <= sinr.net.GEMM_MAX_BLOCKS
            if blocks != [(0, n)]:
                assert all(b - a >= 2 and (b - a) * line_macs > entries for a, b in blocks)


def test_gemm_blocks_hand_values(pinned):
    assert sinr.net.GEMM_BLOCK_MACS == 1 << 25 and sinr.net.GEMM_MAX_BLOCKS == 8
    # A dense step at 10,000 species: 4,096 rows (a batch of 2,048 plus its
    # pseudo-locations) x 256 features. Each of the three head products gets
    # 8 blocks, 4 per worker on two cores: 512 rows (h @ w_head, dz @ w_head.T)
    # or 1,250 columns (feats.T @ dz).
    assert gemm_blocks(4096, 256 * 10_000) == [(r, r + 512) for r in range(0, 4096, 512)]
    assert gemm_blocks(10_000, 4096 * 256) == [(c, c + 1250) for c in range(0, 10_000, 1250)]
    # 2^25 // 1,000,000 + 1 = 34 rows each: 100 // 34 = 2 blocks
    assert gemm_blocks(100, 1_000_000) == [(0, 50), (50, 100)]
    assert gemm_blocks(67, 1_000_000) == [(0, 67)]  # 2 x 34 rows do not fit
    assert gemm_blocks(7, 10**9) == [(0, 2), (2, 4), (4, 7)]  # never 1 row
    assert gemm_blocks(3, 10**9) == [(0, 3)]
    assert gemm_blocks(0, 256) == [(0, 0)]
    assert gemm_blocks(5, 0) == [(0, 5)]  # an empty product
    assert gemm_blocks(65_536, 2 * 256) == [(0, 65_536)]  # a predict chunk's 2 columns


def test_gemm_blocks_stay_past_the_small_gemm_kernel(pinned):
    """At the real constants every block of a split product runs past
    ``SMALL_GEMM_MAX``: the whole product's kernel, and so its bits."""
    assert sinr.net.GEMM_BLOCK_MACS >= sinr.net.SMALL_GEMM_MAX
    for n in (1, 2, 3, 64, 100, 333, 2048, 4096, 10_000, 47_375):
        for line_macs in (1, 64, 512, 64 * 2000, 4096 * 256, 256 * 47_375):
            for a, b in gemm_blocks(n, line_macs):
                assert (b - a) * line_macs > sinr.net.SMALL_GEMM_MAX or (a, b) == (0, n)


def test_gemm_blocks_are_whole_when_blas_is_not_pinned(monkeypatch):
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "no: another BLAS")
    assert gemm_blocks(4096, 256 * 10_000) == [(0, 4096)]


@pytest.mark.parametrize("block_macs", [1, 1000, 1 << 25])
def test_encoder_tiles_cover_the_rows(monkeypatch, pinned, block_macs):
    """Every row is in exactly one tile, and each tile is at least 2 rows with
    each block product past ``GEMM_BLOCK_MACS``, unless it is the one tile."""
    monkeypatch.setattr(sinr.net, "GEMM_BLOCK_MACS", block_macs)
    for n in [*range(40), 513, 1025, 2000, 4097, 7170, 65_536]:
        for hidden in (1, 4, 16, 64, 256, 1024):
            tiles = encoder_tiles(n, hidden)
            edges = [0] + [b for _, b in tiles]
            assert [a for a, _ in tiles] == edges[:-1] and edges[-1] == n
            if tiles != [(0, n)]:
                assert all(b - a >= 2 and (b - a) * hidden**2 > block_macs for a, b in tiles)


def test_encoder_tiles_hand_values(pinned):
    # a 256 x 256 block product passes 2^25 multiply-adds from 513 rows
    assert encoder_tiles(7200, 256) == [(i * 7200 // 14, (i + 1) * 7200 // 14) for i in range(14)]
    assert encoder_tiles(4096, 256) == [(i * 4096 // 7, (i + 1) * 4096 // 7) for i in range(7)]
    assert encoder_tiles(2048, 256) == [(0, 682), (682, 1365), (1365, 2048)]
    assert encoder_tiles(1025, 256) == [(0, 1025)]
    # a 512 x 512 block product passes 2^25 multiply-adds from 129 rows
    assert encoder_tiles(2048, 512) == [(i * 2048 // 15, (i + 1) * 2048 // 15) for i in range(15)]
    # a 64 x 64 block product passes 2^25 multiply-adds from 8,193 rows
    assert encoder_tiles(16_385, 64) == [(0, 16_385)]
    assert encoder_tiles(65_536, 64) == [(i * 65_536 // 7, (i + 1) * 65_536 // 7) for i in range(7)]
    assert encoder_tiles(1, 256) == [(0, 1)] and encoder_tiles(0, 256) == [(0, 0)]


def test_encoder_tiles_are_whole_when_blas_is_not_pinned(monkeypatch):
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "no: another BLAS")
    assert encoder_tiles(7200, 256) == [(0, 7200)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("hidden", [4, 16, 256])
@pytest.mark.parametrize("rows", [1, 2, 513, 1025, 2000, 4097, 7170])
def test_tiled_encoder_has_the_bits_of_the_whole_array_encoder(monkeypatch, rows, hidden, mode,
                                                               threads):
    """Features, every cache array and every gradient of ``backward`` equal
    those of the whole-array block loop and its backward, in eval and train
    mode, whatever the tiles and the worker count."""
    monkeypatch.setenv("SINR_THREADS", threads)
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=hidden, n_residual_layers=2,
                    dropout_p=0.5, seed=rows)
    params = init_params(cfg)
    rng = np.random.default_rng(rows)
    x = rng.uniform(-1, 1, (rows, 4))
    d_z = rng.standard_normal((rows, 3)).astype(np.float32)
    if sinr.net.BLAS_PINNED == "1" and hidden == 256 and rows >= 2000:
        assert len(encoder_tiles(rows, hidden)) >= 3

    def dropout_rng():
        return np.random.default_rng(7) if mode == "train" else None

    want, want_cache, record = reference_encoder(params, cfg, x, mode, dropout_rng())
    feats, _, cache = forward(params, cfg, x, mode, dropout_rng(), return_cache=True)
    no_cache_feats, _ = forward(params, cfg, x, mode, dropout_rng())
    assert feats.tobytes() == want.tobytes() and no_cache_feats.tobytes() == want.tobytes()
    assert cache.x.tobytes() == want_cache.x.tobytes()
    for name, count in (("h", 3), ("d", 2), ("v", 2)):
        got, ref = getattr(cache, name), getattr(want_cache, name)
        assert len(got) == len(ref) == count, name
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes(), name
    assert repr(cache.dropout_scale) == repr(want_cache.dropout_scale)
    assert (cache.dropout_scale is None) == (mode == "eval")
    grads = backward(params, cfg, cache, d_z=d_z)
    want_grads = reference_backward(params, cfg, want_cache, record, d_z)
    for name, g, w in zip(grads.names(), grads.flat(), want_grads.flat()):
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
def test_backward_has_the_bits_of_the_mask_and_preactivation_backward(monkeypatch, p, mode,
                                                                       dtype, threads):
    """``backward`` reads the ReLU and dropout masks back from ``d`` and the
    first block input, and runs each block's products side by side on the
    workers; its gradients have the bits of a whole-array backward that reads
    the pre-activations and the float masks and runs every product in turn:
    4,096 rows at H=256 (several tiles) and the paper's 4 blocks, with +0 and
    -0 entries and rows in ``d_z``."""
    monkeypatch.setenv("SINR_THREADS", threads)
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=256, n_residual_layers=4,
                    dropout_p=p, seed=11)
    params = cast_params(init_params(cfg), dtype)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (4096, 4))
    d_z = rng.standard_normal((4096, 3))
    d_z[rng.random(d_z.shape) < 0.2] = 0.0
    d_z[rng.random(d_z.shape) < 0.2] = -0.0
    d_z[rng.random(4096) < 0.1] = -0.0
    d_z = d_z.astype(dtype)
    _, _, cache = forward(params, cfg, x, mode, np.random.default_rng(7), return_cache=True)
    _, want_cache, record = reference_encoder(params, cfg, x, mode, np.random.default_rng(7))
    grads = backward(params, cfg, cache, d_z)
    want = reference_backward(params, cfg, want_cache, record, d_z)
    for name, g, w in zip(grads.names(), grads.flat(), want.flat()):
        assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("threads, blas", [("2", "1"), ("1", "1"), ("2", "no: another BLAS")])
def test_backward_runs_each_block_on_the_workers_only_when_blas_is_pinned(monkeypatch, threads,
                                                                          blas):
    """With 2 workers and BLAS pinned, a pool thread runs some of the
    residual blocks' products (as in ``hand_off_to_a_pool_thread``, the
    first one the main thread takes waits until a pool thread has run one).
    With 1 worker, or with BLAS not pinned, the calling thread runs them all.
    The gradients have the reference bits."""
    monkeypatch.setenv("SINR_THREADS", threads)
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", blas)
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=16, n_residual_layers=4,
                    dropout_p=0.5, seed=2)
    params = init_params(cfg)
    x = np.random.default_rng(3).uniform(-1, 1, (64, 4))
    d_z = np.random.default_rng(4).standard_normal((64, 3)).astype(np.float32)
    _, cache, record = reference_encoder(params, cfg, x, "train", np.random.default_rng(7))
    hand_off = threads == "2" and blas == "1"
    main, ran, pool_ran = threading.main_thread(), [], threading.Event()

    def recorded(job):
        def run():
            if threading.current_thread() is not main:
                pool_ran.set()
            elif hand_off and main not in ran:
                pool_ran.wait(timeout=30)
            ran.append(threading.current_thread())
            job()
        return run

    real_beside = sinr.net._beside
    monkeypatch.setattr(sinr.net, "_beside", lambda *jobs: real_beside(*map(recorded, jobs)))
    grads = backward(params, cfg, cache, d_z)
    want = reference_backward(params, cfg, cache, record, d_z)
    for name, g, w in zip(grads.names(), grads.flat(), want.flat()):
        assert g.tobytes() == w.tobytes(), name
    assert len(ran) == 16  # 4 blocks x 2 rounds x 2 products
    if hand_off:
        assert pool_ran.is_set()
    else:
        assert set(ran) == {main}


def test_backward_holds_no_extra_row_buffers():
    """A 4,096-row, H=256, 4-block backward with 2 head columns peaks below
    5 row x H float32 arrays traced: the gradient at the block output, ``dv``,
    ``du`` and the gradient at the block input, plus the bool masks and the
    parameter gradients. Running the products in turn, each into a fresh
    array, peaked at 5.76."""
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=256, n_residual_layers=4,
                    dropout_p=0.5)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (4096, 4)).astype(np.float32)
    _, y, cache = forward(params, cfg, x, "train", np.random.default_rng(2), return_cache=True)
    d_z = np.random.default_rng(3).standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        backward(params, cfg, cache, d_z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (4096 * 256 * 4) < 5


def test_train_forward_cache_keeps_only_what_backward_reads():
    """A train-mode cached forward (4,096 rows, H=256, 4 blocks, p=0.5)
    retains the 5 block inputs and each block's ``d`` and ``v``: 13 row x H
    float32 arrays, below 14. Keeping the pre-activations, the input layer's
    output and the float dropout masks as well made it 22."""
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=256, n_residual_layers=4,
                    dropout_p=0.5)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (4096, 4)).astype(np.float32)
    tracemalloc.start()
    try:
        kept = forward(params, cfg, x, "train", np.random.default_rng(2), return_cache=True)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    cache = kept[2]
    assert (len(cache.h), len(cache.d), len(cache.v)) == (5, 4, 4)
    assert retained / (4096 * 256 * 4) < 14


# (rows, features, species, head columns or None): dense heads at several
# shapes, and the columns of an eval forward over 2,000 species.
SPLIT_SHAPES = [(512, 64, 2000, None), (333, 48, 777, None), (210, 64, 1000, None),
                (2048, 64, 2000, 800)]


@pytest.mark.parametrize("rows, feat, species, n_cols", SPLIT_SHAPES)
def test_split_head_products_have_the_bits_of_the_whole_products(monkeypatch, pinned, rows,
                                                                 feat, species, n_cols):
    """float32, 2 workers, blocks just past ``SMALL_GEMM_MAX``: the forward
    product (over every head column or the given ones), and after a dense
    forward ``feats.T @ dz``, ``dz.sum(axis=0)`` and ``dz @ w_head.T``
    (through every gradient below it), equal the whole 1-thread products."""
    cfg = NetConfig(input_dim=4, n_species=species, hidden_dim=feat, n_residual_layers=1,
                    seed=4)
    params = dataclasses.replace(init_params(cfg),
                                 b_head=np.linspace(-1, 1, species).astype(np.float32))
    rng = np.random.default_rng(rows)
    x = rng.uniform(-1, 1, (rows, 4))
    columns = None if n_cols is None else np.sort(rng.choice(species, n_cols, replace=False))
    n_out = species if columns is None else n_cols
    w_head = params.w_head if columns is None else params.w_head[:, columns]
    d_z = rng.standard_normal((rows, n_out)).astype(np.float32)

    def step():
        feats, y, cache = forward(params, cfg, x, return_cache=True, columns=columns)
        return feats, y, None if columns is not None else backward(params, cfg, cache, d_z)

    with monkeypatch.context() as whole:
        whole.setattr(sinr.net, "GEMM_MAX_BLOCKS", 1)
        feats, want_y, want = step()
    monkeypatch.setattr(sinr.net, "GEMM_BLOCK_MACS", sinr.net.SMALL_GEMM_MAX)
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 2)
    for n, line_macs in [(rows, feat * n_out), (n_out, rows * feat)]:
        assert len(gemm_blocks(n, line_macs)) >= 2
    _, y, got = step()

    assert y.tobytes() == want_y.tobytes()
    assert y.tobytes() == reference_sigmoid(feats @ w_head + params.b_head[
        slice(None) if columns is None else columns]).tobytes()
    if columns is not None:
        return
    assert got.w_head.tobytes() == (feats.T @ d_z).tobytes()
    assert got.b_head.tobytes() == d_z.sum(axis=0).tobytes()
    for name, g, w in zip(want.names(), got.flat(), want.flat()):
        assert g.tobytes() == w.tobytes(), name


def test_head_columns_hand_values():
    assert head_columns([5], 4096, 256, 10_000).tolist() == [0, 5]  # never 1 column
    assert head_columns([0, 0], 4096, 256, 10_000).tolist() == [0, 1]
    assert head_columns([300], 16, 256, 10_000).tolist() == list(range(244)) + [300]
    assert head_columns([3], 16, 256, 10_000).tolist() == list(range(245))
    assert head_columns([3], 16, 256, 246).tolist() == list(range(245))
    assert head_columns([3], 16, 256, 245) is None  # 245 columns are every column
    assert head_columns([0, 1], 2, 1, 3) is None


def test_head_columns_pad_past_the_small_gemm_kernel():
    """The plan holds the needed columns, sorted and unique, plus the lowest
    unused ids until rows * columns * features > 1e6 (at least 2 columns);
    ``None`` once that reaches every species."""
    rng = np.random.default_rng(0)
    for n_rows, n_feat in [(16, 7), (64, 64), (128, 5), (210, 64), (1000, 1000), (4096, 256)]:
        least = max(2, sinr.net.SMALL_GEMM_MAX // (n_rows * n_feat) + 1)
        for n_species in sorted({2, 3, least, least + 1, least + 50, 47_375}):
            for n_needed in (1, 2, 40, 3000):
                needed = rng.integers(0, n_species, n_needed)
                want = np.unique(needed)
                cols = head_columns(needed, n_rows, n_feat, n_species)
                if max(least, want.size) >= n_species:
                    assert cols is None
                    continue
                assert cols.size == max(least, want.size) >= 2
                assert np.array_equal(cols, np.unique(cols)) and np.isin(want, cols).all()
                assert n_rows * cols.size * n_feat > sinr.net.SMALL_GEMM_MAX
                pad = np.setdiff1d(cols, want)
                free = np.setdiff1d(np.arange(n_species), want)
                assert np.array_equal(pad, free[: pad.size])


def test_one_row_head_keeps_the_dense_bits():
    """A 1-row head product runs GEMV, which rounds a column by its place in
    the column block: one row computes every column, whatever is read."""
    cfg = NetConfig(input_dim=4, n_species=10_000, hidden_dim=256, n_residual_layers=1,
                    dropout_p=0.0, seed=5)
    params = init_params(cfg)
    x = np.random.default_rng(5).uniform(-1, 1, (1, 4))
    _, dense = forward(params, cfg, x)
    rng = np.random.default_rng(6)
    for n_needed in (7, 40):
        needed = np.sort(rng.choice(cfg.n_species, n_needed, replace=False))
        cols = head_columns(needed, 1, cfg.feature_dim, cfg.n_species)
        _, y = forward(params, cfg, x, columns=cols)
        picked = y[:, needed if cols is None else np.searchsorted(cols, needed)]
        assert np.array_equal(picked.view(np.uint32), dense[:, needed].view(np.uint32))
    assert head_columns([3], 0, 256, 10_000) is None


def test_forward_validates_inputs():
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=4, n_residual_layers=1)
    params = init_params(cfg)
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((3, 4)), mode="predict")


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def test_dropout_zero_train_equals_eval():
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=2,
                    dropout_p=0.0, seed=3)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (6, 4)).astype(np.float32)
    h_t, y_t = forward(params, cfg, x, mode="train", rng=np.random.default_rng(9))
    h_e, y_e = forward(params, cfg, x, mode="eval")
    assert h_t.tobytes() == h_e.tobytes()
    assert y_t.tobytes() == y_e.tobytes()


def test_eval_mode_consumes_no_randomness():
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=2,
                    dropout_p=0.5, seed=3)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (6, 4)).astype(np.float32)
    rng = np.random.default_rng(33)
    before = rng.bit_generator.state
    forward(params, cfg, x, mode="eval", rng=rng)
    assert rng.bit_generator.state == before


def test_eval_forward_memory_does_not_grow_with_blocks():
    """Without a cache, an eval forward keeps no block's activations: its
    traced peak is the same at 2 and 6 blocks (it grew by 4 batch x hidden
    arrays per block), and its output bytes match the caching forward's."""
    x = np.random.default_rng(1).uniform(-1, 1, (4096, 4)).astype(np.float32)
    peaks = []
    for blocks in (2, 6):
        cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=128, n_residual_layers=blocks)
        params = init_params(cfg)
        tracemalloc.start()
        try:
            h, y = forward(params, cfg, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        h_cached, y_cached, cache = forward(params, cfg, x, return_cache=True)
        assert len(cache.d) == blocks
        assert h.tobytes() == h_cached.tobytes() and y.tobytes() == y_cached.tobytes()
    activation = x.shape[0] * 128 * 4
    assert peaks[1] < peaks[0] + activation / 2


def test_train_mode_dropout_requires_rng_and_perturbs():
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=64, n_residual_layers=2,
                    dropout_p=0.5, seed=3)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (8, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        forward(params, cfg, x, mode="train")
    _, y1 = forward(params, cfg, x, mode="train", rng=np.random.default_rng(12))
    _, y2 = forward(params, cfg, x, mode="train", rng=np.random.default_rng(13))
    _, y1_again = forward(params, cfg, x, mode="train", rng=np.random.default_rng(12))
    assert y1.tobytes() == y1_again.tobytes()  # same stream, same masks
    assert y1.tobytes() != y2.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tiles_draw_their_rows_of_whole_dropout_masks(monkeypatch, workers):
    """Two train-mode forwards at 2,048 rows, H=256 and 4 blocks run 3 row
    tiles, each drawing its rows of every block's mask from a copy of the
    generator advanced to them. The cache arrays equal those of drawing each
    block's whole mask in turn, and the generator ends each forward in the
    same state, with the 32-bit half it had buffered before."""
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "1")
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: workers)
    assert len(encoder_tiles(2048, 256)) == 3
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=256, n_residual_layers=4,
                    dropout_p=0.5, seed=4)
    params = init_params(cfg)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for g in (rng, ref_rng):
        g.integers(0, 2**32, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"] == 1
    for seed in (1, 2):
        x = np.random.default_rng(seed).uniform(-1, 1, (2048, 4))
        _, _, cache = forward(params, cfg, x, "train", rng, return_cache=True)
        _, want, _ = reference_encoder(params, cfg, x, "train", ref_rng)
        for name in ("h", "d", "v"):
            got, ref = getattr(cache, name), getattr(want, name)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref], name
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_dropout_needs_a_pcg64_generator(bitgen):
    """MT19937 and SFC64 cannot advance; Philox advances 4 draws a step, so
    a tile could not reach its rows. A train-mode forward with dropout
    refuses each before it draws; eval mode draws nothing and runs."""
    cfg = NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=2, seed=3)
    params = init_params(cfg)
    x = np.random.default_rng(1).uniform(-1, 1, (6, 4))
    rng = np.random.Generator(bitgen(5))
    with pytest.raises(TypeError, match=f"needs a PCG64 bit generator, got {bitgen.__name__}$"):
        forward(params, cfg, x, mode="train", rng=rng)
    forward(params, cfg, x, mode="eval", rng=rng)
    assert rng.random(4).tobytes() == np.random.Generator(bitgen(5)).random(4).tobytes()


#: Relative agreement of the read head with the dense head, per array.
READ_HEAD_TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_read_head_matches_the_dense_head(monkeypatch, dtype):
    """A forward with ``read`` (200 rows x 2 entries over 300 species, most
    of them in 3 columns, some twice in a row, with saturated sigmoids at
    both ends), and the backward from those entries' dL/dz, agree with the
    dense head's outputs at the entries and its gradients with dL/dz summed
    into those entries and +0 elsewhere, within ``READ_HEAD_TOLERANCE``.
    Their bytes do not depend on the workers (1, 2, 3) or the row chunks
    (the default's one, or 3,000 entries: 46 rows at H=32); ``_sigmoid``
    sees the 400 read entries alone, and every column no row reads gets +0
    gradients."""
    cfg = NetConfig(input_dim=4, n_species=300, hidden_dim=32, n_residual_layers=2, seed=5)
    params = cast_params(init_params(cfg), dtype)
    params = dataclasses.replace(params, b_head=np.linspace(-60, 60, 300).astype(dtype))
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, (200, 4))
    read = np.where(rng.random((200, 2)) < 0.7, rng.choice([3, 7, 250], (200, 2)),
                    rng.integers(0, 300, (200, 2)))
    read[:20, 1] = read[:20, 0]
    d_z = rng.standard_normal((200, 2)).astype(dtype)
    rows = np.arange(200)[:, None]
    _, dense, cache = forward(params, cfg, x, return_cache=True)
    dense_d_z = np.zeros_like(dense)
    np.add.at(dense_d_z, (rows, read), d_z)
    want = backward(params, cfg, cache, dense_d_z)
    assert {0.0, 1.0} < set(np.round(dense[rows, read].astype(np.float64), 3).ravel())

    seen, got = [], {}
    real_sigmoid = sinr.net._sigmoid
    monkeypatch.setattr(sinr.net, "_sigmoid", lambda z: seen.append(z.size) or real_sigmoid(z))
    for workers, chunk in itertools.product((1, 2, 3), (sinr.parallel.CHUNK_ENTRIES, 3000)):
        monkeypatch.setattr(sinr.parallel, "worker_count", lambda: workers)
        monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", chunk)
        seen.clear()
        _, y, cache = forward(params, cfg, x, return_cache=True, read=read)
        assert sum(seen) == 400 and y.shape == (200, 2)
        grads = backward(params, cfg, cache, d_z)
        got[workers, chunk] = y.tobytes(), [g.tobytes() for g in grads.flat()]
    assert all(g == got[1, sinr.parallel.CHUNK_ENTRIES] for g in got.values())

    tolerance = READ_HEAD_TOLERANCE[dtype]
    np.testing.assert_allclose(y, dense[rows, read], rtol=tolerance)
    assert max_rel_error(grads, want) < tolerance
    unread = np.setdiff1d(np.arange(300), read)
    for g in (grads.w_head[:, unread], grads.b_head[unread]):
        assert not g.any() and not np.signbit(g).any()


def test_dropout_mask_scaling_keeps_expectation():
    """Averaged over many masks, inverted dropout reproduces the eval output
    of the dropped activation (1/keep scaling compensates the zeros)."""
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=32, n_residual_layers=1,
                    dropout_p=0.5, seed=8)
    params = init_params(cfg)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 4)).astype(np.float32)
    rng = np.random.default_rng(77)
    h_eval, _ = forward(params, cfg, x, mode="eval")
    acc = np.zeros_like(h_eval, dtype=np.float64)
    n = 3000
    for _ in range(n):
        h, _ = forward(params, cfg, x, mode="train", rng=rng)
        acc += h
    np.testing.assert_allclose(acc / n, h_eval, atol=0.08)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_matches_reference_recurrence():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = NetParams.from_flat([np.array([[0.5], [-0.5]]), np.array([0.25])])
    state = init_adam(params)
    rng = np.random.default_rng(6)
    # independent scalar recurrence, accumulated in plain Python
    ref = {id_: arr.astype(np.float64).copy() for id_, arr in enumerate(params.flat())}
    ref_m = {id_: np.zeros_like(a) for id_, a in ref.items()}
    ref_v = {id_: np.zeros_like(a) for id_, a in ref.items()}
    lr = 0.05
    for t in range(1, 6):
        gs = [rng.normal(size=a.shape) for a in params.flat()]
        adam_step(params, NetParams.from_flat(gs), state, lr)
        for i, g in enumerate(gs):
            ref_m[i] = ADAM_BETA1 * ref_m[i] + (1 - ADAM_BETA1) * g
            ref_v[i] = ADAM_BETA2 * ref_v[i] + (1 - ADAM_BETA2) * g * g
            mhat = ref_m[i] / (1 - ADAM_BETA1**t)
            vhat = ref_v[i] / (1 - ADAM_BETA2**t)
            ref[i] = ref[i] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        assert state.t == t
        for i, arr in enumerate(params.flat()):
            np.testing.assert_allclose(arr, ref[i], atol=1e-12)


def test_adam_first_step_is_signed_lr():
    """With zero moments, one step moves each coordinate by about
    -lr*sign(g) regardless of gradient magnitude (bias correction)."""
    cfg = NetConfig(input_dim=1, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = NetParams.from_flat([np.array([[1.0]]), np.array([2.0])])
    grads = NetParams.from_flat([np.array([[3.7]]), np.array([-0.002])])
    adam_step(params, grads, init_adam(params), lr=0.1)
    np.testing.assert_allclose(params.w_head, [[1.0 - 0.1]], atol=1e-6)
    np.testing.assert_allclose(params.b_head, [2.0 + 0.1], atol=1e-4)


def test_adam_rejects_non_finite_gradients():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    state = init_adam(params)
    before = [a.tobytes() for tree in (params, state.m, state.v) for a in tree.flat()]
    bad = NetParams.from_flat([np.array([[np.nan], [0.0]]), np.array([0.0])])
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, bad, state, lr=0.1)
    bad = NetParams.from_flat([np.array([[np.inf], [0.0]]), np.array([0.0])])
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, bad, state, lr=0.1)
    # a bad last array: the finite arrays before it would change p, m and v
    bad = NetParams.from_flat([np.array([[0.5], [-0.5]]), np.array([np.inf])])
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, bad, state, lr=0.1)
    assert state.t == 0  # inputs untouched
    assert [a.tobytes() for tree in (params, state.m, state.v) for a in tree.flat()] == before


def test_adam_rejects_an_update_that_overflows():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    state = init_adam(params)
    grads = NetParams.from_flat([np.ones((2, 1), np.float32), np.ones(1, np.float32)])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError, match="parameters"):
        adam_step(params, grads, state, lr=1e39)  # inf as a float32 step size
    assert state.t == 0


def test_adam_rejects_an_update_that_overflows_in_a_middle_chunk(monkeypatch):
    """Only the third of five 4-entry head chunks overflows (its weights sit
    near the float32 maximum); on 2 workers the update raises, and the step
    count is unchanged."""
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 4)
    cfg = NetConfig(input_dim=4, n_species=5, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    params.w_head.reshape(-1)[8:12] = 3e38
    state = init_adam(params)
    grads = NetParams.from_flat([np.full((4, 5), -1, np.float32), np.ones(5, np.float32)])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError, match="parameters"):
        adam_step(params, grads, state, lr=1e38)  # each weight moves by about +1e38
    assert state.t == 0
    assert np.isinf(params.w_head.reshape(-1)[8:12]).all()
    assert np.isfinite(np.delete(params.w_head.reshape(-1), range(8, 12))).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_adam_has_the_bits_of_the_tree_form(monkeypatch, workers):
    """Five in-place steps on a float32 4-block net give, at every step, the
    bytes of p, m and v and the step count of ``reference_adam_step``, with
    head columns whose gradient is exactly 0 (as a read head's backward
    leaves them) and +0 and -0 entries in the gradients and in m and v. The
    arrays run in 7-entry chunks, which end mid-row, on 1, 2 or 3 workers."""
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: workers)
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 7)
    cfg = NetConfig(input_dim=4, n_species=40, hidden_dim=16, n_residual_layers=4)
    params = init_params(cfg)
    rng = np.random.default_rng(22)

    def signed_zeros(a: np.ndarray) -> np.ndarray:
        a[rng.random(a.shape) < 0.1] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        return a

    def draw(scale: float) -> NetParams:
        return NetParams.from_flat([
            signed_zeros((scale * rng.standard_normal(a.shape)).astype(np.float32))
            for a in params.flat()
        ])

    v = NetParams.from_flat([np.abs(a) for a in draw(1e-4).flat()])
    for a in v.flat():
        signed_zeros(a)
    state = AdamState(draw(1e-3), v, t=3)
    ref_params, ref_state = cast_params(params, np.float32), AdamState(  # copies
        cast_params(state.m, np.float32), cast_params(state.v, np.float32), t=3)
    signs_seen = set()  # the signs that -0 entries of m take after a step
    for step in range(5):
        grads = draw(0.1)
        idle = rng.random(cfg.n_species) < 0.5  # columns outside this step's batch
        grads.w_head[:, idle] = 0.0
        grads.b_head[idle] = 0.0
        before = [g.tobytes() for g in grads.flat()]
        neg_zero = [np.signbit(m) & (m == 0) for m in state.m.flat()]
        lr = 1e-2 * 0.98**step
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr)
        adam_step(params, grads, state, lr)
        assert [g.tobytes() for g in grads.flat()] == before  # gradients are only read
        assert state.t == ref_state.t == 4 + step
        for got, want in [(params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)]:
            assert [a.tobytes() for a in got.flat()] == [a.tobytes() for a in want.flat()]
        for m, z in zip(state.m.flat(), neg_zero):
            signs_seen |= set(np.signbit(m[z & (m == 0)]).tolist())
    assert signs_seen == {False, True}  # -0 + -0 stays -0; -0 + +0 is +0


def test_adam_holds_less_than_one_head_array(monkeypatch):
    """One update at H=256, S=4,000 and 4 blocks, where the head is the
    largest array, peaks below one head-sized float32 array traced on 2
    workers: only chunk-sized temporaries (0.58 head arrays measured).
    Whole-array updates peaked at 3.0, and building new parameter and moment
    trees above 5."""
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 2)
    cfg = NetConfig(input_dim=4, n_species=4000, hidden_dim=256, n_residual_layers=4)
    params = init_params(cfg)
    rng = np.random.default_rng(5)
    grads = NetParams.from_flat(
        [rng.standard_normal(a.shape).astype(np.float32) for a in params.flat()])
    state = init_adam(params)
    adam_step(params, grads, state, lr=1e-3)
    tracemalloc.start()
    try:
        adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / params.w_head.nbytes < 1


def test_adam_names_the_first_non_finite_gradient():
    cfg = NetConfig(input_dim=2, n_species=3, hidden_dim=4, n_residual_layers=2)
    params = init_params(cfg)
    grads = zeros_like_params(params)
    grads.blocks[1].w2[0, 1] = np.nan
    grads.w_head[1, 2] = np.inf
    state = AdamState(zeros_like_params(params), zeros_like_params(params), t=6)
    with pytest.raises(NonFiniteGradientError,
                       match=r"^non-finite gradient entries in blocks\[1\]\.w2 at step 7$"):
        adam_step(params, grads, state, lr=0.1)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------


def roundtrip_cfg():
    return NetConfig(input_dim=4, n_species=3, hidden_dim=8, n_residual_layers=2,
                     dropout_p=0.25, seed=-12345)


def test_model_file_roundtrip_is_bit_exact(tmp_path):
    cfg = roundtrip_cfg()
    params = init_params(cfg)
    path = tmp_path / "model.sinr"
    species = ("ursus arctos", "lynx-lynx", "état")
    save_model(params, cfg, path, input_layout=InputLayout.ENV_PLUS_COORDS,
               species_ids=species)
    mf = read_model_file(path)
    assert mf.cfg == cfg
    assert mf.input_layout is InputLayout.ENV_PLUS_COORDS
    assert mf.species_ids == species
    assert params_equal(mf.params, params)
    # byte-level determinism: same inputs, same file
    blob1 = model_to_bytes(params, cfg, input_layout=InputLayout.ENV_PLUS_COORDS,
                           species_ids=species)
    blob2 = model_to_bytes(params, cfg, input_layout=InputLayout.ENV_PLUS_COORDS,
                           species_ids=species)
    assert blob1 == blob2
    assert path.read_bytes() == blob1


def test_identity_encoder_flag_roundtrips(tmp_path):
    cfg = NetConfig(input_dim=3, n_species=2, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    path = tmp_path / "lr.sinr"
    save_model(params, cfg, path, input_layout=InputLayout.ENV, species_ids=("a", "b"))
    mf = read_model_file(path)
    assert mf.cfg.identity_encoder is True
    assert mf.params.w_in is None
    assert mf.cfg == cfg and params_equal(mf.params, params)


def test_model_file_error_types(tmp_path):
    cfg = roundtrip_cfg()
    blob = model_to_bytes(init_params(cfg), cfg)

    bad_magic = b"XSIN" + blob[4:]
    with pytest.raises(BadMagicError):
        model_from_bytes(bad_magic)

    import struct as _struct

    bad_version = blob[:4] + _struct.pack("<I", 99) + blob[8:]
    with pytest.raises(UnsupportedVersionError):
        model_from_bytes(bad_version)

    with pytest.raises(TruncatedFileError):
        model_from_bytes(blob[: len(blob) // 2])

    # a corrupt layer count must fail fast, not expand into 2**31 layer shapes
    huge_layers = blob[:24] + _struct.pack("<I", 2**31) + blob[28:]
    with pytest.raises(ModelFormatError):
        model_from_bytes(huge_layers)

    named = model_to_bytes(init_params(cfg), cfg, species_ids=("ab",))
    with pytest.raises(ModelFormatError, match="UTF-8"):
        model_from_bytes(named.replace(b"ab", b"\xff\xfe", 1))

    with pytest.raises(ModelFormatError, match="duplicate"):
        model_from_bytes(model_to_bytes(init_params(cfg), cfg, species_ids=("ab", "ab")))

    with pytest.raises(ModelFormatError, match="^species catalog has 1 ids for 3 species$"):
        model_from_bytes(named)  # a catalog is empty or holds one id per species

    params = init_params(cfg)
    for bad in (np.nan, np.inf):
        params.w_head[0, 0] = bad
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            model_from_bytes(model_to_bytes(params, cfg))

    path = tmp_path / "trailing.sinr"
    path.write_bytes(blob + b"extra")
    with pytest.raises(ModelFormatError):
        read_model_file(path)

    # the three specific classes are distinguishable but share a base
    assert issubclass(BadMagicError, ModelFormatError)
    assert issubclass(UnsupportedVersionError, ModelFormatError)
    assert issubclass(TruncatedFileError, ModelFormatError)


def test_reading_a_model_copies_each_parameter_block_once(tmp_path):
    """Each parameter array is read straight from the file into its buffer,
    so an 11.8 MiB model (10,000 species over 256 features) peaks below 1.5x
    the file size in traced memory: the arrays and the finite check's masks.
    Reading the whole file into bytes first and copying each block out of it
    peaked at 2.25x."""
    cfg = NetConfig(input_dim=4, n_species=10_000, hidden_dim=256, n_residual_layers=4)
    params = init_params(cfg)
    path = tmp_path / "model.sinr"
    save_model(params, cfg, path)
    tracemalloc.start()
    try:
        mf = read_model_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params_equal(mf.params, params)
    assert all(a.flags.writeable and a.dtype == np.float32 for a in mf.params.flat())
    assert peak < 1.5 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_model_read_from_a_pipe_equals_the_file_read(tmp_path):
    """A pipe cannot seek, so it is read whole before parsing; the model
    (past the 64 KiB a pipe buffers, so the writer has to wait for the
    reader) equals the one read from the file."""
    cfg = NetConfig(input_dim=4, n_species=300, hidden_dim=64, n_residual_layers=2)
    path = tmp_path / "model.sinr"
    save_model(init_params(cfg), cfg, path, species_ids=tuple(f"sp{i}" for i in range(300)))
    blob = path.read_bytes()
    assert len(blob) > 2**16
    read_fd, write_fd = os.pipe()

    def feed() -> None:
        with open(write_fd, "wb") as fh:
            fh.write(blob)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = read_model_file(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)  # a failed read must not leave the writer blocked
        writer.join()
    want = read_model_file(path)
    assert (piped.cfg, piped.input_layout, piped.species_ids) == (
        want.cfg, want.input_layout, want.species_ids)
    assert params_equal(piped.params, want.params)


class _ShrunkFile(io.BytesIO):
    """The first bytes of a file whose end still reports ``size``: it shrank
    after its size was taken, so a read returns fewer bytes than asked."""

    def __init__(self, data: bytes, size: int):
        super().__init__(data)
        self.size = size

    def seek(self, pos: int, whence: int = io.SEEK_SET) -> int:
        end = super().seek(pos, whence)
        return self.size if whence == io.SEEK_END else end


@pytest.mark.parametrize("kept", ["header", "catalog", "parameters"])
def test_a_short_read_is_truncation(kept):
    """A ``read`` (the header and catalog fields) or ``readinto`` (the
    parameter arrays) that gets fewer bytes than the file's size promised
    raises the truncation error, never returning an array left unfilled."""
    cfg = roundtrip_cfg()
    blob = model_to_bytes(init_params(cfg), cfg, species_ids=("a", "b", "c"))
    cut = {"header": 20, "catalog": 56, "parameters": len(blob) - 10}[kept]
    with pytest.raises(TruncatedFileError,
                       match=rf"^needed \d+ bytes at offset \d+, file has {len(blob)}$"):
        read_model(_Reader(_ShrunkFile(blob[:cut], len(blob))))


def test_model_predictions_survive_roundtrip(tmp_path):
    cfg = roundtrip_cfg()
    params = init_params(cfg)
    path = tmp_path / "model.sinr"
    save_model(params, cfg, path)
    mf = read_model_file(path)
    x = np.random.default_rng(8).uniform(-1, 1, (10, cfg.input_dim)).astype(np.float32)
    _, y1 = forward(params, cfg, x)
    _, y2 = forward(mf.params, mf.cfg, x)
    assert y1.tobytes() == y2.tobytes()


# ---------------------------------------------------------------------------
# Parameter tree helpers
# ---------------------------------------------------------------------------


def test_param_tree_helpers():
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=4, n_residual_layers=1, seed=2)
    params = init_params(cfg)
    zeros = zeros_like_params(params)
    assert all(np.all(a == 0) for a in zeros.flat())
    assert params_equal(params, params)
    assert not params_equal(params, zeros)
    f64 = cast_params(params, np.float64)
    assert all(a.dtype == np.float64 for a in f64.flat())
    assert params_close(params, f64, rtol=0, atol=1e-7)


def test_net_config_validation():
    with pytest.raises(ValueError):
        NetConfig(input_dim=0, n_species=1)
    with pytest.raises(ValueError):
        NetConfig(input_dim=1, n_species=0)
    with pytest.raises(ValueError):
        NetConfig(input_dim=1, n_species=1, dropout_p=1.0)
    with pytest.raises(ValueError):
        NetConfig(input_dim=1, n_species=1, n_residual_layers=-1)
    cfg = NetConfig(input_dim=5, n_species=2, identity_encoder=True)
    assert cfg.feature_dim == 5
    assert NetConfig(input_dim=5, n_species=2, hidden_dim=32).feature_dim == 32
