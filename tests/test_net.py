"""Residual coordinate network: forward/backward correctness, initialization,
dropout semantics, the Adam optimizer, and the binary model file format."""

import numpy as np
import pytest

from helpers import (
    composed_grads,
    composed_loss,
    fd_grads,
    gather_gradcheck_setups,
    max_rel_error,
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
    _sigmoid,
    adam_step,
    backward,
    cast_params,
    forward,
    init_adam,
    init_params,
    model_from_bytes,
    model_to_bytes,
    param_shapes,
    params_close,
    params_equal,
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
    grads = backward(params, cfg, cache, d_y_hat=np.ones_like(y))
    np.testing.assert_allclose(grads.b_head, (y * (1 - y)).sum(axis=0), rtol=1e-12)


def test_backward_feature_path():
    """Seeding the backward pass from d_features must match differentiating
    sum(features) by finite differences."""
    cfg = NetConfig(input_dim=3, n_species=2, hidden_dim=6, n_residual_layers=1,
                    dropout_p=0.0, seed=11)
    params = f64_params(cfg)
    x = np.random.default_rng(3).uniform(-1, 1, (4, 3))

    def objective(p):
        h, _ = forward(p, cfg, x, mode="eval")
        return float(h.sum())

    _, _, cache = forward(params, cfg, x, mode="eval", return_cache=True)
    analytic = backward(params, cfg, cache, d_features=np.ones_like(cache.features))
    numeric = fd_grads(objective, params)
    assert max_rel_error(analytic, numeric) < 1e-6


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
    a_in = x @ params.w_in + params.b_in
    expected_h = np.maximum(a_in, 0)
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
    grads = backward(params, cfg, cache, d_y_hat=d_y)
    dz = d_y * y * (1 - y)
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
        y_before = y.copy()
        for d_dtype in (np.float32, np.float64):
            d_y = rng.standard_normal(y.shape).astype(d_dtype)
            d_before = d_y.copy()
            backward(params, cfg, cache, d_y_hat=d_y)
            np.testing.assert_array_equal(d_y, d_before)
            np.testing.assert_array_equal(cache.y_hat, y_before)


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
        params, state = adam_step(params, NetParams.from_flat(gs), state, lr)
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
    new_params, _ = adam_step(params, grads, init_adam(params), lr=0.1)
    np.testing.assert_allclose(new_params.w_head, [[1.0 - 0.1]], atol=1e-6)
    np.testing.assert_allclose(new_params.b_head, [2.0 + 0.1], atol=1e-4)


def test_adam_rejects_non_finite_gradients():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    state = init_adam(params)
    bad = NetParams.from_flat([np.array([[np.nan], [0.0]]), np.array([0.0])])
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, bad, state, lr=0.1)
    bad = NetParams.from_flat([np.array([[np.inf], [0.0]]), np.array([0.0])])
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, bad, state, lr=0.1)
    assert state.t == 0  # inputs untouched


def test_adam_rejects_an_update_that_overflows():
    cfg = NetConfig(input_dim=2, n_species=1, identity_encoder=True, dropout_p=0.0)
    params = init_params(cfg)
    state = init_adam(params)
    grads = NetParams.from_flat([np.ones((2, 1), np.float32), np.ones(1, np.float32)])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError, match="parameters"):
        adam_step(params, grads, state, lr=1e39)  # inf as a float32 step size
    assert state.t == 0


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
