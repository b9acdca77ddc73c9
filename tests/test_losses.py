"""Presence-only multi-label losses: frozen hand values, gradients with
respect to the head logits (dL/dz), and the entropy-replacement relationships
between the two loss families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import loss
from sinr.losses import (
    BatchTargets,
    LossConfig,
    LossVariant,
    bernoulli_entropy,
    compute_loss,
    draw_j_prime,
    needs_pseudo_negatives,
)


def one_row_targets(j: int, n_species: int) -> BatchTargets:
    return BatchTargets(np.array([j], dtype=np.int64), n_species)


def entropy_ref(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


# ---------------------------------------------------------------------------
# Frozen hand values (recomputed in-test from the definitions)
# ---------------------------------------------------------------------------


def test_ssdl_hand_value_and_gradients():
    value, d_z, d_z_rand = loss(
        "an-ssdl", np.array([[0.8]]), one_row_targets(0, 1), y_hat_rand=np.array([[0.6]])
    )
    expected = -math.log(0.8) - math.log(1.0 - 0.6)
    assert abs(expected - 1.1394342831883648) < 1e-15
    assert abs(value - expected) < 1e-12
    # d/dz -log(sigma(z)) = sigma - 1 and d/dz -log(1 - sigma(z)) = sigma:
    # pushing the pseudo-negative up raises the loss, hence the positive sign.
    np.testing.assert_allclose(d_z, [[0.8 - 1.0]], atol=1e-12)
    np.testing.assert_allclose(d_z_rand, [[0.6]], atol=1e-12)


def test_slds_hand_value():
    value, d_z, _ = loss(
        "an-slds", np.array([[0.8, 0.3]]), one_row_targets(0, 2), j_prime=np.array([1])
    )
    expected = -math.log(0.8) - math.log(1.0 - 0.3)
    assert abs(expected - 0.5798184952529422) < 1e-15
    assert abs(value - expected) < 1e-12
    np.testing.assert_allclose(d_z, [[0.8 - 1.0, 0.3]], atol=1e-12)


def test_full_single_species_hand_value():
    value, _, _ = loss(
        "an-full", np.array([[0.5]]), one_row_targets(0, 1), 1.0, y_hat_rand=np.array([[0.5]])
    )
    assert abs(value - 2.0 * math.log(2.0)) < 1e-12
    assert abs(2.0 * math.log(2.0) - 1.3862943611198906) < 1e-15


def test_full_two_species_hand_value():
    value, _, _ = loss(
        "an-full", np.array([[0.8, 0.3]]), one_row_targets(0, 2), 2048.0,
        y_hat_rand=np.array([[0.6, 0.9]]),
    )
    expected = -0.5 * (
        2048.0 * math.log(0.8) + math.log(0.7) + math.log(0.4) + math.log(0.1)
    )
    assert abs(expected - 230.2867719301542) < 1e-10
    assert abs(value - expected) < 1e-9


def test_full_near_perfect_predictions_drive_loss_to_zero():
    y = np.array([[1.0 - 1e-9, 1e-9, 1e-9]])
    y_rand = np.full((1, 3), 1e-9)
    value, _, _ = loss("an-full", y, one_row_targets(0, 3), 1.0, y_hat_rand=y_rand)
    assert 0.0 <= value < 1e-6


def test_me_ssdl_hand_value():
    value, d_z, d_z_rand = loss(
        "me-ssdl", np.array([[0.8]]), one_row_targets(0, 1), y_hat_rand=np.array([[0.6]])
    )
    expected = -math.log(0.8) + entropy_ref(0.6)
    assert abs(expected - 0.8961552183234662) < 1e-15
    assert abs(value - expected) < 1e-12
    np.testing.assert_allclose(d_z, [[0.8 - 1.0]], atol=1e-12)
    # dH/dz = dH/dp * dp/dz = log((1-p)/p) * p(1-p)
    np.testing.assert_allclose(d_z_rand, [[math.log(0.4 / 0.6) * 0.6 * 0.4]], atol=1e-12)


def test_entropy_values_and_range():
    assert abs(bernoulli_entropy(0.25) - 0.5623351446188083) < 1e-15
    assert abs(bernoulli_entropy(0.25) - entropy_ref(0.25)) < 1e-15
    assert abs(bernoulli_entropy(0.5) - math.log(2.0)) < 1e-15
    assert bernoulli_entropy(0.0) == 0.0
    assert bernoulli_entropy(1.0) == 0.0
    ps = np.linspace(0.0, 1.0, 101)
    hs = bernoulli_entropy(ps)
    assert np.all(hs >= 0.0) and np.all(hs <= math.log(2.0) + 1e-15)
    np.testing.assert_allclose(hs, hs[::-1], atol=1e-15)  # symmetric about 0.5


# ---------------------------------------------------------------------------
# Family relationships
# ---------------------------------------------------------------------------


def test_me_equals_an_when_replaced_terms_are_half():
    """With every entropy-replaced prediction at 0.5, H(0.5) = -log(0.5), so
    each pair of variants must agree to machine precision."""
    rng = np.random.default_rng(5)
    b, s = 6, 4
    targets = BatchTargets(rng.integers(0, s, b).astype(np.int64), s)
    y_pos_only = np.full((b, s), 0.5)
    y_pos_only[np.arange(b), targets.positive_index] = rng.uniform(0.05, 0.95, b)
    y_half = np.full((b, s), 0.5)

    v_an, _, _ = loss("an-ssdl", y_pos_only, targets, y_hat_rand=y_half)
    v_me, _, _ = loss("me-ssdl", y_pos_only, targets, y_hat_rand=y_half)
    assert abs(v_an - v_me) < 1e-12

    jp = np.array([(t + 1) % s for t in targets.positive_index])
    v_an, _, _ = loss("an-slds", y_pos_only, targets, j_prime=jp)
    v_me, _, _ = loss("me-slds", y_pos_only, targets, j_prime=jp)
    assert abs(v_an - v_me) < 1e-12

    v_an, _, _ = loss("an-full", y_pos_only, targets, 7.0, y_hat_rand=y_half)
    v_me, _, _ = loss("me-full", y_pos_only, targets, 7.0, y_hat_rand=y_half)
    assert abs(v_an - v_me) < 1e-12


def test_full_reduces_to_ssdl_for_single_species_unit_weight():
    rng = np.random.default_rng(9)
    b = 8
    y = rng.uniform(0.1, 0.9, (b, 1))
    y_rand = rng.uniform(0.1, 0.9, (b, 1))
    targets = BatchTargets(np.zeros(b, dtype=np.int64), 1)
    v_full, dz_full, dzr_full = loss("an-full", y, targets, 1.0, y_hat_rand=y_rand)
    v_ssdl, dz_ssdl, dzr_ssdl = loss("an-ssdl", y, targets, y_hat_rand=y_rand)
    assert abs(v_full - v_ssdl) < 1e-12
    np.testing.assert_allclose(dz_full, dz_ssdl, atol=1e-12)
    np.testing.assert_allclose(dzr_full, dzr_ssdl, atol=1e-12)


def test_full_is_affine_in_lambda():
    rng = np.random.default_rng(13)
    b, s = 5, 7
    y = rng.uniform(0.05, 0.95, (b, s))
    y_rand = rng.uniform(0.05, 0.95, (b, s))
    targets = BatchTargets(rng.integers(0, s, b).astype(np.int64), s)

    def value(lam):
        v, _, _ = loss("an-full", y, targets, lam, y_hat_rand=y_rand)
        return v

    v1, v2, v9 = value(1.0), value(2.0), value(9.0)
    # L(lam) = base + lam * positive_part, so slopes between any two points agree
    assert abs((v9 - v1) / 8.0 - (v2 - v1)) < 1e-10
    # and the slope is the mean positive-term magnitude itself
    rows = np.arange(b)
    pos_part = float(np.mean(-np.log(y[rows, targets.positive_index]) / s))
    assert abs((v2 - v1) - pos_part) < 1e-10


def test_slds_draw_is_uniform_over_non_positives():
    s = 5
    b = 10000
    rng = np.random.default_rng(123)
    targets = BatchTargets(np.full(b, 2, dtype=np.int64), s)
    j_prime = draw_j_prime(targets, rng)
    assert not np.any(j_prime == 2)
    for j in (0, 1, 3, 4):
        freq = float(np.mean(j_prime == j))
        assert abs(freq - 0.25) < 0.02, (j, freq)


def test_slds_requires_two_species():
    with pytest.raises(ValueError):
        draw_j_prime(one_row_targets(0, 1), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Batch-mean convention and numerical safety
# ---------------------------------------------------------------------------


def test_batch_mean_and_gradient_scaling():
    """Duplicating a batch leaves the value unchanged and halves each row's
    gradient (the mean's 1/B enters the per-row derivative)."""
    y = np.array([[0.7, 0.2]])
    y_rand = np.array([[0.4, 0.6]])
    t1 = one_row_targets(0, 2)
    t2 = BatchTargets(np.array([0, 0], dtype=np.int64), 2)
    v1, d1, dr1 = loss("an-full", y, t1, 3.0, y_hat_rand=y_rand)  # dL/dz
    v2, d2, dr2 = loss("an-full", np.repeat(y, 2, 0), t2, 3.0, y_hat_rand=np.repeat(y_rand, 2, 0))
    assert abs(v1 - v2) < 1e-12
    np.testing.assert_allclose(d2, np.repeat(d1 / 2.0, 2, 0), atol=1e-12)
    np.testing.assert_allclose(dr2, np.repeat(dr1 / 2.0, 2, 0), atol=1e-12)


def test_extreme_predictions_stay_finite():
    y = np.array([[0.0, 1.0, 0.5]])
    y_rand = np.array([[1.0, 0.0, 0.5]])
    targets = one_row_targets(0, 3)
    for variant in ("an-ssdl", "me-ssdl", "an-full", "me-full"):
        value, d_z, d_z_rand = loss(variant, y, targets, 2048.0, y_hat_rand=y_rand)
        assert np.isfinite(value) and value >= 0.0
        assert np.all(np.isfinite(d_z)) and np.all(np.isfinite(d_z_rand))
    value, d_z, _ = loss("an-slds", y, targets, j_prime=np.array([1]))
    assert np.isfinite(value) and np.all(np.isfinite(d_z))


@settings(max_examples=60, derandomize=True)
@given(
    y_pos=st.floats(0.0, 1.0),
    y_neg=st.floats(0.0, 1.0),
    y_rand=st.floats(0.0, 1.0),
    lam=st.floats(0.01, 4096.0),
)
def test_losses_are_finite_and_nonnegative(y_pos, y_neg, y_rand, lam):
    y = np.array([[y_pos, y_neg]])
    yr = np.array([[y_rand, y_rand]])
    targets = one_row_targets(0, 2)
    values = [
        loss("an-ssdl", y, targets, y_hat_rand=yr)[0],
        loss("me-ssdl", y, targets, y_hat_rand=yr)[0],
        loss("an-slds", y, targets, j_prime=np.array([1]))[0],
        loss("me-slds", y, targets, j_prime=np.array([1]))[0],
        loss("an-full", y, targets, lam, y_hat_rand=yr)[0],
        loss("me-full", y, targets, lam, y_hat_rand=yr)[0],
    ]
    for v in values:
        assert math.isfinite(v) and v >= 0.0


# ---------------------------------------------------------------------------
# Dispatcher and config plumbing
# ---------------------------------------------------------------------------


def test_needs_pseudo_negatives_table():
    expected = {
        LossVariant.AN_SSDL: True,
        LossVariant.ME_SSDL: True,
        LossVariant.AN_FULL: True,
        LossVariant.ME_FULL: True,
        LossVariant.AN_SLDS: False,
        LossVariant.ME_SLDS: False,
    }
    for variant, needed in expected.items():
        assert needs_pseudo_negatives(variant) is needed


def test_compute_loss_requires_pseudo_predictions_when_needed():
    targets = one_row_targets(0, 2)
    for variant, y in [(LossVariant.AN_SSDL, np.array([[0.5]])),
                       (LossVariant.ME_FULL, np.array([[0.5, 0.5]]))]:
        with pytest.raises(ValueError, match="requires y_hat_rand"):
            compute_loss(LossConfig(variant), y, targets)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(LossVariant.AN_FULL, lam=0.0)
    with pytest.raises(ValueError):
        LossConfig(LossVariant.AN_FULL, lam=-1.0)
    assert LossConfig("an-full").variant is LossVariant.AN_FULL


def test_batch_targets_validation():
    with pytest.raises(ValueError):
        BatchTargets(np.array([3]), 3)  # index out of range
    with pytest.raises(ValueError):
        BatchTargets(np.array([-1]), 3)
    with pytest.raises(ValueError):
        BatchTargets(np.array([[0]]), 3)  # wrong rank


def test_shape_mismatch_rejected():
    targets = one_row_targets(0, 2)
    with pytest.raises(ValueError):
        compute_loss(LossConfig("an-ssdl"), np.array([[0.5, 0.5]]), targets,
                     y_hat_rand=np.array([[0.5]]))
    with pytest.raises(ValueError):
        loss("an-full", np.array([[0.5, 0.5, 0.5]]), targets, 1.0,
             y_hat_rand=np.array([[0.5, 0.5, 0.5]]))
