"""The loss core's input handling: ``compute_loss`` overwrites the
predictions it reads with dL/dz, and checks their dtype and shape before
reading them."""

import numpy as np
import pytest

import sinr.parallel
from helpers import hand_off_to_a_pool_thread
from sinr.losses import (
    BatchTargets,
    LossConfig,
    LossVariant,
    _loss_rows,
    compute_loss,
    draw_j_prime,
)


def _predictions(variant, dtype):
    """``(y, targets, j_prime)``: 2 x 6 rows over 5 species, with entries
    outside the clamp range; a variant reads ``y[:6]``, and ``y[6:]`` unless
    it is slds."""
    rng = np.random.default_rng(2)
    b, s = 6, 5
    y = rng.uniform(0.0, 1.0, (2 * b, s)).astype(dtype)
    y[0, :2] = (0.0, 1.0)  # outside the clamp range
    y[b, :2] = (1.0, 0.0)
    targets = BatchTargets(rng.integers(0, s, b), s)
    slds = variant.value.endswith("slds")
    return y, targets, draw_j_prime(targets, np.random.default_rng(3)) if slds else None


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_loss_leaves_predictions_untouched(variant, dtype):
    """Every input is checked before any row is written: a call whose last
    check fails (slds: a negative equal to the positive; else an integer
    ``y_hat_rand``) raises and leaves the predictions as they were."""
    y, targets, j_prime = _predictions(variant, dtype)
    before = y.copy()
    b = targets.batch_size
    if j_prime is not None:
        bad = j_prime.copy()
        bad[-1] = targets.positive_index[-1]
        with pytest.raises(ValueError, match="j_prime"):
            compute_loss(LossConfig(variant), y[:b], targets, j_prime=bad)
    else:
        with pytest.raises(TypeError, match="y_hat_rand must be a floating-point array"):
            compute_loss(LossConfig(variant), y[:b], targets,
                         y_hat_rand=np.zeros(y[b:].shape, dtype=np.int64))
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_loss_overwrites_predictions_with_dl_dz(monkeypatch, variant, dtype):
    """On 2 workers over one-row chunks, the predictions a variant reads end
    as the whole batch's dL/dy from ``_loss_rows`` times ``y * (1 - y)``,
    rounded once to their dtype; rows it was not given keep their bytes."""
    y, targets, j_prime = _predictions(variant, dtype)
    before = y.copy()
    b, s, slds = targets.batch_size, targets.n_species, j_prime is not None
    read = b if slds else 2 * b
    row_losses, d_y, d_y_rand = _loss_rows(LossConfig(variant), before[:b],
                                           targets.positive_index,
                                           None if slds else before[b:], j_prime, b)
    want = before.copy()
    d_z = 1.0 - want[:read]
    d_z *= want[:read]
    np.multiply(d_y if slds else np.concatenate([d_y, d_y_rand]), d_z, out=want[:read])

    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", s)
    handed_off = hand_off_to_a_pool_thread(monkeypatch, "sinr.losses", "_loss_rows")
    value = compute_loss(LossConfig(variant), y[:b], targets,
                         y_hat_rand=None if slds else y[b:], j_prime=j_prime)
    assert handed_off.is_set()
    assert value == float(np.mean(row_losses))
    assert y.tobytes() == want.tobytes()
    assert y[read:].tobytes() == before[read:].tobytes()

    with pytest.raises(TypeError, match="y_hat must be a floating-point array, got int64"):
        compute_loss(LossConfig(variant), np.zeros((b, s), dtype=np.int64), targets,
                     y_hat_rand=None if slds else before[b:].copy(), j_prime=j_prime)


@pytest.mark.parametrize("family", ["an", "me"])
def test_single_positive_variants_check_shapes_before_gathering(family):
    # Each wrong shape here still holds every entry the variant reads.
    targets = BatchTargets(np.array([0]), 2)
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="y_hat_rand must have shape"):
        compute_loss(LossConfig(f"{family}-ssdl"), ok, targets, y_hat_rand=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="y_hat must have shape"):
        compute_loss(LossConfig(f"{family}-ssdl"), np.full((1, 3), 0.5), targets, y_hat_rand=ok)
    with pytest.raises(ValueError, match="y_hat must have shape"):
        compute_loss(LossConfig(f"{family}-slds"), np.full((1, 3), 0.5), targets,
                     j_prime=np.array([1]))
