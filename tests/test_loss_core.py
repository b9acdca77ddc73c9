"""The loss core's input handling: ``compute_loss`` works on private float64
copies of the predictions and checks their shapes before reading them."""

import numpy as np
import pytest

from sinr.losses import BatchTargets, LossConfig, LossVariant, compute_loss


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_loss_leaves_predictions_untouched(variant, dtype):
    rng = np.random.default_rng(2)
    b, s = 6, 5
    y = rng.uniform(0.0, 1.0, (2 * b, s)).astype(dtype)
    y[0, :2] = (0.0, 1.0)  # outside the clamp range
    y[b, :2] = (1.0, 0.0)
    before = y.copy()
    targets = BatchTargets(rng.integers(0, s, b), s)
    compute_loss(LossConfig(variant), y[:b], targets,
                 y_hat_rand=None if variant.value.endswith("slds") else y[b:],
                 rng=np.random.default_rng(3))
    assert y.tobytes() == before.tobytes()


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
