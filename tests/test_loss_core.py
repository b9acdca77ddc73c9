"""The loss core's input handling: ``compute_loss`` overwrites the
predictions it reads with dL/dz, and checks their dtype and shape before
reading them."""

import tracemalloc

import numpy as np
import pytest

import sinr.parallel
from helpers import dense_d_y, hand_off_to_a_pool_thread
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
    d_y = dense_d_y(d_y, (b, s))
    want = before.copy()
    d_z = 1.0 - want[:read]
    d_z *= want[:read]
    np.multiply(d_y if slds else np.concatenate([d_y, dense_d_y(d_y_rand, (b, s))]), d_z,
                out=want[:read])

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


@pytest.mark.parametrize("variant", [v for v in LossVariant if not v.value.endswith("full")])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_single_positive_losses_write_only_the_entries_they_read(monkeypatch, variant, dtype):
    """ssdl and slds read one or two entries a row. Whatever the other
    entries hold (a training forward leaves the head product there), they
    end as +0, and the value and the read entries' dL/dz are those of rows
    of sigmoid outputs. At 512 x 2,000 on one worker, the traced peak stays
    below a tenth of one 2^17-entry float32 row chunk: no array of the rows'
    width is built (a float64 dL/dy of each chunk was twice one)."""
    y, targets, j_prime = _predictions(variant, dtype)
    b, slds = targets.batch_size, j_prime is not None
    read = b if slds else 2 * b
    rows = np.arange(b)
    cols = [targets.positive_index] + ([j_prime] if slds else [])
    junk = np.resize(np.array([-0.0, -3.5, 1e30, 2.0, 0.5], dtype=dtype), y.shape)
    for c in cols:  # the read entries keep their predictions
        junk[rows, c] = y[rows, c]
        junk[rows + b, c] = y[rows + b, c]
    clean_value = compute_loss(LossConfig(variant), y[:b], targets,
                               y_hat_rand=None if slds else y[b:], j_prime=j_prime)
    value = compute_loss(LossConfig(variant), junk[:b], targets,
                         y_hat_rand=None if slds else junk[b:], j_prime=j_prime)
    assert value == clean_value
    assert junk[:read].tobytes() == y[:read].tobytes()
    unread = np.ones((read, targets.n_species), dtype=bool)
    for c in cols:
        unread[np.arange(read), np.tile(c, read // b)] = False
    assert not np.signbit(junk[:read][unread]).any() and not junk[:read][unread].any()

    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 1)
    rng = np.random.default_rng(4)
    b, s = 512, 2000
    big = rng.uniform(0.0, 1.0, (2 * b, s)).astype(np.float32)
    targets = BatchTargets(rng.integers(0, s, b), s)
    j_prime = draw_j_prime(targets, rng) if slds else None
    tracemalloc.start()
    try:
        compute_loss(LossConfig(variant), big[:b], targets,
                     y_hat_rand=None if slds else big[b:], j_prime=j_prime)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sinr.parallel.CHUNK_ENTRIES * 4 / 10


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
