"""The loss core: ``compute_loss`` checks the predictions' dtype and shape
before reading them (ssdl and slds take only the entries they read),
overwrites them with dL/dz, exact at saturated predictions, and holds few
scratch arrays while it does."""

import struct
import tracemalloc

import numpy as np
import pytest

import sinr.parallel
from helpers import hand_off_to_a_pool_thread, read_index, reference_loss
from sinr.losses import (
    CLAMP_EPS,
    BatchTargets,
    LossConfig,
    LossVariant,
    compute_loss,
    draw_j_prime,
)


def _predictions(variant, dtype):
    """``(y, targets, j_prime)``: 2 x 6 dense rows over 5 species, with
    entries outside the clamp range; a variant reads ``y[:6]``, and ``y[6:]``
    unless it is slds, at :func:`helpers.read_index`."""
    rng = np.random.default_rng(2)
    b, s = 6, 5
    y = rng.uniform(0.0, 1.0, (2 * b, s)).astype(dtype)
    y[0, :2] = (0.0, 1.0)  # outside the clamp range
    y[b, :2] = (1.0, 0.0)
    targets = BatchTargets(rng.integers(0, s, b), s)
    slds = variant.value.endswith("slds")
    return y, targets, draw_j_prime(targets, np.random.default_rng(3)) if slds else None


def _read(variant, y, targets, j_prime):
    """The predictions ``compute_loss`` takes of the dense rows ``y`` (the
    records', then the pseudo-locations'; the records' alone for slds): the
    entries at :func:`helpers.read_index`, or every one for full."""
    at = read_index(variant, targets, j_prime)
    return (y if at is None else y[at]).copy()


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_loss_leaves_predictions_untouched(variant, dtype):
    """Every input is checked before any row is written: a call whose last
    check fails (slds: a third entry a row; else an integer ``y_hat_rand``)
    raises and leaves the predictions as they were."""
    y, targets, j_prime = _predictions(variant, dtype)
    b = targets.batch_size
    if j_prime is not None:
        y = np.concatenate([_read(variant, y[:b], targets, j_prime), y[:b, :1]], axis=1)
        before = y.copy()
        with pytest.raises(ValueError, match=r"y_hat must have shape \(6, 2\)"):
            compute_loss(LossConfig(variant), y, targets)
    else:
        y = _read(variant, y, targets, None)
        before = y.copy()
        with pytest.raises(TypeError, match="y_hat_rand must be a float32 or float64 array"):
            compute_loss(LossConfig(variant), y[:b], targets,
                         y_hat_rand=np.zeros(y[b:].shape, dtype=np.int64))
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_loss_overwrites_predictions_with_dl_dz(monkeypatch, variant, dtype):
    """On 2 workers over chunks of at most 5 rows, the value and the
    predictions a variant takes end as the whole batch's closed forms
    (``helpers.reference_loss``) at those entries, bit for bit."""
    y, targets, j_prime = _predictions(variant, dtype)
    b, s, slds = targets.batch_size, targets.n_species, j_prime is not None
    if slds:
        y = y[:b]
    want_value, d_z, d_z_rand = reference_loss(LossConfig(variant), y[:b], targets,
                                               None if slds else y[b:], j_prime)
    want = _read(variant, d_z if slds else np.concatenate([d_z, d_z_rand]), targets, j_prime)
    got = _read(variant, y, targets, j_prime)

    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", s)
    handed_off = hand_off_to_a_pool_thread(monkeypatch, "sinr.losses", "_loss_rows")
    value = compute_loss(LossConfig(variant), got[:b], targets,
                         y_hat_rand=None if slds else got[b:])
    assert handed_off.is_set()
    assert struct.pack("<d", value) == struct.pack("<d", want_value)
    assert got.tobytes() == want.tobytes()

    with pytest.raises(TypeError, match="y_hat must be a float32 or float64 array, got int64"):
        compute_loss(LossConfig(variant), np.zeros(got[:b].shape, dtype=np.int64), targets,
                     y_hat_rand=None if slds else got[b:])


@pytest.mark.parametrize("family", ["an", "me"])
def test_single_positive_variants_take_their_read_entries_only(family):
    """ssdl takes one entry a row at the records and one at the
    pseudo-locations, slds two at the records; head-wide rows are refused."""
    targets = BatchTargets(np.array([0]), 2)
    one, two = np.array([[0.5]]), np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="y_hat_rand must have shape"):
        compute_loss(LossConfig(f"{family}-ssdl"), one, targets, y_hat_rand=np.full((2, 1), 0.5))
    with pytest.raises(ValueError, match=r"y_hat must have shape \(1, 1\)"):
        compute_loss(LossConfig(f"{family}-ssdl"), two, targets, y_hat_rand=one)
    with pytest.raises(ValueError, match="y_hat_rand must have shape"):
        compute_loss(LossConfig(f"{family}-ssdl"), one, targets, y_hat_rand=two)
    for wrong in (one, np.full((1, 3), 0.5)):
        with pytest.raises(ValueError, match=r"y_hat must have shape \(1, 2\)"):
            compute_loss(LossConfig(f"{family}-slds"), wrong, targets)


@pytest.mark.parametrize("dtype", [np.float16, np.longdouble])
def test_compute_loss_takes_float32_or_float64_only(dtype):
    """The loss computes in the predictions' dtype, and the ``S * B`` it
    divides by overflows a float16, so any other float dtype is refused
    before a row is written."""
    targets = BatchTargets(np.array([0, 1]), 2)
    y, y_rand = np.full((2, 2), 0.5, dtype=dtype), np.full((2, 2), 0.5)
    with pytest.raises(TypeError, match=f"y_hat must be a float32 or float64 array, got "
                                        f"{np.dtype(dtype)}"):
        compute_loss(LossConfig("an-full"), y, targets, y_hat_rand=y_rand)
    with pytest.raises(TypeError, match="y_hat_rand must be a float32 or float64 array"):
        compute_loss(LossConfig("me-ssdl"), y_rand[:, :1], targets, y_hat_rand=y[:, :1].copy())
    assert (y == 0.5).all() and (y_rand == 0.5).all()


#: Bound on ``|dL/dz - exact| * n`` at an ``me`` absence, whose logs and
#: products round in the dtype (measured: 3.4e-8 and 0).
ME_BOUND = {np.float32: 2e-7, np.float64: 1e-15}


@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_predictions_get_the_exact_logit_gradient(variant, dtype):
    """Fed y = sigmoid(z) rounded to the dtype for z in [-30, 30], every
    read entry's dL/dz matches a float64 computation from the same y:
    ``w (y - 1) / n`` at a positive and ``y / n`` at an ``an`` absence within
    2 ulp of the dtype, and ``y (1 - y) (log(1 - c) - log c) / n`` at an
    ``me`` absence within ``ME_BOUND / n``. A positive
    at y = 1e-10 gets ``-w / n`` and an ``an`` absence at y = 1 - 2^-24
    gets ``y / n``, the gradients a clamp at y would shrink."""
    family, selection = variant.value.split("-")
    rng = np.random.default_rng(7)
    b, s, lam = 601, 4, 2048.0
    z = rng.permutation(np.linspace(-30.0, 30.0, 2 * b * s))
    y = (1.0 / (1.0 + np.exp(-z))).astype(dtype).reshape(2 * b, s)
    targets = BatchTargets(rng.integers(0, s, b), s)
    rows, j = np.arange(b), targets.positive_index
    absence = np.zeros(y.shape, dtype=bool)
    if selection == "slds":
        j_prime = draw_j_prime(targets, rng)
        y, absence = y[:b], absence[:b]
        absence[rows, j_prime] = True
    else:
        j_prime = None
        absence[rows + b, j] = True
        if selection == "full":
            absence[:] = True
            absence[rows, j] = False
    absent = (0, j_prime[0]) if selection == "slds" else (b, j[0])
    y[0, j[0]], y[absent] = 1e-10, 1.0 - 2.0**-24
    n, w = (s * b, lam) if selection == "full" else (b, 1.0)

    at = read_index(variant, targets, j_prime)
    taken = (y if at is None else y[at]).copy()
    compute_loss(LossConfig(variant, lam), taken[:b], targets,
                 y_hat_rand=None if selection == "slds" else taken[b:])
    got = taken if at is None else np.zeros_like(y)
    if at is not None:
        got[at] = taken

    p = y.astype(np.float64)
    c = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    want = p / n if family == "an" else p * (1.0 - p) * (np.log1p(-c) - np.log(c)) / n
    want[~absence] = 0
    want[rows, j] = (p[rows, j] - 1.0) * w / n
    exact = absence & (family == "an")
    exact[rows, j] = True
    err = np.abs(got.astype(np.float64) - want)
    ulp = np.spacing(np.abs(want).astype(dtype)).astype(np.float64)
    assert (err[exact] <= 2 * ulp[exact]).all()
    assert (err[absence & ~exact] <= ME_BOUND[dtype] / n).all()
    assert got[0, j[0]] == pytest.approx(-w / n, rel=2.0**-23)
    if family == "an":
        assert got[absent] == pytest.approx(1.0 / n, rel=2.0**-23)


@pytest.mark.parametrize("variant, chunks", [("an-full", 2), ("me-full", 3)])
def test_full_losses_hold_few_row_chunks(monkeypatch, variant, chunks):
    """On one worker at 512 x 2,000 float32, the traced peak of a full loss
    stays below ``chunks`` float32 row chunks: dL/dz is written into the
    predictions, and the scratch arrays are in their dtype (an: one, me:
    two)."""
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: 1)
    rng = np.random.default_rng(5)
    b, s = 512, 2000
    y = rng.uniform(0.0, 1.0, (2 * b, s)).astype(np.float32)
    targets = BatchTargets(rng.integers(0, s, b), s)
    tracemalloc.start()
    try:
        compute_loss(LossConfig(variant), y[:b], targets, y_hat_rand=y[b:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (sinr.parallel.CHUNK_ENTRIES * 4) < chunks
