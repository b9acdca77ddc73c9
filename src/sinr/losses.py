"""Single-positive multi-label losses for presence-only training.

Each example carries one confirmed-present species j and no confirmed
absences. Every loss is ``-log y[j]`` plus an absence term on some negatives,
and the six variants are one table, absence term x negative selection:

- absence: ``an`` ("assume negative") is ``-log(1 - p)``; ``me`` ("maximum
  entropy") is the Bernoulli entropy ``H(p)``.
- selection: ``ssdl`` is species j at a random pseudo-location (``y'``);
  ``slds`` is a random other species j' at the same location; ``full`` is
  every other species at the location and every species at a pseudo-location,
  averaged over species, with the positive term weighted by ``lam``.

Values are batch means. :func:`compute_loss` overwrites the sigmoid outputs
with the exact gradient with respect to the head logits, dL/dz (the
``1/batch`` factor included), which seeds :func:`sinr.net.backward`.
Predictions are clamped to ``[CLAMP_EPS, 1 - CLAMP_EPS]`` in float64 before
any logarithm, which keeps values and gradients finite even when a float32
sigmoid saturates.

The API is :func:`compute_loss` for every variant, plus :func:`draw_j_prime`
for the negative species that ``slds`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .parallel import map_ranges, row_chunks

#: Predictions are clamped this far inside the unit interval before logs.
CLAMP_EPS = 1e-7


class LossVariant(str, Enum):
    AN_SSDL = "an-ssdl"
    AN_SLDS = "an-slds"
    AN_FULL = "an-full"
    ME_SSDL = "me-ssdl"
    ME_SLDS = "me-slds"
    ME_FULL = "me-full"


def needs_pseudo_negatives(variant: LossVariant) -> bool:
    """Whether a variant consumes predictions at random pseudo-locations."""
    return variant in (
        LossVariant.AN_SSDL,
        LossVariant.AN_FULL,
        LossVariant.ME_SSDL,
        LossVariant.ME_FULL,
    )


@dataclass(frozen=True)
class LossConfig:
    """Training-loss selection: variant plus the positive weight ``lam``.

    ``lam`` multiplies the confirmed-positive term of the ``full`` variants
    and is ignored by the others.
    """

    variant: LossVariant
    lam: float = 2048.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", LossVariant(self.variant))
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"lam must be a positive finite float, got {self.lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class BatchTargets:
    """Per-example confirmed-positive species indices for one batch."""

    positive_index: np.ndarray
    n_species: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.positive_index)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError(f"positive_index must be 1-D and non-empty, got shape {idx.shape}")
        if not np.issubdtype(idx.dtype, np.integer):
            raise TypeError(f"positive_index must be integral, got dtype {idx.dtype}")
        if self.n_species < 1:
            raise ValueError(f"n_species must be >= 1, got {self.n_species}")
        if np.any(idx < 0) or np.any(idx >= self.n_species):
            raise ValueError("positive_index entries must lie in [0, n_species)")
        object.__setattr__(self, "positive_index", idx.astype(np.int64))
        object.__setattr__(self, "n_species", int(self.n_species))

    @property
    def batch_size(self) -> int:
        return int(self.positive_index.shape[0])


def bernoulli_entropy(p):
    """Entropy of a Bernoulli(p) variable in nats, with ``0 log 0 = 0``.

    Accepts a scalar or array with every entry in [0, 1]; returns the same
    shape (a plain float for scalar input).

    >>> round(bernoulli_entropy(0.5), 7)
    0.6931472
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("bernoulli_entropy requires probabilities in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(
            np.where(arr > 0.0, arr * np.log(arr), 0.0)
            + np.where(arr < 1.0, (1.0 - arr) * np.log1p(-arr), 0.0)
        )
    if np.ndim(p) == 0:
        return float(h)
    return h


def _checked(arr, targets: BatchTargets, name: str) -> np.ndarray:
    """``arr`` once it is a floating-point array of the batch's shape, which
    :func:`compute_loss` can overwrite with dL/dz."""
    if not np.issubdtype(getattr(arr, "dtype", object), np.floating):
        kind = getattr(arr, "dtype", type(arr).__name__)
        raise TypeError(f"{name} must be a floating-point array, got {kind}")
    expected = (targets.batch_size, targets.n_species)
    if arr.shape != expected:
        raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
    return arr


def _clamp(arr: np.ndarray) -> np.ndarray:
    """A float64 copy of ``arr`` clamped to ``[CLAMP_EPS, 1 - CLAMP_EPS]``."""
    out = arr.astype(np.float64)
    return np.clip(out, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out)


def draw_j_prime(targets: BatchTargets, rng: np.random.Generator) -> np.ndarray:
    """The ``slds`` negatives: per example, one species drawn uniformly from
    the ``n_species - 1`` that are not its positive."""
    s = targets.n_species
    if s < 2:
        raise ValueError("slds variants require at least two species")
    # Draw in [0, S-1) and shift draws at or above the positive index up by one.
    u = rng.integers(0, s - 1, size=targets.batch_size)
    return u + (u >= targets.positive_index)


def _checked_j_prime(targets: BatchTargets, j_prime) -> np.ndarray:
    j = targets.positive_index
    if j_prime is None:
        raise ValueError("slds variants require j_prime (see draw_j_prime)")
    jp = np.asarray(j_prime)
    if jp.shape != j.shape or not np.issubdtype(jp.dtype, np.integer):
        raise ValueError("j_prime must be an integer array matching positive_index")
    if np.any(jp < 0) or np.any(jp >= targets.n_species) or np.any(jp == j):
        raise ValueError("j_prime entries must be valid non-positive species indices")
    return jp.astype(np.int64)


def _an_absence(p: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray]:
    grad = np.subtract(1.0, p)
    grad *= scale
    np.divide(1.0, grad, out=grad)
    np.negative(p, out=p)
    np.log1p(p, out=p)
    np.negative(p, out=p)
    return p, grad


#: Absence terms at clamped p: (per-entry loss, its derivative / scale). ``an``
#: overwrites p with ``-log1p(-p)`` and returns ``1 / ((1 - p) * scale)``; that
#: grouping is part of the numerics, since ``(1 / (1 - p)) / scale`` rounds
#: differently and changes trained models.
_ABSENCE = {
    "an": _an_absence,
    "me": lambda p, scale: (bernoulli_entropy(p), (np.log1p(-p) - np.log(p)) / scale),
}


def _logit_grad_in_place(y: np.ndarray, d_y) -> None:
    """Overwrite sigmoid outputs ``y`` with ``dL/dz = d_y * y * (1 - y)``,
    computed in ``d_y``'s precision and rounded once to ``y``'s dtype.
    ``d_y`` is dL/dy of every entry, or ``(cols, d)`` (see :func:`_loss_rows`):
    then only the entries ``(r, cols[r, k])`` are read, ``y`` is zero-filled
    and those entries are written, so every other entry's dL/dz is +0, as the
    product with a dL/dy of 0 gives."""
    if isinstance(d_y, tuple):
        cols, d = d_y
        at = np.arange(len(y))[:, None], cols
        read = y[at]
        dz = 1.0 - read
        dz *= read
        y[...] = 0
        y[at] = d * dz
        return
    dz = 1.0 - y
    dz *= y
    np.multiply(d_y, dz, out=y)


def compute_loss(
    cfg: LossConfig,
    y_hat: np.ndarray,
    targets: BatchTargets,
    *,
    y_hat_rand: np.ndarray | None = None,
    j_prime: np.ndarray | None = None,
) -> float:
    """The batch-mean loss of the configured variant on the sigmoid outputs
    ``y_hat``. ``y_hat_rand`` is required for ssdl/full; ``j_prime`` (from
    :func:`draw_j_prime`) for slds.

    Overwrites ``y_hat``, and ``y_hat_rand`` when the variant reads it, with
    dL/dz, the gradient with respect to the head logits. The rows run in
    chunks on the step's workers (:func:`row_chunks`), so no float64 array of
    the batch's shape is built, and each chunk does the whole batch's
    arithmetic, bit for bit. ssdl and slds read one or two entries a row, so
    only those are computed: the other entries of their rows become +0,
    whatever they held, which lets a training forward leave them as the head
    product alone (``forward``'s ``read``).

    >>> y, y_rand = np.array([[0.8]]), np.array([[0.6]])
    >>> compute_loss(LossConfig("an-ssdl"), y, BatchTargets(np.array([0]), 1),
    ...              y_hat_rand=y_rand)
    1.1394342831883648
    >>> round(float(y[0, 0]), 12), round(float(y_rand[0, 0]), 12)
    (-0.2, 0.6)
    """
    selection = cfg.variant.value.split("-")[1]
    y_hat = _checked(y_hat, targets, "y_hat")
    if selection != "slds":
        if y_hat_rand is None:
            raise ValueError(f"variant {cfg.variant.value!r} requires y_hat_rand")
        y_hat_rand = _checked(y_hat_rand, targets, "y_hat_rand")
    jp = _checked_j_prime(targets, j_prime) if selection == "slds" else None
    j, b = targets.positive_index, targets.batch_size

    def chunk(r0: int, r1: int) -> np.ndarray:
        y, y_rand = y_hat[r0:r1], None if y_hat_rand is None else y_hat_rand[r0:r1]
        jp_rows = None if jp is None else jp[r0:r1]
        row_losses, d, dr = _loss_rows(cfg, y, j[r0:r1], y_rand, jp_rows, b)
        _logit_grad_in_place(y, d)
        if dr is not None:
            _logit_grad_in_place(y_rand, dr)
        return row_losses

    return float(np.mean(np.concatenate(map_ranges(chunk, row_chunks(*y_hat.shape)))))


def _loss_rows(cfg: LossConfig, y_hat, j, y_hat_rand, jp, b: int):
    """``(row losses, dL/dy_hat, dL/dy_hat_rand or None)`` of the rows
    ``y_hat`` with positives ``j`` (and slds negatives ``jp``), the gradients
    normalised by the batch size ``b``. The full variants give each dL/dy as
    an array of the rows' shape. ssdl and slds read one or two entries a row
    and give ``(cols, d)``: ``d[r, k]`` is dL/dy at ``(r, cols[r, k])`` and
    every other entry's is 0."""
    family, selection = cfg.variant.value.split("-")
    absence = _ABSENCE[family]
    rows = np.arange(len(j))
    if selection == "full":
        s = y_hat.shape[1]
        scale = s * b
        c = _clamp(y_hat)
        pos = c[rows, j]
        terms, d = absence(c, scale)
        terms[rows, j] = cfg.lam * -np.log(pos)
        row_sums = terms.sum(axis=1)
        del c, terms  # hold one array fewer while the pseudo-location terms are built
        terms_rand, dr = absence(_clamp(y_hat_rand), scale)
        d[rows, j] = -cfg.lam / (pos * scale)
        return (row_sums + terms_rand.sum(axis=1)) / s, d, dr
    # Only B (ssdl) or 2B (slds) entries are read: gather them, then clamp.
    pos = _clamp(y_hat[rows, j])
    d_pos = -1.0 / (pos * b)
    if selection == "ssdl":
        neg_terms, neg_grad = absence(_clamp(y_hat_rand[rows, j]), b)
        d, dr = (j[:, None], d_pos[:, None]), (j[:, None], neg_grad[:, None])
    else:
        neg_terms, neg_grad = absence(_clamp(y_hat[rows, jp]), b)
        d, dr = (np.stack([j, jp], axis=1), np.stack([d_pos, neg_grad], axis=1)), None
    return -np.log(pos) + neg_terms, d, dr
