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

Values are batch means. :func:`compute_loss` takes the sigmoid outputs y at
the head entries a variant reads, one or two a row for ``ssdl`` and ``slds``
(a training step computes only those: :func:`sinr.net.forward`'s ``read``),
and every species for ``full``, which a training step takes a block of
species at a time (:class:`FullLoss`). Both overwrite them with dL/dz, the
exact gradient with respect to the head logits, which seeds
:func:`sinr.net.backward`: ``w (y - 1) / n`` at a positive, ``y / n`` at an
``an`` absence and ``y (1 - y) (log(1 - c) - log c) / n`` at an ``me`` one,
where n is ``S * B`` for ``full`` and B
otherwise, w is ``lam`` for the ``full`` positive and 1 otherwise, and c is
y clipped to ``[CLAMP_EPS, 1 - CLAMP_EPS]``. The values' logarithms read
c, which keeps them finite, while a saturated sigmoid still gets its exact
gradient. Work over the batch's entries stays in the predictions' dtype;
row sums, the mean and the positive entries are float64.

The API is :func:`compute_loss` for every variant, :class:`FullLoss` for a
full training step, and :func:`draw_j_prime` for the negatives ``slds`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import net
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


def _checked(arr, b: int, width: int, name: str) -> np.ndarray:
    """``arr`` once it is a float32 or float64 array of ``b`` rows of
    ``width`` entries: the loss computes in its dtype, and the ``S * B`` it
    divides by overflows float16."""
    kind = getattr(arr, "dtype", None)
    if kind not in (np.float32, np.float64):
        kind = type(arr).__name__ if kind is None else kind
        raise TypeError(f"{name} must be a float32 or float64 array, got {kind}")
    if arr.shape != (b, width):
        raise ValueError(f"{name} must have shape {(b, width)}, got {arr.shape}")
    return arr


def _clip(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c: ``y`` clipped to ``[CLAMP_EPS, 1 - CLAMP_EPS]`` in its dtype."""
    return np.clip(y, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out)


def draw_j_prime(targets: BatchTargets, rng: np.random.Generator) -> np.ndarray:
    """The ``slds`` negatives: per example, one species drawn uniformly from
    the ``n_species - 1`` that are not its positive."""
    s = targets.n_species
    if s < 2:
        raise ValueError("slds variants require at least two species")
    # Draw in [0, S-1) and shift draws at or above the positive index up by one.
    u = rng.integers(0, s - 1, size=targets.batch_size)
    return u + (u >= targets.positive_index)


def _row_sums(terms: np.ndarray, skip) -> np.ndarray:
    """float64 sums over the last axis, once the ``skip`` entries are 0."""
    if skip is not None:
        terms[skip] = 0
    return terms.sum(axis=-1, dtype=np.float64)


def _an_absence(y: np.ndarray, n: int, skip) -> np.ndarray:
    """Row sums of ``-log(1 - c)`` over the entries of ``y`` but ``skip``;
    overwrites ``y`` with dL/dz, ``y / n``."""
    t = _clip(y)
    np.log1p(np.negative(t, out=t), out=t)
    np.divide(y, n, out=y)
    return -_row_sums(t, skip)


def _me_absence(y: np.ndarray, n: int, skip) -> np.ndarray:
    """Row sums of ``H(c) = -(c log c + (1 - c) log(1 - c))`` over the
    entries of ``y`` but ``skip``; overwrites ``y`` with dL/dz, ``y (1 - y)
    (log(1 - c) - log c) / n``. The two products are summed apart and log c
    is taken twice, so that two scratch arrays are live, not four."""
    t = _clip(y)
    u = np.log(t)
    u *= t
    sums = _row_sums(u, skip)
    np.log1p(np.negative(t, out=t), out=u)
    t += 1
    t *= u
    sums += _row_sums(t, skip)
    np.log(_clip(y, out=t), out=t)
    u -= t
    np.subtract(1, y, out=t)
    t *= y
    np.multiply(t, u, out=y)
    np.divide(y, n, out=y)
    return -sums


_ABSENCE = {"an": _an_absence, "me": _me_absence}


def _positive(y: np.ndarray, w: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(w * -log c, w * (y - 1) / n)`` of gathered positive predictions
    ``y``: their weighted terms and dL/dz, in float64."""
    c = _clip(y).astype(np.float64)
    return -w * np.log(c), (y.astype(np.float64) - 1.0) * w / n


def compute_loss(
    cfg: LossConfig,
    y_hat: np.ndarray,
    targets: BatchTargets,
    *,
    y_hat_rand: np.ndarray | None = None,
) -> float:
    """The batch-mean loss of the configured variant on the sigmoid outputs
    ``y_hat``, which hold the head entries the variant reads, a row per
    example: every species for full; the positive's for ssdl, with
    ``y_hat_rand`` the positive's at the pseudo-locations; the positive's,
    then the negative species' (:func:`draw_j_prime`), for slds.
    ``y_hat_rand`` is required for ssdl and full: ``(B, S)`` for full and
    ``(B, 1)`` for ssdl.

    Overwrites ``y_hat``, and ``y_hat_rand`` when the variant reads it, with
    dL/dz, the gradient with respect to the head logits, in their dtype. The
    rows run in chunks on the workers (:func:`row_chunks`), and each chunk
    does the whole batch's arithmetic, bit for bit; full is the one-block
    case of :class:`FullLoss`'s core, which a training step uses instead.

    >>> y, y_rand = np.array([[0.8]]), np.array([[0.6]])
    >>> compute_loss(LossConfig("an-ssdl"), y, BatchTargets(np.array([0]), 1),
    ...              y_hat_rand=y_rand)
    1.1394342831883648
    >>> round(float(y[0, 0]), 12), float(y_rand[0, 0])
    (-0.2, 0.6)
    """
    selection = cfg.variant.value.split("-")[1]
    b, s = targets.batch_size, targets.n_species
    width = {"full": s, "ssdl": 1, "slds": 2}[selection]
    y_hat = _checked(y_hat, b, width, "y_hat")
    if selection != "slds":
        if y_hat_rand is None:
            raise ValueError(f"variant {cfg.variant.value!r} requires y_hat_rand")
        y_hat_rand = _checked(y_hat_rand, b, width, "y_hat_rand")
    j = targets.positive_index

    def chunk(r0: int, r1: int) -> np.ndarray:
        return _loss_rows(cfg, y_hat[r0:r1], j[r0:r1],
                          None if y_hat_rand is None else y_hat_rand[r0:r1], b, s)

    rows = np.concatenate(map_ranges(chunk, row_chunks(*y_hat.shape)))
    return float(np.mean(rows / s if selection == "full" else rows))


class FullLoss:
    """A full variant's loss, as :func:`sinr.net.backward`'s ``d_z``, over a
    ``(2B, S)`` head of records then pseudo-locations: a call writes the
    bias, sigmoid and dL/dz over a block's products ``z`` from species ``c0``
    on, in row chunks that pair record r with pseudo-location r, and keeps
    the float64 row sums, which :meth:`value` adds in block order."""

    def __init__(self, cfg: LossConfig, targets: BatchTargets, b_head: np.ndarray):
        self.cfg, self.targets, self.b_head, self.sums = cfg, targets, b_head, {}

    def __call__(self, z: np.ndarray, c0: int) -> None:
        b, s, j = self.targets.batch_size, self.targets.n_species, self.targets.positive_index

        def chunk(r0: int, r1: int) -> np.ndarray:
            for part in (z[r0:r1], z[b + r0:b + r1]):
                part += self.b_head[c0:c0 + z.shape[1]]
                part[...] = net._sigmoid(part)
            return _loss_rows(self.cfg, z[r0:r1], j[r0:r1], z[b + r0:b + r1], b, s, c0)

        self.sums[c0] = np.concatenate([chunk(*r) for r in row_chunks(b, 2 * z.shape[1])])

    def value(self) -> float:
        rows = np.sum([self.sums[c0] for c0 in sorted(self.sums)], axis=0)
        return float(np.mean(rows / self.targets.n_species))


def _loss_rows(cfg: LossConfig, y_hat, j, y_hat_rand, b: int, s: int, c0: int = 0) -> np.ndarray:
    """The loss sums of the rows ``y_hat`` with positives ``j`` of a batch of
    ``b`` over ``s`` species; for full, ``s`` times the losses over the
    species ``c0`` on that the rows hold. Overwrites ``y_hat``, and
    ``y_hat_rand`` unless None, with dL/dz."""
    family, selection = cfg.variant.value.split("-")
    absence = _ABSENCE[family]
    if selection == "full":
        rows = np.flatnonzero((j >= c0) & (j < c0 + y_hat.shape[1]))
        cols, n = j[rows] - c0, s * b
        pos = y_hat[rows, cols]
        sums = absence(y_hat, n, (rows, cols)) + absence(y_hat_rand, n, None)
        terms, y_hat[rows, cols] = _positive(pos, cfg.lam, n)
        sums[rows] += terms
        return sums
    neg = y_hat_rand if selection == "ssdl" else y_hat[:, 1:]
    terms, y_hat[:, 0] = _positive(y_hat[:, 0], 1.0, b)
    return terms + absence(neg, b, None)
