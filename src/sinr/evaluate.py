"""Evaluation protocols and reference baselines for range predictors.

Four protocols:

- ranked range mapping: per-species average precision over the valid cells
  of a labeled evaluation grid, summarized as the mean over species (MAP);
- prior-weighted classification: how much multiplying classifier scores by
  predicted presence changes top-1 accuracy;
- geo-feature transfer: how well ridge regressions on a predictor's location
  features recover environmental layers, scored by held-out R^2;
- thresholded range maps: the decision threshold maximizing F1.

Plus the discretized-grid baseline, which counts observations per cell and
predicts either a normalized ratio or a binary indicator.

A predictor maps coordinate arrays ``(lons, lats)`` of length n to an (n, k)
score matrix, one column per species in a fixed order: the evaluation grid's
species for :func:`map_task`; for :func:`geo_prior_delta`, the
:class:`SpeciesPredictor`'s ``species_ids``, which need cover only the
candidate species. Each task queries it once, so a predictor that computes
only those k columns holds n x k scores, whatever the size of its catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .data import EnvRasterStack, ObservationSet
from .geo import GridSpec, cell_centroids, cell_indices
from .util import atomic_write, csv_rows, decode_errors_named

#: Regularization strengths searched by cross-validated ridge regression.
DEFAULT_ALPHAS = (0.1, 1.0, 10.0)

EVAL_GRID_MAGIC = "EVALGRID"

#: predict_fn(lons, lats) -> (n, n_species) scores in [0, 1]
PredictFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class SpeciesPredictor(Protocol):
    """A predictor that also names the species its score columns refer to."""

    species_ids: Sequence[str]

    def __call__(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray: ...


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision of ranking ``labels`` by descending ``scores``.

    Equal scores keep their input order (stable sort), so the result is
    deterministic for tied predictors. Labels are 0/1 with at least one
    positive.

    >>> round(average_precision([0.9, 0.8, 0.7], [1, 0, 1]), 4)
    0.8333
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("average precision is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ranked = (labels[order] == 1).astype(np.float64)
    precision_at = np.cumsum(ranked) / np.arange(1, scores.size + 1)
    return float((precision_at * ranked).sum() / n_pos)


# ---------------------------------------------------------------------------
# Evaluation grid: expert range labels on the global grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalGrid:
    """Per-species presence labels on a :class:`GridSpec`.

    ``labels`` has shape ``(n_species, n_cells)`` with entries 1 (present),
    0 (absent) or -1 (invalid: the cell does not count for that species).
    """

    grid: GridSpec
    species_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.species_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("evaluation grid has duplicate species ids")
        labels = np.asarray(self.labels, dtype=np.int8)
        if labels.shape != (len(ids), self.grid.n_cells):
            raise ValueError(
                f"labels must have shape ({len(ids)}, {self.grid.n_cells}), "
                f"got {labels.shape}"
            )
        if labels.size and not (labels.min() >= -1 and labels.max() <= 1):
            raise ValueError("labels must be -1, 0 or 1")
        object.__setattr__(self, "species_ids", ids)
        object.__setattr__(self, "labels", labels)

    def restrict(self, keep_ids) -> "EvalGrid":
        """Keep only ``keep_ids`` (which must all be present), in grid order."""
        keep = set(keep_ids)
        missing = keep - set(self.species_ids)
        if missing:
            raise ValueError(f"unknown species ids: {sorted(missing)}")
        rows = [i for i, s in enumerate(self.species_ids) if s in keep]
        return EvalGrid(
            grid=self.grid,
            species_ids=tuple(self.species_ids[i] for i in rows),
            labels=self.labels[rows],
        )


def save_eval_grid(eval_grid: EvalGrid, path) -> None:
    """Write the sparse text form: one ``species cell label`` line per valid
    entry; cells never mentioned for a species stay invalid on load."""
    for sid in eval_grid.species_ids:
        if any(ch.isspace() for ch in sid):
            raise ValueError(f"species id {sid!r} contains whitespace")
    with atomic_write(path) as fh:
        fh.write(
            f"{EVAL_GRID_MAGIC} {eval_grid.grid.resolution} {len(eval_grid.species_ids)}\n"
        )
        for sid, row in zip(eval_grid.species_ids, eval_grid.labels):
            cells = np.flatnonzero(row != -1)
            # sid.join puts the id before each entry's " cell label\n"
            fh.write(sid.join(["", *map(" {} {}\n".format, cells.tolist(), row[cells].tolist())]))


def load_eval_grid(path) -> EvalGrid:
    """Read the form :func:`save_eval_grid` writes.

    A file in exactly that form (a header line without padding, then
    ``id cell label`` lines one space apart) is parsed in bulk from its bytes.
    Any other file, and any such file that the bulk pass cannot take, is read
    line by line; both passes give the same grid and the same first error.
    """
    with decode_errors_named(path), open(path) as fh:
        text = fh.read()
    end = text.find("\n")
    first = text[:end] if end >= 0 else text
    plain = first != "" and first == first.strip()
    lines = [first] if plain else _stripped_lines(text)
    if not lines:
        raise ValueError(f"{path}: empty evaluation grid file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != EVAL_GRID_MAGIC:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    try:
        resolution, n_species = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    try:
        grid = GridSpec(resolution)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    entries = None
    if plain:
        body = np.frombuffer(text.encode(), np.uint8)[len(first.encode()) + 1 :]
        entries = _bulk_entries(body, grid)
        if entries is None:
            lines = _stripped_lines(text)
    if entries is None:
        entries = _checked_entries(path, lines[1:], grid)
    species_ids, species, cells, values = entries
    if len(species_ids) != n_species:
        raise ValueError(
            f"{path}: header declares {n_species} species, file lists {len(species_ids)}"
        )
    if n_species * grid.n_cells > 2**63 - 1:  # the keys below would wrap
        raise ValueError(f"{path}: header {lines[0]!r} has more labels than an array holds")
    keys = species * grid.n_cells + cells
    _, first_seen = np.unique(keys, return_index=True)
    if first_seen.size != keys.size:
        repeat = np.ones(keys.size, dtype=bool)
        repeat[first_seen] = False
        i = int(np.argmax(repeat))  # the first entry that repeats an earlier one
        raise ValueError(
            f"{path}: duplicate entry for species index {species[i]}, cell {cells[i]}"
        )
    try:
        labels = np.full((n_species, grid.n_cells), -1, dtype=np.int8)
    except MemoryError as exc:
        raise ValueError(f"{path}: header {lines[0]!r}: {exc}") from None
    labels[species, cells] = values
    return EvalGrid(grid=grid, species_ids=species_ids, labels=labels)


def _stripped_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.split("\n") if ln.strip()]


#: Cell fields of at most this many digits are below 2**63.
_MAX_CELL_DIGITS = 18
#: ``_WORD_MASKS[r]`` keeps the first ``r`` bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _bulk_entries(body: np.ndarray, grid: GridSpec):
    """(species ids in order of appearance, species index, cell, label) per
    line of ``body``, the UTF-8 bytes after the header, when every line is
    ``id cell label`` one space apart: an id without whitespace, a cell of
    1 to ``_MAX_CELL_DIGITS`` ASCII digits below ``grid.n_cells`` and a label
    0 or 1; the final line break may be missing. None for any other body, an
    empty one included, which ``_checked_entries`` then reads."""
    # Eight zero bytes past the end let every id be read as 8-byte words.
    tail = [ord("\n")] if body.size and body[-1] != ord("\n") else []
    body = np.concatenate((body, np.array(tail + [0] * 8, dtype=np.uint8)))
    # Every byte at or below the space is a separator: the ASCII whitespace
    # (tab, line and file separators, ...) and the other control bytes. A plain
    # line has exactly three, ' ', ' ' and '\n', the second just before the
    # label byte. Whitespace outside ASCII is caught in the ids below.
    sep = np.flatnonzero(body[:-8] <= ord(" "))
    if sep.size == 0 or sep.size % 3:
        return None
    gap1, gap2, ends = sep[0::3], sep[1::3], sep[2::3]
    starts = np.concatenate(([0], ends[:-1] + 1))
    id_len, width = gap1 - starts, gap2 - gap1 - 1
    min_width, max_width = int(width.min()), int(width.max())
    if not (
        (body[gap1] == ord(" ")).all()
        and (body[gap2] == ord(" ")).all()
        and (body[ends] == ord("\n")).all()
        and (gap2 == ends - 2).all()
        and id_len.min() >= 1
        and 1 <= min_width <= max_width <= _MAX_CELL_DIGITS
    ):
        return None
    values = body[ends - 1] - np.uint8(ord("0"))
    if (values > 1).any():
        return None

    # Cells: one pass per digit position, from the units digit leftwards.
    cells = np.zeros(sep.size // 3, dtype=np.int64)
    for k in range(max_width):
        digit = body[np.maximum(gap2 - 1 - k, 0)] - np.uint8(ord("0"))
        if k >= min_width:
            digit[width <= k] = 0
        if (digit > 9).any():
            return None
        cells += digit * np.int64(10**k)
    if cells.max() >= grid.n_cells:
        return None

    # Ids: a line starts a run unless its id has the bytes of the line before's,
    # compared 8 bytes at a time: first the first word of every line, then
    # the later words of the lines that still match.
    words = np.ndarray((body.size - 7,), "<u8", body, 0, (1,))
    head = words[starts] & _WORD_MASKS[np.minimum(id_len, 8)]
    run_start = np.ones(cells.size, dtype=bool)
    run_start[1:] = (id_len[1:] != id_len[:-1]) | (head[1:] != head[:-1])
    same, k = np.flatnonzero(~run_start), 8
    while same.size:
        same = same[id_len[same] > k]
        mask = _WORD_MASKS[np.minimum(id_len[same] - k, 8)]
        differ = (words[starts[same] + k] ^ words[starts[same - 1] + k]) & mask != 0
        run_start[same[differ]] = True
        same = same[~differ]
        k += 8
    heads = np.flatnonzero(run_start)
    index: dict[str, int] = {}
    head_species = []
    for a, b in zip(starts[heads].tolist(), gap1[heads].tolist()):
        sid = body[a:b].tobytes().decode()
        if not sid.isascii() and sid.split() != [sid]:  # Unicode whitespace in the id
            return None
        head_species.append(index.setdefault(sid, len(index)))
    species = np.repeat(np.array(head_species, dtype=np.int64), np.diff(heads, append=cells.size))
    return tuple(index), species, cells, values.astype(np.int8)


def _checked_entries(path, lines: list[str], grid: GridSpec):
    """``_bulk_entries`` for any body, line by line, raising on the first bad line."""
    catalog: dict[str, int] = {}
    entries = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed line {ln!r}")
        sid, cell_s, label_s = parts
        try:
            cell, label = int(cell_s), int(label_s)
        except ValueError:
            raise ValueError(f"{path}: malformed line {ln!r}") from None
        if not (0 <= cell < grid.n_cells):
            raise ValueError(f"{path}: cell index {cell} outside [0, {grid.n_cells})")
        if label not in (0, 1):
            raise ValueError(f"{path}: label must be 0 or 1, got {label}")
        if sid not in catalog:
            catalog[sid] = len(catalog)
        entries.append((catalog[sid], cell, label))
    rows = np.array(entries, dtype=np.int64).reshape(-1, 3)
    return tuple(catalog), rows[:, 0], rows[:, 1], rows[:, 2].astype(np.int8)


@dataclass(frozen=True)
class MapResult:
    """Mean AP over evaluable species, with the per-species breakdown."""

    mean_ap: float
    per_species: tuple[tuple[str, float], ...]
    skipped: tuple[tuple[str, str], ...]

    @property
    def n_evaluated(self) -> int:
        return len(self.per_species)


def map_task(predict_fn: PredictFn, eval_grid: EvalGrid) -> MapResult:
    """Score a predictor's ranked range maps against an evaluation grid.

    The predictor is queried once at the centroids of every cell that is
    valid for at least one species. A species is evaluable only if its valid
    cells include at least one presence and one absence; others are skipped
    and reported, not averaged.
    """
    cells = np.flatnonzero((eval_grid.labels != -1).any(axis=0))
    if cells.size == 0:
        raise ValueError("evaluation grid has no valid cells")
    lons, lats = cell_centroids(eval_grid.grid, cells)
    scores = np.asarray(predict_fn(lons, lats), dtype=np.float64)
    n_species = len(eval_grid.species_ids)
    if scores.shape != (cells.size, n_species):
        raise ValueError(
            f"predictor returned shape {scores.shape}, expected {(cells.size, n_species)}"
        )
    per_species: list[tuple[str, float]] = []
    skipped: list[tuple[str, str]] = []
    for s, sid in enumerate(eval_grid.species_ids):
        labels = eval_grid.labels[s, cells]
        valid = labels != -1
        n_pos = int((labels == 1).sum())
        n_neg = int((labels == 0).sum())
        if n_pos == 0 or n_neg == 0:
            skipped.append((sid, "no valid presences" if n_pos == 0 else "no valid absences"))
            continue
        per_species.append((sid, average_precision(scores[valid, s], labels[valid])))
    if not per_species:
        raise ValueError("no species was evaluable (each needs a presence and an absence)")
    mean_ap = float(np.mean([ap for _, ap in per_species]))
    return MapResult(mean_ap, tuple(per_species), tuple(skipped))


# ---------------------------------------------------------------------------
# Prior-weighted classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierRecord:
    """One classifier output: candidate species scores at a location."""

    record_id: str
    true_species: str
    lon: float
    lat: float
    candidates: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.candidates) == 0:
            raise ValueError(f"record {self.record_id}: no candidate scores")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"record {self.record_id}: duplicate candidate species")
        if scores.shape != (len(self.candidates),):
            raise ValueError(f"record {self.record_id}: scores/candidates length mismatch")
        if np.any(~np.isfinite(scores)) or np.any(scores < 0) or np.any(scores > 1):
            raise ValueError(f"record {self.record_id}: scores must lie in [0, 1]")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class ClassifierScoreSet:
    records: tuple[ClassifierRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("classifier score set is empty")
        union = set()
        for rec in self.records:
            union.update(rec.candidates)
        for rec in self.records:
            if rec.true_species not in union:
                raise ValueError(
                    f"record {rec.record_id}: true species {rec.true_species!r} "
                    "never appears among candidate scores"
                )


def load_classifier_scores(path) -> ClassifierScoreSet:
    """Read classifier outputs: ``record_id,true_species,lon,lat`` followed by
    one or more ``species:score`` fields per row (no header)."""
    records = []
    with decode_errors_named(path), open(path, newline="") as fh:
        for line_no, row in csv_rows(path, fh):
            if not row:
                continue
            if len(row) < 5:
                raise ValueError(f"{path}:{line_no}: expected at least 5 fields")
            rid, true_sp, lon_s, lat_s = row[:4]
            try:
                lon, lat = float(lon_s), float(lat_s)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: unparseable coordinates") from None
            cands, scores = [], []
            for item in row[4:]:
                sid, sep, score_s = item.rpartition(":")
                if not sep or not sid:
                    raise ValueError(f"{path}:{line_no}: malformed score field {item!r}")
                try:
                    scores.append(float(score_s))
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: unparseable score in {item!r}") from None
                cands.append(sid)
            records.append(
                ClassifierRecord(rid, true_sp, lon, lat, tuple(cands), np.array(scores))
            )
    return ClassifierScoreSet(tuple(records))


@dataclass(frozen=True)
class GeoPriorResult:
    """Top-1 accuracy without and with the presence prior."""

    baseline_acc: float
    weighted_acc: float
    n_records: int
    picks: tuple[tuple[str, str, str, str], ...]  # record_id, true, baseline, weighted

    @property
    def delta_points(self) -> float:
        """Accuracy change in percentage points (positive = prior helps)."""
        return (self.weighted_acc - self.baseline_acc) * 100.0


def _top1(candidates: tuple[str, ...], scores: np.ndarray) -> str:
    """Highest score wins; exact ties go to the smallest species id."""
    best = 0
    for i in range(1, len(candidates)):
        if scores[i] > scores[best] or (
            scores[i] == scores[best] and candidates[i] < candidates[best]
        ):
            best = i
    return candidates[best]


def geo_prior_delta(
    score_set: ClassifierScoreSet, predictor: SpeciesPredictor
) -> GeoPriorResult:
    """Re-rank classifier scores by predicted presence and measure the change.

    Each candidate score is multiplied by the predictor's presence
    probability for that species at the record's location; species the
    predictor does not know keep their score unchanged (prior 1.0). With an
    identity prior the weighted ranking is identical, making the delta
    exactly zero.
    """
    recs = score_set.records
    lons = np.array([r.lon for r in recs])
    lats = np.array([r.lat for r in recs])
    model_ids = list(predictor.species_ids)
    col = {s: i for i, s in enumerate(model_ids)}
    priors = np.asarray(predictor(lons, lats), dtype=np.float64)
    if priors.shape != (len(recs), len(model_ids)):
        raise ValueError(
            f"predictor returned shape {priors.shape}, expected {(len(recs), len(model_ids))}"
        )
    base_correct = 0
    weighted_correct = 0
    picks = []
    for i, rec in enumerate(recs):
        base_pick = _top1(rec.candidates, rec.scores)
        weights = np.array(
            [priors[i, col[s]] if s in col else 1.0 for s in rec.candidates]
        )
        weighted_pick = _top1(rec.candidates, rec.scores * weights)
        base_correct += base_pick == rec.true_species
        weighted_correct += weighted_pick == rec.true_species
        picks.append((rec.record_id, rec.true_species, base_pick, weighted_pick))
    n = len(recs)
    return GeoPriorResult(
        baseline_acc=base_correct / n,
        weighted_acc=weighted_correct / n,
        n_records=n,
        picks=tuple(picks),
    )


# ---------------------------------------------------------------------------
# Ridge regression and geo-feature transfer
# ---------------------------------------------------------------------------


def ridge_fit(x: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form ridge regression; the intercept is not penalized.

    Centering both ``x`` and ``y`` before solving the regularized normal
    equations leaves the intercept outside the penalty; it is recovered as
    ``mean(y) - mean(x) @ w``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"need x (n, d) and y (n,), got {x.shape} and {y.shape}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    d = x.shape[1]
    w = np.linalg.solve(xc.T @ xc + alpha * np.eye(d), xc.T @ yc)
    return w, float(y_mean - x_mean @ w)


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination about the mean of ``y_true``.

    A constant truth gives 1.0 for a perfect prediction and 0.0 otherwise.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be equal-length 1-D arrays")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class RidgeCvResult:
    alpha: float
    w: np.ndarray
    b: float
    mean_scores: tuple[tuple[float, float], ...]  # (alpha, mean validation R^2)


def ridge_cv(
    x: np.ndarray,
    y: np.ndarray,
    alphas=DEFAULT_ALPHAS,
    n_folds: int = 5,
) -> RidgeCvResult:
    """Pick the ridge strength by k-fold cross-validation, then refit on all data.

    Folds are contiguous, deterministic index blocks. The winning alpha has
    the highest mean validation R^2, ties going to the smallest alpha.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    n = x.shape[0]
    if n < n_folds:
        raise ValueError(f"need at least {n_folds} rows for {n_folds}-fold CV, got {n}")
    folds = np.array_split(np.arange(n), n_folds)
    mean_scores = []
    best_alpha, best_score = None, -np.inf
    for alpha in alphas:
        scores = []
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            w, b = ridge_fit(x[mask], y[mask], alpha)
            scores.append(r2_score(y[fold], x[fold] @ w + b))
        mean = float(np.mean(scores))
        mean_scores.append((alpha, mean))
        if mean > best_score:  # strict: ties keep the smallest alpha
            best_alpha, best_score = alpha, mean
    w, b = ridge_fit(x, y, best_alpha)
    return RidgeCvResult(best_alpha, w, b, tuple(mean_scores))


@dataclass(frozen=True)
class GeoFeatureResult:
    """Held-out R^2 per environmental layer, plus the mean."""

    per_layer_r2: np.ndarray
    alphas: tuple[float, ...]

    @property
    def mean_r2(self) -> float:
        return float(self.per_layer_r2.mean())


def geo_feature_task(
    feature_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    stack: EnvRasterStack,
    train_cells: np.ndarray,
    test_cells: np.ndarray,
    alphas=DEFAULT_ALPHAS,
) -> GeoFeatureResult:
    """Probe location features by predicting raster layers with ridge models.

    ``feature_fn`` maps coordinate arrays to a feature matrix. Features are
    min-max normalized to [0, 1] using the training cells' ranges (constant
    dimensions become 0; test values are transformed with the same ranges,
    not clamped). One cross-validated ridge model per raster layer is fit on
    the training cells and scored by R^2 on the disjoint test cells.
    """
    train_cells = np.asarray(train_cells, dtype=np.int64)
    test_cells = np.asarray(test_cells, dtype=np.int64)
    if train_cells.size == 0 or test_cells.size == 0:
        raise ValueError("train and test cell sets must be non-empty")
    if np.intersect1d(train_cells, test_cells).size:
        raise ValueError("train and test cells must be disjoint")

    def features_at(cells: np.ndarray) -> np.ndarray:
        lons, lats = stack.cell_centroids(cells)
        f = np.asarray(feature_fn(lons, lats), dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != cells.size:
            raise ValueError(f"feature_fn returned shape {f.shape} for {cells.size} cells")
        if not np.all(np.isfinite(f)):
            raise ValueError("feature_fn returned non-finite values")
        return f

    f_train = features_at(train_cells)
    f_test = features_at(test_cells)
    lo = f_train.min(axis=0)
    span = f_train.max(axis=0) - lo
    keep = span > 0
    f_train = np.where(keep, (f_train - lo) / np.where(keep, span, 1.0), 0.0)
    f_test = np.where(keep, (f_test - lo) / np.where(keep, span, 1.0), 0.0)

    r2s = np.empty(stack.n_layers)
    chosen = []
    for layer in range(stack.n_layers):
        cv = ridge_cv(f_train, stack.layer_at_cells(layer, train_cells), alphas)
        pred = f_test @ cv.w + cv.b
        r2s[layer] = r2_score(stack.layer_at_cells(layer, test_cells), pred)
        chosen.append(cv.alpha)
    return GeoFeatureResult(per_layer_r2=r2s, alphas=tuple(chosen))


# ---------------------------------------------------------------------------
# Discretized-grid baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridBaselineModel:
    """Per-cell observation counts on the global grid."""

    grid: GridSpec
    species_ids: tuple[str, ...]
    counts: np.ndarray       # (n_cells, n_species) int64
    max_counts: np.ndarray   # (n_species,) per-species maximum over cells


def grid_baseline_fit(obs: ObservationSet, grid: GridSpec) -> GridBaselineModel:
    """Count observations of each species in each grid cell."""
    counts = np.zeros((grid.n_cells, obs.n_species), dtype=np.int64)
    if obs.n_records:
        cells = cell_indices(obs.lons, obs.lats, grid)
        np.add.at(counts, (cells, obs.species_index), 1)
    return GridBaselineModel(
        grid=grid,
        species_ids=obs.species_ids,
        counts=counts,
        max_counts=counts.max(axis=0),
    )


def grid_baseline_scores(
    model: GridBaselineModel, lons: np.ndarray, lats: np.ndarray, mode: str
) -> np.ndarray:
    """Score locations by their cell's counts.

    ``mode="ratio"`` scales each species' count by its maximum count over
    all cells (species never observed anywhere score 0 everywhere);
    ``mode="indicator"`` is 1 where the species was observed in the cell and
    0 elsewhere.
    """
    if mode not in ("ratio", "indicator"):
        raise ValueError(f"mode must be 'ratio' or 'indicator', got {mode!r}")
    cells = cell_indices(np.asarray(lons), np.asarray(lats), model.grid)
    counts = model.counts[cells].astype(np.float64)
    if mode == "indicator":
        return (counts > 0).astype(np.float64)
    denom = np.where(model.max_counts > 0, model.max_counts, 1).astype(np.float64)
    return counts / denom


# ---------------------------------------------------------------------------
# F1-maximizing threshold
# ---------------------------------------------------------------------------


def f1_at_threshold(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    """F1 of predicting positive where ``score >= threshold`` (0 if nothing
    is predicted positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pred = scores >= threshold
    tp = int((pred & labels).sum())
    fp = int((pred & ~labels).sum())
    fn = int((~pred & labels).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def f1_max_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Smallest threshold maximizing F1 over a canonical candidate set.

    Candidates are the midpoints between consecutive sorted unique scores,
    plus 0 and 1. Requires at least one positive and one negative label.

    >>> f1_max_threshold([0.2, 0.8], [0, 1])
    0.5
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    if not (labels == 1).any() or not (labels == 0).any():
        raise ValueError("need at least one positive and one negative label")
    uniq = np.unique(scores)
    candidates = np.sort(np.concatenate([[0.0], (uniq[:-1] + uniq[1:]) / 2.0, [1.0]]))
    pos, neg = np.sort(scores[labels == 1]), np.sort(scores[labels == 0])
    # f1_at_threshold at every candidate: the scores >= t are predicted
    # positive, which a NaN score (sorted last) never is
    tp = np.count_nonzero(pos == pos) - np.searchsorted(pos, candidates, side="left")
    fp = np.count_nonzero(neg == neg) - np.searchsorted(neg, candidates, side="left")
    f1 = 2 * tp / (2 * tp + fp + (pos.size - tp))  # at least one positive: never 0/0
    return float(candidates[np.argmax(f1)])  # the first maximum: ties keep the smallest
