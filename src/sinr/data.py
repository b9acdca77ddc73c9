"""Presence-only observation handling and environmental raster features.

An observation corpus is a list of ``(species_id, lon, lat)`` records; the
species catalog is the distinct ids in order of first appearance, and records
refer to species by dense catalog index. All subset operations (count
filtering, per-species caps, species selection) preserve record order and
keep the catalog dense.

Environmental features come from a stack of single-layer plain-text rasters
sharing one grid; layers are z-score normalized on load with missing cells
excluded from the statistics and then set to zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, count, filterfalse, repeat

import numpy as np

from .geo import (
    LAT_MAX,
    LAT_MIN,
    LON_MAX,
    LON_MIN,
    InputLayout,
    _check_lonlat_arrays,
    encode_locations,
)
from .losses import BatchTargets
from .net import MAX_SPECIES_ID_BYTES
from .util import atomic_write, csv_rows, errors_named, seed_u64

#: Streams drawn from a user seed are domain-separated with these salts.
_SALT_SUBSAMPLE = 1
_SALT_SELECT = 2

ENV_MAGIC = "ENVGRID"
_ENV_MISSING_TOKEN = "NA"
_NA_AS_NAN = {_ENV_MISSING_TOKEN: "nan"}.get  # called as (token, token)
_FLOAT_MAX = float(np.finfo(np.float64).max)

#: Characters per ``readlines`` chunk of an observations CSV. Smaller chunks
#: stay in cache and leave fewer memory pools held by the catalog's id strings.
_CSV_CHUNK_CHARS = 1 << 16


@dataclass(frozen=True)
class ObservationSet:
    """Presence-only records plus the species catalog they index into."""

    species_ids: tuple[str, ...]
    species_index: np.ndarray
    lons: np.ndarray
    lats: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.species_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("species catalog contains duplicate ids")
        for sid in ids:
            if len(sid.encode("utf-8")) > MAX_SPECIES_ID_BYTES:
                raise ValueError(
                    f"species id {sid[:32]!r}... is longer than {MAX_SPECIES_ID_BYTES} UTF-8 bytes"
                )
        idx = np.asarray(self.species_index)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("species_index must be a 1-D integer array")
        lons, lats = _check_lonlat_arrays(self.lons, self.lats)
        if lons.shape != idx.shape:
            raise ValueError("species_index, lons and lats must have equal length")
        if idx.size and (idx.min() < 0 or idx.max() >= len(ids)):
            raise ValueError("species_index entries must lie in [0, n_species)")
        object.__setattr__(self, "species_ids", ids)
        object.__setattr__(self, "species_index", idx.astype(np.int64))
        object.__setattr__(self, "lons", lons)
        object.__setattr__(self, "lats", lats)

    @property
    def n_records(self) -> int:
        return int(self.species_index.shape[0])

    @property
    def n_species(self) -> int:
        return len(self.species_ids)

    def counts(self) -> np.ndarray:
        """Number of records per catalog index."""
        return np.bincount(self.species_index, minlength=self.n_species)


@dataclass(frozen=True)
class RowRejection:
    """A skipped input row: 1-based line number plus the reason."""

    line: int
    reason: str


def load_observations(path) -> tuple[ObservationSet, tuple[RowRejection, ...]]:
    """Read a CSV of observations, reporting malformed rows instead of failing.

    The file must have a header naming at least ``species_id``, ``lon`` and
    ``lat`` (extra columns are ignored). Rows with unparseable or
    out-of-range coordinates, or the wrong field count, are returned as
    :class:`RowRejection` entries; everything else becomes the corpus.

    The body is read in chunks of about ``_CSV_CHUNK_CHARS`` characters. A
    chunk of plain lines (the header's field count each, no quote, no CR
    except in CRLF line ends) with no bad row is parsed in bulk. Any other
    chunk takes the per-row pass, and from a chunk with a quote on, so does
    the rest of the file; both passes give the same result.
    """
    with errors_named(path), open(path, newline="") as fh:
        try:
            _, header = next(csv_rows(fh))
        except StopIteration:
            raise ValueError("empty observations file") from None
        header = [name.lstrip("\ufeff").strip() for name in header]  # UTF-8 BOM, padding
        cols = {}
        for name in ("species_id", "lon", "lat"):
            if name not in header:
                raise ValueError(f"missing required column {name!r}")
            cols[name] = header.index(name)
        need = max(cols.values()) + 1

        catalog: dict[str, int] = {}
        parts = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))]
        rejected: list[RowRejection] = []
        line_no = 2
        for lines in iter(lambda: fh.readlines(_CSV_CHUNK_CHARS), []):
            chunk = "".join(lines).replace("\r\n", "\n")  # csv.writer's line ends
            plain = (
                '"' not in chunk
                and "\r" not in chunk
                and max(map(len, lines)) <= csv.field_size_limit()  # csv raises past it
                and set(map(str.count, lines, repeat(","))) == {len(header) - 1}
            )
            part = _plain_rows(chunk, len(lines), len(header), cols, catalog) if plain else None
            if part is None:
                # A quoted field may hold line breaks, so from a quote on the
                # per-row pass reads the rest of the file.
                rest = chain(lines, fh) if '"' in chunk else lines
                part = _checked_rows(rest, line_no, cols, need, catalog, rejected)
            parts.append(part)
            line_no += len(lines)
        sp, lons, lats = (np.concatenate(arrays) for arrays in zip(*parts))
        obs = ObservationSet(species_ids=tuple(catalog), species_index=sp, lons=lons, lats=lats)
    return obs, tuple(rejected)


def _bulk_floats(tokens: list[str], lo: float, hi: float, n_missing: int = 0):
    """``float()`` of every token (the same bits) as one float64 array, with
    ``NA`` read as NaN; None if a token does not parse or other than
    ``n_missing`` values lie outside ``[lo, hi]``."""
    try:
        named = map(_NA_AS_NAN, tokens, tokens) if n_missing else tokens
        values = np.fromiter(map(float, named), np.float64, len(tokens))
    except ValueError:
        return None
    outside = len(tokens) - np.count_nonzero((values >= lo) & (values <= hi))
    return values if outside == n_missing else None


def _plain_rows(chunk: str, n_lines: int, n_fields: int, cols: dict, catalog: dict):
    """``_checked_rows`` of ``n_lines`` lines of ``n_fields`` fields each with
    no quote or CR, in bulk; None, with ``catalog`` untouched, if a row is bad."""
    tokens = chunk.replace("\n", ",").split(",")
    end = n_lines * n_fields
    ids = list(map(str.strip, tokens[cols["species_id"] : end : n_fields]))
    lons = _bulk_floats(tokens[cols["lon"] : end : n_fields], LON_MIN, LON_MAX)
    lats = _bulk_floats(tokens[cols["lat"] : end : n_fields], LAT_MIN, LAT_MAX)
    if lons is None or lats is None or "" in ids:
        return None
    new_ids = filterfalse(catalog.__contains__, dict.fromkeys(ids))  # in order of appearance
    catalog.update(zip(new_ids, count(len(catalog))))
    return np.fromiter(map(catalog.__getitem__, ids), np.int64, len(ids)), lons, lats


def _checked_rows(lines, line_no: int, cols: dict, need: int, catalog: dict, rejected):
    """The per-row pass over csv ``lines`` from line ``line_no``: (species index,
    lon, lat) arrays of the good rows; bad rows go to ``rejected``."""
    sp, lons, lats = [], [], []
    for line_no, row in csv_rows(lines, line_no):
        if not row:
            continue
        if len(row) < need:
            rejected.append(RowRejection(line_no, "too few fields"))
            continue
        sid = row[cols["species_id"]].strip()
        if not sid:
            rejected.append(RowRejection(line_no, "empty species_id"))
            continue
        try:
            lon = float(row[cols["lon"]])
            lat = float(row[cols["lat"]])
        except ValueError:
            rejected.append(RowRejection(line_no, "unparseable coordinate"))
            continue
        if not (np.isfinite(lon) and np.isfinite(lat)):
            rejected.append(RowRejection(line_no, "non-finite coordinate"))
            continue
        if not (LON_MIN <= lon <= LON_MAX and LAT_MIN <= lat <= LAT_MAX):
            rejected.append(RowRejection(line_no, "coordinate out of range"))
            continue
        if sid not in catalog:
            catalog[sid] = len(catalog)
        sp.append(catalog[sid])
        lons.append(lon)
        lats.append(lat)
    return np.array(sp, dtype=np.int64), np.array(lons, dtype=float), np.array(lats, dtype=float)


def save_observations(obs: ObservationSet, path) -> None:
    """Write a corpus back to CSV; floats use ``repr`` so reloads are lossless."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["species_id", "lon", "lat"])
        for i in range(obs.n_records):
            writer.writerow(
                [
                    obs.species_ids[obs.species_index[i]],
                    repr(float(obs.lons[i])),
                    repr(float(obs.lats[i])),
                ]
            )


def _take_records(obs: ObservationSet, keep_species: np.ndarray) -> ObservationSet:
    """Restrict to a boolean species mask, preserving orders and re-densifying."""
    new_ids = tuple(s for s, k in zip(obs.species_ids, keep_species) if k)
    remap = np.full(obs.n_species, -1, dtype=np.int64)
    remap[keep_species] = np.arange(len(new_ids))
    rec_keep = keep_species[obs.species_index]
    return ObservationSet(
        species_ids=new_ids,
        species_index=remap[obs.species_index[rec_keep]],
        lons=obs.lons[rec_keep],
        lats=obs.lats[rec_keep],
    )


def filter_min_count(obs: ObservationSet, min_count: int) -> ObservationSet:
    """Drop species with fewer than ``min_count`` records (and their records)."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    return _take_records(obs, obs.counts() >= min_count)


def subsample_cap(obs: ObservationSet, cap: int, seed: int) -> ObservationSet:
    """Cap each species at ``cap`` records, chosen uniformly without replacement.

    Species with at most ``cap`` records keep everything. Selection draws a
    seeded permutation per species and keeps its first ``cap`` entries, so
    for a fixed seed the cap-``k`` subsample is contained in the
    cap-``k+1`` subsample. Record order is preserved.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    order = np.argsort(obs.species_index, kind="stable")
    counts = obs.counts()
    ends = np.cumsum(counts)
    keep = np.ones(obs.n_records, dtype=bool)
    for s in np.flatnonzero(counts > cap).tolist():  # species at or under the cap keep all
        group = order[ends[s] - counts[s] : ends[s]]
        rng = np.random.default_rng(np.random.SeedSequence([seed_u64(seed), _SALT_SUBSAMPLE, s]))
        keep[group[rng.permutation(group.size)[cap:]]] = False
    return ObservationSet(
        species_ids=obs.species_ids,
        species_index=obs.species_index[keep],
        lons=obs.lons[keep],
        lats=obs.lats[keep],
    )


def select_species(
    obs: ObservationSet, keep_ids, n_extra: int = 0, seed: int = 0
) -> ObservationSet:
    """Restrict the corpus to ``keep_ids`` plus ``n_extra`` random other species.

    The extra species are drawn uniformly without replacement from the rest
    of the catalog; for a fixed seed the extra set grows by inclusion as
    ``n_extra`` grows. Unknown ids in ``keep_ids`` are an error.
    """
    keep_ids = list(keep_ids)
    index = {s: i for i, s in enumerate(obs.species_ids)}
    missing = [s for s in keep_ids if s not in index]
    if missing:
        raise ValueError(f"unknown species ids: {missing}")
    if n_extra < 0:
        raise ValueError(f"n_extra must be >= 0, got {n_extra}")
    keep = np.zeros(obs.n_species, dtype=bool)
    keep[[index[s] for s in keep_ids]] = True
    candidates = np.flatnonzero(~keep)
    if n_extra > candidates.size:
        raise ValueError(
            f"n_extra={n_extra} exceeds the {candidates.size} species outside keep_ids"
        )
    if n_extra:
        rng = np.random.default_rng(np.random.SeedSequence([seed_u64(seed), _SALT_SELECT]))
        keep[candidates[rng.permutation(candidates.size)[:n_extra]]] = True
    return _take_records(obs, keep)


# ---------------------------------------------------------------------------
# Environmental rasters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvRasterStack:
    """Normalized environmental layers on a shared regular lon/lat grid.

    ``values`` has shape ``(n_layers, n_rows, n_cols)`` with row 0 the
    northernmost band (file order). Normalization statistics are kept so the
    transform is auditable: ``means``/``stds`` hold the per-layer mean and
    population standard deviation of the non-missing raw cells. Missing
    cells carry value 0 and are flagged in ``missing``; a constant layer
    (zero deviation) normalizes to all zeros.
    """

    values: np.ndarray
    missing: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float

    @property
    def n_layers(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_cols(self) -> int:
        return int(self.values.shape[2])

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def cell_width(self) -> float:
        return (self.lon_max - self.lon_min) / self.n_cols

    @property
    def cell_height(self) -> float:
        return (self.lat_max - self.lat_min) / self.n_rows

    def lookup_batch(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Feature rows ``(n, n_layers)`` for the cells containing each point.

        Points must lie inside the raster bounds (inclusive); the maximum
        edge in each axis maps into the last row/column.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        ok = (
            (lons >= self.lon_min) & (lons <= self.lon_max)
            & (lats >= self.lat_min) & (lats <= self.lat_max)
        )
        if not np.all(ok):
            i = int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"point ({lons[i]}, {lats[i]}) outside raster bounds "
                f"[{self.lon_min}, {self.lon_max}] x [{self.lat_min}, {self.lat_max}]"
            )
        cols = np.minimum(
            ((lons - self.lon_min) // self.cell_width).astype(np.int64), self.n_cols - 1
        )
        rows = np.minimum(
            ((self.lat_max - lats) // self.cell_height).astype(np.int64), self.n_rows - 1
        )
        return self.values[:, rows, cols].T

    def cell_centroids(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centroid ``(lons, lats)`` of flat row-major cell indices."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and (cells.min() < 0 or cells.max() >= self.n_cells):
            raise ValueError(f"cell index outside [0, {self.n_cells})")
        rows, cols = np.divmod(cells, self.n_cols)
        lons = self.lon_min + (cols + 0.5) * self.cell_width
        lats = self.lat_max - (rows + 0.5) * self.cell_height
        return lons, lats

    def layer_at_cells(self, layer: int, cells: np.ndarray) -> np.ndarray:
        """Normalized values of one layer at flat row-major cell indices."""
        cells = np.asarray(cells, dtype=np.int64)
        return self.values[layer].reshape(-1)[cells]

    def fully_observed_cells(self) -> np.ndarray:
        """Flat indices of cells where no layer is missing."""
        return np.flatnonzero(~self.missing.any(axis=0))


def _parse_env_raster(path) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens or tokens[0] != ENV_MAGIC:
        raise ValueError(f"not an {ENV_MAGIC} file")
    if len(tokens) < 7:
        raise ValueError("truncated header")
    try:
        n_rows, n_cols = int(tokens[1]), int(tokens[2])
        bounds = tuple(float(t) for t in tokens[3:7])
    except ValueError as exc:
        raise ValueError(f"malformed header: {exc}") from None
    lon_min, lon_max, lat_min, lat_max = bounds
    if n_rows < 1 or n_cols < 1:
        raise ValueError("grid must have at least one row and column")
    if not (LON_MIN <= lon_min < lon_max <= LON_MAX and LAT_MIN <= lat_min < lat_max <= LAT_MAX):
        raise ValueError(f"invalid bounds {bounds}")
    body = tokens[7:]
    if len(body) != n_rows * n_cols:
        raise ValueError(f"expected {n_rows * n_cols} cell values, found {len(body)}")
    grid = np.empty(n_rows * n_cols, dtype=np.float64)
    for r0 in range(0, grid.size, n_cols):  # one grid row of tokens at a time
        row = body[r0 : r0 + n_cols]
        values = _bulk_floats(row, -_FLOAT_MAX, _FLOAT_MAX, row.count(_ENV_MISSING_TOKEN))
        grid[r0 : r0 + n_cols] = [_cell_value(t) for t in row] if values is None else values
    return grid.reshape(n_rows, n_cols), bounds


def _cell_value(tok: str) -> float:
    """The per-token pass: the value of one cell token (NaN for ``NA``)."""
    if tok == _ENV_MISSING_TOKEN:
        return np.nan
    try:
        value = float(tok)
    except ValueError:
        raise ValueError(f"unparseable cell value {tok!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"non-finite cell value {tok!r}")
    return value


def load_env_rasters(paths) -> EnvRasterStack:
    """Load one or more raster files into a normalized feature stack.

    All files must agree on grid shape and bounds. Each layer is z-scored
    using the mean and population standard deviation of its non-missing
    cells; missing cells (and entire constant layers) become zero.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one raster file")
    grids, bounds_list = [], []
    for path in paths:
        with errors_named(path):
            grid, bounds = _parse_env_raster(path)
            if grids and (grid.shape != grids[0].shape or bounds != bounds_list[0]):
                raise ValueError(f"grid shape or bounds differ from {paths[0]}")
            if np.isnan(grid).all():
                raise ValueError("raster layer has no observed cells")
        grids.append(grid)
        bounds_list.append(bounds)
    raw = np.stack(grids)
    missing = np.isnan(raw)
    e = raw.shape[0]
    means = np.zeros(e)
    stds = np.zeros(e)
    values = np.zeros_like(raw)
    for i in range(e):
        good = raw[i][~missing[i]]
        means[i] = good.mean()
        stds[i] = good.std()
        if stds[i] > 0:
            values[i] = np.where(missing[i], 0.0, (raw[i] - means[i]) / stds[i])
    lon_min, lon_max, lat_min, lat_max = bounds_list[0]
    return EnvRasterStack(
        values=values,
        missing=missing,
        means=means,
        stds=stds,
        lon_min=lon_min,
        lon_max=lon_max,
        lat_min=lat_min,
        lat_max=lat_max,
    )


def write_env_raster(path, grid: np.ndarray, bounds: tuple[float, float, float, float]) -> None:
    """Write one raw raster layer (NaN marks missing cells) in the text format."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {grid.shape}")
    lon_min, lon_max, lat_min, lat_max = bounds
    with atomic_write(path) as fh:
        fh.write(
            f"{ENV_MAGIC} {grid.shape[0]} {grid.shape[1]} "
            f"{repr(float(lon_min))} {repr(float(lon_max))} "
            f"{repr(float(lat_min))} {repr(float(lat_max))}\n"
        )
        for row in grid:
            fh.write(
                " ".join(
                    _ENV_MISSING_TOKEN if np.isnan(v) else repr(float(v)) for v in row
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


def assemble_inputs(
    lons: np.ndarray,
    lats: np.ndarray,
    layout: InputLayout,
    env: EnvRasterStack | None = None,
) -> np.ndarray:
    """Build the float32 model-input matrix for a batch of locations.

    The environmental block (when present) comes first, the coordinate
    encoding last. Layouts with environmental features require ``env``.
    """
    layout = InputLayout(layout)
    if layout is InputLayout.COORDS:
        return encode_locations(lons, lats).astype(np.float32)
    if env is None:
        raise ValueError(f"input layout {layout.value!r} requires environmental rasters")
    feats = env.lookup_batch(lons, lats)
    if layout is InputLayout.ENV:
        return feats.astype(np.float32)
    return np.concatenate([feats, encode_locations(lons, lats)], axis=1).astype(np.float32)


def sample_batch(
    obs: ObservationSet,
    batch_size: int,
    layout: InputLayout,
    rng: np.random.Generator,
    env: EnvRasterStack | None = None,
) -> tuple[np.ndarray, BatchTargets]:
    """Draw a training batch of records uniformly with replacement.

    Returns the input matrix and the positive-species targets.
    """
    if obs.n_records == 0:
        raise ValueError("cannot sample from an empty observation set")
    idx = rng.integers(0, obs.n_records, size=batch_size)
    x = assemble_inputs(obs.lons[idx], obs.lats[idx], layout, env)
    return x, BatchTargets(obs.species_index[idx], obs.n_species)


def sample_uniform_locations(
    n: int,
    rng: np.random.Generator,
    bounds: tuple[float, float, float, float] = (LON_MIN, LON_MAX, LAT_MIN, LAT_MAX),
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` locations uniformly over a lon/lat rectangle (default: globe).

    Longitudes are drawn first, then latitudes, each as one vectorized call,
    so the stream consumed from ``rng`` is well defined.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lon_min, lon_max, lat_min, lat_max = bounds
    lons = rng.uniform(lon_min, lon_max, size=n)
    lats = rng.uniform(lat_min, lat_max, size=n)
    return lons, lats
