"""Presence-only observation handling and environmental raster features.

An observation corpus is a list of ``(species_id, lon, lat)`` records; the
species catalog is the distinct ids in order of first appearance, and records
refer to species by dense catalog index. All subset operations (count
filtering, per-species caps) preserve record order and keep the catalog
dense.

Environmental features come from a stack of single-layer plain-text rasters
sharing one grid; layers are z-score normalized on load with missing cells
excluded from the statistics and then set to zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import reduce
from itertools import chain, filterfalse

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

#: The subsample stream drawn from a user seed is domain-separated with this salt.
_SALT_SUBSAMPLE = 1

ENV_MAGIC = "ENVGRID"
_ENV_MISSING_TOKEN = "NA"

#: Characters per piece of an observations CSV or ENVGRID read.
_PIECE_CHARS = 1 << 18
#: ``_decimals`` reads at most this many digits: they make an integer below
#: 2**53, and ``10**k`` is an exact double up to ``k = 22``.
_MAX_DIGITS = 15
_POW10 = (10 ** np.arange(_MAX_DIGITS + 3)).astype(np.float64)
#: ``_WORD_MASKS[r]`` keeps the first ``r`` bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
#: A CSV piece with a longer species id takes the per-row pass, so the byte
#: pass compares at most 8 words an id.
_MAX_BYTE_ID = 63


def _word_reader(body: np.ndarray):
    """``read(at)``: the little-endian 8-byte words ``body[at:at + 8]`` at the
    int64 byte offsets ``at``, zero past ``body``'s end, each joined from two
    aligned words: a gather through an unaligned 8-byte view is slower."""
    aligned = np.zeros(body.size // 8 + 2, dtype="<u8")
    aligned.view(np.uint8)[:body.size] = body

    def read(at: np.ndarray) -> np.ndarray:
        q, shift = at >> 3, (at & 7).view(np.uint64) << np.uint64(3)
        return aligned[q] >> shift | aligned[q + 1] << (np.uint64(64) - shift)  # << 64 gives 0

    return read


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
        # A UTF-8 character is at most 4 bytes. Below that no id is too long,
        # and only one outside ASCII can fail to encode (a lone surrogate).
        may_be_long = max(map(len, ids), default=0) * 4 > MAX_SPECIES_ID_BYTES
        for sid in ids if may_be_long else filterfalse(str.isascii, ids):
            if len(sid.encode("utf-8")) > MAX_SPECIES_ID_BYTES:
                raise ValueError(f"species id {sid[:32]!r}... is longer than "
                                 f"{MAX_SPECIES_ID_BYTES} UTF-8 bytes")
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

    The body is read in pieces of ``_PIECE_CHARS`` characters cut at line
    ends. A plain piece (no quote, no CR but in CRLF line ends, the header's
    field count on every line) with no bad row is parsed from its bytes; any
    other takes the per-row pass, and from a piece with a quote on, so does
    the rest of the file. Both passes give the same result.
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
        pieces = _line_pieces(fh)
        for text in pieces:
            chunk = text.replace("\r\n", "\n")  # csv.writer's line ends
            plain = '"' not in chunk and "\r" not in chunk
            part = _byte_rows(chunk, len(header), cols, catalog) if plain else None
            lines = None if part else io.StringIO(text, newline="").readlines()  # as csv reads
            if lines is not None:
                # A quoted field may hold line breaks, so from a quote on the
                # per-row pass reads the rest of the file.
                rest = chain(lines, chain.from_iterable(
                    io.StringIO(later, newline="") for later in pieces))
                part = _checked_rows(rest if '"' in chunk else lines, line_no, cols, need,
                                     catalog, rejected)
            line_no += part[0].size if lines is None else len(lines)
            parts.append(part)
        sp, lons, lats = (np.concatenate(arrays) for arrays in zip(*parts))
        obs = ObservationSet(species_ids=tuple(catalog), species_index=sp, lons=lons, lats=lats)
    return obs, tuple(rejected)


def _line_pieces(fh):
    """``fh``'s text read ``_PIECE_CHARS`` characters at a time, each piece
    cut after its last line end (a LF, or a CR that a LF cannot follow in
    it); a piece without one is joined to the next."""
    pending = ""
    for piece in iter(lambda: fh.read(_PIECE_CHARS), ""):
        cut = piece.rfind("\n") + 1 or piece.rfind("\r", 0, -1) + 1
        text, pending = (pending + piece[:cut], piece[cut:]) if cut else ("", pending + piece)
        if text:
            yield text
    if pending:
        yield pending


def _decimals(body: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``(values, read)`` for the fields ``body[s:e]``: ``float()`` of those
    that read ``-?[0-9]*\\.?[0-9]*`` with 1 to ``_MAX_DIGITS`` digits, NaN for
    any other. A field read is ``±m / 10**k`` of two exact doubles, so one
    correctly rounded division gives the double nearest it, as ``float()``
    does (Clinger's fast path).

    >>> body = np.frombuffer(b"-0 .5 5. 0012.50 1e3 +1 .", np.uint8)
    >>> ends = np.flatnonzero(np.append(body, 32) == 32)
    >>> values, read = _decimals(body, np.append(0, ends[:-1] + 1), ends)
    >>> values.tolist(), read.tolist()
    ([-0.0, 0.5, 5.0, 12.5, nan, nan, nan], [True, True, True, True, False, False, False])
    """
    width = np.minimum(ends - starts, _MAX_DIGITS + 3).astype(np.uint8)  # past 2 + 15: not read
    m = np.zeros(width.size)  # the digits so far, exact below 2**53
    n_digits, n_dots, after_dot = np.zeros((3, width.size), dtype=np.uint8)
    neg, seen_dot = np.zeros((2, width.size), dtype=bool)
    for p in range(min(int(width.max(initial=0)), _MAX_DIGITS + 2)):  # a pass a position
        char = np.take(body[p:], starts, mode="clip")
        digit, live = char - np.uint8(ord("0")), width > p
        is_digit, is_dot = (digit < 10) & live, (char == ord(".")) & live
        m *= is_digit * np.uint8(9) + np.uint8(1)
        m += digit * is_digit
        n_digits += is_digit
        after_dot += is_digit & seen_dot
        seen_dot |= is_dot
        n_dots += is_dot
        neg = (char == ord("-")) & live if p == 0 else neg
    read = ((1 <= n_digits) & (n_digits <= _MAX_DIGITS) & (n_dots <= 1)
            & (n_digits + n_dots + neg == width))
    return np.where(read, np.where(neg, -m, m) / _POW10[after_dot], np.nan), read


def _numbers(body: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The values of the fields ``body[s:e]``, by ``_decimals`` or else
    ``float()`` (the same bits); None if a field does not parse or is not
    finite."""
    values, read = _decimals(body, starts, ends)
    if not read.all():
        try:
            rest = np.fromiter(map(float, _texts(body, starts[~read], ends[~read])), np.float64)
        except ValueError:
            return None
        if not np.isfinite(rest).all():
            return None
        values[~read] = rest
    return values


def _texts(body: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``body[s:e]``, which hold no LF and end before a byte of
    ``body``, decoded in one go."""
    size = ends - starts + 1  # each field and the byte after it, made a LF
    first = np.cumsum(size) - size
    joined = body[np.arange(size.sum()) - np.repeat(first - starts, size)]
    joined[first + size - 1] = ord("\n")
    return joined.tobytes().decode().split("\n")[:-1]


def _first_of_each(body: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``(first, inverse)`` for the fields ``body[s:e]``, each followed by a
    byte none of them holds: ascending field indices, among them the first
    occurrence of each distinct field, and for each field the index in
    ``first`` of one with its bytes. Fields are compared as 8-byte words with
    the byte after them, so none equals a longer one."""
    width, read = ends - starts + 1, _word_reader(body)
    keys = [read(np.minimum(starts + k, body.size)) & _WORD_MASKS[np.clip(width - k, 0, 8)]
            for k in range(0, int(width.max()), 8)]
    # Equal fields are runs of ``order``; a collision of the hash splits runs.
    order = np.argsort(reduce(lambda h, key: h * np.uint64(0x9E3779B97F4A7C15) ^ key, keys))
    runs = np.flatnonzero(np.any([np.diff(key[order], prepend=~key[order[0]]) for key in keys], 0))
    first = np.minimum.reduceat(order, runs)
    inverse = np.empty_like(order)
    inverse[order] = np.repeat(np.argsort(np.argsort(first)), np.diff(runs, append=order.size))
    return np.sort(first), inverse


def _byte_rows(chunk: str, n_fields: int, cols: dict, catalog: dict):
    """``_checked_rows`` of the lines of ``chunk``, which hold no quote or CR,
    from their UTF-8 bytes; None, with ``catalog`` untouched, unless each
    line has ``n_fields`` fields, fits ``csv.field_size_limit()``, has an id
    of at most ``_MAX_BYTE_ID`` bytes and makes a good row."""
    body = np.frombuffer((chunk if chunk.endswith("\n") else chunk + "\n").encode(), np.uint8)
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    line_ends = ends[n_fields - 1 :: n_fields]
    if (ends.size % n_fields or (body[line_ends] != ord("\n")).any()
            or np.count_nonzero(body[ends] == ord("\n")) != line_ends.size
            or np.diff(line_ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    ends = ends.reshape(-1, n_fields)
    starts = np.concatenate(([0], ends.reshape(-1)[:-1] + 1)).reshape(ends.shape)
    at = [cols["lon"], cols["lat"]]
    lonlat = _numbers(body, starts[:, at].ravel(), ends[:, at].ravel())
    if lonlat is None or not ((lonlat.reshape(-1, 2) >= (LON_MIN, LAT_MIN))
                              & (lonlat.reshape(-1, 2) <= (LON_MAX, LAT_MAX))).all():
        return None
    starts, ends = starts[:, cols["species_id"]], ends[:, cols["species_id"]]
    if (ends - starts).max() > _MAX_BYTE_ID:
        return None
    first, inverse = _first_of_each(body, starts, ends)
    sids = list(map(str.strip, _texts(body, starts[first], ends[first])))
    if "" in sids:
        return None
    index = np.array([catalog.setdefault(sid, len(catalog)) for sid in sids], dtype=np.int64)
    return index[inverse], lonlat[0::2], lonlat[1::2]


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

    @property
    def extent(self) -> str:
        return f"[{self.lon_min}, {self.lon_max}] x [{self.lat_min}, {self.lat_max}]"

    def outside(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Indices of the points outside the raster bounds (inclusive), NaN included."""
        return np.flatnonzero(~((lons >= self.lon_min) & (lons <= self.lon_max)
                                & (lats >= self.lat_min) & (lats <= self.lat_max)))

    def lookup_batch(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Feature rows ``(n, n_layers)`` for the cells containing each point.

        Points must lie inside the raster bounds (inclusive); the maximum
        edge in each axis maps into the last row/column.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        outside = self.outside(lons, lats)
        if outside.size:
            i = outside[0]
            raise ValueError(f"point ({lons[i]}, {lats[i]}) outside raster bounds {self.extent}")
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
    """An ENVGRID file's grid and bounds, its text read and parsed a piece at
    a time. The checks run once the whole file is read, in the order of its
    parts: the header, the cell count, then the first bad cell value."""
    header, parts, n_cells, bad, carry = [], [], 0, None, ""
    with open(path) as fh:
        # A token that a piece boundary splits is joined again; a last blank
        # piece takes the final token.
        for piece in chain(iter(lambda: fh.read(_PIECE_CHARS), ""), [" "]):
            text = carry + piece
            carry = "" if piece[-1].isspace() else text.rsplit(None, 1)[-1]
            text = text[: len(text) - len(carry)]
            if len(header) < 7:
                take = 7 - len(header)
                head = text.split(None, take)
                text = head.pop() if len(head) > take else ""
                header += head
            values = _byte_cells(text)
            tokens = text.split() if values is None else values
            n_cells += len(tokens)
            if values is None and bad is None:  # the per-token pass
                try:
                    values = [_cell_value(t) for t in tokens]
                except ValueError as exc:  # at the first bad token
                    bad, parts = exc, []
            if bad is None:
                parts.append(values)
    if not header or header[0] != ENV_MAGIC:
        raise ValueError(f"not an {ENV_MAGIC} file")
    if len(header) < 7:
        raise ValueError("truncated header")
    try:
        n_rows, n_cols = int(header[1]), int(header[2])
        bounds = tuple(float(t) for t in header[3:7])
    except ValueError as exc:
        raise ValueError(f"malformed header: {exc}") from None
    lon_min, lon_max, lat_min, lat_max = bounds
    if n_rows < 1 or n_cols < 1:
        raise ValueError("grid must have at least one row and column")
    if not (LON_MIN <= lon_min < lon_max <= LON_MAX and LAT_MIN <= lat_min < lat_max <= LAT_MAX):
        raise ValueError(f"invalid bounds {bounds}")
    if n_cells != n_rows * n_cols:
        raise ValueError(f"expected {n_rows * n_cols} cell values, found {n_cells}")
    if bad is not None:
        raise bad
    return np.concatenate(parts, dtype=np.float64).reshape(n_rows, n_cols), bounds


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


def _byte_cells(text: str):
    """The values of the ENVGRID cell tokens in ``text``, which is empty or
    ends in whitespace, NaN for ``NA``, parsed from UTF-8 bytes; None unless
    every other token is a finite float."""
    if not text.isascii():  # whitespace outside ASCII: the tokens one space apart
        text = " ".join(text.split()) + " "
    body = np.frombuffer(text.encode(), np.uint8)
    # The ASCII whitespace str.split() splits at: \t\n\v\f\r, \x1c-\x1f, space.
    space = (body == ord(" ")) | (body - np.uint8(9) <= 4) | (body - np.uint8(28) <= 3)
    edges = np.flatnonzero(np.diff(space, prepend=True))
    starts, ends = edges[0::2], edges[1::2]
    missing = (ends - starts == 2) & (body[starts] == ord("N")) & (body[starts + 1] == ord("A"))
    cells = _numbers(body, starts[~missing], ends[~missing])
    if cells is None:
        return None
    values = np.full(starts.size, np.nan)
    values[~missing] = cells
    return values


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
