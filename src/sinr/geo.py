"""Geographic primitives: coordinates, cyclic input encoding, and a global grid.

Longitude/latitude pairs are encoded onto the unit circle per axis so that
locations near the antimeridian are close in feature space, and the globe can
be discretized into an equal-angle grid of square (in degrees) cells for
binning observations and evaluating range maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

LON_MIN, LON_MAX = -180.0, 180.0
LAT_MIN, LAT_MAX = -90.0, 90.0

#: Number of input features contributed by the cyclic coordinate encoding.
COORD_ENCODING_DIM = 4


class InputLayout(str, Enum):
    """Which features make up a model input vector."""

    COORDS = "coords"
    ENV = "env"
    ENV_PLUS_COORDS = "env+coords"


def input_dim(layout: InputLayout, n_env_features: int = 0) -> int:
    """Return the input vector length for a layout.

    ``n_env_features`` is required (positive) for the layouts that include
    environmental features and ignored for the pure coordinate layout.
    """
    if layout is InputLayout.COORDS:
        return COORD_ENCODING_DIM
    if n_env_features <= 0:
        raise ValueError(
            f"layout {layout.value!r} needs n_env_features > 0, got {n_env_features}"
        )
    if layout is InputLayout.ENV:
        return n_env_features
    return n_env_features + COORD_ENCODING_DIM


def _check_lonlat_arrays(lons: np.ndarray, lats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    if lons.shape != lats.shape or lons.ndim != 1:
        raise ValueError(
            f"lons and lats must be equal-length 1-D arrays, got {lons.shape} and {lats.shape}"
        )
    ok = (
        np.isfinite(lons)
        & np.isfinite(lats)
        & (lons >= LON_MIN)
        & (lons <= LON_MAX)
        & (lats >= LAT_MIN)
        & (lats <= LAT_MAX)
    )
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"invalid coordinate at position {i}: ({lons[i]}, {lats[i]})")
    return lons, lats


def encode_locations(lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Encode coordinate arrays as ``(n, 4)`` cyclic features.

    Each row is ``[sin(pi*lon'), cos(pi*lon'), sin(pi*lat'), cos(pi*lat')]``
    with ``lon' = lon/180`` and ``lat' = lat/90``. Longitude -180 is mapped to
    +180 before encoding so the two spellings of the antimeridian produce
    bit-identical rows.
    """
    lons, lats = _check_lonlat_arrays(lons, lats)
    lons = np.where(lons == LON_MIN, LON_MAX, lons)
    lon_s = lons / 180.0
    lat_s = lats / 90.0
    out = np.empty((lons.shape[0], COORD_ENCODING_DIM), dtype=np.float64)
    out[:, 0] = np.sin(np.pi * lon_s)
    out[:, 1] = np.cos(np.pi * lon_s)
    out[:, 2] = np.sin(np.pi * lat_s)
    out[:, 3] = np.cos(np.pi * lat_s)
    return out


@dataclass(frozen=True)
class GridSpec:
    """An equal-angle global grid with square cells of ``180/resolution`` degrees.

    The globe is split into ``resolution`` latitude rows and ``2*resolution``
    longitude columns. Cells are indexed row-major from the south-west corner:
    index ``row * n_lon + col`` with row 0 the southernmost band and col 0 the
    westernmost column. Cell edges are half-open (a point on a shared edge
    belongs to the cell to its north-east) except that the final row and
    column are closed so ``lon = 180`` and ``lat = 90`` remain inside the grid.
    """

    resolution: int

    def __post_init__(self) -> None:
        if not isinstance(self.resolution, (int, np.integer)) or isinstance(
            self.resolution, bool
        ):
            raise TypeError(f"resolution must be an int, got {self.resolution!r}")
        object.__setattr__(self, "resolution", int(self.resolution))
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.n_cells > 2**63 - 1:  # cell indices are int64
            raise ValueError(f"resolution {self.resolution} has 2*R^2 cells, past the int64 "
                             "maximum; the largest resolution is 2147483647")

    @property
    def n_lon(self) -> int:
        return 2 * self.resolution

    @property
    def n_lat(self) -> int:
        return self.resolution

    @property
    def n_cells(self) -> int:
        return self.n_lon * self.n_lat

    @property
    def cell_size_deg(self) -> float:
        """Edge length of every cell, in degrees (equal for both axes)."""
        return 180.0 / self.resolution


def cell_indices(lons: np.ndarray, lats: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Map coordinate arrays to flat cell indices on ``grid``."""
    lons, lats = _check_lonlat_arrays(lons, lats)
    size = grid.cell_size_deg
    cols = np.minimum((lons - LON_MIN) // size, grid.n_lon - 1).astype(np.int64)
    rows = np.minimum((lats - LAT_MIN) // size, grid.n_lat - 1).astype(np.int64)
    return rows * grid.n_lon + cols


def cell_centroids(grid: GridSpec, indices: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return centroid ``(lons, lats)`` for ``indices`` (default: every cell)."""
    if indices is None:
        idx = np.arange(grid.n_cells, dtype=np.int64)
    else:
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= grid.n_cells):
            raise ValueError(f"cell index outside [0, {grid.n_cells})")
    size = grid.cell_size_deg
    cols = idx % grid.n_lon
    rows = idx // grid.n_lon
    lons = LON_MIN + (cols + 0.5) * size
    lats = LAT_MIN + (rows + 0.5) * size
    return lons, lats

