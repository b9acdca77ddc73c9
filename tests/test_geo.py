"""Coordinate encoding and the equal-angle global grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinr.geo import (
    COORD_ENCODING_DIM,
    GridSpec,
    InputLayout,
    cell_centroids,
    cell_indices,
    encode_locations,
    input_dim,
)


def one(value: float) -> np.ndarray:
    return np.array([value])


# ---------------------------------------------------------------------------
# Sinusoidal encoding
# ---------------------------------------------------------------------------


def test_encode_origin_is_0101():
    np.testing.assert_array_equal(encode_locations(one(0.0), one(0.0)), [[0.0, 1.0, 0.0, 1.0]])


def test_encode_matches_scalar_reference():
    rng = np.random.default_rng(7)
    lons = rng.uniform(-180.0, 180.0, 50)
    lats = rng.uniform(-90.0, 90.0, 50)
    got = encode_locations(lons, lats)
    assert got.shape == (50, COORD_ENCODING_DIM)
    assert got.dtype == np.float64
    for i in range(50):
        lon_n = lons[i] / 180.0
        lat_n = lats[i] / 90.0
        expected = [
            math.sin(math.pi * lon_n),
            math.cos(math.pi * lon_n),
            math.sin(math.pi * lat_n),
            math.cos(math.pi * lat_n),
        ]
        np.testing.assert_allclose(got[i], expected, rtol=0, atol=1e-15)


def test_encode_known_values():
    # lon 90 -> half-turn fraction 0.5; lat 22.5 -> quarter-turn fraction 0.25
    enc = encode_locations(one(90.0), one(22.5))
    np.testing.assert_allclose(
        enc, [[1.0, math.cos(math.pi / 2), math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-15
    )


def test_antimeridian_maps_to_plus_180_bitwise():
    east = encode_locations(np.array([180.0]), np.array([33.0]))
    west = encode_locations(np.array([-180.0]), np.array([33.0]))
    assert east.tobytes() == west.tobytes()


def test_encoding_is_bounded():
    rng = np.random.default_rng(11)
    enc = encode_locations(rng.uniform(-180, 180, 1000), rng.uniform(-90, 90, 1000))
    assert np.all(enc >= -1.0) and np.all(enc <= 1.0)


@pytest.mark.parametrize(
    "lon,lat",
    [(181.0, 0.0), (-180.5, 0.0), (0.0, 90.5), (0.0, -91.0), (math.nan, 0.0), (0.0, math.inf)],
)
def test_out_of_range_coordinates_rejected(lon, lat):
    with pytest.raises(ValueError):
        encode_locations(one(lon), one(lat))
    with pytest.raises(ValueError):
        cell_indices(one(lon), one(lat), GridSpec(2))


def test_input_dim_per_layout():
    assert input_dim(InputLayout.COORDS, 0) == 4
    assert input_dim(InputLayout.ENV, 3) == 3
    assert input_dim(InputLayout.ENV_PLUS_COORDS, 3) == 7
    with pytest.raises(ValueError):
        input_dim(InputLayout.ENV, 0)


# ---------------------------------------------------------------------------
# Equal-angle grid
# ---------------------------------------------------------------------------


def test_grid_spec_shape():
    g = GridSpec(resolution=3)
    assert (g.n_lon, g.n_lat, g.n_cells) == (6, 3, 18)
    assert g.cell_size_deg == 60.0


def test_grid_spec_rejects_bad_resolution():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            GridSpec(resolution=bad)


def test_cell_of_hand_value():
    # resolution 2: 90-degree cells, 4 columns; (1, 1) sits one row up,
    # two columns in from the south-west corner.
    np.testing.assert_array_equal(cell_indices(one(1.0), one(1.0), GridSpec(2)), [6])


def brute_force_cell(lon: float, lat: float, grid: GridSpec) -> int:
    """Scan every cell rectangle; right/top edges closed only on the last
    column/row."""
    size = grid.cell_size_deg
    for row in range(grid.n_lat):
        for col in range(grid.n_lon):
            lon0 = -180.0 + col * size
            lat0 = -90.0 + row * size
            lon_hi_ok = lon < lon0 + size or (col == grid.n_lon - 1 and lon <= lon0 + size)
            lat_hi_ok = lat < lat0 + size or (row == grid.n_lat - 1 and lat <= lat0 + size)
            if lon >= lon0 and lat >= lat0 and lon_hi_ok and lat_hi_ok:
                return row * grid.n_lon + col
    raise AssertionError(f"no cell contains ({lon}, {lat})")


def test_cell_indices_match_brute_force():
    grid = GridSpec(3)
    rng = np.random.default_rng(3)
    lons = np.concatenate([rng.uniform(-180, 180, 200), [-180.0, 180.0, 0.0, 59.999, 60.0]])
    lats = np.concatenate([rng.uniform(-90, 90, 200), [90.0, -90.0, 0.0, 29.999, 30.0]])
    got = cell_indices(lons, lats, grid)
    for i in range(len(lons)):
        assert got[i] == brute_force_cell(lons[i], lats[i], grid), (lons[i], lats[i])


def test_boundary_points_stay_in_range():
    grid = GridSpec(4)
    corners = np.array([[-180.0, -90.0], [180.0, 90.0], [180.0, -90.0], [-180.0, 90.0]])
    cells = cell_indices(corners[:, 0], corners[:, 1], grid)
    assert np.all((cells >= 0) & (cells < grid.n_cells))
    assert cells[1] == grid.n_cells - 1  # north-east corner lands in the last cell


def test_centroid_hand_value():
    lons, lats = cell_centroids(GridSpec(1), np.array([0]))
    assert (lons.tolist(), lats.tolist()) == ([-90.0], [0.0])


def test_centroid_round_trip_exhaustive():
    grid = GridSpec(3)
    lons, lats = cell_centroids(grid)
    assert lons.shape == (grid.n_cells,)
    back = cell_indices(lons, lats, grid)
    np.testing.assert_array_equal(back, np.arange(grid.n_cells))


def test_centroids_subset_matches_full():
    grid = GridSpec(5)
    idx = np.array([0, 7, 31, grid.n_cells - 1])
    lons_all, lats_all = cell_centroids(grid)
    lons_sub, lats_sub = cell_centroids(grid, idx)
    np.testing.assert_array_equal(lons_sub, lons_all[idx])
    np.testing.assert_array_equal(lats_sub, lats_all[idx])


def test_cell_indices_rejects_out_of_range():
    with pytest.raises(ValueError):
        cell_indices(np.array([200.0]), np.array([0.0]), GridSpec(2))


@settings(max_examples=50, derandomize=True)
@given(
    lon=st.floats(-180.0, 180.0),
    lat=st.floats(-90.0, 90.0),
    resolution=st.integers(1, 12),
)
def test_every_point_lands_in_its_containing_cell(lon, lat, resolution):
    # Binning happens in the shifted coordinate (lon + 180), whose rounding
    # can move a point within ~1 ULP of a cell edge into the neighbor, so
    # containment is asserted up to a slack far below any physical scale.
    slack = 1e-9
    grid = GridSpec(resolution)
    cell = int(cell_indices(one(lon), one(lat), grid)[0])
    assert 0 <= cell < grid.n_cells
    size = grid.cell_size_deg
    row, col = divmod(cell, grid.n_lon)
    lon0 = -180.0 + col * size
    lat0 = -90.0 + row * size
    assert lon0 - slack <= lon <= lon0 + size + slack
    assert lat0 - slack <= lat <= lat0 + size + slack
