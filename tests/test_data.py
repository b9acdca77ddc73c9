"""Observation ingestion, species filtering/subsampling, environmental
rasters, and training batch assembly."""

import math

import numpy as np
import pytest

from helpers import random_obs
from sinr.data import (
    EnvRasterStack,
    ObservationSet,
    SamplerConfig,
    assemble_inputs,
    filter_min_count,
    load_env_rasters,
    load_observations,
    sample_batch,
    sample_uniform_locations,
    save_observations,
    select_species,
    subsample_cap,
    write_env_raster,
)
from sinr.geo import InputLayout, encode_locations


# ---------------------------------------------------------------------------
# ObservationSet and CSV ingestion
# ---------------------------------------------------------------------------


def test_observation_set_validation():
    with pytest.raises(ValueError):
        ObservationSet(("a",), np.array([0, 1]), np.zeros(2), np.zeros(2))  # index 1 invalid
    with pytest.raises(ValueError):
        ObservationSet(("a", "a"), np.array([0]), np.zeros(1), np.zeros(1))  # dup ids
    with pytest.raises(ValueError):
        ObservationSet(("a",), np.array([0]), np.zeros(2), np.zeros(1))  # length mismatch
    with pytest.raises(ValueError):
        ObservationSet(("a",), np.array([0]), np.array([200.0]), np.zeros(1))  # range


def test_counts():
    obs = ObservationSet(
        ("x", "y"), np.array([0, 1, 0, 0]), np.zeros(4), np.zeros(4)
    )
    np.testing.assert_array_equal(obs.counts(), [3, 1])


def test_load_observations_basic(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text(
        "lon,species_id,lat,notes\n"
        "10.5,puma,-3.25,seen at dusk\n"
        "-120.0,wolf,45.0,\n"
        "11.0,puma,-4.0,second record\n"
    )
    obs, rejected = load_observations(p)
    assert rejected == ()
    assert obs.species_ids == ("puma", "wolf")  # catalog by first appearance
    np.testing.assert_array_equal(obs.species_index, [0, 1, 0])
    np.testing.assert_array_equal(obs.lons, [10.5, -120.0, 11.0])
    np.testing.assert_array_equal(obs.lats, [-3.25, 45.0, -4.0])


def test_load_observations_reports_bad_rows_with_line_numbers(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text(
        "species_id,lon,lat\n"      # line 1
        "puma,10.0,20.0\n"          # line 2: good
        "wolf,abc,20.0\n"           # line 3: unparseable
        "lynx,190.0,20.0\n"         # line 4: out of range
        ",10.0,20.0\n"              # line 5: empty id
        "bear,10.0\n"               # line 6: too few fields
        "fox,nan,20.0\n"            # line 7: non-finite
        "puma,15.0,25.0\n"          # line 8: good
    )
    obs, rejected = load_observations(p)
    assert obs.n_records == 2
    assert obs.species_ids == ("puma",)
    got = {(r.line, r.reason) for r in rejected}
    assert got == {
        (3, "unparseable coordinate"),
        (4, "coordinate out of range"),
        (5, "empty species_id"),
        (6, "too few fields"),
        (7, "non-finite coordinate"),
    }


def test_load_observations_requires_columns(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("species_id,x,y\nplover,1,2\n")
    with pytest.raises(ValueError, match="lon"):
        load_observations(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_observations(p)


def test_load_observations_tolerates_bom_and_padded_header(tmp_path):
    p = tmp_path / "obs.csv"
    for header in ("\ufeffspecies_id,lon,lat", "species_id, lon, lat"):
        p.write_bytes(f"{header}\nplover,1.5,-2.25\n".encode("utf-8"))
        obs, rejected = load_observations(p)
        assert rejected == () and obs.species_ids == ("plover",)
        np.testing.assert_array_equal(obs.lons, [1.5])
        np.testing.assert_array_equal(obs.lats, [-2.25])


def test_save_load_roundtrip_is_lossless(tmp_path):
    """Every record survives bit-exactly (the reloaded catalog is ordered by
    first appearance, so records are compared by species name)."""
    rng = np.random.default_rng(17)
    obs = random_obs(rng, n_species=6, n_records=137)
    p = tmp_path / "out.csv"
    save_observations(obs, p)
    back, rejected = load_observations(p)
    assert rejected == ()
    assert set(back.species_ids) == set(obs.species_ids)
    assert back.n_records == obs.n_records
    for i in range(obs.n_records):
        assert back.species_ids[back.species_index[i]] == obs.species_ids[obs.species_index[i]]
        assert back.lons[i] == obs.lons[i] and back.lats[i] == obs.lats[i]
    # a second round trip is a fixed point, bytes included
    p2 = tmp_path / "again.csv"
    save_observations(back, p2)
    back2, _ = load_observations(p2)
    assert back2.species_ids == back.species_ids
    np.testing.assert_array_equal(back2.species_index, back.species_index)
    assert back2.lons.tobytes() == back.lons.tobytes()
    assert p2.read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# Filtering, capping, selecting
# ---------------------------------------------------------------------------


def test_filter_min_count_matches_brute_force():
    rng = np.random.default_rng(23)
    obs = random_obs(rng, n_species=12, n_records=300)
    for min_count in (1, 5, 20, 40):
        got = filter_min_count(obs, min_count)
        counts = {sid: 0 for sid in obs.species_ids}
        for i in range(obs.n_records):
            counts[obs.species_ids[obs.species_index[i]]] += 1
        keep = [sid for sid in obs.species_ids if counts[sid] >= min_count]
        assert list(got.species_ids) == keep
        kept_records = [
            (obs.species_ids[obs.species_index[i]], obs.lons[i], obs.lats[i])
            for i in range(obs.n_records)
            if counts[obs.species_ids[obs.species_index[i]]] >= min_count
        ]
        assert got.n_records == len(kept_records)
        for i, (sid, lon, lat) in enumerate(kept_records):
            assert got.species_ids[got.species_index[i]] == sid
            assert got.lons[i] == lon and got.lats[i] == lat
    with pytest.raises(ValueError):
        filter_min_count(obs, 0)


def test_subsample_cap_counts_and_determinism():
    rng = np.random.default_rng(29)
    obs = random_obs(rng, n_species=8, n_records=400)
    capped = subsample_cap(obs, 30, seed=5)
    assert capped.species_ids == obs.species_ids
    np.testing.assert_array_equal(capped.counts(), np.minimum(obs.counts(), 30))
    again = subsample_cap(obs, 30, seed=5)
    np.testing.assert_array_equal(capped.species_index, again.species_index)
    assert capped.lons.tobytes() == again.lons.tobytes()
    different = subsample_cap(obs, 30, seed=6)
    assert capped.lons.tobytes() != different.lons.tobytes()


def test_subsample_cap_preserves_record_order():
    rng = np.random.default_rng(31)
    obs = random_obs(rng, n_species=4, n_records=100)
    capped = subsample_cap(obs, 10, seed=1)
    kept = set(zip(capped.lons, capped.lats))
    positions = [
        i for i in range(obs.n_records) if (obs.lons[i], obs.lats[i]) in kept
    ]
    np.testing.assert_array_equal(capped.lons, obs.lons[positions])
    np.testing.assert_array_equal(capped.species_index, obs.species_index[positions])


def test_subsample_cap_nesting():
    """For a fixed seed the cap-k corpus is a subset of any larger cap."""
    rng = np.random.default_rng(37)
    obs = random_obs(rng, n_species=10, n_records=2000)
    seed = 99
    previous = None
    for cap in (5, 17, 60, 200):
        records = set(
            zip(
                subsample_cap(obs, cap, seed).lons,
                subsample_cap(obs, cap, seed).lats,
            )
        )
        if previous is not None:
            assert previous <= records
        previous = records
    full = subsample_cap(obs, obs.n_records, seed)
    assert full.n_records == obs.n_records


def test_select_species_keep_and_extras():
    rng = np.random.default_rng(41)
    obs = random_obs(rng, n_species=10, n_records=500)
    keep = ("sp002", "sp007")
    only = select_species(obs, keep)
    assert set(only.species_ids) == set(keep)
    with2 = select_species(obs, keep, n_extra=2, seed=3)
    assert len(with2.species_ids) == 4
    assert set(keep) <= set(with2.species_ids)
    with4 = select_species(obs, keep, n_extra=4, seed=3)
    assert set(with2.species_ids) <= set(with4.species_ids)  # extras grow by inclusion
    with pytest.raises(ValueError):
        select_species(obs, ("nope",))


# ---------------------------------------------------------------------------
# Environmental rasters
# ---------------------------------------------------------------------------


def write_raster(path, rows, bounds=(-180.0, 180.0, -90.0, 90.0)):
    n_rows = len(rows)
    n_cols = len(rows[0])
    lines = [f"ENVGRID {n_rows} {n_cols} {bounds[0]} {bounds[1]} {bounds[2]} {bounds[3]}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_env_normalization_oracle(tmp_path):
    """[1, 2, 3, NA]: observed mean 2, population sd sqrt(2/3); missing -> 0."""
    p = tmp_path / "layer.env"
    write_raster(p, [[1, 2], [3, "NA"]])
    stack = load_env_rasters([p])
    sd = math.sqrt(2.0 / 3.0)
    expected = np.array([[(1 - 2) / sd, 0.0], [(3 - 2) / sd, 0.0]])
    assert abs((1 - 2) / sd + 1.224744871391589) < 1e-12
    np.testing.assert_allclose(stack.values[0], expected, atol=1e-12)
    np.testing.assert_array_equal(stack.missing[0], [[False, False], [False, True]])
    assert stack.means[0] == 2.0
    assert abs(stack.stds[0] - sd) < 1e-15


def test_env_refit_is_standardized(tmp_path):
    rng = np.random.default_rng(43)
    grid = rng.normal(5.0, 3.0, (6, 9))
    p = tmp_path / "layer.env"
    write_raster(p, grid.tolist())
    stack = load_env_rasters([p])
    vals = stack.values[0][~stack.missing[0]]
    assert abs(vals.mean()) < 1e-6
    assert abs(vals.std() - 1.0) < 1e-6


def test_env_constant_layer_normalizes_to_zero(tmp_path):
    p = tmp_path / "flat.env"
    write_raster(p, [[7, 7], [7, 7]])
    stack = load_env_rasters([p])
    np.testing.assert_array_equal(stack.values[0], np.zeros((2, 2)))


def test_env_row_zero_is_north(tmp_path):
    p = tmp_path / "rows.env"
    # value = raw row index; row 0 is written first and must be the north band
    write_raster(p, [[0, 0], [1, 1], [2, 2]], bounds=(-180.0, 180.0, -90.0, 90.0))
    stack = load_env_rasters([p])
    north = stack.lookup_batch(np.array([0.0]), np.array([89.0]))
    south = stack.lookup_batch(np.array([0.0]), np.array([-89.0]))
    assert north[0, 0] == stack.values[0, 0, 0]
    assert south[0, 0] == stack.values[0, 2, 0]
    assert north[0, 0] < south[0, 0]  # smaller raw value -> smaller z-score


def test_env_lookup_at_centroids_and_bounds(tmp_path):
    p = tmp_path / "layer.env"
    write_raster(p, [[1, 2, 3], [4, 5, 6]], bounds=(-30.0, 30.0, -10.0, 10.0))
    stack = load_env_rasters([p])
    lons, lats = stack.cell_centroids(np.arange(stack.n_cells))
    feats = stack.lookup_batch(lons, lats)
    np.testing.assert_array_equal(feats[:, 0], stack.values[0].reshape(-1))
    # the inclusive max edge folds into the last row/column
    edge = stack.lookup_batch(np.array([30.0]), np.array([-10.0]))
    assert edge[0, 0] == stack.values[0, -1, -1]
    with pytest.raises(ValueError):
        stack.lookup_batch(np.array([31.0]), np.array([0.0]))


def test_env_stack_requires_matching_grids(tmp_path):
    a, b = tmp_path / "a.env", tmp_path / "b.env"
    write_raster(a, [[1, 2], [3, 4]])
    write_raster(b, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        load_env_rasters([a, b])
    write_raster(b, [[1, 2], [3, 4]], bounds=(-30.0, 30.0, -10.0, 10.0))
    with pytest.raises(ValueError):
        load_env_rasters([a, b])


def test_env_malformed_files(tmp_path):
    p = tmp_path / "bad.env"
    p.write_text("NOTAGRID 1 1 -180 180 -90 90\n0\n")
    with pytest.raises(ValueError, match="ENVGRID"):
        load_env_rasters([p])
    p.write_text("ENVGRID 2 2 -180 180 -90 90\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4 cell values"):
        load_env_rasters([p])
    p.write_text("ENVGRID 1 1 -180 180 -90 90\ninf\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_env_rasters([p])


def test_env_write_read_roundtrip(tmp_path):
    p = tmp_path / "out.env"
    grid = np.array([[1.5, np.nan], [-2.25, 0.0]])
    write_env_raster(p, grid, (-60.0, 60.0, -30.0, 30.0))
    stack = load_env_rasters([p])
    assert stack.missing[0, 0, 1]
    assert (stack.lon_min, stack.lon_max) == (-60.0, 60.0)
    observed = grid[np.isfinite(grid)]
    mean, sd = observed.mean(), observed.std()
    np.testing.assert_allclose(
        stack.values[0][~stack.missing[0]], (observed - mean) / sd, atol=1e-12
    )


def test_fully_observed_cells(tmp_path):
    a, b = tmp_path / "a.env", tmp_path / "b.env"
    write_raster(a, [[1, "NA"], [3, 4]])
    write_raster(b, [[1, 2], ["NA", 4]])
    stack = load_env_rasters([a, b])
    np.testing.assert_array_equal(stack.fully_observed_cells(), [0, 3])


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(batch_size=0)
    with pytest.raises(ValueError):
        SamplerConfig(batch_size=8, cap_per_species=0)
    cfg = SamplerConfig(batch_size=8, input_layout="env+coords")
    assert cfg.input_layout is InputLayout.ENV_PLUS_COORDS
    assert SamplerConfig(batch_size=8).cap_per_species is None


def test_assemble_inputs_layouts(tmp_path):
    p = tmp_path / "layer.env"
    write_raster(p, [[1, 2], [3, 4]])
    stack = load_env_rasters([p])
    lons = np.array([-90.0, 90.0])
    lats = np.array([45.0, -45.0])

    coords = assemble_inputs(lons, lats, InputLayout.COORDS)
    assert coords.dtype == np.float32 and coords.shape == (2, 4)
    np.testing.assert_allclose(coords, encode_locations(lons, lats), atol=1e-7)

    env = assemble_inputs(lons, lats, InputLayout.ENV, stack)
    assert env.shape == (2, 1)
    np.testing.assert_allclose(env, stack.lookup_batch(lons, lats), atol=1e-7)

    both = assemble_inputs(lons, lats, InputLayout.ENV_PLUS_COORDS, stack)
    assert both.shape == (2, 5)
    np.testing.assert_array_equal(both[:, :1], env)   # env block first
    np.testing.assert_array_equal(both[:, 1:], coords)  # encoding last

    with pytest.raises(ValueError):
        assemble_inputs(lons, lats, InputLayout.ENV, None)


def test_sample_batch_contents_and_determinism():
    rng_data = np.random.default_rng(47)
    obs = random_obs(rng_data, n_species=5, n_records=40)
    cfg = SamplerConfig(batch_size=64)
    x, targets = sample_batch(obs, cfg, np.random.default_rng(7))
    assert x.shape == (64, 4) and x.dtype == np.float32
    assert targets.positive_index.shape == (64,)
    assert np.all((targets.positive_index >= 0) & (targets.positive_index < 5))
    # every drawn input row is the encoding of a record of the drawn species
    encoded = assemble_inputs(obs.lons, obs.lats, InputLayout.COORDS)
    by_row = {encoded[i].tobytes(): obs.species_index[i] for i in range(obs.n_records)}
    for row, j in zip(x, targets.positive_index):
        assert by_row[row.tobytes()] == j
    # larger-than-corpus batches must repeat records (with replacement)
    assert len({row.tobytes() for row in x}) < 64

    x2, targets2 = sample_batch(obs, cfg, np.random.default_rng(7))
    assert x.tobytes() == x2.tobytes()
    np.testing.assert_array_equal(targets.positive_index, targets2.positive_index)


def test_sample_uniform_locations_bounds_and_determinism():
    rng = np.random.default_rng(51)
    lons, lats = sample_uniform_locations(5000, rng)
    assert np.all((lons >= -180) & (lons <= 180))
    assert np.all((lats >= -90) & (lats <= 90))
    assert abs(lons.mean()) < 6.0 and abs(lats.mean()) < 3.0

    box = (10.0, 20.0, -5.0, 0.0)
    lons, lats = sample_uniform_locations(100, np.random.default_rng(1), box)
    assert np.all((lons >= 10) & (lons <= 20))
    assert np.all((lats >= -5) & (lats <= 0))
    lons2, lats2 = sample_uniform_locations(100, np.random.default_rng(1), box)
    assert lons.tobytes() == lons2.tobytes() and lats.tobytes() == lats2.tobytes()

    empty = sample_uniform_locations(0, rng)
    assert empty[0].shape == (0,)
