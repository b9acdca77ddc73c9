"""Observation ingestion, species filtering/subsampling, environmental
rasters, and training batch assembly."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sinr.data as data_module
from helpers import random_obs
from sinr.data import (
    _SALT_SUBSAMPLE,
    EnvRasterStack,
    ObservationSet,
    RowRejection,
    _parse_env_raster,
    assemble_inputs,
    filter_min_count,
    load_env_rasters,
    load_observations,
    sample_batch,
    sample_uniform_locations,
    save_observations,
    subsample_cap,
    write_env_raster,
)
from sinr.geo import InputLayout, encode_locations
from sinr.util import seed_u64


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


@pytest.mark.parametrize("sid, error", [
    ("\U0001f600" * 16383, None),  # 65,532 bytes: short enough not to be encoded one by one
    ("\U0001f600" * 16384, "longer than 65535 UTF-8 bytes"),  # 65,536 bytes
    ("a" * 65535, None),
    ("a" * 65536, "longer than 65535 UTF-8 bytes"),
    ("sp\ud800", "'\\\\ud800' in position 2: surrogates not allowed"),  # no UTF-8 form
])
def test_observation_set_id_length_limit(sid, error):
    """Ids are refused past 65,535 UTF-8 bytes, on either side of the length
    below which ids are not encoded one by one, and an id with no UTF-8 form
    raises the error of encoding it alone."""
    args = (("x", sid), np.array([0, 1]), np.zeros(2), np.zeros(2))
    if error:
        with pytest.raises(ValueError, match=error):
            ObservationSet(*args)
    else:
        assert ObservationSet(*args).species_ids[1] == sid


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


def _subsample_cap_loop(obs: ObservationSet, cap: int, seed: int) -> np.ndarray:
    """The kept record positions, species by species, as the loader once did."""
    order = np.argsort(obs.species_index, kind="stable")
    boundaries = np.searchsorted(obs.species_index[order], np.arange(obs.n_species + 1))
    chosen = [np.empty(0, dtype=np.int64)]
    for s in range(obs.n_species):
        group = order[boundaries[s] : boundaries[s + 1]]
        if group.size <= cap:
            chosen.append(group)
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed_u64(seed), _SALT_SUBSAMPLE, s]))
        chosen.append(group[rng.permutation(group.size)[:cap]])
    return np.sort(np.concatenate(chosen))


@pytest.mark.parametrize("case", ["mixed", "cap 1", "all under", "all over", "singletons"])
def test_subsample_cap_matches_the_per_species_loop(case):
    """Only species over the cap draw a permutation; the kept records are the
    per-species loop's, on random corpora."""
    rng = np.random.default_rng(list(case.encode()))
    for _ in range(6):
        n_species = int(rng.integers(1, 40))
        cap = 1 if case == "cap 1" else int(rng.integers(1, 12))
        low, high = {"all under": (0, cap + 1), "all over": (cap + 1, cap + 30),
                     "singletons": (1, 2)}.get(case, (0, 30))
        counts = rng.integers(low, high, n_species)
        index = rng.permutation(np.repeat(np.arange(n_species), counts))
        obs = ObservationSet(
            tuple(f"s{i}" for i in range(n_species)), index,
            rng.uniform(-180, 180, index.size), rng.uniform(-90, 90, index.size),
        )
        seed = int(rng.integers(-(2**63), 2**63))
        keep = _subsample_cap_loop(obs, cap, seed)
        got = subsample_cap(obs, cap, seed)
        np.testing.assert_array_equal(got.species_index, obs.species_index[keep])
        assert got.lons.tobytes() == obs.lons[keep].tobytes()
        assert got.lats.tobytes() == obs.lats[keep].tobytes()
    empty = ObservationSet(("a",), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    assert subsample_cap(empty, 1, 0).n_records == 0


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
# Bulk and per-row loading agree
# ---------------------------------------------------------------------------


def _load(loader, path, per_row: bool, chunk_chars: int = 1 << 20):
    """A loader's result as bytes, or the type and message of what it raises;
    ``per_row`` turns the bulk pass off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data_module, "_PIECE_CHARS", chunk_chars)
        if per_row:
            m.setattr(data_module, "_byte_rows", lambda *args: None)
            m.setattr(data_module, "_byte_cells", lambda *args: None)
        try:
            result = loader(path)
        except Exception as exc:  # compared across the two passes
            return type(exc), str(exc)
    if loader is load_observations:
        obs, rejected = result
        arrays = (obs.species_index, obs.lons, obs.lats)
        return obs.species_ids, rejected, [(a.dtype, a.tobytes()) for a in arrays]
    grid, bounds = result
    return grid.shape, grid.dtype, grid.tobytes(), bounds


def _assert_passes_agree(loader, path, text: str, chunk_chars: int = 1 << 20):
    """The bulk pass, in chunks of ``chunk_chars``, gives what the per-row pass
    over the whole file (one chunk: these files are smaller) gives."""
    path.write_bytes(text.encode("utf-8"))
    bulk = _load(loader, path, per_row=False, chunk_chars=chunk_chars)
    assert bulk == _load(loader, path, per_row=True), text[:200]
    return bulk


_H = "species_id,lon,lat\n"
_CSV_CASES = {
    "plain": _H + "a,1.5,2\nb,-180,90\na,180,-90\n",
    "bom": "\ufeff" + _H + "a,1,2\n",
    "padded header": " species_id , lon ,lat \na,1,2\n",
    "reordered and extra columns": "lat,note,species_id,lon\n2,x,a,1\n3,,b,4\n",
    "quoted header": '"species_id","lon","lat"\na,1,2\n',
    "quoted ids": _H + '"a",1,2\n"b,c",3,4\nd,5,6\n',
    "quoted line break": _H + 'x,0,0\n"a\nb",1,2\nc,3,4\n',
    "crlf": _H.replace("\n", "\r\n") + "a,1,2\r\nb,3,4\r\n",
    "cr": _H + "a,1,2\rb,3,4\r",
    "blank lines": _H + "\na,1,2\n\n\nb,3,4\n",
    "short rows": _H + "a,1\nb,3,4\n",
    "long rows": _H + "a,1,2,3\nb,3,4\n",
    "long then short row": _H + "a,1,2,3\n4,5\n",
    "whitespace ids": _H + " a ,1,2\na,3,4\n  ,5,6\n\t,7,8\n",
    "empty ids": _H + ",1,2\nb,3,4\n",
    "new id on a bad row": _H + "a,1,2\nb,500,0\nc,1,2\n",
    "mixed line ends": _H + "a,1,2\r\nb,3,4\nc,5,6\r\n",
    "non-finite": _H + "a,nan,2\nb,inf,4\nc,1e400,0\nd,1,-inf\ne,1,NaN\n",
    "underscores and spaces": _H + "a,1_000,2\nb, 3 ,4\nc,1_0,+5\nd,\t6\t,-0.0\n",
    "out of range": _H + "a,180.0000001,2\nb,-181,4\nc,0,90.5\nd,0,-1e9\n",
    "unparseable": _H + "a,abc,2\nb,,4\nc,NA,5\nd,1,2x\ne,0x10,1\n",
    "unicode digits": _H + "a,١٢,٣\n",
    "no final newline": _H + "a,1,2\nb,3,4",
    "header only": _H,
    "empty": "",
    "missing column": "species_id,lon\na,1\n",
    "nul": _H + "a\x00b,1,2\n",
    "oversized field": _H + "a" * 140_000 + ",1,2\n",
    "overlong id": _H + "a" * 300 + ",1,2\n",
}


@pytest.mark.parametrize("chunk_chars", [1, 24, 1 << 20])
@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_csv_passes_agree_on_edge_cases(tmp_path, case, chunk_chars):
    _assert_passes_agree(load_observations, tmp_path / "obs.csv", _CSV_CASES[case], chunk_chars)


_CSV_FIELDS = st.sampled_from(
    ["a", "b", " b ", "", "  ", "sp 1", "é", '"q"', '"x,y"', '"l\nm"', "0", "-0.0",
     "12.5", "-180", "180", "90", "-90", "180.5", "nan", "inf", "-inf", "1e400", "1_000",
     " 7 ", "NA", "abc", "+3", "1e-320"]
) | st.floats(-200, 200).map(repr)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    data=st.data(),
    header=st.sampled_from(
        ["species_id,lon,lat", "lon,species_id,lat,x", "\ufefflat,lon,species_id"]
    ),
    ends=st.sampled_from(["\n", "\n", "\r\n", "\r"]),
    chunk_chars=st.sampled_from([1, 30, 1 << 20]),
)
def test_csv_passes_agree_on_generated_files(fuzz_dir, data, header, ends, chunk_chars):
    n = header.count(",") + 1
    ids = st.sampled_from(["a", "b", "c", "sp 1"])
    numbers = st.floats(-180, 180).map(repr)
    plain_row = st.tuples(ids, numbers, numbers, numbers).map(lambda r: ",".join(r[:n]))
    other_row = st.lists(_CSV_FIELDS, max_size=n + 1).map(",".join)
    rows = data.draw(st.lists(plain_row | other_row, max_size=12), label="rows")
    tail = data.draw(st.sampled_from(["", ends]), label="tail")
    text = ends.join([header, *rows]) + tail
    _assert_passes_agree(load_observations, fuzz_dir / "obs.csv", text, chunk_chars)


def test_plain_csv_chunks_never_take_the_per_row_pass(tmp_path, monkeypatch):
    """A file written by save_observations spans several chunks, all parsed in
    bulk; one bad row sends its own chunk, and no other, to the per-row pass."""
    path = tmp_path / "obs.csv"
    save_observations(random_obs(np.random.default_rng(43), n_species=9, n_records=300), path)
    assert path.stat().st_size > 8 * 512
    per_row = _load(load_observations, path, per_row=True)
    first_lines = []

    def checked_rows(rows, line_no, *args, _checked=data_module._checked_rows):
        first_lines.append(line_no)
        return _checked(rows, line_no, *args)

    monkeypatch.setattr(data_module, "_checked_rows", checked_rows)
    assert _load(load_observations, path, per_row=False, chunk_chars=512) == per_row
    assert first_lines == []
    lines = path.read_text().splitlines(keepends=True)
    lines[150] = "bad,row\n"
    path.write_text("".join(lines))
    bulk = _load(load_observations, path, per_row=False, chunk_chars=512)
    assert len(first_lines) == 1 and 140 < first_lines[0] <= 151
    assert bulk[1] == (RowRejection(151, "too few fields"),)
    assert bulk == _load(load_observations, path, per_row=True)


def test_one_long_id_sends_its_piece_to_the_per_row_pass(tmp_path, monkeypatch):
    """A 4,000-byte id among 12,000 short rows of one piece: the byte pass
    leaves the piece to the per-row pass, whose result it is, in memory of
    the order of the file's size."""
    rows = [f"sp{i % 50},{i % 359 - 179}.5,{i % 179 - 89}.25\n" for i in range(12_000)]
    rows[6_000] = "L" * 4_000 + ",1.5,2.5\n"
    path = tmp_path / "obs.csv"
    path.write_text("species_id,lon,lat\n" + "".join(rows))
    assert path.stat().st_size < data_module._PIECE_CHARS
    per_row = _load(load_observations, path, per_row=True)
    results = []

    def byte_rows(*args, _pass=data_module._byte_rows):
        results.append(_pass(*args))
        return results[-1]

    monkeypatch.setattr(data_module, "_byte_rows", byte_rows)
    tracemalloc.start()
    try:
        got = _load(load_observations, path, per_row=False, chunk_chars=data_module._PIECE_CHARS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == per_row and got[1] == () and results == [None]
    assert peak < 32 * path.stat().st_size, peak


def _bulk_spies(monkeypatch):
    """Record each byte pass's results, check that ``_decimals`` reads every
    number it is given, so none reaches ``float()``, and fail on a call to
    the per-row or per-token pass."""
    results = []

    def recorded(name):
        def spy(*args, _pass=getattr(data_module, name)):
            results.append(_pass(*args))
            return results[-1]
        monkeypatch.setattr(data_module, name, spy)

    def decimals(*args, _decimals=data_module._decimals):
        values, read = _decimals(*args)
        assert read.all()
        return values, read

    recorded("_byte_rows")
    recorded("_byte_cells")
    monkeypatch.setattr(data_module, "_decimals", decimals)
    for name in ("_checked_rows", "_cell_value"):
        monkeypatch.setattr(data_module, name, lambda *args, _name=name: pytest.fail(_name))
    return results


def test_benchmark_shaped_csv_takes_the_byte_pass_in_every_piece(tmp_path, monkeypatch):
    """5-decimal coordinates and ids of more than 8 bytes, with spaces and
    letters outside ASCII, are parsed from bytes in every piece: no row
    reaches the per-row pass and no coordinate reaches ``float()``."""
    rng = np.random.default_rng(49)
    ids = np.array([f"Pœcile atricapillus {i:03d}" for i in range(40)])
    species = rng.integers(0, 40, 600)
    lons, lats = np.round(rng.uniform(-180, 180, 600), 5), np.round(rng.uniform(-90, 90, 600), 5)
    rows = (f"{s},{lo!r},{la!r}\n"
            for s, lo, la in zip(ids[species].tolist(), lons.tolist(), lats.tolist()))
    path = tmp_path / "obs.csv"
    path.write_text("species_id,lon,lat\n" + "".join(rows), encoding="utf-8")
    per_row = _load(load_observations, path, per_row=True)
    results = _bulk_spies(monkeypatch)
    assert _load(load_observations, path, per_row=False, chunk_chars=1024) == per_row
    assert len(results) > 20 and all(part is not None for part in results)
    sids, rejected, arrays = per_row
    assert rejected == () and arrays[1][1] == lons.tobytes() and arrays[2][1] == lats.tobytes()
    assert sids == tuple(dict.fromkeys(ids[species]))


def test_rounded_envgrid_takes_the_byte_pass_in_every_piece(tmp_path, monkeypatch):
    """A layer written by write_env_raster with 3-decimal values and missing
    cells is parsed from bytes in every piece, with no token through
    ``float()`` or the per-token pass."""
    grid = np.round(np.random.default_rng(50).normal(0, 100, (30, 40)), 3)
    grid[grid > 80] = np.nan
    path = tmp_path / "layer.env"
    write_env_raster(path, grid, (-180.0, 180.0, -90.0, 90.0))
    per_token = _load(_parse_env_raster, path, per_row=True)
    results = _bulk_spies(monkeypatch)
    assert _load(_parse_env_raster, path, per_row=False, chunk_chars=256) == per_token
    assert len(results) > 20 and all(values is not None for values in results)
    assert per_token[2] == grid.tobytes()


_DIGITS = st.text("0123456789", max_size=17)


@st.composite
def _decimal_fields(draw):
    """Fields in and around ``_decimals``'s form ``-?[0-9]*\\.?[0-9]*``."""
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    whole, frac = draw(_DIGITS), draw(_DIGITS)
    dot = draw(st.sampled_from([".", ".", ""]))
    field = sign + whole + dot + frac if dot else sign + whole
    return draw(st.sampled_from([
        field, field, field, field + draw(st.sampled_from(["e3", "E-2", "_1", " ", "x"])),
        " " + field, repr(draw(st.floats(allow_nan=False))), str(2**53 + draw(st.integers(-3, 3))),
        draw(st.sampled_from(["nan", "inf", "-inf", ".", "-", "-.", "", "1_000", "0x10", "١٢"])),
    ]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_decimal_fields(), min_size=1, max_size=20))
@example(["-0", ".5", "5.", "007", "-000.000", "123456789012345", "1234567890123456",
          "12345678.12345678", "900719925474099.3", "9007199254740993", "0.000000000000001",
          "99999999999999.9", "-.", "1e5", "+1", " 1", "1 ", "nan", "inf"])
def test_decimals_give_the_bits_of_float_or_refuse(fields):
    """``_decimals`` takes exactly the fields of its form with 1 to 15 digits,
    and gives ``float()``'s bits for each; every other field reads NaN."""
    raw = [f.encode() for f in fields]
    ends = np.cumsum([len(b) + 1 for b in raw]) - 1
    body = np.frombuffer(b",".join(raw) + b",", np.uint8)
    values, ok = data_module._decimals(body, ends - [len(b) for b in raw], ends)
    for field, value, took in zip(fields, values.tolist(), ok.tolist()):
        digits = sum(c.isdigit() for c in field)
        assert took == (re.fullmatch(r"-?[0-9]*\.?[0-9]*", field) is not None
                        and 1 <= digits <= 15), field
        if took:
            assert np.float64(value).tobytes() == np.float64(float(field)).tobytes(), field
        else:
            assert math.isnan(value), field


@pytest.mark.parametrize("chunk_chars", [1, 24, 1 << 20])
def test_rejections_after_a_quoted_line_break_name_the_line_a_row_starts_on(tmp_path,
                                                                            chunk_chars):
    text = _H + '"a\nb",1.0,2.0\nbad,999,2.0\n"c\n\nd",1,2\nshort,1\n\n,3,4\n'
    ids, rejected, _ = _assert_passes_agree(load_observations, tmp_path / "obs.csv", text,
                                            chunk_chars)
    assert ids == ("a\nb", "c\n\nd")
    assert rejected == (RowRejection(4, "coordinate out of range"),
                        RowRejection(8, "too few fields"), RowRejection(10, "empty species_id"))


_ENV_HEAD = "ENVGRID 2 3 -180 180 -90 90\n"
_ENV_CASES = {
    "plain": _ENV_HEAD + "1 2.5 NA\n-4 0 1e-300\n",
    "tabs and spaces": _ENV_HEAD + "1\t2.5  NA\n\n -4\t\t0 1e-300",
    "rows across lines": _ENV_HEAD + "1 2.5\nNA -4 0\n1e-300\n",
    "all missing": _ENV_HEAD + "NA NA NA\nNA NA NA\n",
    "literal nan": _ENV_HEAD + "1 2 NA\nnan 0 1\n",
    "literal NaN beside NA": _ENV_HEAD + "1 NaN NA\n3 0 1\n",
    "inf": _ENV_HEAD + "1 2 3\n4 -inf NA\n",
    "overflow": _ENV_HEAD + "1 2 3\n4 1e400 6\n",
    "signed NA": _ENV_HEAD + "1 +NA 3\n4 5 6\n",
    "lower-case na": _ENV_HEAD + "1 na 3\n4 5 6\n",
    "NAN": _ENV_HEAD + "1 NAN 3\n4 5 6\n",
    "unparseable": _ENV_HEAD + "1 2 3\n4 5x 6\n",
    "underscores": _ENV_HEAD + "1_000 2 3\n4 5 6\n",
    "too few cells": _ENV_HEAD + "1 2 3\n4 5\n",
    "too many cells": _ENV_HEAD + "1 2 3\n4 5 6 7\n",
    "bad header": "ENVGRID 2 x -180 180 -90 90\n1 2 3\n4 5 6\n",
}


@pytest.mark.parametrize("case", list(_ENV_CASES))
def test_envgrid_passes_agree_on_edge_cases(tmp_path, case):
    _assert_passes_agree(_parse_env_raster, tmp_path / "layer.env", _ENV_CASES[case])


_ENV_TOKENS = st.sampled_from(
    ["NA", "NA", "0", "-0.0", "7", "1e-300", "nan", "inf", "-inf", "1e400", "NaN", "na",
     "+NA", "1_0", "abc"]
) | st.floats(allow_nan=False, allow_infinity=False).map(repr)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_envgrid_passes_agree_on_generated_files(fuzz_dir, shape, data):
    size = shape[0] * shape[1] + data.draw(st.sampled_from([0, 0, 0, -1, 1]), label="miscount")
    tokens = data.draw(st.lists(_ENV_TOKENS, min_size=max(size, 0), max_size=max(size, 0)))
    seps = data.draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n", " \n "]),
                              min_size=len(tokens), max_size=len(tokens)), label="separators")
    text = f"ENVGRID {shape[0]} {shape[1]} -180 180 -90 90\n"
    text += "".join(t + sep for t, sep in zip(tokens, seps))
    _assert_passes_agree(_parse_env_raster, fuzz_dir / "layer.env", text)


def test_plain_envgrid_never_takes_the_per_token_pass(tmp_path, monkeypatch):
    grid = np.random.default_rng(47).normal(0, 100, (6, 9))
    grid[grid > 80] = np.nan
    path = tmp_path / "layer.env"
    write_env_raster(path, grid, (-180.0, 180.0, -90.0, 90.0))
    per_token = _load(_parse_env_raster, path, per_row=True)
    monkeypatch.setattr(data_module, "_cell_value", lambda *args: 1 / 0)
    assert _load(_parse_env_raster, path, per_row=False) == per_token
    assert per_token[2] == grid.tobytes()


_ENV_SPLIT_CASES = {
    **_ENV_CASES,
    "unicode spaces": _ENV_HEAD + "1\u2003 2.5\x1cNA\r\n-4\x85 0\xa01e-300\r\n",
    "long tokens": _ENV_HEAD + " ".join(["-1.2345678901234567e-300"] * 6) + "\n",
    "cr line ends": _ENV_HEAD.replace("\n", "\r") + "1 2 3\r4 5 6\r",
    "not a grid": "1 2 3\n",
    "empty": "",
    "header only": "ENVGRID 1 1 -180\n",
}


@pytest.mark.parametrize("piece_chars", [1, 2, 7, 64])
@pytest.mark.parametrize("case", list(_ENV_SPLIT_CASES))
def test_envgrid_pieces_do_not_change_the_result(tmp_path, case, piece_chars):
    """The file is read in pieces of ``_PIECE_CHARS`` characters: tokens that
    a piece boundary splits, Unicode whitespace and line ends between pieces
    give the grid, bounds or error of reading it whole."""
    path = tmp_path / "layer.env"
    path.write_bytes(_ENV_SPLIT_CASES[case].encode("utf-8"))
    whole = _load(_parse_env_raster, path, per_row=False)
    assert _load(_parse_env_raster, path, per_row=False, chunk_chars=piece_chars) == whole


def test_envgrid_text_is_never_held_whole(tmp_path, monkeypatch):
    """A 300 x 600 layer (3.2 MB of text) read in 16 KiB pieces peaks below
    two float64 grids plus 512 KiB traced: the parsed pieces and the grid
    they are joined into. Holding every token as a string peaked at 11.4
    grids."""
    grid = np.random.default_rng(48).normal(10, 5, (300, 600))
    grid[grid < 2] = np.nan
    path = tmp_path / "layer.env"
    write_env_raster(path, grid, (-180.0, 180.0, -90.0, 90.0))
    monkeypatch.setattr(data_module, "_PIECE_CHARS", 1 << 14)
    tracemalloc.start()
    try:
        got, _ = _parse_env_raster(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == grid.tobytes()
    assert peak < 2 * grid.nbytes + 2**19


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


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
    x, targets = sample_batch(obs, 64, InputLayout.COORDS, np.random.default_rng(7))
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

    x2, targets2 = sample_batch(obs, 64, InputLayout.COORDS, np.random.default_rng(7))
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
