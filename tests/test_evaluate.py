"""Ranking metrics, evaluation tasks, ridge regression, and the grid baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinr.evaluate as evaluate_module
from helpers import (
    ap_oracle,
    reference_f1_max_threshold,
    reference_load_eval_grid,
    reference_save_eval_grid,
)
from sinr.data import EnvRasterStack, ObservationSet, load_env_rasters, write_env_raster
from sinr.evaluate import (
    ClassifierRecord,
    ClassifierScoreSet,
    EvalGrid,
    average_precision,
    f1_at_threshold,
    f1_max_threshold,
    geo_feature_task,
    geo_prior_delta,
    grid_baseline_fit,
    grid_baseline_scores,
    load_classifier_scores,
    load_eval_grid,
    map_task,
    r2_score,
    ridge_cv,
    ridge_fit,
    save_eval_grid,
)
from sinr.geo import GridSpec, cell_centroids, cell_indices


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------


def test_ap_three_item_hand_value():
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
    assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6, abs=1e-15)


def test_ap_perfect_ranking_is_one():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_ap_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = rng.random(n)
        if rng.random() < 0.3:  # force tied scores sometimes
            scores = np.round(scores, 1)
        assert average_precision(scores, labels) == pytest.approx(
            ap_oracle(scores.tolist(), labels.tolist()), abs=1e-12
        )


def test_ap_ties_keep_input_order():
    assert average_precision([0.5, 0.5], [0, 1]) == 0.5
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0


def test_ap_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    labels[0] = 1
    base = average_precision(scores, labels)
    assert average_precision(3 * scores + 1, labels) == pytest.approx(base, abs=1e-15)
    assert average_precision(np.exp(scores), labels) == pytest.approx(base, abs=1e-15)


def test_ap_rejects_degenerate_input():
    with pytest.raises(ValueError, match="positives"):
        average_precision([0.5, 0.2], [0, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        average_precision([0.5, 0.2], [2, 1])
    with pytest.raises(ValueError):
        average_precision([0.5], [1, 0])


# ---------------------------------------------------------------------------
# Evaluation grid + mean-AP task
# ---------------------------------------------------------------------------


def small_eval_grid() -> EvalGrid:
    grid = GridSpec(resolution=2)  # 2 x 4 = 8 cells of 90 degrees
    labels = np.full((3, grid.n_cells), -1, dtype=np.int8)
    labels[0, [0, 1, 2]] = [1, 0, 0]
    labels[1, [1, 3, 5]] = [0, 1, 1]
    labels[2, [0, 2]] = [1, 1]  # no absences: skipped
    return EvalGrid(grid=grid, species_ids=("a", "b", "c"), labels=labels)


def test_eval_grid_validation():
    grid = GridSpec(1)
    with pytest.raises(ValueError, match="duplicate"):
        EvalGrid(grid, ("a", "a"), np.zeros((2, grid.n_cells), dtype=np.int8))
    with pytest.raises(ValueError, match="shape"):
        EvalGrid(grid, ("a",), np.zeros((1, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="-1, 0 or 1"):
        EvalGrid(grid, ("a",), np.full((1, grid.n_cells), 7, dtype=np.int8))


def test_eval_grid_restrict():
    sub = small_eval_grid().restrict(["c", "a"])
    assert sub.species_ids == ("a", "c")  # original order, not request order
    np.testing.assert_array_equal(sub.labels, small_eval_grid().labels[[0, 2]])
    with pytest.raises(ValueError, match="unknown"):
        small_eval_grid().restrict(["a", "nope"])


def test_eval_grid_roundtrip(tmp_path):
    eg = small_eval_grid()
    path = tmp_path / "grid.evalgrid"
    save_eval_grid(eg, path)
    back = load_eval_grid(path)
    assert back.species_ids == eg.species_ids
    assert back.grid == eg.grid
    np.testing.assert_array_equal(back.labels, eg.labels)


def test_eval_grid_load_rejects_duplicates_and_bad_labels(tmp_path):
    path = tmp_path / "bad.evalgrid"
    path.write_text("EVALGRID 1 1\nsp 0 1\nsp 0 0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_eval_grid(path)
    path.write_text("EVALGRID 1 1\nsp 0 3\n")
    with pytest.raises(ValueError, match="label"):
        load_eval_grid(path)
    path.write_text("EVALGRID 1 2\nsp 0 1\n")
    with pytest.raises(ValueError, match="declares"):
        load_eval_grid(path)
    path.write_text("WRONG 1 1\nsp 0 1\n")
    with pytest.raises(ValueError, match="header"):
        load_eval_grid(path)


def test_eval_grid_whose_keys_would_wrap_names_its_header(tmp_path):
    """At resolution 2**31 - 1, 2 * n_cells wraps to -(2**34) + 4 in int64,
    so species index 2 at cell 2**34 - 4 would share the key of species 0 at
    cell 0: the loader names the header's label count, not a duplicate."""
    path = tmp_path / "wrap.evalgrid"
    path.write_text(f"EVALGRID 2147483647 3\na 0 1\nb 0 1\nc {2**34 - 4} 1\n")
    with pytest.raises(ValueError) as exc:
        load_eval_grid(path)
    assert str(exc.value) == (f"{path}: header 'EVALGRID 2147483647 3' has more labels "
                              "than an array holds")


@pytest.mark.parametrize("form", ["plain", "free"])
def test_eval_grid_load_agrees_across_line_forms(tmp_path, form, monkeypatch):
    """The form save_eval_grid writes is parsed in bulk, any other spacing line
    by line; both give the same grid and the same first error."""
    path = tmp_path / "g.evalgrid"

    def write(lines):
        if form == "plain":
            path.write_text("\n".join(lines) + "\n")
        else:
            path.write_text("\n\n".join(" " + ln.replace(" ", "\t") + "  " for ln in lines))

    if form == "plain":
        def line_by_line(*args):
            raise AssertionError("a plain valid file was parsed line by line")

        with monkeypatch.context() as m:
            m.setattr(evaluate_module, "_checked_entries", line_by_line)
            write(["EVALGRID 1 2", "b 1 0", "a 1 1", "b 0 1"])  # interleaved runs of ids
            load_eval_grid(path)
            write(["EVALGRID 1 3", "été 0 1", "b 1 0", "été 1 0", "a 0 1", "b 0 1"])
            eg = load_eval_grid(path)
            assert eg.species_ids == ("été", "b", "a")
            np.testing.assert_array_equal(eg.labels, [[1, 0], [1, 0], [1, -1]])
            path.write_text("EVALGRID 1 1\na 1 1")  # no final line break
            np.testing.assert_array_equal(load_eval_grid(path).labels, [[-1, 1]])
    write(["EVALGRID 1 2", "b 1 0", "a 1 1", "b 0 1"])
    eg = load_eval_grid(path)
    assert eg.species_ids == ("b", "a")
    np.testing.assert_array_equal(eg.labels, [[1, 0], [-1, 1]])
    for lines, message in [
        (["b 1 0", "a 0 1", "b 1 1"], "duplicate entry for species index 0, cell 1$"),
        (["b 1 0", "a 2 1", "a 7 1"], r"cell index 2 outside \[0, 2\)$"),
        (["b 1 0", "a 99999999999999999999 1"], "cell index 99999999999999999999 outside"),
        (["b 1 0"], "declares 2 species, file lists 1$"),
    ]:
        write(["EVALGRID 1 2", *lines])
        with pytest.raises(ValueError, match=message):
            load_eval_grid(path)


def test_save_eval_grid_writes_the_per_entry_bytes(tmp_path):
    """One joined string per species has the bytes of one write per entry, for
    ids with format braces and non-ASCII characters and for a species without
    valid cells."""
    grid = GridSpec(3)
    rng = np.random.default_rng(5)
    labels = rng.integers(-1, 2, (5, grid.n_cells)).astype(np.int8)
    labels[2] = -1
    eg = EvalGrid(grid, ("{}", "a{0}b", "empty", "été", "日本{"), labels)
    save_eval_grid(eg, tmp_path / "bulk.evalgrid")
    reference_save_eval_grid(eg, tmp_path / "ref.evalgrid")
    assert (tmp_path / "bulk.evalgrid").read_bytes() == (tmp_path / "ref.evalgrid").read_bytes()
    listed = eg.restrict(["{}", "a{0}b", "été", "日本{"])  # "empty" has no line to load
    save_eval_grid(listed, tmp_path / "listed.evalgrid")
    back = load_eval_grid(tmp_path / "listed.evalgrid")
    assert back.species_ids == listed.species_ids
    np.testing.assert_array_equal(back.labels, listed.labels)


#: Ids the plain form can hold: several share their first 8 or 16 bytes.
_PLAIN_IDS = st.sampled_from(
    ["a", "b", "sp1", "été", "日本", "{x}", "abcdefgh", "abcdefgi", "abcdefghij", "abcdefghik",
     "abcdefghijklmnop", "abcdefghijklmnoq", "abcdefghijklmnopq", "abcdefghijklmnopr",
     "éééé", "ééééé", "a\x7fb"]
)
#: Also an empty id and ids holding whitespace or a control character.
_GRID_IDS = _PLAIN_IDS | st.sampled_from(
    ["", "x\x1cy", "a\xa0b", "a\x85b", "a\u2028b", "a\x01b", "\u3000"]
)
_GRID_CELLS = st.sampled_from(["0", "1", "7", "00", "01", "007", "+1", "_1", "1_0", "-1", "1a",
                               "٣", "0" * 17 + "1", "0" * 18 + "1", "0" * 19 + "1", "9" * 18,
                               "9" * 19, "9" * 20, "1" + "0" * 19, "9223372036854775808"])
_GRID_LABELS = st.sampled_from(["0", "1", "2", "-1", "01", "x", "x1", "١"])


def _grid_or_error(loader, path):
    """The ids, label dtype and label bytes of ``loader(path)``, or its error."""
    try:
        eg = loader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return eg.species_ids, eg.labels.dtype, eg.labels.tobytes()


@pytest.fixture(scope="module")
def grid_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("evalgrid")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_grid_load_agrees_with_the_token_reader(grid_fuzz_dir, data):
    """On generated files, load_eval_grid gives the grid (ids, label bytes and
    dtype) or the error (type and message) of a reader that checks the plain
    form with a regex and converts its tokens as Python strings."""
    resolution = data.draw(st.sampled_from([1, 2]), label="resolution")
    n_cells = 2 * resolution * resolution
    cell, label = st.integers(0, n_cells - 1).map(str), st.sampled_from(["0", "1"])
    plain = st.tuples(_PLAIN_IDS, cell, label).map(" ".join)
    odd_field = st.one_of(  # one field of any form, the others plain
        st.tuples(_GRID_IDS, cell, label),
        st.tuples(_PLAIN_IDS, _GRID_CELLS | st.just(str(n_cells)), label),
        st.tuples(_PLAIN_IDS, cell, _GRID_LABELS),
    )
    body = data.draw(st.lists(plain, max_size=8), label="plain lines")
    if data.draw(st.booleans(), label="one odd line"):
        # Plain spacing with any field, or a blank, padded or tab-separated line.
        gap, pad = st.sampled_from([" ", " ", "\t", "  "]), st.sampled_from(["", " ", "\t"])
        odd = data.draw(
            st.one_of(
                odd_field.map(" ".join),
                odd_field.map(" ".join),
                st.tuples(pad, odd_field, gap, pad).map(lambda t: t[0] + t[2].join(t[1]) + t[3]),
                st.just(""),
            ),
            label="odd line",
        )
        body.insert(data.draw(st.integers(0, len(body)), label="at"), odd)
    listed = len({ln.split()[0] for ln in body if ln.split()})
    n_species = data.draw(st.sampled_from([listed, listed, listed + 1]), label="declared")
    header = data.draw(st.sampled_from([f"EVALGRID {resolution} {n_species}"] * 4
                                       + [f" EVALGRID {resolution} {n_species}", "EVALGRID x 1"]),
                       label="header")
    ends = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]), label="line ends")
    tail = data.draw(st.sampled_from(["", ends]), label="tail")
    path = grid_fuzz_dir / "g.evalgrid"
    path.write_bytes((ends.join([header, *body]) + tail).encode())
    assert _grid_or_error(load_eval_grid, path) == _grid_or_error(reference_load_eval_grid, path)


@pytest.mark.parametrize("line", [
    "a 9223372036854775807 1", "a 9223372036854775808 1", "a 9999999999999999999 1",
    "a 0000000000000000001 1", "a 000000000000000001 1", "a 0 -1", "a 0 x1", "a 0 01",
    "a\xa0b 0 1", "a\u2028b 0 1", "a\x85b 0 1", "a\x1cb 0 1", "a\x01b 0 1", "é\u3000 0 1",
])
def test_eval_grid_load_agrees_with_the_token_reader_on_one_odd_line(tmp_path, line):
    """A field past int64, a label longer than one byte or an id holding
    whitespace, in an otherwise plain file: the grid or error of the reference
    reader."""
    path = tmp_path / "g.evalgrid"
    path.write_text(f"EVALGRID 1 2\nb 1 0\n{line}\nb 0 1\n")
    assert _grid_or_error(load_eval_grid, path) == _grid_or_error(reference_load_eval_grid, path)


def test_save_eval_grid_rejects_whitespace_ids(tmp_path):
    grid = GridSpec(1)
    labels = np.zeros((1, grid.n_cells), dtype=np.int8)
    eg = EvalGrid(grid, ("has space",), labels)
    with pytest.raises(ValueError, match="whitespace"):
        save_eval_grid(eg, tmp_path / "x.evalgrid")


def test_map_task_oracle_predictor_scores_one():
    eg = small_eval_grid()

    def oracle(lons, lats):
        cells = cell_indices(np.asarray(lons), np.asarray(lats), eg.grid)
        return (eg.labels[:, cells] == 1).astype(np.float64).T

    result = map_task(oracle, eg)
    assert result.mean_ap == 1.0
    assert result.n_evaluated == 2
    assert dict(result.skipped) == {"c": "no valid absences"}
    assert dict(result.per_species) == {"a": 1.0, "b": 1.0}


def test_map_task_matches_per_species_oracle():
    eg = small_eval_grid()
    rng = np.random.default_rng(5)
    cells = np.flatnonzero((eg.labels != -1).any(axis=0))
    table = rng.random((eg.grid.n_cells, 3))

    def predictor(lons, lats):
        idx = cell_indices(np.asarray(lons), np.asarray(lats), eg.grid)
        return table[idx]

    result = map_task(predictor, eg)
    expected = []
    for s in range(2):  # species c is skipped
        mask = eg.labels[s, cells] != -1
        expected.append(
            ap_oracle(
                table[cells[mask], s].tolist(), eg.labels[s, cells[mask]].tolist()
            )
        )
    for (sid, ap), want in zip(result.per_species, expected):
        assert ap == pytest.approx(want, abs=1e-12)
    assert result.mean_ap == pytest.approx(np.mean(expected), abs=1e-12)


def test_map_task_errors_when_nothing_evaluable():
    grid = GridSpec(1)
    labels = np.full((1, grid.n_cells), -1, dtype=np.int8)
    labels[0, 0] = 1  # presences only
    eg = EvalGrid(grid, ("only",), labels)
    with pytest.raises(ValueError, match="evaluable"):
        map_task(lambda lons, lats: np.ones((len(lons), 1)), eg)


def test_map_task_checks_predictor_shape():
    eg = small_eval_grid()
    with pytest.raises(ValueError, match="shape"):
        map_task(lambda lons, lats: np.ones((len(lons), 5)), eg)


# ---------------------------------------------------------------------------
# Prior-weighted classification
# ---------------------------------------------------------------------------


class StubPrior:
    """Fixed per-species presence probabilities, independent of location."""

    def __init__(self, probs: dict[str, float]):
        self._probs = dict(probs)

    @property
    def species_ids(self) -> tuple[str, ...]:
        return tuple(self._probs)

    def __call__(self, lons, lats):
        vals = np.array(list(self._probs.values()))
        return np.tile(vals, (len(lons), 1))


def two_record_scores() -> ClassifierScoreSet:
    return ClassifierScoreSet(
        (
            ClassifierRecord("r1", "A", 10.0, 20.0, ("A", "B"), np.array([0.6, 0.9])),
            ClassifierRecord("r2", "C", -30.0, 5.0, ("C", "D"), np.array([0.8, 0.2])),
        )
    )


def test_geo_prior_identity_is_exactly_zero():
    scores = two_record_scores()
    result = geo_prior_delta(scores, StubPrior({"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0}))
    assert result.delta_points == 0.0
    assert result.baseline_acc == 0.5  # r1 picks B (wrong), r2 picks C (right)


def test_geo_prior_fixture_gains_fifty_points():
    # Zeroing the range of the distractor B flips r1 to the true species A
    # while r2 is already correct: accuracy 0.5 -> 1.0.
    result = geo_prior_delta(two_record_scores(), StubPrior({"B": 0.0}))
    assert result.baseline_acc == 0.5
    assert result.weighted_acc == 1.0
    assert result.delta_points == 50.0
    assert result.picks[0][2:] == ("B", "A")
    assert result.picks[1][2:] == ("C", "C")


def test_geo_prior_can_hurt():
    result = geo_prior_delta(two_record_scores(), StubPrior({"A": 0.0, "C": 0.0}))
    assert result.weighted_acc == 0.0
    assert result.delta_points == -50.0


def test_geo_prior_unknown_species_keep_their_scores():
    # The predictor knows none of the candidates, so scores are unchanged.
    result = geo_prior_delta(two_record_scores(), StubPrior({"elsewhere": 0.0}))
    assert result.delta_points == 0.0


def test_geo_prior_tie_prefers_smallest_id():
    scores = ClassifierScoreSet(
        (ClassifierRecord("r", "ant", 0.0, 0.0, ("zebra", "ant"), np.array([0.4, 0.4])),)
    )
    result = geo_prior_delta(scores, StubPrior({"zebra": 1.0, "ant": 1.0}))
    assert result.picks[0][2] == "ant"
    assert result.baseline_acc == 1.0


def test_classifier_record_validation():
    with pytest.raises(ValueError, match="duplicate"):
        ClassifierRecord("r", "a", 0.0, 0.0, ("a", "a"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ClassifierRecord("r", "a", 0.0, 0.0, ("a",), np.array([1.5]))
    with pytest.raises(ValueError, match="never appears"):
        ClassifierScoreSet(
            (ClassifierRecord("r", "ghost", 0.0, 0.0, ("a",), np.array([0.5])),)
        )


def test_load_classifier_scores(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "r1,A,10.0,20.0,A:0.6,B:0.9\n"
        "r2,genus:species,-30.0,5.0,genus:species:0.8,D:0.2\n"
    )
    ss = load_classifier_scores(path)
    assert len(ss.records) == 2
    assert ss.records[1].true_species == "genus:species"
    assert ss.records[1].candidates == ("genus:species", "D")
    np.testing.assert_allclose(ss.records[1].scores, [0.8, 0.2])

    path.write_text("r1,A,10.0,20.0\n")
    with pytest.raises(ValueError, match="at least 5 fields"):
        load_classifier_scores(path)
    path.write_text("r1,A,10.0,20.0,nocolon\n")
    with pytest.raises(ValueError, match="malformed score"):
        load_classifier_scores(path)
    path.write_text("r1,A,ten,20.0,A:0.5\n")
    with pytest.raises(ValueError, match="coordinates"):
        load_classifier_scores(path)


def test_classifier_score_errors_name_the_line_a_row_starts_on(tmp_path):
    """A quoted field may span lines; later rows keep their physical line."""
    path = tmp_path / "scores.csv"
    path.write_text('r1,A,10.0,20.0,"A:0.5\nB:0.25"\n\nr2,A,1.0,2.0\n')
    with pytest.raises(ValueError, match=f"^{path}:4: expected at least 5 fields$"):
        load_classifier_scores(path)
    path.write_text('r1,A,10.0,20.0,"A:0.5\nB:0.25"\nr2,A,1.0,2.0,"C\n:x"\n')
    with pytest.raises(ValueError, match=f"^{path}:3: unparseable score"):
        load_classifier_scores(path)


# ---------------------------------------------------------------------------
# Ridge regression
# ---------------------------------------------------------------------------


def ridge_oracle(x, y, alpha):
    """Independent solve: append an unpenalized intercept column and use
    least squares on the augmented system."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    reg = alpha * np.eye(d + 1)
    reg[d, d] = 0.0  # intercept is unpenalized
    theta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y)
    return theta[:d], float(theta[d])


def test_ridge_small_alpha_recovers_exact_fit():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 3.0])  # y = x + 1
    w, b = ridge_fit(x, y, 1e-12)
    assert w[0] == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_ridge_matches_normal_equations_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        alpha = float(10 ** rng.uniform(-4, 2))
        w, b = ridge_fit(x, y, alpha)
        ow, ob = ridge_oracle(x, y, alpha)
        np.testing.assert_allclose(w, ow, atol=1e-8, rtol=0)
        assert b == pytest.approx(ob, abs=1e-8)


def test_ridge_solution_is_a_stationary_point():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    w, b = ridge_fit(x, y, 0.7)
    resid = x @ w + b - y
    grad_w = 2 * x.T @ resid + 2 * 0.7 * w
    grad_b = 2 * resid.sum()
    assert np.abs(grad_w).max() < 1e-8
    assert abs(grad_b) < 1e-8


def test_ridge_input_validation():
    with pytest.raises(ValueError, match="alpha"):
        ridge_fit(np.ones((3, 1)), np.ones(3), 0.0)
    with pytest.raises(ValueError, match="alpha"):
        ridge_fit(np.ones((3, 1)), np.ones(3), -1.0)
    with pytest.raises(ValueError):
        ridge_fit(np.ones((3, 1)), np.ones(4), 1.0)


def test_r2_conventions():
    assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r2_score(y, np.full(4, y.mean())) == 0.0
    assert r2_score(y, -y) < 0.0
    assert r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0  # constant truth, perfect
    assert r2_score([2.0, 2.0], [2.0, 2.1]) == 0.0  # constant truth, imperfect


def test_ridge_cv_selects_small_alpha_on_clean_data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.25
    result = ridge_cv(x, y, alphas=(0.1, 1.0, 10.0, 100.0))
    assert result.alpha == 0.1
    assert r2_score(y, x @ result.w + result.b) > 0.999


def test_ridge_cv_tie_prefers_smallest_alpha():
    # All-zero features make every alpha identical: fall back to the smallest.
    x = np.zeros((10, 2))
    y = np.arange(10.0)
    result = ridge_cv(x, y, alphas=(10.0, 0.1, 1.0))
    assert result.alpha == 0.1


def test_ridge_cv_folds_are_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(53, 2))
    y = rng.normal(size=53)
    a = ridge_cv(x, y)
    b = ridge_cv(x, y)
    assert a.alpha == b.alpha
    assert a.mean_scores == b.mean_scores
    np.testing.assert_array_equal(a.w, b.w)


def test_ridge_cv_validation():
    with pytest.raises(ValueError, match="alpha"):
        ridge_cv(np.ones((10, 1)), np.ones(10), alphas=())
    with pytest.raises(ValueError, match="rows"):
        ridge_cv(np.ones((3, 1)), np.ones(3), n_folds=5)
    with pytest.raises(ValueError, match="n_folds"):
        ridge_cv(np.ones((10, 1)), np.ones(10), n_folds=1)


# ---------------------------------------------------------------------------
# Geo-feature transfer task
# ---------------------------------------------------------------------------


def env_stack_for_features(tmp_path) -> EnvRasterStack:
    rows, cols = 12, 24
    lat_row = np.repeat(np.linspace(60.0, -60.0, rows)[:, None], cols, axis=1)
    lon_col = np.repeat(np.linspace(-150.0, 150.0, cols)[None, :], rows, axis=0)
    write_env_raster(tmp_path / "a.env", lat_row + 0.5 * lon_col, (-180, 180, -90, 90))
    write_env_raster(tmp_path / "b.env", lat_row * 0.1 - lon_col, (-180, 180, -90, 90))
    return load_env_rasters([tmp_path / "a.env", tmp_path / "b.env"])


def split_cells(stack: EnvRasterStack):
    cells = stack.fully_observed_cells()
    return cells[::2], cells[1::2]


def test_geo_feature_recovers_planted_linear_target(tmp_path):
    stack = env_stack_for_features(tmp_path)
    train_cells, test_cells = split_cells(stack)
    # Features that linearly determine location determine both layers.
    result = geo_feature_task(
        lambda lons, lats: np.stack([lons, lats], axis=1), stack,
        train_cells, test_cells,
    )
    assert result.per_layer_r2.shape == (2,)
    assert result.mean_r2 > 0.999


def test_geo_feature_scores_noise_near_zero(tmp_path):
    stack = env_stack_for_features(tmp_path)
    train_cells, test_cells = split_cells(stack)
    rng = np.random.default_rng(23)

    def noise_features(lons, lats):
        return rng.normal(size=(len(lons), 6))

    result = geo_feature_task(noise_features, stack, train_cells, test_cells)
    assert result.mean_r2 <= 0.05


def test_geo_feature_constant_features_predict_the_mean(tmp_path):
    stack = env_stack_for_features(tmp_path)
    train_cells, test_cells = split_cells(stack)
    result = geo_feature_task(
        lambda lons, lats: np.ones((len(lons), 3)), stack, train_cells, test_cells
    )
    # Constant features collapse to the training mean; R^2 can only hover
    # around zero on held-out cells.
    assert np.all(result.per_layer_r2 <= 0.0 + 1e-12)


def test_geo_feature_validation(tmp_path):
    stack = env_stack_for_features(tmp_path)
    cells = stack.fully_observed_cells()
    feats = lambda lons, lats: np.stack([lons, lats], axis=1)
    with pytest.raises(ValueError, match="disjoint"):
        geo_feature_task(feats, stack, cells[:10], cells[5:15])
    with pytest.raises(ValueError, match="non-empty"):
        geo_feature_task(feats, stack, cells[:0], cells[:10])
    with pytest.raises(ValueError, match="non-finite"):
        geo_feature_task(
            lambda lons, lats: np.full((len(lons), 1), np.nan), stack,
            cells[::2], cells[1::2],
        )


# ---------------------------------------------------------------------------
# Grid baseline
# ---------------------------------------------------------------------------


def three_cell_obs() -> tuple[ObservationSet, GridSpec]:
    grid = GridSpec(resolution=2)
    # Centroids of three distinct 90-degree cells.
    lons, lats = cell_centroids(grid, np.array([0, 1, 2]))
    # species "x": 3 records in cell 0, 1 in cell 1, none in cell 2;
    # species "never" is in the catalog but has no records.
    obs = ObservationSet(
        ("x", "never"),
        np.zeros(4, dtype=np.int64),
        np.array([lons[0]] * 3 + [lons[1]]),
        np.array([lats[0]] * 3 + [lats[1]]),
    )
    return obs, grid


def test_grid_baseline_three_cell_fixture():
    obs, grid = three_cell_obs()
    model = grid_baseline_fit(obs, grid)
    lons, lats = cell_centroids(grid, np.array([0, 1, 2]))
    ratio = grid_baseline_scores(model, lons, lats, "ratio")
    np.testing.assert_allclose(ratio[:, 0], [1.0, 1 / 3, 0.0], atol=1e-15)
    indicator = grid_baseline_scores(model, lons, lats, "indicator")
    np.testing.assert_array_equal(indicator[:, 0], [1.0, 1.0, 0.0])
    # The never-observed species scores 0 everywhere in both modes.
    np.testing.assert_array_equal(ratio[:, 1], 0.0)
    np.testing.assert_array_equal(indicator[:, 1], 0.0)


def test_grid_baseline_observed_species_peaks_at_one():
    rng = np.random.default_rng(9)
    grid = GridSpec(resolution=5)
    obs = ObservationSet(
        ("s",),
        np.zeros(500, dtype=np.int64),
        rng.uniform(-180, 180, 500),
        rng.uniform(-90, 90, 500),
    )
    model = grid_baseline_fit(obs, grid)
    assert model.counts[:, 0].max() == model.max_counts[0] > 0
    lons, lats = cell_centroids(grid)
    scores = grid_baseline_scores(model, lons, lats, "ratio")
    assert scores[:, 0].max() == 1.0


def test_grid_baseline_empty_fit_scores_zero():
    model = grid_baseline_fit(
        ObservationSet(("s",), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)),
        GridSpec(2),
    )
    scores = grid_baseline_scores(model, np.array([0.0]), np.array([0.0]), "ratio")
    np.testing.assert_array_equal(scores, [[0.0]])


def test_grid_baseline_counts_match_cell_assignment():
    rng = np.random.default_rng(31)
    grid = GridSpec(resolution=4)
    lons = rng.uniform(-180, 180, 300)
    lats = rng.uniform(-90, 90, 300)
    species = rng.integers(0, 3, 300)
    obs = ObservationSet(("a", "b", "c"), species, lons, lats)
    model = grid_baseline_fit(obs, grid)
    cells = cell_indices(lons, lats, grid)
    for i in range(300):
        assert model.counts[cells[i], species[i]] >= 1
    assert model.counts.sum() == 300


def test_grid_baseline_rejects_unknown_mode():
    obs, grid = three_cell_obs()
    model = grid_baseline_fit(obs, grid)
    with pytest.raises(ValueError, match="mode"):
        grid_baseline_scores(model, np.array([0.0]), np.array([0.0]), "density")


# ---------------------------------------------------------------------------
# F1-maximizing threshold
# ---------------------------------------------------------------------------


def test_f1_threshold_hand_examples():
    assert f1_max_threshold([0.2, 0.8], [0, 1]) == 0.5
    assert f1_max_threshold([0.9, 0.1], [1, 0]) == 0.5


def test_f1_single_unique_score_picks_zero():
    # Candidates are {0, 1}; t=0 predicts everything positive, which beats
    # t=1 whenever the score is below 1, and ties resolve to the smaller t.
    assert f1_max_threshold([0.4, 0.4, 0.4], [1, 1, 0]) == 0.0


def test_f1_inverted_scores_fall_back_to_all_positive():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [0, 0, 1, 1]
    t = f1_max_threshold(scores, labels)
    # Predicting everything positive gives F1 = 2*2/(2*2+2) = 2/3; no cut
    # of these inverted scores does better.
    assert t == 0.0
    assert f1_at_threshold(scores, labels, t) == pytest.approx(2 / 3, abs=1e-15)


def test_f1_separable_scores_reach_one():
    scores = [0.9, 0.7, 0.3, 0.1]
    labels = [1, 1, 0, 0]
    t = f1_max_threshold(scores, labels)
    assert f1_at_threshold(scores, labels, t) == 1.0
    assert t == 0.5


def test_f1_exhaustive_against_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 1, 0
        scores = np.round(rng.random(n), 2)
        t = f1_max_threshold(scores, labels)
        best = f1_at_threshold(scores, labels, t)
        # No threshold anywhere can beat the canonical-candidate winner.
        for probe in np.linspace(-0.01, 1.01, 211):
            assert f1_at_threshold(scores, labels, probe) <= best + 1e-12


_F1_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5 + 2**-53, 0.5 - 2**-54, 1.0, float("nan")]),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_f1_max_threshold_matches_the_per_candidate_loop(data):
    """On random, tie-heavy and adjacent-double scores, NaN among them, the
    threshold (its bits) of one ``f1_at_threshold`` pass per candidate."""
    n = data.draw(st.integers(2, 40), label="n")
    scores = np.array(data.draw(st.lists(_F1_SCORES, min_size=n, max_size=n), label="scores"))
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                                label="labels"))
    labels[:2] = [1, 0]
    got, want = f1_max_threshold(scores, labels), reference_f1_max_threshold(scores, labels)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_f1_degenerate_labels_rejected():
    with pytest.raises(ValueError, match="positive"):
        f1_max_threshold([0.5, 0.6], [0, 0])
    with pytest.raises(ValueError, match="positive"):
        f1_max_threshold([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        f1_max_threshold([0.5], [2])
