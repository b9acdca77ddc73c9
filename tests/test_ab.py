"""Smoke test of ``tools/ab.py``'s summary on fixed numbers; it runs no
benchmark."""

import importlib.util
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25}]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(base, change, name="wall_s"):
    return [{"seed": i, "base": {name: b}, "change": {name: c}}
            for i, (b, c) in enumerate(zip(base, change))]


def test_summary_counts_wins_and_judges_the_gap_by_the_base_spread(ab):
    """Lower is better for wall_s: 4 of 5 pairs won, and the change's median
    (0.45) lies below the base's (0.5) by more than its quartile spread (0.02)."""
    pairs = _pairs([0.49, 0.5, 0.51, 0.5, 0.52], [0.44, 0.45, 0.46, 0.51, 0.45])
    [row] = ab.summarize(pairs, END_TO_END)
    assert row["metric"] == "wall_s" and row["pairs"] == 5 and row["wins"] == 4
    assert row["base"] == pytest.approx([0.5, 0.5, 0.51])
    assert row["change"] == pytest.approx([0.45, 0.45, 0.46])
    assert row["delta"] == pytest.approx(-0.1)
    assert row["clear"]
    text = ab.format_rows([row])
    assert "wall_s" in text and "4/5" in text and "-10.0%" in text and text.endswith("yes")


def test_higher_is_better_and_a_gap_inside_the_spread_is_not_clear(ab):
    pairs = _pairs([100, 120, 140, 110], [125, 118, 141, 111], name="throughput")
    [row] = ab.summarize(pairs, END_TO_END)
    assert row["wins"] == 3 and row["base"][1] == 115 and row["change"][1] == 121.5
    assert not row["clear"]  # a 6.5 gain against a 12.5 base spread
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_the_extracted_tree_path_has_the_working_tree_length(ab, tmp_path, monkeypatch):
    monkeypatch.setattr(ab.tempfile, "tempdir", str(tmp_path))
    root = str(tmp_path / "some" / "checkout")
    path = ab.same_length_dir(root)
    assert os.path.isdir(path) and len(path) == len(root) and path != ab.same_length_dir(root)


def test_differing_files_finds_changed_added_and_removed_files(ab, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub" / "__pycache__").mkdir(parents=True)
        (d / "run.py").write_text("same")
        (d / "sub" / "x.py").write_text("same")
    (a / "sub" / "__pycache__" / "x.pyc").write_text("ignored")
    assert ab.differing_files(str(a), str(b)) == []
    (b / "sub" / "x.py").write_text("other")
    (b / "new.py").write_text("")
    assert sorted(os.path.relpath(p, a) for p in ab.differing_files(str(a), str(b))) == [
        "new.py", os.path.join("sub", "x.py")]
