"""Smoke test of ``tools/steps.py`` at a tiny species count: every variant's
fresh process reports each stage it runs and its max RSS."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "steps.py"


def test_every_variant_reports_its_stages_at_a_tiny_species_count(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("steps", TOOL)
    steps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(steps)
    out = tmp_path / "steps.json"
    assert steps.main(["--species", "12", "--batch", "16", "--hidden", "8", "--blocks", "1",
                       "--steps", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["variant"], r["species"], r["side"]) for r in rows] == [
        (v, 12, "change") for v in steps.VARIANTS]
    for r in rows:
        (run,) = r["runs"]
        assert run["max_rss_mib"] > 0
        for stage in steps.STAGES:  # a full step's loss runs inside backward
            assert (run[stage] is None) == (stage == "loss" and r["variant"].endswith("full"))
            assert run[stage] is None or run[stage] > 0
        assert run["step"] >= run["forward"] + run["backward"] + run["adam"]
    table = capsys.readouterr().out
    assert all(v in table for v in steps.VARIANTS) and "rss_mib" in table
