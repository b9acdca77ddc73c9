"""Smoke test of ``tools/contract_gate.py`` on a tiny corpus: its byte
table is reproducible, and its verdicts read the tables as the gate states."""

import copy
import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "contract_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("contract_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_table_repeats_and_resume_holds(gate, tmp_path, capsys):
    """Two runs of the six variants on 5 species and 40 records give the same
    sha256 table; a run continued from its checkpoint matches a straight one."""
    tiny = {"tiny": (5, 40, ["--epochs", "1", "--batch-size", "16", "--hidden-dim", "4",
                             "--residual-layers", "1"])}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = gate.measure_bytes(str(tmp_path / "a"), tiny)
    assert first == gate.measure_bytes(str(tmp_path / "b"), tiny)
    assert set(first["tiny"]) == set(gate.VARIANTS)
    assert all(len(model) == len(ckpt) == 64 for model, ckpt in first["tiny"].values())
    assert gate.measure_resume(str(tmp_path)) == {v: True for v in gate.VARIANTS}
    capsys.readouterr()


def test_verdicts_follow_the_gate_rules(gate):
    """Read-variant bytes that move fail, full-variant bytes that move are a
    contract change, thread-dependent bytes and a broken resume fail, and a
    MAP drop beyond the larger seed spread fails."""
    table = {corpus: {v: ["m" + v, "c" + v] for v in gate.VARIANTS}
             for corpus in gate.BYTE_CORPORA}
    maps = {"task": {"an-full": [0.9, 0.92], "an-ssdl": [0.8, 0.8]}}
    base = {"bytes": {t: copy.deepcopy(table) for t in gate.THREADS},
            "resume": {v: True for v in gate.VARIANTS}, "map": maps}
    assert {line["verdict"] for line in gate.verdicts(base, copy.deepcopy(base))} == {"pass"}

    new = copy.deepcopy(base)
    for t in gate.THREADS:
        new["bytes"][t]["s12"]["an-full"] = ["other", "other"]
    new["map"]["task"]["an-full"] = [0.89, 0.91]  # within the 0.01 spread
    lines = {line["line"]: line["verdict"] for line in gate.verdicts(base, new)}
    assert lines["bytes s12 an-full"] == "changed"
    assert lines["MAP task an-full"] == "pass"
    assert "fail" not in lines.values()

    new["bytes"]["2"]["s12"]["an-ssdl"] = ["other", "other"]
    new["bytes"]["1"]["s12"]["an-slds"] = ["other", "other"]
    new["resume"]["me-full"] = False
    new["map"]["task"]["an-ssdl"] = [0.7, 0.7]
    lines = {line["line"]: line["verdict"] for line in gate.verdicts(base, new)}
    assert lines["bytes independent of SINR_THREADS (tree)"] == "fail"
    assert lines["bytes s12 an-slds"] == "fail"
    assert lines["resume is bit-identical (tree)"] == "fail"
    assert lines["MAP task an-ssdl"] == "fail"
