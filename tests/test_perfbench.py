"""The benchmark's traced run wraps program functions by module and name
(``perfbench/child.py``, ``WRAPS``). A renamed or inlined function would turn
its per-layer metrics into "missing" without failing any other test."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import sinr.net
from sinr.net import NetConfig, forward, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def child(monkeypatch):
    """``perfbench/child.py`` imported as a module, with no wrapper installed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("workloads", "inputs"):  # child.py's sibling modules
        sys.modules.pop(name, None)


def test_every_wrapped_name_resolves_to_a_callable(child):
    for module, attr, span, *_ in child.WRAPS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) is gone"


def test_forward_calls_sigmoid_through_its_module_global(child, monkeypatch):
    assert ("sinr.net", "_sigmoid") in [(m, a) for m, a, *_ in child.WRAPS]
    calls = []
    real = sinr.net._sigmoid

    def counted(z):
        calls.append(z.shape)
        return real(z)

    monkeypatch.setattr(sinr.net, "_sigmoid", counted)
    cfg = NetConfig(input_dim=3, n_species=4, hidden_dim=5, n_residual_layers=1)
    forward(init_params(cfg), cfg, np.zeros((2, 3)))
    assert calls == [(2, 4)]
