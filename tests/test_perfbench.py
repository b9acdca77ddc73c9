"""The benchmark's traced run wraps program functions by module and name
(``perfbench/child.py``, ``WRAPS``). A renamed or inlined function would turn
its per-layer metrics into "missing" without failing any other test."""

import collections
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sinr.net
from helpers import hand_off_to_a_pool_thread
from sinr.cli import main
from sinr.data import ObservationSet, save_observations
from sinr.net import NetConfig, forward, gemm_blocks, init_params

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


def test_memory_tracked_names_run_only_on_the_calling_thread(child, monkeypatch, tmp_path,
                                                             capsys):
    """The traced run starts and stops ``tracemalloc`` around each call of a
    memory-tracked name, which segfaults Python 3.11 when such a name runs
    on a pool thread. Train an-full and an-ssdl on 2 workers, with the head
    products in several blocks and the row chunks on a pool thread, then
    predict: every memory-tracked name runs on the calling thread only."""
    tracked = [(m, a) for m, a, _, memory, _ in child.WRAPS if memory]
    assert {a for _, a in tracked} == {"forward", "compute_loss", "backward"}
    threads = collections.defaultdict(set)
    for module, attr in tracked:
        def recorded(*args, _real=getattr(importlib.import_module(module), attr),
                     _name=f"{module}.{attr}", **kwargs):
            threads[_name].add(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(module), attr, recorded)
    monkeypatch.setenv("SINR_THREADS", "2")
    monkeypatch.setattr(sinr.net, "BLAS_PINNED", "1")
    monkeypatch.setattr(sinr.net, "GEMM_BLOCK_MACS", sinr.net.SMALL_GEMM_MAX)
    assert len(gemm_blocks(512, 64 * 2000)) >= 2 and len(gemm_blocks(2000, 512 * 64)) >= 2
    pool_ran = hand_off_to_a_pool_thread(monkeypatch, "sinr.net", "_sigmoid")
    obs_path, model = tmp_path / "obs.csv", tmp_path / "m.sinr"
    rng = np.random.default_rng(0)
    save_observations(ObservationSet(tuple(f"sp{i:04d}" for i in range(2000)),
                                     np.arange(2000), rng.uniform(-170, 170, 2000),
                                     rng.uniform(-80, 80, 2000)), obs_path)
    for loss in ("an-full", "an-ssdl"):
        assert main(["train", "--obs", str(obs_path), "--out", str(model), "--loss", loss,
                     "--batch-size", "256", "--hidden-dim", "64", "--residual-layers", "1",
                     "--epochs", "1", "--seed", "5"]) == 0
    assert main(["predict", "--model", str(model), "--species", "sp0001", "--resolution", "3",
                 "--out", str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()
    assert pool_ran.is_set()
    assert threads == {f"{m}.{a}": {threading.main_thread().ident} for m, a in tracked}


def test_span_attrs_read_the_training_step_calls(child, monkeypatch, tmp_path, capsys):
    """The traced run reads the attributes of the ``net.forward``,
    ``losses.compute_loss`` and ``net.backward`` spans from those calls'
    arguments and results, under ``suppress(AttributeError, ...)``, so a
    renamed cache field would empty the backward spans without failing the
    run. On every call of real an-full and an-ssdl training runs, each
    attribute function returns its keys."""
    calls = collections.defaultdict(list)
    step_module = importlib.import_module("sinr.train")
    for attr in ("forward", "compute_loss", "backward"):
        def recorded(*args, _real=getattr(step_module, attr), _name=attr, **kwargs):
            result = _real(*args, **kwargs)
            calls[_name].append((args, kwargs, result))
            return result

        monkeypatch.setattr(step_module, attr, recorded)
    obs_path = tmp_path / "obs.csv"
    rng = np.random.default_rng(1)
    save_observations(ObservationSet(tuple(f"sp{i:02d}" for i in range(40)),
                                     rng.integers(0, 40, 300), rng.uniform(-170, 170, 300),
                                     rng.uniform(-80, 80, 300)), obs_path)
    for loss in ("an-full", "an-ssdl"):
        calls.clear()
        assert main(["train", "--obs", str(obs_path), "--out", str(tmp_path / "m.sinr"),
                     "--loss", loss, "--batch-size", "64", "--hidden-dim", "8",
                     "--residual-layers", "2", "--epochs", "1", "--seed", "3"]) == 0
        assert len(calls["forward"]) == len(calls["compute_loss"]) == len(calls["backward"]) > 1
        for fwd, lss, bwd in zip(calls["forward"], calls["compute_loss"], calls["backward"]):
            f_attrs = child._forward_attrs(*fwd)
            b_attrs = child._backward_attrs(*bwd)
            assert set(f_attrs) == set(b_attrs) == {"rows", "cols", "feat"}
            assert b_attrs["rows"] == f_attrs["rows"] and b_attrs["feat"] == f_attrs["feat"] == 8
            assert b_attrs["cols"] == 40
            assert set(child._loss_attrs(*lss)) == {"used"}
    capsys.readouterr()
