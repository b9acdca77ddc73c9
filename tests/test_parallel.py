"""Ranges spread over worker threads: the row-chunk plan, result order,
errors, np.errstate in the workers, the worker count from ``SINR_THREADS``
and BLAS pinned to one thread."""

import dataclasses
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sinr
import sinr.parallel
from helpers import cast_params, hand_off_to_a_pool_thread, reference_sigmoid
from sinr.net import NetConfig, forward, init_params
from sinr.parallel import map_ranges, row_chunks, worker_count


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(sinr.parallel, "worker_count", lambda: n)


def test_row_chunks_hand_values(monkeypatch):
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 100)
    assert row_chunks(7, 30) == [(0, 3), (3, 6), (6, 7)]
    assert row_chunks(2, 1000) == [(0, 1), (1, 2)]  # never fewer than one row
    assert row_chunks(0, 5) == []
    assert row_chunks(4, 25) == [(0, 4)]


@pytest.mark.parametrize("entries", [1, 7, 64, 1 << 17])
def test_row_chunks_cover_every_row_once(monkeypatch, entries):
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", entries)
    for n_rows in range(40):
        for n_cols in (1, 3, 16, 5000):
            chunks = row_chunks(n_rows, n_cols)
            edges = [0] + [r1 for _, r1 in chunks]
            assert [r0 for r0, _ in chunks] == edges[:-1] and edges[-1] == n_rows
            assert all(r1 > r0 for r0, r1 in chunks)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_results_come_back_in_chunk_order(monkeypatch, n):
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 10)
    _workers(monkeypatch, n)
    assert map_ranges(lambda r0, r1: (r0, r1), row_chunks(45, 3)) == row_chunks(45, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_first_failing_chunk_is_raised(monkeypatch, n):
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 1)
    _workers(monkeypatch, n)
    ran = []

    def fn(r0, r1):
        ran.append(r0)
        if r0 in (3, 5):
            raise ValueError(f"chunk {r0}")

    with pytest.raises(ValueError, match="chunk 3"):
        map_ranges(fn, row_chunks(9, 1))
    assert set(range(4)) <= set(ran)  # every chunk before it ran


def test_workers_run_in_the_callers_errstate(monkeypatch):
    """np.errstate is per thread (a context variable): a pool thread that ran
    outside the caller's context would warn on the overflow below, and under
    this filter the warning is an error."""
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 1)
    _workers(monkeypatch, 2)
    helper_ran = hand_off_to_a_pool_thread(monkeypatch, __name__, "_overflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            out = map_ranges(lambda r0, r1: _overflow(r0, r1), row_chunks(8, 1))
        with pytest.raises(RuntimeWarning), np.errstate(over="warn"):
            map_ranges(lambda r0, r1: _overflow(r0, r1), row_chunks(8, 1))
    assert helper_ran.is_set()
    assert np.isinf(np.concatenate(out)).all()


@pytest.mark.parametrize("n", [2, 3])
def test_the_first_failing_block_is_raised_whatever_fails_first(monkeypatch, n):
    """Uneven blocks, as a head GEMM plan gives: block 1 fails only after
    block 3 has failed, and block 1's exception is the one raised."""
    _workers(monkeypatch, n)
    blocks = [(0, 5), (5, 11), (11, 16), (16, 22), (22, 27)]
    later_failed, ran = threading.Event(), []

    def fn(a, b):
        ran.append(a)
        if a == 5:
            assert later_failed.wait(timeout=30)
            raise ValueError("block 1")
        if a == 16:
            later_failed.set()
            raise ValueError("block 3")
        return a

    with pytest.raises(ValueError, match="block 1"):
        map_ranges(fn, blocks)
    assert sorted(ran) == [a for a, _ in blocks]


def test_many_workers_take_every_range_once(monkeypatch):
    """8 workers on a pool of 7 threads, whatever the CPU count, switching
    every microsecond: each of 5,000 ranges runs exactly once and the
    results come back in range order."""
    pool = ThreadPoolExecutor(7)
    monkeypatch.setattr(sinr.parallel, "_pool", lambda: pool)
    _workers(monkeypatch, 8)
    ranges = [(i, i + 1) for i in range(5000)]
    ran, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = map_ranges(lambda a, b: ran.append(a) or a, ranges)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert out == list(range(5000)) and sorted(ran) == list(range(5000))


def _overflow(r0: int, r1: int) -> np.ndarray:
    return np.exp(np.full(r1 - r0, 100.0, dtype=np.float32))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_output_does_not_depend_on_chunks_or_workers(monkeypatch, n, dtype):
    """The bias and the sigmoid run per row chunk; each entry gets the bits of
    the whole-array formula."""
    cfg = NetConfig(input_dim=4, n_species=50, hidden_dim=16, n_residual_layers=1, seed=3)
    params = cast_params(init_params(cfg), dtype)
    params = dataclasses.replace(params, b_head=np.linspace(-2, 2, 50).astype(dtype))
    x = np.random.default_rng(0).uniform(-1, 1, (37, 4))
    monkeypatch.setattr(sinr.parallel, "CHUNK_ENTRIES", 3 * 50)
    _workers(monkeypatch, n)
    if n > 1:
        handed_off = hand_off_to_a_pool_thread(monkeypatch, "sinr.net", "_sigmoid")
    feats, y = forward(params, cfg, x)
    want = reference_sigmoid(feats @ params.w_head + params.b_head)
    assert len(row_chunks(*y.shape)) == 13
    assert n == 1 or handed_off.is_set()
    assert y.dtype == want.dtype and y.tobytes() == want.tobytes()


def test_worker_count_reads_sinr_threads(monkeypatch):
    monkeypatch.delenv("SINR_THREADS", raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("SINR_THREADS", "3")
    assert worker_count() == 3
    for bad in ("0", "-1", "two", "1.5", "²"):
        monkeypatch.setenv("SINR_THREADS", bad)
        with pytest.raises(ValueError, match="SINR_THREADS must be a positive integer"):
            worker_count()


_COUNT_THREADS = (
    "import os, numpy as np, sinr\n"
    "from sinr.net import NetConfig, forward, init_params\n"
    "cfg = NetConfig(input_dim=4, n_species=2000, hidden_dim=8, n_residual_layers=1)\n"
    "forward(init_params(cfg), cfg, np.zeros((1000, 4)))\n"
    "print(len(os.listdir('/proc/self/task')))\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_one_worker_starts_no_thread():
    """A forward of 1,000 x 2,000 entries (16 chunks) starts no thread with
    one worker and one pool thread with two (BLAS held at one thread)."""
    env = {k: v for k, v in os.environ.items() if k not in sinr._THREAD_VARS}
    src = os.path.dirname(os.path.dirname(sinr.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    counts = []
    for workers in ("1", "2"):
        env.update(SINR_THREADS=workers, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _COUNT_THREADS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts == [1, 2]
