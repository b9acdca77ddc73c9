"""Work over fixed row or column ranges, spread over the process's cores; the
package's only threads. Every plan depends only on an array's shape, and each
range does elementwise or row-separable work, or a GEMM on the whole
product's kernel, so results depend neither on the plan nor on the worker
count. Importing this module holds numpy's BLAS at one thread
(:data:`BLAS_PINNED`), so the workers are the process's compute threads."""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

#: Entries per row chunk: a float32 chunk and its scratch arrays stay near L2.
CHUNK_ENTRIES = 1 << 17


def _pin_blas() -> str:
    """Set numpy's bundled OpenBLAS to one thread: ``"1"`` once it reports
    one thread, else ``"no: <reason>"``."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its BLAS
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError) as exc:
        return f"no: {type(exc).__name__}: {exc}"
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    threads = get_threads()
    return "1" if threads == 1 else f"no: BLAS reports {threads} threads"


#: ``"1"`` when numpy's BLAS runs at one thread, set at import; otherwise
#: ``"no: <reason>"``, and the head GEMMs run whole on the BLAS's own threads.
BLAS_PINNED = _pin_blas()


def worker_count() -> int:
    """``SINR_THREADS`` if set, else the number of CPUs this process may use."""
    value = os.environ.get("SINR_THREADS") or str(len(os.sched_getaffinity(0)))
    if not value.strip().isdigit() or int(value) < 1:
        raise ValueError(f"SINR_THREADS must be a positive integer, got {value!r}")
    return int(value)


@functools.cache
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max(1, worker_count() - 1), thread_name_prefix="sinr-chunks")


os.register_at_fork(after_in_child=_pool.cache_clear)  # a child has no pool threads


def row_chunks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges of ``CHUNK_ENTRIES // n_cols`` rows, at least 1."""
    step = max(1, CHUNK_ENTRIES // n_cols)
    return [(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def map_ranges(fn, ranges: list[tuple[int, int]]) -> list:
    """``[fn(a, b) for a, b in ranges]``: the calling thread and
    ``worker_count() - 1`` pool threads take ranges in turn, each in a copy
    of the caller's context (so ``np.errstate`` holds). The first exception
    in range order is raised once the pool threads are done."""
    workers = min(worker_count(), len(ranges))
    if workers <= 1:
        return [fn(a, b) for a, b in ranges]
    todo, results, errors = enumerate(ranges), [None] * len(ranges), {}

    def drain():
        for i, (a, b) in todo:  # shared: each thread takes the next range
            try:
                results[i] = fn(a, b)
            except Exception as exc:
                errors[i] = exc

    helpers = [_pool().submit(contextvars.copy_context().run, drain) for _ in range(workers - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results
