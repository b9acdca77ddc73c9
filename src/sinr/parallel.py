"""Per-entry work over fixed row chunks, spread over the process's cores; the
package's only threads. The chunk plan depends only on an array's shape and
callers do elementwise or row-separable work per chunk, so results do not
depend on the chunk size or on the worker count."""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor

#: Entries per row chunk: a float32 chunk's float64 temporaries stay near L2.
CHUNK_ENTRIES = 1 << 17


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


def map_row_chunks(fn, n_rows: int, n_cols: int) -> list:
    """``[fn(r0, r1) for r0, r1 in row_chunks(n_rows, n_cols)]``: the calling
    thread and ``worker_count() - 1`` pool threads take chunks in turn, each
    in a copy of the caller's context (so ``np.errstate`` holds). The first
    exception in chunk order is raised once the pool threads are done."""
    chunks = row_chunks(n_rows, n_cols)
    workers = min(worker_count(), len(chunks))
    if workers <= 1:
        return [fn(r0, r1) for r0, r1 in chunks]
    todo, results, errors = enumerate(chunks), [None] * len(chunks), {}

    def drain():
        for i, (r0, r1) in todo:  # shared: each thread takes the next chunk
            try:
                results[i] = fn(r0, r1)
            except Exception as exc:
                errors[i] = exc

    helpers = [_pool().submit(contextvars.copy_context().run, drain) for _ in range(workers - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results
