"""Joint species range estimation from presence-only observations.

A small library for fitting coordinate-network range models with
single-positive multi-label losses, plus grid and linear baselines and the
evaluation protocols used to compare them. The modules are the API, each name
reached through its own module (``sinr.train.train``, ``sinr.net.forward``,
``sinr.evaluate.map_task``); the package root re-exports none of them.

Importing ``sinr`` or any of its modules holds numpy's BLAS at one thread: it
sets the BLAS thread-count variables to 1 unless they are set, before numpy is
first imported, then pins numpy's bundled OpenBLAS to one thread at run time
(``sinr.parallel.BLAS_PINNED``). The package's own workers run a step's
elementwise work and its species-head products, by default one per CPU the
process may use; ``SINR_THREADS`` sets their number. With BLAS pinned,
results depend neither on the worker count nor on the BLAS thread count
asked for.
"""

import os

#: The BLAS thread-count variables that importing ``sinr`` sets to 1 unless set.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

from . import parallel  # pins OpenBLAS also when numpy was imported first

__version__ = "0.1.0"
