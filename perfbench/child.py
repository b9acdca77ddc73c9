"""The measured process: runs one workload's ``sinr`` commands in-process.

Usage: python3 perfbench/child.py SPEC.json

The spec names the workload, its generated input directory, a fresh output
directory, the measuring window and whether to trace. Results (spans, command
outcomes, peak RSS and environment) go to the spec's ``result`` path as JSON.

Untraced, only once-per-command phase timers wrap the loaders and the
top-level ``train`` call. Traced, every layer boundary in ``WRAPS`` records a
span. Wrappers replace the name where its caller looks it up (for example
``sinr.train.forward``, not ``sinr.net.forward``); a name that no longer exists
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc

import numpy as np

from workloads import WORKLOADS


def _forward_attrs(args, kwargs, result):
    feats, y_hat = result[0], result[1]
    return {"rows": y_hat.shape[0], "cols": y_hat.shape[1], "feat": feats.shape[1]}


def _backward_attrs(args, kwargs, result):
    cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
    f, s = result.w_head.shape
    return {"rows": cache.features.shape[0], "cols": s, "feat": f}


def _loss_attrs(args, kwargs, result):
    cfg, y_hat = args[0], args[1]
    rand = kwargs.get("y_hat_rand")
    rand_size = 0 if rand is None else rand.size
    if cfg.variant.value.endswith("full"):
        used = y_hat.size + rand_size
    else:  # ssdl/slds read one positive and one negative entry per record
        used = 2 * y_hat.shape[0]
    return {"used": used}


def _sigmoid_attrs(args, kwargs, result):
    sample = np.asarray(args[0]).reshape(-1)[::97]
    return {"pos": int(np.count_nonzero(sample > 0)), "n": int(sample.size)}


def _checkpoint_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# (module, attribute, span name, tracemalloc peak?, attrs from (args, kwargs, result))
PHASE_WRAPS = [
    ("sinr.cli", "load_observations", "data.load_observations", False, None),
    ("sinr.cli", "load_env_rasters", "data.load_env_rasters", False, None),
    ("sinr.cli", "read_model_file", "net.read_model_file", False, None),
    ("sinr.cli", "load_eval_grid", "evaluate.load_eval_grid", False, None),
    ("sinr.cli", "train", "train.call", False, None),
]
WRAPS = PHASE_WRAPS + [
    ("sinr.cli", "cmd_train", "cli.train", False, None),
    ("sinr.cli", "cmd_predict", "cli.predict", False, None),
    ("sinr.cli", "cmd_export_raster", "cli.export_raster", False, None),
    ("sinr.cli", "cmd_eval_map", "cli.eval_map", False, None),
    ("sinr.cli", "save_model", "net.save_model", False, None),
    ("sinr.cli", "forward", "net.forward", True, _forward_attrs),
    ("sinr.cli", "map_task", "evaluate.map_task", False, None),
    ("sinr.cli", "f1_max_threshold", "evaluate.f1_max_threshold", False, None),
    ("sinr.cli", "write_pgm", "cli.write_pgm", False, None),
    ("sinr.evaluate", "average_precision", "evaluate.average_precision", False, None),
    ("sinr.train", "subsample_cap", "data.subsample_cap", False, None),
    ("sinr.train", "sample_batch", "data.sample_batch", False, None),
    ("sinr.train", "sample_uniform_locations", "data.pseudo_inputs", False, None),
    ("sinr.train", "assemble_inputs", "data.pseudo_inputs", False, None),
    ("sinr.train", "forward", "net.forward", True, _forward_attrs),
    ("sinr.train", "compute_loss", "losses.compute_loss", True, _loss_attrs),
    ("sinr.train", "backward", "net.backward", True, _backward_attrs),
    ("sinr.train", "adam_step", "net.adam_step", False, None),
    ("sinr.train", "save_checkpoint", "train.save_checkpoint", False, _checkpoint_attrs),
    ("sinr.net", "_sigmoid", "net.sigmoid", False, _sigmoid_attrs),
]


LOADER_HOMES = {"load_observations": "sinr.data", "load_env_rasters": "sinr.data",
                "read_model_file": "sinr.net", "load_eval_grid": "sinr.evaluate"}
MAX_SETUP_PASSES = 25


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []  # span names with a wrapper target that is gone

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, attrs]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module: str, attr: str, name: str, memory: bool, attrs_fn) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            track = memory and not tracemalloc.is_tracing()
            with self.span(name) as rec:
                if track:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if track:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            attrs = {"peak": peak} if track else {}
            if attrs_fn is not None:
                with contextlib.suppress(AttributeError, IndexError, TypeError, OSError):
                    attrs.update(attrs_fn(args, kwargs, result))
            rec[4] = attrs or None
            return result

        setattr(mod, attr, wrapper)


def _run_command(cli, tracer: Tracer, label: str, argv: list[str], cycle: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    outcome = {"label": label, "cycle": cycle, "argv": argv, "span": len(tracer.spans)}
    with tracer.span(f"cmd:{label}", {"cycle": cycle}) as rec:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command, reported with its traceback
            rc = None
            err.write(traceback.format_exc())
    outcome.update(rc=rc, seconds=rec[2] - rec[1], stdout=out.getvalue()[-4000:],
                   stderr=err.getvalue()[-4000:])
    return outcome


def _setup_pass(cli, tracer: Tracer, loaders) -> None:
    with tracer.span("setup"):
        for name, arg in loaders:
            fn = getattr(cli, name, None)
            if fn is None:  # the command no longer imports it; use its home module
                fn = getattr(importlib.import_module(LOADER_HOMES[name]), name)
            fn(arg)


def _environment(threads: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]]
    facts = spec["facts"]
    tracer = Tracer()
    cli = importlib.import_module("sinr.cli")
    for wrap in WRAPS if spec["trace"] else PHASE_WRAPS:
        tracer.wrap(*wrap)

    commands = []
    start = time.perf_counter()
    cycle = 0
    while True:
        out = os.path.join(spec["out"], f"cycle{cycle}")
        os.makedirs(out)
        for label, argv in workload.commands(spec["work"], out, facts, spec["seed"]):
            commands.append(_run_command(cli, tracer, label, argv, cycle))
        cycle += 1
        if time.perf_counter() - start >= spec["seconds"] or cycle >= spec["max_cycles"]:
            break
    passes, setup_start = 0, time.perf_counter()
    while passes < spec["setup_passes"] or (
        passes < MAX_SETUP_PASSES and time.perf_counter() - setup_start < spec["setup_seconds"]
    ):
        _setup_pass(cli, tracer, workload.setup(spec["work"], facts))
        passes += 1

    result = {
        "commands": commands,
        "spans": tracer.spans,
        "missing": tracer.missing,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(os.environ.get("OPENBLAS_NUM_THREADS", "?")),
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
