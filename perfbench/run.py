"""Benchmark of the ``sinr`` command-line program at S=10,000 species.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``train-dense-s10k``, ``train-sparse-capped-env`` and ``maps``
(see ``workloads.py`` and ``BENCHMARK.json``). One run:

1. writes the workload's inputs from ``--seed`` into a fresh directory under
   ``.perfbench/`` (outside any measured process);
2. starts a fresh measured process (``child.py``) with the BLAS pool pinned,
   which runs the workload's commands in a closed loop, one at a time, until
   ``--seconds`` have passed, then repeats the set-up loaders;
3. checks every command's output against the benchmark's own references;
4. with ``--trace 1``, starts a second, traced process on the same inputs and
   reports per-layer metrics, a per-step stage table and the tracing overhead;
5. prints a human-readable report and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

import checks
import inputs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BUDGET_S = 170  # a run must end within 180 s
# Set-up is repeated after the commands: at least SETUP_PASSES times, and until
# SETUP_SECONDS of set-up have been timed, so that a 30 ms set-up still gives a
# steady median.
SETUP_PASSES = 2
SETUP_SECONDS = 1.0
MAX_CYCLES = 10
# One BLAS thread: on a 2-core shared machine a second thread widened the
# run-to-run spread, and most of a step is single-threaded elementwise numpy.
THREADS = 1
MIB = 1024.0 * 1024.0


class BenchError(RuntimeError):
    """The run could not produce a result."""


# ---------------------------------------------------------------------------
# Measured processes
# ---------------------------------------------------------------------------


def _child(root, run_dir, label, args, facts, trace, deadline) -> dict:
    out = os.path.join(run_dir, label)
    os.makedirs(out)
    passes, setup_seconds = (0, 0.0) if trace else (SETUP_PASSES, SETUP_SECONDS)
    spec = {
        "workload": args.workload, "seed": args.seed, "work": os.path.join(run_dir, "inputs"),
        "out": out, "facts": facts, "seconds": args.seconds, "trace": trace,
        "setup_passes": passes, "setup_seconds": setup_seconds, "max_cycles": MAX_CYCLES,
        "result": os.path.join(out, "result.json"),
    }
    with open(os.path.join(out, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    # SINR_THREADS is ignored by the program today; leaving it unset keeps runs
    # comparable once it is honoured.
    env.pop("SINR_THREADS", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), os.path.join(out, "spec.json")],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label} process exceeded the {BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{label} process exited {proc.returncode}: {proc.stderr[-3000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["out"] = out
    return result


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _src_digest(root) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(checks.sha256(path).encode())
    return digest.hexdigest()


def _verify(runs, args, facts, root, run_dir) -> dict:
    """Check every command; returns {(run, cycle, label): reason} for failed ones."""
    ref = None
    if args.workload == "maps":
        ref = checks.maps_reference(os.path.join(run_dir, "inputs"), facts)
    failures, hashes, trained = {}, set(), []
    for run in runs:
        for cmd in run["commands"]:
            out = os.path.join(run["out"], f"cycle{cmd['cycle']}")
            if cmd["rc"] != 0:
                problem = f"exit code {cmd['rc']}: {cmd['stderr'].strip()[-300:]}"
            elif cmd["label"] == "train":
                problem = checks.check_train(out, cmd["stdout"], facts,
                                             "--checkpoint" in cmd["argv"])
                if problem is None:
                    hashes.add(checks.sha256(f"{out}/model.sinr"))
                    trained.append((run["label"], cmd["cycle"], "train"))
            elif cmd["label"] == "predict":
                problem = checks.check_cells_csv(f"{out}/predict.csv", ref)
            elif cmd["label"] == "export-raster":
                problem = checks.check_export(out, cmd["stdout"], ref, facts["resolution"])
            else:
                problem = checks.check_eval_map(out, facts, ref)
            if problem:
                failures[(run["label"], cmd["cycle"], cmd["label"])] = problem
    problem = _check_model_hash(hashes, args, root) if hashes else None
    if problem:
        failures.update((key, problem) for key in trained)
    return failures


def _check_model_hash(hashes: set, args, root) -> str | None:
    """Trained model bytes must not vary between runs of one code version and seed."""
    if len(hashes) > 1:
        return f"{len(hashes)} different model files from one seed"
    path = os.path.join(root, ".perfbench", "model_sha256.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = f"{_src_digest(root)}:{args.workload}:{args.seed}"
    (digest,) = hashes
    if known.setdefault(key, digest) != digest:
        return f"model sha256 {digest[:12]} differs from an earlier run ({known[key][:12]})"
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh)
    os.replace(tmp, path)
    return None


# ---------------------------------------------------------------------------
# Spans -> metrics
# ---------------------------------------------------------------------------


class Spans:
    """Index over a child's spans ``[name, start, end, parent, attrs]``."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children = defaultdict(list)
        self.cycle: list[int | None] = []
        self.command: list[str | None] = []
        for i, (name, _, _, parent, attrs) in enumerate(spans):
            self.children[parent].append(i)
            if name.startswith("cmd:"):  # parents always precede their children
                self.cycle.append(attrs["cycle"])
                self.command.append(name[4:])
            else:
                self.cycle.append(self.cycle[parent] if parent >= 0 else None)
                self.command.append(self.command[parent] if parent >= 0 else None)
        self.n_cycles = 1 + max((c for c in self.cycle if c is not None), default=-1)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def attr(self, i: int, key: str):
        return (self.spans[i][4] or {}).get(key, 0)

    def named(self, name: str, command: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and self.cycle[i] is not None
                and (command is None or self.command[i] == command)]

    def per_cycle(self, names, fn=None, command=None) -> list[float]:
        """Per-cycle sums of ``fn(span)`` (default: duration) over spans named in ``names``."""
        totals = [0.0] * self.n_cycles
        for name in [names] if isinstance(names, str) else names:
            for i in self.named(name, command):
                totals[self.cycle[i]] += (fn or self.dur)(i)
        return totals


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "-"
    pct = int(100 * (n - 10) / n)
    return f"p{pct}={float(np.percentile(values, pct)):.6g}"


LOADERS = ("data.load_observations", "data.load_env_rasters", "net.read_model_file",
           "evaluate.load_eval_grid")


def _end_to_end(run: dict, workload, facts) -> dict:
    """Samples of every end-to-end metric, plus the per-command throughputs."""
    sp = Spans(run["spans"])
    by_cycle = defaultdict(dict)
    for cmd in run["commands"]:
        by_cycle[cmd["cycle"]][cmd["label"]] = cmd["seconds"]
    cycles = [by_cycle[c] for c in sorted(by_cycle)]

    # set-up samples: the dedicated passes, plus each cycle's in-command loads
    setup = [sp.dur(i) for i, s in enumerate(sp.spans) if s[0] == "setup"]
    loads = defaultdict(list)
    for name in LOADERS:
        for i in sp.named(name, workload.setup_command):
            loads[sp.cycle[i]].append(sp.dur(i))
    expected = len(workload.setup("", facts))
    setup += [sum(d) for d in loads.values() if len(d) == expected]

    samples = {
        "setup_s": setup,
        "wall_s": [sum(c.values()) for c in cycles],
        "peak_rss_mib": [run["peak_rss_kib"] / 1024.0],
    }
    if "steps" in facts:
        examples = facts["steps"] * inputs.BATCH
        # without a timed train call (its name is gone, or the command failed
        # before it) the whole command is the fallback
        train_s = [t for t in sp.per_cycle("train.call") if t > 0] or [c["train"] for c in cycles]
        samples["throughput"] = samples["train.examples_per_s"] = [examples / t for t in train_s]
    else:
        # maps throughput is predict's: export-raster adds the EVALGRID parse,
        # whose pure-Python time is the noisiest part; wall_s still covers it
        n = facts["n_cells"]
        samples["throughput"] = samples["predict.cells_per_s"] = [n / c["predict"] for c in cycles]
        samples["export_raster.cells_per_s"] = [n / c["export-raster"] for c in cycles]
        samples["eval_map.species_per_s"] = [facts["evaluable_species"] / c["eval-map"]
                                             for c in cycles]
    return samples


def _steps(sp: Spans) -> list[dict]:
    """Per-step stage times inside each traced ``train`` call."""
    steps = []
    for call in sp.named("train.call"):
        cur = None
        for i in sp.children[call]:
            name = sp.spans[i][0]
            if name == "data.sample_batch":
                cur = defaultdict(float, start=sp.spans[i][1])
                steps.append(cur)
            if cur is None:
                continue
            cur[name] += sp.dur(i)
            if name == "net.forward":
                sig = sum(sp.dur(c) for c in sp.children[i] if sp.spans[c][0] == "net.sigmoid")
                cur["net.sigmoid"] += sig
                cur["net.forward.self"] += sp.dur(i) - sig
            if name in ("net.forward", "net.backward", "losses.compute_loss"):
                cur[name + ".peak"] = max(cur[name + ".peak"], sp.attr(i, "peak") / MIB)
            if name == "net.adam_step":
                cur["step"] = sp.spans[i][2] - cur["start"]
    return [s for s in steps if "step" in s]


STEP_COLUMNS = [
    ("step", "step"), ("forward", "net.forward"), ("sigmoid", "net.sigmoid"),
    ("fwd self", "net.forward.self"), ("loss", "losses.compute_loss"),
    ("backward", "net.backward"), ("adam", "net.adam_step"),
]
PEAK_COLUMNS = [("fwd MiB", "net.forward.peak"), ("loss MiB", "losses.compute_loss.peak"),
                ("bwd MiB", "net.backward.peak")]


def _print_steps(steps: list[dict]) -> None:
    head = "".join(f"{c:>10}" for c, _ in STEP_COLUMNS + PEAK_COLUMNS)
    print(f"per-step stages (ms; peak allocation in MiB)\n{'#':>4}{head}")
    rows = [(str(k + 1), s) for k, s in enumerate(steps)]
    median = {key: _median([s[key] for s in steps]) for _, key in STEP_COLUMNS + PEAK_COLUMNS}
    for label, s in rows + [("med", median)]:
        times = "".join(f"{1000 * s[key]:>10.1f}" for _, key in STEP_COLUMNS)
        peaks = "".join(f"{s[key]:>10.1f}" for _, key in PEAK_COLUMNS)
        print(f"{label:>4}{times}{peaks}")


# Spans a metric reads besides the one its name starts with; a metric is
# reported as missing when the wrapper of any span it reads is gone.
EXTRA_NEEDS = {
    "net.forward.self_s": ["net.forward", "net.sigmoid"],
    "net.head.positive_logit_fraction": ["net.sigmoid"],
    "net.head": ["net.forward", "net.backward"],
    "train.step": ["data.sample_batch", "net.adam_step", "train.call"],
    "train.checkpoint_bytes": ["train.save_checkpoint"],
    "trace.train_coverage": ["train.call"],
    "trace.overhead_s": [],
}
KEPT_COLUMNS = {"predict": 1, "export-raster": 1}  # eval-map keeps one per eval species


def _needs(metric: str) -> list[str]:
    for key, spans in EXTRA_NEEDS.items():
        if metric == key or metric.startswith(key + "."):
            return spans
    return [metric.rsplit(".", 1)[0]]


def _per_layer(traced: dict, plain_wall: list[float], traced_wall: list[float], facts):
    """Per-layer metrics (per-cycle totals, median over cycles) and per-step stages."""
    sp = Spans(traced["spans"])

    def med(name, fn=None):
        return _median(sp.per_cycle(name, fn))

    def rate(work, name):  # units of work per second spent in ``name``
        calls = sp.per_cycle(name, lambda i: 1.0)
        return _median([work * n / t if t else 0.0 for n, t in zip(calls, sp.per_cycle(name))])

    def peak(name):
        return max([sp.attr(i, "peak") for i in sp.named(name)], default=0) / MIB

    def head(i, k):  # k * rows * features * species of one head matmul
        return k * sp.attr(i, "rows") * sp.attr(i, "feat") * sp.attr(i, "cols")

    def kept(i):  # entries of a prediction forward that its command reads
        cols = KEPT_COLUMNS.get(sp.command[i], facts.get("eval_species", 0))
        return 0 if sp.command[i] == "train" else sp.attr(i, "rows") * cols

    computed = sp.per_cycle("net.forward", lambda i: sp.attr(i, "rows") * sp.attr(i, "cols"))
    used = [a + b for a, b in zip(sp.per_cycle("losses.compute_loss", lambda i: sp.attr(i, "used")),
                                  sp.per_cycle("net.forward", kept))]
    flops = [a + b for a, b in zip(sp.per_cycle("net.forward", lambda i: head(i, 2)),
                                   sp.per_cycle("net.backward", lambda i: head(i, 4)))]
    n_sig = sum(sp.attr(i, "n") for i in sp.named("net.sigmoid"))
    pos = sum(sp.attr(i, "pos") for i in sp.named("net.sigmoid"))
    steps = _steps(sp)
    step_s = [s["step"] for s in steps] or [0.0]
    coverage = [sum(sp.dur(c) for c in sp.children[i]) / sp.dur(i) for i in sp.named("train.call")]

    m = {
        "data.load_observations.s": med("data.load_observations"),
        "data.load_observations.rows_per_s": rate(facts.get("obs_rows", 0),
                                                  "data.load_observations"),
        "data.load_env_rasters.s": med("data.load_env_rasters"),
        "data.load_env_rasters.cells_per_s": rate(facts.get("env_cells", 0),
                                                  "data.load_env_rasters"),
        "data.subsample_cap.s": med("data.subsample_cap"),
        "data.sample_batch.s": med("data.sample_batch"),
        "data.pseudo_inputs.s": med("data.pseudo_inputs"),
        "net.forward.s": med("net.forward"),
        "net.sigmoid.s": med("net.sigmoid"),
        "net.forward.self_s": med("net.forward", sp.self_time),
        "net.backward.s": med("net.backward"),
        "net.adam_step.s": med("net.adam_step"),
        "net.read_model_file.s": med("net.read_model_file"),
        "net.save_model.s": med("net.save_model"),
        "net.head.entries_computed": _median(computed),
        "net.head.entries_used": _median(used),
        "net.head.useful_ratio": _median([u / c if c else 0.0 for u, c in zip(used, computed)]),
        "net.head.flops_computed": _median(flops),
        "net.head.positive_logit_fraction": pos / n_sig if n_sig else 0.0,
        "net.forward.peak_alloc_mib": peak("net.forward"),
        "net.backward.peak_alloc_mib": peak("net.backward"),
        "losses.compute_loss.s": med("losses.compute_loss"),
        "losses.compute_loss.peak_alloc_mib": peak("losses.compute_loss"),
        "train.call.s": med("train.call"),
        "train.step.s": _median(step_s),
        "train.step.p90_s": float(np.percentile(step_s, 90)),
        "train.save_checkpoint.s": med("train.save_checkpoint"),
        "train.checkpoint_bytes": float(max(
            [sp.attr(i, "bytes") for i in sp.named("train.save_checkpoint")], default=0)),
        "trace.train_coverage": _median(coverage) if coverage else 0.0,
        "evaluate.load_eval_grid.s": med("evaluate.load_eval_grid"),
        "evaluate.load_eval_grid.lines_per_s": rate(facts.get("eval_lines", 0),
                                                    "evaluate.load_eval_grid"),
        "evaluate.map_task.self_s": med("evaluate.map_task", sp.self_time),
        "evaluate.average_precision.s": med("evaluate.average_precision"),
        "evaluate.average_precision.calls": med("evaluate.average_precision", lambda i: 1.0),
        "evaluate.f1_max_threshold.s": med("evaluate.f1_max_threshold"),
        "cli.predict.self_s": med("cli.predict", sp.self_time),
        "cli.write_pgm.s": med("cli.write_pgm"),
        "cli.train.self_s": med("cli.train", sp.self_time),
        "trace.overhead_s": _median(traced_wall) - _median(plain_wall),
    }
    missing = set(traced["missing"])
    return {k: v for k, v in m.items() if not missing.intersection(_needs(k))}, steps


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _bench(args, root, run_dir, deadline) -> int:
    workload = WORKLOADS[args.workload]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = os.path.join(run_dir, "inputs")
    os.makedirs(work)
    t0 = time.perf_counter()
    facts = inputs.GENERATORS[args.workload](work, args.seed)
    gen_s = time.perf_counter() - t0

    runs = [dict(_child(root, run_dir, "plain", args, facts, False, deadline), label="plain")]
    if args.trace:
        traced = _child(root, run_dir, "traced", args, facts, True, deadline)
        runs.append(dict(traced, label="traced"))
    failures = _verify(runs, args, facts, root, run_dir)
    attempted = sum(len(r["commands"]) for r in runs)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in runs[0]["environment"].items()))
    shown = {k: v for k, v in facts.items() if not isinstance(v, (list, dict))}
    print(f"inputs ({gen_s:.2f} s to generate): " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    for (run, cycle, label), problem in failures.items():
        print(f"FAILED {run} cycle {cycle} {label}: {problem}")
    print(f"commands: attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.4g}")

    samples = _end_to_end(runs[0], workload, facts)
    print(f"{'end-to-end metric':<28}{'median':>14}  {'tail':<16}{'n':>4}  unit")
    for name, values in samples.items():
        print(f"{name:<28}{_median(values):>14.6g}  {_tail(values):<16}{len(values):>4}  "
              f"{units.get(name, '1/s')}")
    if args.trace:
        plain_wall, traced_wall = (_end_to_end(r, workload, facts)["wall_s"] for r in runs)
        values, steps = _per_layer(runs[1], plain_wall, traced_wall, facts)
        if steps:
            _print_steps(steps)
        names = [m["name"] for m in spec["per_layer"]]
        print(f"{'per-layer metric (traced)':<40}{'value':>16}  unit")
        for n in names:
            if n in values:
                print(f"{n:<40}{values[n]:>16.6g}  {units[n]}")
        missing = [n for n in names if n not in values]
        if missing:
            print("missing (wrapped name no longer exists): " + ", ".join(missing))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {n: _median(samples[n]) for n in names}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sinr", "cli.py")):
        print("perfbench: no src/sinr/cli.py here; run from the root of a sinr checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        return _bench(args, root, run_dir, time.monotonic() + BUDGET_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
