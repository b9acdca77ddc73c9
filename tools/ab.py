"""A/B pairs of the benchmark: the working tree against another revision.

Usage (from the repository root):

    python3 tools/ab.py --against REV --workload W --pairs N [--seed0 S] [--out F]

REV is extracted with ``git archive`` into a fresh directory of the system's
temporary directory (``TMPDIR``) whose path has as many characters as the
working tree's, since the benchmark's results move with the length of the
checkout's path. The tool refuses to run when the two trees' ``perfbench/``
differ. Pair i runs each tree's own, unchanged ``perfbench/run.py`` at seed
S + i for ``BENCHMARK.json``'s ``run_seconds``, one tree after the other, REV
first in even pairs and the working tree first in odd ones. It stops at the
first run that fails or reports ``"correct": false``.

For each ``end_to_end`` metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the working tree won, and whether its
median is better than REV's by more than REV's quartile spread (``clear``).
``--against HEAD`` gives the A/A noise floor of the working tree's commit.
``--out`` writes every run's metrics and the summary as JSON. The exit code is
0 when every run was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per metric from ``pairs``, each ``{"base": metrics, "change":
    metrics}`` with ``metrics`` a name-to-value dict: both sides' quartiles,
    the pairs the change won (strictly better), and whether its median beats
    the base's by more than the base's quartile spread."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [p for p in pairs if all(name in p[side] for side in SIDES)]
        if not both:
            continue
        base = [p["base"][name] for p in both]
        change = [p["change"][name] for p in both]
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        gain = b2 - c2 if lower else c2 - b2
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "base": [b1, b2, b3], "change": [c1, c2, c3],
            "delta": (c2 - b2) / b2 if b2 else float("nan"),
            "wins": sum((c < b) if lower else (c > b) for b, c in zip(base, change)),
            "pairs": len(both), "clear": gain > b3 - b1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    """The summary as a text table, one metric a line."""
    lines = [f"{'metric':<14}{'base median [q1, q3]':>34}{'change median [q1, q3]':>34}"
             f"{'delta':>9}{'wins':>8}  clear"]
    for r in rows:
        base, change = ("{1:.5g} [{0:.5g}, {2:.5g}]".format(*r[side]) for side in SIDES)
        lines.append(f"{r['metric']:<14}{base:>34}{change:>34}{r['delta']:>+9.1%}"
                     f"{r['wins']:>4}/{r['pairs']:<3}  {'yes' if r['clear'] else 'no'}")
    return "\n".join(lines)


def same_length_dir(root: str) -> str:
    """A new directory in the temporary directory whose path is as long as ``root``."""
    base = tempfile.gettempdir()
    width = len(root) - len(base) - 1
    if width < 4:
        raise SystemExit(f"ab: {base} is too long for a {len(root)}-character path; "
                         "set TMPDIR to a shorter directory")
    while True:
        path = os.path.join(base, "ab" + secrets.token_hex(width)[: width - 2])
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            continue


def extract(rev: str, root: str) -> str:
    """A :func:`same_length_dir` of ``root`` holding ``rev`` of the repository at
    ``root``, extracted with ``git archive``; the caller removes it. Exits with
    code 2 when ``git archive`` fails."""
    tree = same_length_dir(root)
    try:
        archive = subprocess.run(["git", "-C", root, "archive", rev], capture_output=True)
        if archive.returncode:
            print(f"git archive {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
            raise SystemExit(2)
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    except BaseException:
        shutil.rmtree(tree, ignore_errors=True)
        raise
    return tree


def differing_files(a: str, b: str) -> list[str]:
    """Paths under ``a`` and ``b`` that only one holds or whose bytes differ,
    ignoring ``__pycache__``."""
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    out = [os.path.join(a, n) for n in cmp.left_only + cmp.right_only + cmp.funny_files]
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    out += [os.path.join(a, n) for n in mismatch + errors]
    for sub in cmp.common_dirs:
        out += differing_files(os.path.join(a, sub), os.path.join(b, sub))
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last JSON line, or a
    result with ``correct`` false and the error when it fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode:
        result = dict(result, correct=False, error=proc.stderr.strip()[-500:])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs to run")
    parser.add_argument("--seed0", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    base_tree = extract(args.against, root)
    pairs, correct = [], True
    try:
        differ = differing_files(os.path.join(base_tree, "perfbench"),
                                 os.path.join(root, "perfbench"))
        if differ:
            print(f"ab: perfbench/ differs from {args.against}'s: "
                  + ", ".join(os.path.relpath(p, base_tree) for p in differ), file=sys.stderr)
            return 2
        trees = {"base": base_tree, "change": root}
        for i in range(args.pairs):
            seed, pair = args.seed0 + i, {"seed": args.seed0 + i}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_once(trees[side], args.workload, seed, spec["run_seconds"])
                pair[side] = {k: m["value"] for k, m in result.get("metrics", {}).items()}
                if not result.get("correct"):
                    correct = False
                    print(f"ab: {side} run at seed {seed} was not correct: "
                          f"{result.get('error', 'correct is false')}", file=sys.stderr)
                    break
            if not correct:
                break
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{m['name']} {pair['base'].get(m['name'], float('nan')):.4g} -> "
                f"{pair['change'].get(m['name'], float('nan')):.4g}"
                for m in spec["end_to_end"]), flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    rows = summarize(pairs, spec["end_to_end"])
    print(f"{args.workload}: {args.against} (base) against the working tree (change), "
          f"{len(pairs)} pairs from seed {args.seed0}")
    print(format_rows(rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"against": args.against, "workload": args.workload,
                       "seed0": args.seed0, "pairs": pairs, "summary": rows}, fh, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
