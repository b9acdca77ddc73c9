"""Paper-scale training steps, stage by stage, of the working tree or of a pair.

Usage (from the repository root):

    python3 tools/steps.py [--species 10240,47375] [--batch 2048] [--hidden 256]
                           [--blocks 4] [--steps 3] [--runs 1] [--against REV]
                           [--out F]

Each configuration (one of the six loss variants at a species count S) runs
in a fresh process with a tree's ``src`` on ``PYTHONPATH``. The process trains
one epoch of ``--steps`` + 1 steps through ``sinr.train.train`` on a synthetic
coordinate corpus, at B = ``--batch`` records (plus B pseudo-locations for
the variants that read them), H = ``--hidden`` and ``--blocks`` residual
blocks, with the default dropout. It times, per step, the calls that a step
makes through ``sinr.train``'s globals: ``forward``, ``compute_loss``
(ssdl and slds; a full step computes its loss inside ``backward``),
``backward`` and ``adam_step``, and the whole step (``_loss_and_grads`` and
``adam_step``). It reports the median of each over every step but the first,
and the process's max RSS.

With ``--against REV``, REV is extracted as ``tools/ab.py`` extracts it, into
a temporary directory whose path is as long as the working tree's, and each
configuration runs ``--runs`` times in each tree, alternating which tree goes
first; the table gives each side's median over its runs. ``SINR_THREADS`` is
passed on to every process. ``--out`` writes every run as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

VARIANTS = ("an-ssdl", "an-slds", "an-full", "me-ssdl", "me-slds", "me-full")
STAGES = ("step", "forward", "loss", "backward", "adam")
#: sinr.train global: the stage its calls count toward
TIMED = {"forward": "forward", "compute_loss": "loss", "backward": "backward",
         "adam_step": "adam", "_loss_and_grads": "step"}


def measure(variant: str, n_species: int, batch: int, hidden: int, blocks: int,
            steps: int) -> dict:
    """Milliseconds of each stage (median over all steps but the first) and
    this process's max RSS in MiB, from one epoch of ``steps`` + 1 steps."""
    import resource

    import numpy as np

    import sinr.train as train_module
    from sinr.data import ObservationSet
    from sinr.geo import InputLayout, input_dim
    from sinr.losses import LossConfig, LossVariant
    from sinr.net import NetConfig

    times = {stage: [] for stage in STAGES}
    for name, stage in TIMED.items():
        def timed(*args, _real=getattr(train_module, name), _stage=stage, **kwargs):
            start = time.perf_counter()
            result = _real(*args, **kwargs)
            times[_stage].append(time.perf_counter() - start)
            return result

        setattr(train_module, name, timed)
    rng = np.random.default_rng(0)
    n = batch * (steps + 1)
    obs = ObservationSet(tuple(f"sp{i}" for i in range(n_species)),
                         rng.integers(0, n_species, n), rng.uniform(-180, 180, n),
                         rng.uniform(-90, 90, n))
    cfg = train_module.TrainConfig(
        net=NetConfig(input_dim=input_dim(InputLayout.COORDS), n_species=n_species,
                      hidden_dim=hidden, n_residual_layers=blocks),
        loss=LossConfig(LossVariant(variant)), epochs=1, batch_size=batch)
    train_module.train(cfg, obs)
    times["step"] = [a + b for a, b in zip(times["step"], times["adam"])]
    out = {stage: 1e3 * statistics.median(t[1:]) if t[1:] else None
           for stage, t in times.items()}
    out["max_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run_child(tree: str, args, variant: str, n_species: int) -> dict:
    """:func:`measure` in a fresh process on ``tree``'s ``sinr``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, os.path.abspath(__file__), "--child", variant, str(n_species),
            "--batch", str(args.batch), "--hidden", str(args.hidden),
            "--blocks", str(args.blocks), "--steps", str(args.steps)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"steps: {variant} at S={n_species} in {tree} failed:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def format_table(rows: list[dict]) -> str:
    """One line per configuration and side: the median of each stage over
    the runs, in ms, and of the max RSS, in MiB."""
    def cell(values):
        values = [v for v in values if v is not None]
        return f"{statistics.median(values):>12.1f}" if values else f"{'-':>12}"

    lines = [f"{'variant':<9}{'S':>8}  {'side':<7}" + "".join(f"{s + '_ms':>12}" for s in STAGES)
             + f"{'rss_mib':>12}{'runs':>6}"]
    for r in rows:
        lines.append(f"{r['variant']:<9}{r['species']:>8}  {r['side']:<7}"
                     + "".join(cell([m[s] for m in r["runs"]]) for s in STAGES)
                     + cell([m["max_rss_mib"] for m in r["runs"]]) + f"{len(r['runs']):>6}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", nargs=2, metavar=("VARIANT", "S"), help=argparse.SUPPRESS)
    parser.add_argument("--species", default="10240,47375", help="species counts S")
    parser.add_argument("--batch", type=int, default=2048, help="records a step")
    parser.add_argument("--hidden", type=int, default=256, help="hidden width H")
    parser.add_argument("--blocks", type=int, default=4, help="residual blocks")
    parser.add_argument("--steps", type=int, default=3, help="timed steps after one warm-up")
    parser.add_argument("--runs", type=int, default=1, help="processes per configuration and tree")
    parser.add_argument("--against", help="git revision to pair the working tree with")
    parser.add_argument("--out", help="write every run as JSON")
    args = parser.parse_args(argv)
    if args.child:
        variant, n_species = args.child[0], int(args.child[1])
        print(json.dumps(measure(variant, n_species, args.batch, args.hidden, args.blocks,
                                 args.steps)))
        return 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trees = {"change": root}
    if args.against:
        from ab import extract  # tools/ leads sys.path when this file runs as a script

        trees = {"base": extract(args.against, root), **trees}
    try:
        rows = []
        for n_species in map(int, args.species.split(",")):
            for variant in VARIANTS:
                runs = {side: [] for side in trees}
                for i in range(args.runs):
                    for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                        runs[side].append(run_child(trees[side], args, variant, n_species))
                rows += [{"variant": variant, "species": n_species, "side": side,
                          "runs": runs[side]} for side in trees]
                print(format_table(rows[-len(trees):]).split("\n", 1)[1], flush=True)
    finally:
        if args.against:
            shutil.rmtree(trees["base"], ignore_errors=True)
    import numpy as np

    print(f"B={args.batch} H={args.hidden} blocks={args.blocks} steps={args.steps} "
          f"runs={args.runs} numpy={np.__version__} "
          f"SINR_THREADS={os.environ.get('SINR_THREADS', 'unset')} cpus={os.cpu_count()}"
          + (f"; base is {args.against}" if args.against else ""))
    print(format_table(rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"against": args.against, "batch": args.batch, "hidden": args.hidden,
                       "blocks": args.blocks, "steps": args.steps, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
