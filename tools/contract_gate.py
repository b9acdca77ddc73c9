"""Contract gate: compare the training contract of this tree with another revision.

Usage (from the repository root):

    python3 tools/contract_gate.py --against REV [--out gate.json] [--seeds 5]

REV is extracted with ``git archive`` into a temporary directory. For each tree
(REV, then the working tree) fresh processes, each with that tree's ``src`` on
``PYTHONPATH``, measure:

- ``bytes``: the sha256 of the model file and of the checkpoint of all six loss
  variants, trained through ``sinr train`` at ``SINR_THREADS`` 1, 2 and 3, on
  a 12-species corpus (one head block) and a 1,300-species one (three head
  blocks, two groups);
- ``resume``: whether a run stopped after its first epoch and continued from
  its checkpoint gives the parameters and loss history of a straight run;
- ``map``: the mean average precision over 5 seeds of the criterion-05
  synthetic (``tests/test_acceptance.py``, three disk ranges) and of a
  1,100-species disk corpus written to disk as an observations CSV and an
  EVALGRID, with the seed-to-seed standard deviation.

It prints one verdict per gate line and writes both trees' measurements and
the verdicts as JSON to ``--out``. The gate passes when every tree gives the
same bytes at every thread count, every variant resumes to a straight run's
bits, the read variants (ssdl, slds) keep REV's bytes, and no mean MAP is
worse than REV's by more than the larger seed-to-seed spread. Bytes of the
full variants may differ: a change to them is a contract change, reported as
``changed``. The exit code is 0 when the gate passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

VARIANTS = ("an-ssdl", "an-slds", "an-full", "me-ssdl", "me-slds", "me-full")
READ_VARIANTS = ("an-ssdl", "an-slds", "me-ssdl", "me-slds")
MAP_VARIANTS = ("an-full", "me-full", "an-ssdl")
THREADS = ("1", "2", "3")
#: name: (species, records, extra ``sinr train`` flags)
BYTE_CORPORA = {
    "s12": (12, 600, ["--epochs", "3", "--batch-size", "64", "--hidden-dim", "16",
                      "--residual-layers", "2"]),
    "s1300": (1300, 3000, ["--epochs", "1", "--batch-size", "512", "--hidden-dim", "32",
                           "--residual-layers", "1"]),
}
DISK_CENTERS = ((-90.0, 30.0), (0.0, -30.0), (100.0, 15.0))
DISK_RADIUS_DEG = 20.0


# ---------------------------------------------------------------------------
# Measurements, run in a child process against one tree's ``sinr``
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_corpus(path, n_species: int, n_records: int, seed: int = 7) -> None:
    """``n_records`` records (at least one a species) uniform over the globe,
    ids ``sp0000``... , drawn from ``default_rng(seed)``."""
    from sinr.data import ObservationSet, save_observations

    rng = np.random.default_rng(seed)
    ids = tuple(f"sp{i:04d}" for i in range(n_species))
    index = np.concatenate([np.arange(n_species),  # every species occurs
                            rng.integers(0, n_species, max(0, n_records - n_species))])
    save_observations(ObservationSet(ids, index, rng.uniform(-179, 179, index.size),
                                     rng.uniform(-89, 89, index.size)), path)


def measure_bytes(workdir: str, corpora: dict = BYTE_CORPORA) -> dict:
    """``{corpus: {variant: [model sha256, checkpoint sha256]}}`` from
    ``sinr train --checkpoint`` runs in ``workdir``."""
    from sinr.cli import main

    table = {}
    for name, (n_species, n_records, flags) in corpora.items():
        obs = os.path.join(workdir, f"{name}.csv")
        write_corpus(obs, n_species, n_records)
        table[name] = {}
        for variant in VARIANTS:
            model = os.path.join(workdir, f"{name}-{variant}.sinr")
            ckpt = os.path.join(workdir, f"{name}-{variant}.ckpt")
            argv = ["train", "--obs", obs, "--out", model, "--checkpoint", ckpt,
                    "--loss", variant, "--seed", "5", "--lambda", "50", *flags]
            if main(argv) != 0:
                raise RuntimeError(f"sinr {' '.join(argv)} failed")
            table[name][variant] = [_sha256(model), _sha256(ckpt)]
    return table


class _Stop(Exception):
    pass


def measure_resume(workdir: str) -> dict:
    """``{variant: bool}``: a 3-epoch run stopped after epoch 1 and continued
    from its checkpoint ends with a straight run's parameter and loss bytes."""
    from sinr.data import load_observations
    from sinr.losses import LossConfig, LossVariant
    from sinr.net import NetConfig
    from sinr.train import TrainConfig, train

    path = os.path.join(workdir, "resume.csv")
    write_corpus(path, 7, 300)
    obs = load_observations(path)[0]
    out = {}
    for variant in VARIANTS:
        cfg = TrainConfig(net=NetConfig(input_dim=4, n_species=7, hidden_dim=16,
                                        n_residual_layers=2, seed=3),
                          loss=LossConfig(LossVariant(variant), lam=50.0), epochs=3,
                          batch_size=64, master_seed=3)
        straight = train(cfg, obs)
        ckpt = os.path.join(workdir, f"resume-{variant}.ckpt")

        def stop_after_first(epoch, *_):
            if epoch == 1:
                raise _Stop

        try:
            train(cfg, obs, checkpoint_path=ckpt, on_epoch=stop_after_first)
        except _Stop:
            pass
        resumed = train(cfg, obs, checkpoint_path=ckpt)
        out[variant] = (
            all(a.tobytes() == b.tobytes()
                for a, b in zip(straight.params.flat(), resumed.params.flat()))
            and straight.step_losses.tobytes() == resumed.step_losses.tobytes())
    return out


def _disk_obs(rng, n_records: int):
    """The criterion-05 corpus: three species on disjoint disks."""
    from sinr.data import ObservationSet

    species = rng.integers(0, 3, n_records).astype(np.int64)
    lons, lats = np.empty(n_records), np.empty(n_records)
    for i, s in enumerate(species):
        cx, cy = DISK_CENTERS[s]
        while True:
            dx, dy = rng.uniform(-DISK_RADIUS_DEG, DISK_RADIUS_DEG, 2)
            if dx * dx + dy * dy <= DISK_RADIUS_DEG**2:
                lons[i], lats[i] = cx + dx, cy + dy
                break
    return ObservationSet(("disk-a", "disk-b", "disk-c"), species, lons, lats)


def _write_many_disks(workdir: str, n_species: int = 1100, per_species: int = 20):
    """A corpus of ``n_species`` random disks (radius 15-30 degrees), its
    records drawn inside them, written as an observations CSV and an EVALGRID
    at 10-degree cells labelled by the disks; returns the two paths."""
    from sinr.data import ObservationSet, save_observations
    from sinr.evaluate import EvalGrid, save_eval_grid
    from sinr.geo import GridSpec, cell_centroids

    rng = np.random.default_rng(11)
    centers = np.stack([rng.uniform(-150, 150, n_species), rng.uniform(-55, 55, n_species)], 1)
    radius = rng.uniform(15, 30, n_species)
    angle = rng.uniform(0, 2 * np.pi, (n_species, per_species))
    dist = radius[:, None] * np.sqrt(rng.uniform(0, 1, (n_species, per_species)))
    lons = (centers[:, :1] + dist * np.cos(angle)).ravel()
    lats = (centers[:, 1:] + dist * np.sin(angle)).ravel()
    ids = tuple(f"disk{i:04d}" for i in range(n_species))
    index = np.repeat(np.arange(n_species), per_species)
    obs_path, grid_path = (os.path.join(workdir, f) for f in ("disks.csv", "disks.evalgrid"))
    save_observations(ObservationSet(ids, index, lons, lats), obs_path)
    grid = GridSpec(18)
    glon, glat = cell_centroids(grid)
    inside = ((glon[None] - centers[:, :1]) ** 2 + (glat[None] - centers[:, 1:]) ** 2
              <= radius[:, None] ** 2)
    save_eval_grid(EvalGrid(grid, ids, inside.astype(np.int8)), grid_path)
    return obs_path, grid_path


def _mean_ap(variant: str, seed: int, obs, eval_grid, hidden: int, batch: int,
             epochs: int) -> float:
    from sinr.data import assemble_inputs
    from sinr.evaluate import map_task
    from sinr.geo import InputLayout
    from sinr.losses import LossConfig, LossVariant
    from sinr.net import NetConfig, forward
    from sinr.train import TrainConfig, train

    cfg = TrainConfig(net=NetConfig(input_dim=4, n_species=obs.n_species, hidden_dim=hidden,
                                    n_residual_layers=2, dropout_p=0.1, seed=seed),
                      loss=LossConfig(LossVariant(variant), lam=2048.0), epochs=epochs,
                      batch_size=batch, initial_lr=1e-3, master_seed=seed)
    params = train(cfg, obs).params
    cols = [obs.species_ids.index(s) for s in eval_grid.species_ids]

    def predict(lons, lats):
        x = assemble_inputs(lons, lats, InputLayout.COORDS, None)
        return forward(params, cfg.net, x)[1][:, cols]

    return float(map_task(predict, eval_grid).mean_ap)


def measure_map(workdir: str, seeds: int) -> dict:
    """``{task: {variant: [MAP per seed]}}`` for the criterion-05 synthetic
    and the on-disk disk corpus."""
    from sinr.data import load_observations
    from sinr.evaluate import EvalGrid, load_eval_grid
    from sinr.geo import GridSpec, cell_centroids

    synthetic = _disk_obs(np.random.default_rng(99), 10_000)
    grid = GridSpec(18)
    lons, lats = cell_centroids(grid)
    labels = np.array([(lons - cx) ** 2 + (lats - cy) ** 2 <= DISK_RADIUS_DEG**2
                       for cx, cy in DISK_CENTERS], dtype=np.int8)
    tasks = {"criterion05": (synthetic, EvalGrid(grid, synthetic.species_ids, labels), 128,
                             256, 10)}
    obs_path, grid_path = _write_many_disks(workdir)
    tasks["disks-on-disk"] = (load_observations(obs_path)[0], load_eval_grid(grid_path), 64,
                              512, 6)
    return {task: {v: [_mean_ap(v, seed, *args) for seed in range(seeds)]
                   for v in MAP_VARIANTS}
            for task, args in tasks.items()}


def child(what: str, seeds: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        if what == "bytes":
            return measure_bytes(workdir)
        if what == "resume":
            return measure_resume(workdir)
        return measure_map(workdir, seeds)


# ---------------------------------------------------------------------------
# Comparison: both trees, then the verdicts
# ---------------------------------------------------------------------------


def _run_child(tree: str, what: str, threads: str, seeds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), SINR_THREADS=threads)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", what,
                           "--seeds", str(seeds)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} at {threads} threads in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_tree(tree: str, seeds: int) -> dict:
    return {
        "bytes": {t: _run_child(tree, "bytes", t, seeds) for t in THREADS},
        "resume": _run_child(tree, "resume", "2", seeds),
        "map": _run_child(tree, "map", "2", seeds),
    }


def verdicts(base: dict, new: dict) -> list[dict]:
    """One line per gate check: ``{"line", "verdict", "detail"}``; a verdict
    is ``pass``, ``fail`` or ``changed`` (full-variant bytes that moved)."""
    lines = []
    for label, tree in (("rev", base), ("tree", new)):
        tables = list(tree["bytes"].values())
        same = all(t == tables[0] for t in tables)
        lines.append({"line": f"bytes independent of SINR_THREADS ({label})",
                      "verdict": "pass" if same else "fail",
                      "detail": f"threads {', '.join(THREADS)}"})
        bad = sorted(v for v, ok in tree["resume"].items() if not ok)
        lines.append({"line": f"resume is bit-identical ({label})",
                      "verdict": "fail" if bad else "pass",
                      "detail": f"differs: {bad}" if bad else "all six variants"})
    for corpus in BYTE_CORPORA:
        for variant in VARIANTS:
            was, now = (t["bytes"][THREADS[0]][corpus][variant] for t in (base, new))
            verdict = "pass" if was == now else (
                "fail" if variant in READ_VARIANTS else "changed")
            lines.append({"line": f"bytes {corpus} {variant}", "verdict": verdict,
                          "detail": f"model {was[0][:8]} -> {now[0][:8]}, "
                                    f"checkpoint {was[1][:8]} -> {now[1][:8]}"})
    for task, by_variant in new["map"].items():
        for variant, maps in by_variant.items():
            was = base["map"][task][variant]
            spread = max(float(np.std(was)), float(np.std(maps)))
            ok = np.mean(maps) >= np.mean(was) - spread
            lines.append({"line": f"MAP {task} {variant}", "verdict": "pass" if ok else "fail",
                          "detail": f"{np.mean(was):.5f} +- {np.std(was):.5f} -> "
                                    f"{np.mean(maps):.5f} +- {np.std(maps):.5f}"})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", help="git revision to compare the working tree with")
    parser.add_argument("--out", help="write the measurements and verdicts here as JSON")
    parser.add_argument("--seeds", type=int, default=5, help="MAP seeds per variant")
    parser.add_argument("--child", choices=("bytes", "resume", "map"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seeds)))
        return 0
    if not args.against:
        parser.error("--against REV is required")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as rev_tree:
        archive = subprocess.run(["git", "-C", root, "archive", args.against],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", rev_tree], input=archive, check=True)
        base = measure_tree(rev_tree, args.seeds)
    new = measure_tree(root, args.seeds)
    lines = verdicts(base, new)
    for line in lines:
        print(f"{line['verdict']:8} {line['line']}: {line['detail']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"against": args.against, "rev": base, "tree": new, "verdicts": lines},
                      fh, indent=1)
    return 1 if any(line["verdict"] == "fail" for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
