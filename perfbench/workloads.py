"""The benchmark's workloads: the commands each one runs and the loaders that
make up its set-up. Shared by the driver (``run.py``) and the measured
process (``child.py``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from inputs import BATCH, BLOCKS, DROPOUT, HIDDEN


def _train_argv(work: str, out: str, seed: int, extra: list[str]) -> list[str]:
    return [
        "train", "--obs", f"{work}/obs.csv", "--out", f"{out}/model.sinr",
        "--epochs", "1", "--batch-size", str(BATCH), "--hidden-dim", str(HIDDEN),
        "--residual-layers", str(BLOCKS), "--dropout", str(DROPOUT), "--seed", str(seed),
        *extra,
    ]


def _dense_commands(work, out, facts, seed):
    return [("train", _train_argv(work, out, seed, ["--loss", "an-full"]))]


def _sparse_commands(work, out, facts, seed):
    extra = ["--loss", "an-ssdl", "--input", "env+coords"]
    for path in facts["env_rasters"]:
        extra += ["--env-raster", path]
    extra += ["--cap-per-species", str(facts["cap_per_species"]),
              "--checkpoint", f"{out}/checkpoint.bin"]
    return [("train", _train_argv(work, out, seed, extra))]


def _maps_commands(work, out, facts, seed):
    model, grid = f"{work}/model.sinr", f"{work}/expert.evalgrid"
    common = ["--model", model, "--species", facts["target_species"],
              "--resolution", str(facts["resolution"])]
    return [
        ("predict", ["predict", *common, "--out", f"{out}/predict.csv"]),
        ("export-raster", ["export-raster", *common, "--out", f"{out}/map.pgm",
                           "--binary-threshold", f"f1:{grid}", "--csv", f"{out}/export.csv"]),
        ("eval-map", ["eval", "map", "--model", model, "--grid", grid,
                      "--report", f"{out}/report.csv"]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: (work dir, output dir, generator facts, seed) -> [(label, argv)]
    commands: Callable[[str, str, dict, int], list[tuple[str, list[str]]]]
    #: (work dir, facts) -> [(loader name in sinr.cli, argument)]
    setup: Callable[[str, dict], list[tuple[str, object]]]
    #: the command whose loader calls form one set-up sample
    setup_command: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-dense-s10k",
            _dense_commands,
            lambda work, facts: [("load_observations", f"{work}/obs.csv")],
            "train",
        ),
        Workload(
            "train-sparse-capped-env",
            _sparse_commands,
            lambda work, facts: [
                ("load_observations", f"{work}/obs.csv"),
                ("load_env_rasters", list(facts["env_rasters"])),
            ],
            "train",
        ),
        Workload(
            "maps",
            _maps_commands,
            lambda work, facts: [
                ("read_model_file", f"{work}/model.sinr"),
                ("load_eval_grid", f"{work}/expert.evalgrid"),
            ],
            "eval-map",
        ),
    )
}
