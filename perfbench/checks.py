"""Correctness checks on the files each command wrote.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. The references come from ``inputs`` (the benchmark's own
model reader and float64 forward), never from the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re

import numpy as np

import inputs

SCORE_TOL = 1e-5  # float32 network vs float64 reference; leaves room for 1e-7 reorderings
AP_TOL = 1e-3  # a float32 near-tie may swap two ranks


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_train(out: str, stdout: str, facts: dict, with_checkpoint: bool) -> str | None:
    try:
        model = inputs.read_model(f"{out}/model.sinr")
    except (OSError, ValueError) as exc:
        return f"model does not read back: {exc}"
    if model["n_species"] != facts["n_species"] or len(model["ids"]) != facts["n_species"]:
        return f"model has {model['n_species']} species, expected {facts['n_species']}"
    if model["layout"] != inputs.LAYOUT_CODES[facts["input_layout"]]:
        return f"model input layout code {model['layout']} does not match"
    if not all(np.isfinite(a).all() for a in model["arrays"]):
        return "model holds non-finite parameters"
    losses = re.findall(r"mean_loss=(\S+)", stdout)
    if len(losses) != 1 or not math.isfinite(float(losses[0])):
        return f"expected one finite epoch loss, got {losses}"
    if with_checkpoint and not os.path.getsize(f"{out}/checkpoint.bin"):
        return "checkpoint is empty"
    return None


def _read_cells_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["lon", "lat", "score"]]:
        raise ValueError(f"unexpected header {rows[:1]}")
    return np.asarray([[float(v) for v in r] for r in rows[1:]], dtype=np.float64)


def maps_reference(work: str, facts: dict) -> dict:
    """Target-species scores on every cell, from the generated model file."""
    model = inputs.read_model(f"{work}/model.sinr")
    lons, lats = inputs.cell_centroids(facts["resolution"])
    z = inputs.logits(model["arrays"], inputs.encode(lons, lats), [facts["target_col"]])
    return {"arrays": model["arrays"], "lons": lons, "lats": lats,
            "scores": inputs.sigmoid(z[:, 0])}


def check_cells_csv(path: str, ref: dict) -> str | None:
    try:
        cells = _read_cells_csv(path)
    except (OSError, ValueError) as exc:
        return f"{path}: {exc}"
    if cells.shape != (ref["lons"].size, 3):
        return f"{path}: {cells.shape[0]} rows, expected {ref['lons'].size}"
    if not (np.allclose(cells[:, 0], ref["lons"], rtol=0, atol=1e-9)
            and np.allclose(cells[:, 1], ref["lats"], rtol=0, atol=1e-9)):
        return f"{path}: cell centroids are wrong"
    err = float(np.max(np.abs(cells[:, 2] - ref["scores"])))
    if not err <= SCORE_TOL:
        return f"{path}: scores differ from the reference forward by {err:.3g}"
    return None


def check_export(out: str, stdout: str, ref: dict, resolution: int) -> str | None:
    problem = check_cells_csv(f"{out}/export.csv", ref)
    if problem:
        return problem
    predicted = f"{out}/predict.csv"
    if os.path.exists(predicted) and not np.array_equal(
        _read_cells_csv(predicted), _read_cells_csv(f"{out}/export.csv")
    ):
        return "export-raster --csv differs from predict"
    try:
        with open(f"{out}/map.pgm") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        return f"no raster: {exc}"
    if tokens[:4] != ["P2", str(2 * resolution), str(resolution), "255"]:
        return f"raster header {tokens[:4]} is not a {2 * resolution}x{resolution} P2 map"
    pixels = np.asarray(tokens[4:], dtype=np.int64)
    if pixels.size != 2 * resolution * resolution or not np.isin(pixels, (0, 255)).all():
        return "raster pixels are not a full grid of 0/255"
    found = re.findall(r"threshold: (\S+)", stdout)
    if len(found) != 1:
        return "no f1-maximizing threshold reported"
    scores = _read_cells_csv(f"{out}/export.csv")[:, 2]
    expect = np.where(scores >= float(found[0]), 255, 0).reshape(resolution, 2 * resolution)[::-1]
    if not np.array_equal(pixels.reshape(resolution, 2 * resolution), expect):
        return "raster pixels do not match the reported threshold"
    return None


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order] == 1
    precision = np.cumsum(ranked) / np.arange(1, ranked.size + 1)
    return float(precision[ranked].sum() / ranked.sum())


def check_eval_map(out: str, facts: dict, ref: dict) -> str | None:
    try:
        with open(f"{out}/report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"no report: {exc}"
    ok = {r[0]: float(r[1]) for r in rows[1:] if len(r) == 3 and r[2] == "ok"}
    if len(ok) != facts["evaluable_species"]:
        return f"{len(ok)} species evaluated, expected {facts['evaluable_species']}"
    if rows[-1][:1] != ["MAP"] or rows[-1][2] != f"n={facts['evaluable_species']}":
        return f"bad MAP row {rows[-1]}"
    lons, lats = ref["lons"], ref["lats"]
    for sid, col, cells, labels in facts["ap_probes"]:
        cells = np.asarray(cells)
        z = inputs.logits(ref["arrays"], inputs.encode(lons[cells], lats[cells]), [col])
        expect = average_precision(inputs.sigmoid(z[:, 0]), np.asarray(labels))
        if not abs(ok.get(sid, math.nan) - expect) <= AP_TOL:
            return f"AP of {sid} is {ok.get(sid)}, reference {expect:.6f}"
    return None
