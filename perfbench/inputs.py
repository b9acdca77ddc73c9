"""Seeded input files for the benchmark, plus an independent model-file codec.

Everything here is written from the benchmark's own random generator and
numpy alone: the program under test only ever receives the files. The model
format (documented in ``sinr.net``) is re-implemented here, so the ``maps``
model does not come from the code being measured and trained models can be
checked without trusting its reader.
"""

from __future__ import annotations

import math
import struct

import numpy as np

N_SPECIES = 10_000
HIDDEN = 256
BLOCKS = 4
DROPOUT = 0.5
BATCH = 2048

DENSE_RECORDS = 10_240  # every species once plus 240 more: 5 steps of B=2048

SPARSE_ROWS = 400_000
SPARSE_ABUNDANT = 200  # the rest of the catalog has one record each
SPARSE_CAP = 2  # 9,800 singletons + 200 x 2 = 10,200 records: 5 steps
ENV_SHAPE = (360, 720)  # half-degree global grid
ENV_LAYERS = 2

MAP_RESOLUTION = 60  # 120 x 60 = 7,200 cells
EVAL_SPECIES = 500
EVAL_VALID_CELLS = 2_000
EVAL_NO_PRESENCE = 10  # eval species whose valid cells hold no presence
POSITIVE_SHARE = 0.06  # share of the globe where a maps species' logit is > 0

_HEADER = struct.Struct("<4sIIIIIIIdq")
_U64 = 0xFFFFFFFFFFFFFFFF  # seed sequences take non-negative entropy
LAYOUT_CODES = {"coords": 0, "env": 1, "env+coords": 2}


def _species_ids(n: int) -> list[str]:
    return [f"sp{i:05d}" for i in range(n)]


def _csv_text(ids: np.ndarray, lons: np.ndarray, lats: np.ndarray) -> str:
    rows = (f"{s},{lo!r},{la!r}\n" for s, lo, la in zip(ids.tolist(), lons.tolist(), lats.tolist()))
    return "species_id,lon,lat\n" + "".join(rows)


def _clustered_points(rng, species: np.ndarray, n_species: int):
    """Records scattered around one centre per species, inside the globe."""
    c_lon = rng.uniform(-180.0, 180.0, n_species)
    c_lat = rng.uniform(-80.0, 80.0, n_species)
    lons = c_lon[species] + rng.normal(0.0, 8.0, species.size)
    lats = c_lat[species] + rng.normal(0.0, 5.0, species.size)
    lons = (lons + 180.0) % 360.0 - 180.0
    lats = np.clip(lats, -90.0, 90.0)
    return np.round(lons, 5), np.round(lats, 5)


def write_dense_inputs(dirpath, seed: int) -> dict:
    """A coordinate-only corpus covering all S species in one small CSV."""
    rng = np.random.default_rng([seed & _U64, 1])
    species = np.concatenate(
        [np.arange(N_SPECIES), rng.integers(0, N_SPECIES, DENSE_RECORDS - N_SPECIES)]
    )
    rng.shuffle(species)
    lons, lats = _clustered_points(rng, species, N_SPECIES)
    ids = np.asarray(_species_ids(N_SPECIES))
    with open(f"{dirpath}/obs.csv", "w") as fh:
        fh.write(_csv_text(ids[species], lons, lats))
    return {
        "n_species": N_SPECIES,
        "obs_rows": DENSE_RECORDS,
        "records_trained": DENSE_RECORDS,
        "steps": math.ceil(DENSE_RECORDS / BATCH),
        "input_layout": "coords",
    }


def _env_layer(rng, k: int) -> np.ndarray:
    """A smooth field plus noise on the half-degree grid; NaN over 'ocean'."""
    n_rows, n_cols = ENV_SHAPE
    lat = np.linspace(90.0, -90.0, n_rows)[:, None]
    lon = np.linspace(-180.0, 180.0, n_cols)[None, :]
    phase = rng.uniform(0.0, 2 * np.pi, 3)
    if k == 0:  # temperature-like: warm equator, cold poles
        field = 25.0 - 0.4 * np.abs(lat)
    else:  # rainfall-like: longitudinal bands
        field = 800.0 * (1.0 + np.sin(np.radians(lon) * 2 + phase[0]) * np.cos(np.radians(lat)))
    field = field + 3.0 * np.sin(np.radians(lon) * 5 + phase[1]) * np.cos(
        np.radians(lat) * 3 + phase[2])
    values = np.round(field + rng.normal(0.0, 1.0, ENV_SHAPE), 3)
    ocean = np.sin(np.radians(lon) * 3 + phase[0]) * np.cos(np.radians(lat) * 2) > 0.45
    return np.where(ocean, np.nan, values)


def _write_envgrid(path, grid: np.ndarray) -> None:
    n_rows, n_cols = grid.shape
    lines = [f"ENVGRID {n_rows} {n_cols} -180.0 180.0 -90.0 90.0"]
    for row in grid.tolist():
        lines.append(" ".join("NA" if v != v else repr(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sparse_inputs(dirpath, seed: int) -> dict:
    """A large heavy-tailed corpus that ``--cap-per-species`` cuts down, plus
    two environmental layers."""
    rng = np.random.default_rng([seed & _U64, 2])
    n_single = N_SPECIES - SPARSE_ABUNDANT
    weights = 1.0 / np.arange(1, SPARSE_ABUNDANT + 1) ** 0.8
    extra = SPARSE_ROWS - n_single - SPARSE_CAP * SPARSE_ABUNDANT
    abundant = np.concatenate(
        [
            np.repeat(np.arange(SPARSE_ABUNDANT), SPARSE_CAP),
            rng.choice(SPARSE_ABUNDANT, extra, p=weights / weights.sum()),
        ]
    )
    # Abundant species are scattered through the catalog, not its first ids.
    catalog = rng.permutation(N_SPECIES)
    species = np.concatenate([catalog[SPARSE_ABUNDANT:], catalog[abundant]])
    rng.shuffle(species)
    lons, lats = _clustered_points(rng, species, N_SPECIES)
    ids = np.asarray(_species_ids(N_SPECIES))
    with open(f"{dirpath}/obs.csv", "w") as fh:
        fh.write(_csv_text(ids[species], lons, lats))
    rasters = []
    for k in range(ENV_LAYERS):
        path = f"{dirpath}/env{k}.envgrid"
        _write_envgrid(path, _env_layer(rng, k))
        rasters.append(path)
    records = n_single + SPARSE_CAP * SPARSE_ABUNDANT
    return {
        "n_species": N_SPECIES,
        "obs_rows": SPARSE_ROWS,
        "records_trained": records,
        "steps": math.ceil(records / BATCH),
        "input_layout": "env+coords",
        "env_rasters": rasters,
        "env_cells": ENV_LAYERS * ENV_SHAPE[0] * ENV_SHAPE[1],
        "cap_per_species": SPARSE_CAP,
    }


# ---------------------------------------------------------------------------
# Model file codec and float64 reference forward
# ---------------------------------------------------------------------------


def _param_shapes(input_dim: int, hidden: int, blocks: int, n_species: int):
    shapes = [(input_dim, hidden), (hidden,)]
    shapes += [(hidden, hidden), (hidden,), (hidden, hidden), (hidden,)] * blocks
    return shapes + [(hidden, n_species), (n_species,)]


def write_model(path, arrays: list[np.ndarray], layout: str, ids: list[str], seed: int) -> None:
    input_dim, hidden = arrays[0].shape
    n_species = arrays[-1].shape[0]
    blocks = (len(arrays) - 4) // 4
    out = [
        _HEADER.pack(b"SINR", 1, 0, LAYOUT_CODES[layout], input_dim, hidden, blocks,
                     n_species, DROPOUT, seed),
        struct.pack("<I", len(ids)),
    ]
    for sid in ids:
        raw = sid.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw]
    out.append(struct.pack("<Q", sum(a.size for a in arrays)))
    out += [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def read_model(path) -> dict:
    """Parse a version-1 model file with an encoder; raises ValueError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _HEADER.size:
        raise ValueError("model file shorter than its header")
    (magic, version, flags, layout, input_dim, hidden, blocks, n_species,
     _dropout, _seed) = _HEADER.unpack_from(buf)
    if magic != b"SINR" or version != 1 or flags != 0:
        raise ValueError(f"unexpected model header {magic!r} v{version} flags {flags}")
    pos = _HEADER.size
    (n_ids,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    ids = []
    for _ in range(n_ids):
        (n,) = struct.unpack_from("<H", buf, pos)
        ids.append(buf[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
    (total,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    shapes = _param_shapes(input_dim, hidden, blocks, n_species)
    if total != sum(math.prod(s) for s in shapes) or len(buf) != pos + 4 * total:
        raise ValueError("model parameter block does not match its header")
    flat = np.frombuffer(buf, dtype="<f4", offset=pos)
    arrays, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        arrays.append(flat[at : at + n].reshape(shape))
        at += n
    return {"layout": layout, "n_species": n_species, "ids": ids, "arrays": arrays}


def encode(lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    lons = np.where(lons == -180.0, 180.0, lons)
    lo, la = np.pi * lons / 180.0, np.pi * lats / 90.0
    return np.stack([np.sin(lo), np.cos(lo), np.sin(la), np.cos(la)], axis=1)


def features(arrays: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Eval-mode encoder output in float64."""
    a = [np.asarray(w, dtype=np.float64) for w in arrays]
    h = np.maximum(x @ a[0] + a[1], 0.0)
    for i in range(2, len(a) - 2, 4):
        r = np.maximum(h @ a[i] + a[i + 1], 0.0)
        h = h + np.maximum(r @ a[i + 2] + a[i + 3], 0.0)
    return h


def logits(arrays, x: np.ndarray, cols) -> np.ndarray:
    w_head = np.asarray(arrays[-2][:, cols], dtype=np.float64)
    return features(arrays, x) @ w_head + np.asarray(arrays[-1][cols], dtype=np.float64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def cell_centroids(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major from the south-west corner, as in ``sinr.geo.GridSpec``."""
    size = 180.0 / resolution
    rows, cols = np.divmod(np.arange(2 * resolution * resolution), 2 * resolution)
    return -180.0 + (cols + 0.5) * size, -90.0 + (rows + 0.5) * size


# ---------------------------------------------------------------------------
# maps: a presence-only-like model and an evaluation grid
# ---------------------------------------------------------------------------


def _maps_model(rng) -> list[np.ndarray]:
    """Encoder weights drawn like the program's init, with small random biases;
    head columns scaled and biased so each species' logit is positive on about
    POSITIVE_SHARE of the globe and clearly negative elsewhere, as after
    presence-only training."""

    def draw(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    arrays = [draw(4, (4, HIDDEN)), rng.normal(0.0, 0.05, HIDDEN)]
    for _ in range(BLOCKS):
        arrays += [draw(HIDDEN, (HIDDEN, HIDDEN)), rng.normal(0.0, 0.05, HIDDEN),
                   draw(HIDDEN, (HIDDEN, HIDDEN)), rng.normal(0.0, 0.05, HIDDEN)]
    probe_lon = rng.uniform(-180.0, 180.0, 1024)
    probe_lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 1024)))
    h = features(arrays, encode(probe_lon, probe_lat))
    h_c = h - h.mean(axis=0)
    w_head = rng.normal(0.0, 1.0, (HIDDEN, N_SPECIES))
    z = h_c @ w_head
    w_head *= rng.uniform(2.0, 4.0, N_SPECIES) / z.std(axis=0)
    z = h @ w_head
    b_head = -np.quantile(z, 1.0 - POSITIVE_SHARE, axis=0)
    arrays += [w_head, b_head]
    return [a.astype(np.float32) for a in arrays]


def write_maps_inputs(dirpath, seed: int) -> dict:
    rng = np.random.default_rng([seed & _U64, 3])
    arrays = _maps_model(rng)
    ids = _species_ids(N_SPECIES)
    write_model(f"{dirpath}/model.sinr", arrays, "coords", ids, seed % 2**63)

    lons, lats = cell_centroids(MAP_RESOLUTION)
    n_cells = lons.size
    eval_cols = np.sort(rng.choice(N_SPECIES, EVAL_SPECIES, replace=False))
    z = logits(arrays, encode(lons, lats), eval_cols)  # (cells, eval species)
    present = (z + rng.normal(0.0, 1.5, z.shape)) > 0
    lines = [f"EVALGRID {MAP_RESOLUTION} {EVAL_SPECIES}"]
    evaluable, valid = [], set()
    for k, col in enumerate(eval_cols.tolist()):
        cells = np.sort(rng.choice(n_cells, EVAL_VALID_CELLS, replace=False))
        valid.update(cells.tolist())
        labels = present[cells, k].astype(int)
        if k < EVAL_NO_PRESENCE:
            labels[:] = 0
        elif labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        if 0 < labels.sum() < labels.size:
            evaluable.append((ids[col], col, cells.tolist(), labels.tolist()))
        lines += [f"{ids[col]} {c} {y}" for c, y in zip(cells.tolist(), labels.tolist())]
    with open(f"{dirpath}/expert.evalgrid", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    # predict/export-raster target: the evaluable species with the most presences
    target = max(evaluable, key=lambda e: sum(e[3]))
    return {
        "n_species": N_SPECIES,
        "resolution": MAP_RESOLUTION,
        "n_cells": n_cells,
        "eval_species": EVAL_SPECIES,
        "eval_lines": len(lines),
        "valid_cells": len(valid),
        "evaluable_species": len(evaluable),
        "target_species": target[0],
        "target_col": target[1],
        "ap_probes": [list(e) for e in evaluable[:4]],
    }


GENERATORS = {
    "train-dense-s10k": write_dense_inputs,
    "train-sparse-capped-env": write_sparse_inputs,
    "maps": write_maps_inputs,
}
