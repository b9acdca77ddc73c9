"""Command-line interface: train, predict, export rasters, run evaluations.

Exit codes: 0 on success, 1 on runtime failures (bad files, inconsistent
inputs), 2 on usage errors. Every output file is written atomically.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _THREAD_VARS, __version__
from .data import (
    EnvRasterStack,
    ObservationSet,
    assemble_inputs,
    filter_min_count,
    load_env_rasters,
    load_observations,
)
from .evaluate import (
    EvalGrid,
    f1_max_threshold,
    geo_feature_task,
    geo_prior_delta,
    grid_baseline_fit,
    grid_baseline_scores,
    load_classifier_scores,
    load_eval_grid,
    map_task,
)
from .geo import GridSpec, InputLayout, cell_centroids, input_dim
from .losses import LossConfig, LossVariant
from .net import (
    ModelFile,
    NetConfig,
    forward,
    head_columns,
    read_model_file,
    save_model,
)
from .parallel import BLAS_PINNED, worker_count
from .train import TrainConfig, TrainingDivergedError, resume, train
from .util import atomic_write, errors_named, seed_u64

_PREDICT_CHUNK = 65536


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, entries: list[tuple[str, object]]) -> None:
    """Write ``key=value`` lines; keys are unique and values single-line."""
    seen = set()
    with atomic_write(path) as fh:
        for key, value in entries:
            if key in seen:
                raise ValueError(f"duplicate manifest key {key!r}")
            seen.add(key)
            text = str(value)
            if "\n" in text or "=" in key:
                raise ValueError(f"manifest entry {key!r} is not single-line key=value")
            fh.write(f"{key}={text}\n")


def _environment() -> list[tuple[str, str]]:
    """Manifest entries naming the interpreter, numpy, its BLAS, the BLAS
    thread-count variables set for this process, whether BLAS is pinned to
    one thread and the step's workers."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy before 1.26 has no mode="dicts"
        blas = {}
    threads = " ".join(f"{v}:{os.environ[v]}" for v in _THREAD_VARS if v in os.environ)
    return [
        ("python_version", platform.python_version()),
        ("numpy_version", np.__version__),
        ("blas_name", blas.get("name", "unknown")),
        ("blas_version", blas.get("version", "unknown")),
        ("blas_threads", threads or "default"),
        ("blas_pinned", BLAS_PINNED),
        ("workers", worker_count()),
    ]


def _load_env_stack(args) -> EnvRasterStack | None:
    if not args.env_raster:
        return None
    return load_env_rasters(args.env_raster)


def _require_env_for_layout(args, layout: InputLayout, env) -> None:
    if layout is not InputLayout.COORDS and env is None:
        args.parser.error(f"{layout.value!r} inputs require at least one --env-raster")


def _open_model(args) -> tuple[ModelFile, EnvRasterStack | None]:
    model = read_model_file(args.model)
    env = _load_env_stack(args)
    _require_env_for_layout(args, model.input_layout, env)
    return model, env


def _model_fn(model: ModelFile, env: EnvRasterStack | None, columns=None):
    """Chunked eval-mode forward over coordinate arrays: with ``columns=None``
    the features, (n, feature_dim); given a sequence of catalog indices, their
    scores, (n, len(columns)) in that order. Each chunk computes only the head
    columns :func:`head_columns` plans for those (padding alone for features)."""
    cfg = model.cfg
    wanted = np.asarray(() if columns is None else columns, dtype=np.int64)

    def run(lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        outs = []
        for start in range(0, max(lons.size, 1), _PREDICT_CHUNK):  # no rows: one empty chunk
            sl = slice(start, start + _PREDICT_CHUNK)
            x = assemble_inputs(lons[sl], lats[sl], model.input_layout, env)
            cols = head_columns(wanted, len(x), cfg.feature_dim, cfg.n_species)
            feats, y = forward(model.params, cfg, x, mode="eval", columns=cols)
            pick = wanted if cols is None else np.searchsorted(cols, wanted)
            outs.append(feats if columns is None else y[:, pick])
        return outs[0] if len(outs) == 1 else np.concatenate(outs)  # one chunk: no copy

    return run


@dataclass(frozen=True)
class _NamedPredictor:
    species_ids: tuple[str, ...]
    predict: object

    def __call__(self, lons, lats):
        return self.predict(lons, lats)


def _species_scores_on_grid(
    model: ModelFile, env, species_id: str, resolution: int
) -> tuple[GridSpec, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The ``--resolution`` grid, its cell centroids and one species' scores on
    its cells; a grid that int64 cannot index or memory cannot hold is
    reported under the flag."""
    with errors_named(f"--resolution {resolution}"):
        grid = GridSpec(resolution)
        centroids = cell_centroids(grid)  # numpy's ValueError: past the largest array
    if species_id not in model.species_ids:
        raise ValueError(
            f"species {species_id!r} is not in the model catalog "
            f"({len(model.species_ids)} species)"
        )
    column = model.species_ids.index(species_id)
    try:
        return grid, centroids, _model_fn(model, env, [column])(*centroids)[:, 0]
    except MemoryError as exc:
        raise MemoryError(f"--resolution {resolution}: {exc}") from None


def _write_cell_scores(path, centroids: tuple[np.ndarray, np.ndarray], scores: np.ndarray) -> None:
    """``lon,lat,score`` rows in cell order, floats written with ``repr``;
    the bytes of ``csv.writer`` (no field needs quoting). One write per
    ``_PREDICT_CHUNK`` cells, so only that many cells' Python floats and
    text are alive at a time."""
    lons, lats = centroids
    with atomic_write(path, newline="") as fh:
        fh.write("lon,lat,score\r\n")
        for start in range(0, lons.size, _PREDICT_CHUNK):
            sl = slice(start, start + _PREDICT_CHUNK)
            fh.write("".join(map("{!r},{!r},{!r}\r\n".format, lons[sl].tolist(),
                                 lats[sl].tolist(), scores[sl].tolist())))


def _load_obs(path) -> ObservationSet:
    """Load observations, reporting each skipped row on stderr."""
    obs, rejected = load_observations(path)
    for rej in rejected:
        print(f"{path}: line {rej.line}: {rej.reason}", file=sys.stderr)
    if rejected:
        print(f"{path}: skipped {len(rejected)} malformed rows", file=sys.stderr)
    return obs


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------


def _baseline_arg(value: str):
    if value == "lr":
        return ("lr", None)
    if value.startswith("grid:"):
        try:
            res = int(value[len("grid:") :])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid resolution in {value!r}") from None
        if res < 1:
            raise argparse.ArgumentTypeError("grid resolution must be >= 1")
        return ("grid", res)
    raise argparse.ArgumentTypeError(
        f"baseline must be 'lr' or 'grid:RESOLUTION', got {value!r}"
    )


def _threshold_arg(value: str):
    kind, sep, rest = value.partition(":")
    if kind == "fixed" and sep:
        try:
            t = float(rest)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad fixed threshold {rest!r}") from None
        if not (0.0 <= t <= 1.0):
            raise argparse.ArgumentTypeError("fixed threshold must lie in [0, 1]")
        return ("fixed", t)
    if kind == "f1" and sep and rest:
        return ("f1", rest)
    raise argparse.ArgumentTypeError(
        f"threshold must be 'fixed:VALUE' or 'f1:EVALGRID', got {value!r}"
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    start = time.time()
    layout = InputLayout(args.input)
    env = _load_env_stack(args)
    _require_env_for_layout(args, layout, env)

    obs = _load_obs(args.obs)
    rows_loaded = obs.n_records
    if args.min_count is not None:
        obs = filter_min_count(obs, args.min_count)
    if obs.n_records == 0:
        raise ValueError("no observations left after filtering")

    net_cfg = NetConfig(
        input_dim=input_dim(layout, env.n_layers if env is not None else 0),
        n_species=obs.n_species,
        hidden_dim=args.hidden_dim,
        n_residual_layers=args.residual_layers,
        dropout_p=args.dropout,
        seed=args.seed,
        identity_encoder=args.identity_encoder,
    )
    cfg = TrainConfig(
        net=net_cfg,
        loss=LossConfig(variant=LossVariant(args.loss), lam=args.lam),
        epochs=args.epochs,
        batch_size=args.batch_size,
        initial_lr=args.lr,
        master_seed=args.seed,
        input_layout=layout,
        cap_per_species=args.cap_per_species,
    )

    def on_epoch(epoch: int, mean_loss: float, lr: float) -> None:
        print(f"epoch {epoch + 1}/{cfg.epochs} lr={lr:.6g} mean_loss={mean_loss:.6f}")
        sys.stdout.flush()

    if args.checkpoint and os.path.exists(args.checkpoint):
        result = resume(args.checkpoint, obs, env, expect_cfg=cfg, on_epoch=on_epoch)
    else:
        result = train(cfg, obs, env, checkpoint_path=args.checkpoint, on_epoch=on_epoch)
    save_model(
        result.params,
        cfg.net,
        args.out,
        input_layout=layout,
        species_ids=result.species_ids,
    )

    manifest_path = args.manifest or (os.fspath(args.out) + ".manifest")
    entries: list[tuple[str, object]] = [
        ("manifest_version", 1),
        ("tool", f"sinr/{__version__}"),
        ("command", "train"),
        *_environment(),
        ("created_unix", int(start)),
        ("elapsed_seconds", round(time.time() - start, 3)),
        ("master_seed", args.seed),
        ("obs", args.obs),
        ("obs_sha256", _sha256(args.obs)),
        ("obs_rows_used", rows_loaded),
        ("records_trained", result.n_records_used),
        ("n_species", obs.n_species),
    ]
    for i, p in enumerate(args.env_raster or []):
        entries.append((f"env_raster_{i}", p))
        entries.append((f"env_raster_{i}_sha256", _sha256(p)))
    entries += [
        ("cfg_epochs", cfg.epochs),
        ("cfg_batch_size", cfg.batch_size),
        ("cfg_initial_lr", repr(cfg.initial_lr)),
        ("cfg_loss_variant", cfg.loss.variant.value),
        ("cfg_lambda", repr(cfg.loss.lam)),
        ("cfg_input_layout", layout.value),
        ("cfg_hidden_dim", cfg.net.hidden_dim),
        ("cfg_residual_layers", cfg.net.n_residual_layers),
        ("cfg_dropout_p", repr(cfg.net.dropout_p)),
        ("cfg_identity_encoder", int(cfg.net.identity_encoder)),
        ("cfg_min_count", "" if args.min_count is None else args.min_count),
        ("cfg_cap_per_species", "" if args.cap_per_species is None else args.cap_per_species),
        ("model", args.out),
        ("model_sha256", _sha256(args.out)),
    ]
    write_manifest(manifest_path, entries)
    print(f"wrote model to {args.out} ({obs.n_species} species), manifest to {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# predict / export-raster
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    model, env = _open_model(args)
    grid, centroids, scores = _species_scores_on_grid(model, env, args.species, args.resolution)
    _write_cell_scores(args.out, centroids, scores)
    print(f"wrote {grid.n_cells} cell scores for {args.species} to {args.out}")
    return 0


def _scores_to_image(scores: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cell-order scores -> image rows, north at the top."""
    return scores.reshape(grid.n_lat, grid.n_lon)[::-1]


def write_pgm(path, pixels: np.ndarray) -> None:
    """Plain (P2) graymap, maxval 255, one image row per line."""
    pixels = np.asarray(pixels)
    with atomic_write(path) as fh:
        fh.write(f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def cmd_export_raster(args) -> int:
    model, env = _open_model(args)
    grid, centroids, scores = _species_scores_on_grid(model, env, args.species, args.resolution)

    if args.binary_threshold is None:
        # Continuous: probability to gray level, rounding half up.
        pixels = np.floor(255.0 * scores + 0.5).astype(np.int64)
    else:
        kind, value = args.binary_threshold
        if kind == "fixed":
            threshold = float(value)
        else:
            eval_grid = load_eval_grid(value)
            if args.species not in eval_grid.species_ids:
                raise ValueError(
                    f"species {args.species!r} not present in evaluation grid {value}"
                )
            if eval_grid.grid != grid:
                raise ValueError(
                    f"evaluation grid resolution {eval_grid.grid.resolution} does not "
                    f"match --resolution {grid.resolution}"
                )
            row = eval_grid.species_ids.index(args.species)
            labels = eval_grid.labels[row]
            valid = np.flatnonzero(labels != -1)
            if valid.size == 0:
                raise ValueError(f"evaluation grid has no valid cells for {args.species!r}")
            threshold = f1_max_threshold(scores[valid], labels[valid])
            print(f"f1-maximizing threshold: {threshold!r}")
        pixels = np.where(scores >= threshold, 255, 0)

    write_pgm(args.out, _scores_to_image(pixels, grid))
    if args.csv:
        _write_cell_scores(args.csv, centroids, scores)
    print(f"wrote {grid.n_lon}x{grid.n_lat} raster for {args.species} to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def _eval_predictor(args, mode: str, wanted_ids):
    """Resolve --model/--baseline into (predictor, label). The predictor's
    ``species_ids`` are the ``wanted_ids`` it knows, in that order, and it
    scores exactly those."""
    baseline = args.baseline
    if baseline is not None and baseline[0] == "grid":
        if args.obs is None:
            args.parser.error("--baseline grid:RES requires --obs")
        obs = _load_obs(args.obs)
        label = f"grid:{baseline[1]}"
        with errors_named(f"--baseline {label}"):
            model = grid_baseline_fit(obs, GridSpec(baseline[1]))

        def scorer(cols):
            return lambda lons, lats: grid_baseline_scores(model, lons, lats, mode)[:, cols]
    else:
        if args.model is None:
            args.parser.error("need --model (or --baseline grid:RES)")
        model, env = _open_model(args)
        if baseline is not None and not model.cfg.identity_encoder:
            raise ValueError("--baseline lr expects a model trained with --identity-encoder")
        if not model.species_ids:
            raise ValueError("model file carries no species catalog; cannot align species")
        label = "lr" if baseline is not None else "model"

        def scorer(cols):
            return _model_fn(model, env, cols)
    catalog = {s: i for i, s in enumerate(model.species_ids)}
    ids = tuple(s for s in wanted_ids if s in catalog)
    return _NamedPredictor(ids, scorer([catalog[s] for s in ids])), label


def cmd_eval_map(args) -> int:
    eval_grid = load_eval_grid(args.grid)
    predictor, label = _eval_predictor(args, "ratio", eval_grid.species_ids)
    if not predictor.species_ids:
        raise ValueError("no evaluation species is known to the predictor")
    known = set(predictor.species_ids)
    missing = [s for s in eval_grid.species_ids if s not in known]
    restricted = eval_grid.restrict(predictor.species_ids)

    scored = []  # the one (lons, lats, scores) query map_task makes, reused by --dump-cells

    def recorded(lons, lats):
        scored.append((lons, lats, predictor(lons, lats)))
        return scored[-1][2]

    result = map_task(recorded, restricted)

    if args.dump_cells:
        cells = np.flatnonzero((restricted.labels != -1).any(axis=0))
        [(lons, lats, scores)] = scored
        with atomic_write(args.dump_cells, newline="") as fh:
            csv.writer(fh).writerow(["cell", "lon", "lat", *restricted.species_ids])
            # numbers need no quoting: each row is csv.writer's bytes, built
            # one row at a time so only that row's Python floats are alive
            for cell, lon, lat, row in zip(cells.tolist(), lons.tolist(), lats.tolist(), scores):
                fh.write(f"{cell},{lon!r},{lat!r},{','.join(map(repr, row.tolist()))}\r\n")

    with atomic_write(args.report, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["species_id", "ap", "status"])
        for sid, ap in result.per_species:
            writer.writerow([sid, repr(ap), "ok"])
        for sid, reason in result.skipped:
            writer.writerow([sid, "", reason])
        for sid in missing:
            writer.writerow([sid, "", "not in predictor"])
        writer.writerow(["MAP", repr(result.mean_ap), f"n={result.n_evaluated}"])
    print(
        f"MAP ({label}): {result.mean_ap:.6f} over {result.n_evaluated} species "
        f"({len(result.skipped) + len(missing)} skipped)"
    )
    return 0


def cmd_eval_geoprior(args) -> int:
    score_set = load_classifier_scores(args.scores)
    wanted = dict.fromkeys(s for rec in score_set.records for s in rec.candidates)
    predictor, label = _eval_predictor(args, "indicator", wanted)
    result = geo_prior_delta(score_set, predictor)
    with atomic_write(args.report, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "true_species", "baseline_top1", "weighted_top1"])
        for rid, true_sp, base, weighted in result.picks:
            writer.writerow([rid, true_sp, base, weighted])
        writer.writerow(
            [
                "DELTA",
                repr(result.delta_points),
                repr(result.baseline_acc),
                repr(result.weighted_acc),
            ]
        )
    print(
        f"top-1 ({label}): baseline {result.baseline_acc:.4f}, "
        f"weighted {result.weighted_acc:.4f}, delta {result.delta_points:+.2f} points"
    )
    return 0


def cmd_eval_geofeature(args) -> int:
    if args.baseline is not None:
        args.parser.error("geofeature evaluates a model's features; --baseline is not supported")
    if not args.env_raster:
        args.parser.error("geofeature requires --env-raster target layers")
    if args.model is None:
        args.parser.error("geofeature requires --model")
    model, stack = _open_model(args)

    cells = stack.fully_observed_cells()
    if cells.size < 2:
        raise ValueError("raster stack has too few fully observed cells to split")
    rng = np.random.default_rng(seed_u64(args.split_seed))
    perm = rng.permutation(cells.size)
    frac = args.train_frac  # outside (0, 1), nan and inf included, no split is possible
    n_train = int(round(cells.size * frac)) if 0 < frac < 1 else 0
    if n_train < 1 or n_train >= cells.size:
        raise ValueError(
            f"--train-frac {args.train_frac} leaves an empty train or test split"
        )
    train_cells = cells[perm[:n_train]]
    test_cells = cells[perm[n_train:]]

    result = geo_feature_task(
        _model_fn(model, stack), stack, train_cells, test_cells
    )
    with atomic_write(args.report, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "r2", "alpha"])
        for i, (r2, alpha) in enumerate(zip(result.per_layer_r2, result.alphas)):
            writer.writerow([i, repr(float(r2)), repr(float(alpha))])
        writer.writerow(["MEAN", repr(result.mean_r2), ""])
    print(
        f"geo-feature transfer: mean R^2 {result.mean_r2:.6f} over "
        f"{stack.n_layers} layers ({train_cells.size} train / {test_cells.size} test cells)"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinr", description="Species range models from presence-only data"
    )
    parser.add_argument("--version", action="version", version=f"sinr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a range model")
    p_train.add_argument("--obs", required=True, help="observations CSV")
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.add_argument(
        "--loss",
        default=LossVariant.AN_FULL.value,
        choices=[v.value for v in LossVariant],
    )
    p_train.add_argument("--lambda", dest="lam", type=float, default=2048.0,
                         help="positive-term weight for the full losses")
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-size", type=int, default=2048)
    p_train.add_argument("--lr", type=float, default=5e-4, help="initial learning rate")
    p_train.add_argument("--min-count", type=int, default=None,
                         help="drop species with fewer records than this")
    p_train.add_argument("--cap-per-species", type=int, default=None,
                         help="subsample each species to at most this many records")
    p_train.add_argument("--input", default=InputLayout.COORDS.value,
                         choices=[v.value for v in InputLayout])
    p_train.add_argument("--env-raster", action="append", default=[],
                         help="environmental raster file (repeatable)")
    p_train.add_argument("--seed", type=int, default=0, help="master random seed")
    p_train.add_argument("--hidden-dim", type=int, default=256)
    p_train.add_argument("--residual-layers", type=int, default=4)
    p_train.add_argument("--dropout", type=float, default=0.5)
    p_train.add_argument("--identity-encoder", action="store_true",
                         help="skip the encoder (per-species logistic regression)")
    p_train.add_argument("--checkpoint", default=None,
                         help="write a resumable checkpoint here after every epoch")
    p_train.add_argument("--manifest", default=None,
                         help="manifest path (default: OUT.manifest)")
    p_train.set_defaults(func=cmd_train, parser=p_train)

    p_pred = sub.add_parser("predict", help="score every cell of a global grid")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--species", required=True)
    p_pred.add_argument("--resolution", type=int, required=True)
    p_pred.add_argument("--out", required=True, help="output CSV (lon,lat,score)")
    p_pred.add_argument("--env-raster", action="append", default=[])
    p_pred.set_defaults(func=cmd_predict, parser=p_pred)

    p_rast = sub.add_parser("export-raster", help="render a range map as a PGM image")
    p_rast.add_argument("--model", required=True)
    p_rast.add_argument("--species", required=True)
    p_rast.add_argument("--resolution", type=int, required=True)
    p_rast.add_argument("--out", required=True, help="output PGM file")
    p_rast.add_argument("--csv", default=None, help="also write cell scores as CSV")
    p_rast.add_argument("--binary-threshold", type=_threshold_arg, default=None,
                        help="'fixed:VALUE' or 'f1:EVALGRID' for a binary map")
    p_rast.add_argument("--env-raster", action="append", default=[])
    p_rast.set_defaults(func=cmd_export_raster, parser=p_rast)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True)

    def add_common(p):
        p.add_argument("--model", default=None)
        p.add_argument("--baseline", type=_baseline_arg, default=None,
                       help="'lr' (identity-encoder model) or 'grid:RESOLUTION'")
        p.add_argument("--obs", default=None, help="observations CSV (grid baseline)")
        p.add_argument("--env-raster", action="append", default=[])
        p.add_argument("--report", required=True, help="output report CSV")

    p_map = eval_sub.add_parser("map", help="mean average precision of range maps")
    add_common(p_map)
    p_map.add_argument("--grid", required=True, help="evaluation grid file")
    p_map.add_argument("--dump-cells", default=None,
                       help="also write per-cell scores for every species")
    p_map.set_defaults(func=cmd_eval_map, parser=p_map)

    p_gp = eval_sub.add_parser("geoprior", help="prior-weighted classification delta")
    add_common(p_gp)
    p_gp.add_argument("--scores", required=True, help="classifier scores CSV")
    p_gp.set_defaults(func=cmd_eval_geoprior, parser=p_gp)

    p_gf = eval_sub.add_parser("geofeature", help="environmental-feature transfer")
    add_common(p_gf)
    p_gf.add_argument("--split-seed", type=int, default=0)
    p_gf.add_argument("--train-frac", type=float, default=0.5)
    p_gf.set_defaults(func=cmd_eval_geofeature, parser=p_gf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
