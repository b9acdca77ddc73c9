"""End-to-end command-line workflows: training, prediction, raster export,
evaluation reports, and exit-code conventions."""

import csv
import dataclasses
import importlib
import io
import itertools
import os
import platform
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

import sinr
from helpers import (
    hand_off_to_a_pool_thread,
    model_from_bytes,
    read_manifest,
    reference_model_bytes,
)
from sinr.cli import _write_cell_scores, build_parser, main, write_manifest, write_pgm
from sinr.data import (
    ObservationSet,
    assemble_inputs,
    load_env_rasters,
    load_observations,
    save_observations,
    write_env_raster,
)
from sinr.evaluate import (
    EvalGrid,
    geo_prior_delta,
    load_classifier_scores,
    map_task,
    save_eval_grid,
)
from sinr.geo import GridSpec, InputLayout, cell_centroids, cell_indices, input_dim
from sinr.losses import LossConfig, LossVariant
from sinr.net import (
    NetConfig,
    NetParams,
    forward,
    gemm_blocks,
    init_params,
    read_model_file,
    save_model,
    zeros_like_params,
)
from sinr.parallel import row_chunks
from sinr.train import TrainConfig, train


def make_obs_csv(path, n=80, seed=0):
    rng = np.random.default_rng(seed)
    obs = ObservationSet(
        ("north", "south"),
        (rng.random(n) < 0.5).astype(np.int64),
        rng.uniform(-170, 170, n),
        np.zeros(n),
    )
    lats = np.where(obs.species_index == 0, rng.uniform(20, 70, n), rng.uniform(-70, -20, n))
    obs = ObservationSet(obs.species_ids, obs.species_index, obs.lons, lats)
    save_observations(obs, path)
    return obs


def flat_model(path, species=("north", "south"), layout=InputLayout.COORDS,
               identity=False, input_dim=4):
    """A model whose every parameter is zero: it predicts 0.5 everywhere."""
    cfg = NetConfig(input_dim=input_dim, n_species=len(species), hidden_dim=4,
                    n_residual_layers=1, dropout_p=0.0, seed=0,
                    identity_encoder=identity)
    params = zeros_like_params(init_params(cfg))
    save_model(params, cfg, path, input_layout=layout, species_ids=species)
    return cfg


TRAIN_ARGS = [
    "--loss", "an-full", "--lambda", "8", "--epochs", "2", "--batch-size", "32",
    "--lr", "1e-3", "--hidden-dim", "8", "--residual-layers", "1",
    "--dropout", "0.5", "--seed", "3",
]


def run_train(tmp_path, obs_path, model_path, *extra):
    return main(["train", "--obs", str(obs_path), "--out", str(model_path),
                 *TRAIN_ARGS, *extra])


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_missing_required_argument_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "m.sinr")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_env_layout_without_raster_exits_2(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    make_obs_csv(obs)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--obs", str(obs), "--out", str(tmp_path / "m.sinr"),
              "--input", "env"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_baseline_argument_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "map", "--grid", str(tmp_path / "g"), "--report",
              str(tmp_path / "r"), "--baseline", "nearest"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "baseline" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_obs_file_exits_1(tmp_path, capsys):
    code = main(["train", "--obs", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "m.sinr")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "0"), ("--batch-size", "0"), ("--hidden-dim", "0"), ("--min-count", "0"),
    ("--cap-per-species", "-3"), ("--residual-layers", "-1"), ("--lr", "-1"),
    ("--lambda", "nan"), ("--dropout", "1"), ("--seed", "9223372036854775808"),
])
def test_out_of_range_train_flags_exit_2_before_any_file_is_read(tmp_path, capsys, flag, value):
    """An out-of-range value is a usage error naming the flag, caught by the
    parser: the missing observations file is never opened."""
    out = tmp_path / "m.sinr"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--obs", str(tmp_path / "absent.csv"), "--out", str(out), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and f"got {value}" in err, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--manifest", "--checkpoint"])
def test_empty_train_output_path_exits_2(tmp_path, capsys, flag):
    obs = tmp_path / "obs.csv"
    make_obs_csv(obs)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--obs", str(obs), "--out", str(tmp_path / "m.sinr"), flag, "",
              *TRAIN_ARGS])
    assert exc.value.code == 2
    assert f"argument {flag}: must name a file, got \n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["obs.csv"]


@pytest.mark.parametrize("flag, value, message", [
    ("--out", "nodir/m.sinr", "directory {}/nodir is missing or not writable"),
    ("--manifest", "nodir/m.manifest", "directory {}/nodir is missing or not writable"),
    ("--checkpoint", "nodir/c.ckpt", "directory {}/nodir is missing or not writable"),
    ("--out", "obs.csv/m.sinr", "directory {}/obs.csv is missing or not writable"),
    ("--out", "dir", "is a directory"),
    ("--checkpoint", "dir", "is a directory"),
])
def test_unwritable_train_output_exits_1_before_any_compute(tmp_path, capsys, monkeypatch,
                                                            flag, value, message):
    """An output path the run could not write fails before the observations
    are read: no forward pass runs and no file is left behind."""
    obs = tmp_path / "obs.csv"
    make_obs_csv(obs)
    (tmp_path / "dir").mkdir()
    calls = []
    monkeypatch.setattr("sinr.train.forward", lambda *a, **k: calls.append(a))
    args = {"--out": str(tmp_path / "m.sinr"), flag: str(tmp_path / value)}
    assert main(["train", "--obs", str(obs), *itertools.chain(*args.items()), *TRAIN_ARGS]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} {tmp_path / value}: {message.format(tmp_path)}\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "obs.csv"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_train_flags_take_their_edge_values():
    args = build_parser().parse_args([
        "train", "--obs", "o.csv", "--out", "m.sinr", "--epochs", "1", "--residual-layers", "0",
        "--dropout", "0", "--lr", "5e-324", "--seed", str(-(2**63)), "--cap-per-species", "1"])
    assert (args.epochs, args.residual_layers, args.dropout) == (1, 0, 0.0)
    assert (args.lr, args.seed, args.cap_per_species) == (5e-324, -(2**63), 1)
    assert build_parser().parse_args(["train", "--obs", "o", "--out", "m", "--seed",
                                      str(2**63 - 1)]).seed == 2**63 - 1


@pytest.mark.parametrize("args, flag, value", [
    (["predict", "--species", "a", "--resolution", "0"], "--resolution", "0"),
    (["predict", "--species", "a", "--resolution", "-2"], "--resolution", "-2"),
    (["export-raster", "--species", "a", "--resolution", "0"], "--resolution", "0"),
    (["export-raster", "--species", "a", "--resolution", "-2"], "--resolution", "-2"),
    (["eval", "geofeature", "--env-raster", "t.env", "--report", "r.csv",
      "--split-seed", str(2**64)], "--split-seed", str(2**64)),
])
def test_out_of_range_grid_and_split_flags_exit_2_before_any_file_is_read(
        tmp_path, capsys, args, flag, value):
    """``--resolution`` below 1 and a ``--split-seed`` past 64 bits are usage
    errors caught by the parser: the missing model is never opened and no
    file is written."""
    model, out = tmp_path / "absent.sinr", tmp_path / "out"
    if args[0] != "eval":
        args = [*args, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--model", str(model)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and f"got {value}" in err, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_species_exits_1(tmp_path, capsys):
    model = tmp_path / "m.sinr"
    flat_model(model)
    code = main(["predict", "--model", str(model), "--species", "ghost",
                 "--resolution", "2", "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def _huge_grid_args(tmp_path, command: str, resolution: str) -> tuple[list[str], str]:
    """Arguments of ``eval map`` over a one-species EVALGRID, or of
    ``predict``, at ``resolution``, and the ``error:`` prefix naming the
    file and header or the flag."""
    model, out = tmp_path / "flat.sinr", tmp_path / "out"
    flat_model(model, species=("a", "b"))
    if command == "eval-map":
        grid = tmp_path / "huge.evalgrid"
        grid.write_text(f"EVALGRID {resolution} 1\na 0 1\n")
        return (["eval", "map", "--model", str(model), "--grid", str(grid), "--report", str(out)],
                f"error: {grid}: ")
    return (["predict", "--model", str(model), "--species", "a", "--resolution", resolution,
             "--out", str(out)], f"error: --resolution {resolution}: ")


@pytest.mark.parametrize("command", ["eval-map", "predict"])
def test_unallocatable_grid_exits_1(tmp_path, capsys, command):
    """A grid of 2e16 cells (resolution 1e8) cannot be allocated: one
    ``error:`` line naming the file and header or the flag, and the
    allocation, no traceback."""
    args, named = _huge_grid_args(tmp_path, command, "100000000")
    if command == "eval-map":
        named += "header 'EVALGRID 100000000 1': "
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(named + "Unable to allocate ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("resolution", ["2147483647", "2147483648", "3037000500"])
@pytest.mark.parametrize("command", ["eval-map", "predict"])
def test_grid_past_int64_exits_1(tmp_path, command, resolution):
    """2*R^2 cells past the int64 maximum (R >= 2**31), or more cells than a
    numpy array or malloc takes (R = 2**31 - 1): exit 1 with one ``error:``
    line naming the file or the flag, and no traceback. In a subprocess, so
    that a command looping over the cells fails on the timeout instead of
    hanging."""
    args, named = _huge_grid_args(tmp_path, command, resolution)
    proc = _run_python(_CLI, *args, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(named) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    if int(resolution) > 2147483647:
        assert "the largest resolution is 2147483647" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sinr" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Manifest round-trip
# ---------------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "run.manifest"
    write_manifest(path, [("a", 1), ("b", "x y"), ("c", 2.5)])
    assert read_manifest(path) == {"a": "1", "b": "x y", "c": "2.5"}


def test_manifest_rejects_duplicates_and_newlines(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        write_manifest(tmp_path / "m", [("a", 1), ("a", 2)])
    with pytest.raises(ValueError, match="single-line"):
        write_manifest(tmp_path / "m", [("a", "two\nlines")])
    bad = tmp_path / "bad.manifest"
    bad.write_text("noequalsign\n")
    with pytest.raises(ValueError, match="malformed"):
        read_manifest(bad)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_model_and_manifest(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    model_path = tmp_path / "m.sinr"
    assert run_train(tmp_path, obs_path, model_path) == 0
    out = capsys.readouterr().out
    assert "epoch 1/2" in out and "epoch 2/2" in out

    model = read_model_file(model_path)
    assert model.species_ids == ("north", "south")
    assert model.cfg.hidden_dim == 8

    manifest = read_manifest(str(model_path) + ".manifest")
    assert manifest["command"] == "train"
    assert manifest["master_seed"] == "3"
    assert manifest["n_species"] == "2"
    assert manifest["records_trained"] == "80"
    assert manifest["cfg_loss_variant"] == "an-full"
    assert float(manifest["peak_rss_mib"]) > 0 and "." in manifest["peak_rss_mib"]
    import hashlib

    assert manifest["model_sha256"] == hashlib.sha256(model_path.read_bytes()).hexdigest()
    assert manifest["obs_sha256"] == hashlib.sha256(obs_path.read_bytes()).hexdigest()


def test_train_manifest_records_the_environment(tmp_path, capsys, monkeypatch):
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("SINR_THREADS", raising=False)
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    model_path = tmp_path / "m.sinr"
    assert run_train(tmp_path, obs_path, model_path) == 0
    manifest = read_manifest(str(model_path) + ".manifest")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert (manifest["blas_name"], manifest["blas_version"]) == (blas["name"], blas["version"])
    assert manifest["blas_threads"] == "OPENBLAS_NUM_THREADS:1"
    assert manifest["workers"] == str(len(os.sched_getaffinity(0)))
    monkeypatch.setenv("SINR_THREADS", "3")
    assert run_train(tmp_path, obs_path, model_path) == 0
    assert read_manifest(str(model_path) + ".manifest")["workers"] == "3"


def test_train_manifest_records_whether_blas_is_pinned(tmp_path, capsys, monkeypatch):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    model_path = tmp_path / "m.sinr"
    assert run_train(tmp_path, obs_path, model_path) == 0
    assert read_manifest(str(model_path) + ".manifest")["blas_pinned"] == "1"
    monkeypatch.setattr("sinr.cli.BLAS_PINNED", "no: AttributeError: undefined symbol")
    assert run_train(tmp_path, obs_path, model_path) == 0
    manifest = read_manifest(str(model_path) + ".manifest")
    assert manifest["blas_pinned"] == "no: AttributeError: undefined symbol"


def test_train_is_reproducible_across_invocations(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    a, b = tmp_path / "a.sinr", tmp_path / "b.sinr"
    assert run_train(tmp_path, obs_path, a) == 0
    assert run_train(tmp_path, obs_path, b) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_train_min_count_filters_catalog(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    rng = np.random.default_rng(5)
    obs = ObservationSet(
        ("common", "rare"),
        np.array([0] * 30 + [1] * 2, dtype=np.int64),
        rng.uniform(-170, 170, 32),
        rng.uniform(-80, 80, 32),
    )
    save_observations(obs, obs_path)
    model_path = tmp_path / "m.sinr"
    code = main(["train", "--obs", str(obs_path), "--out", str(model_path),
                 "--epochs", "1", "--batch-size", "16", "--hidden-dim", "4",
                 "--residual-layers", "0", "--min-count", "10", "--seed", "1"])
    assert code == 0
    capsys.readouterr()
    assert read_model_file(model_path).species_ids == ("common",)


def test_train_reports_rejected_rows(tmp_path, capsys):
    """A skipped row is named by the file line it starts on, which a quoted
    line break in an earlier row moves down by one."""
    obs_path = tmp_path / "obs.csv"
    model_path = tmp_path / "m.sinr"
    for first_row, line in (("good,10.0,20.0\n", 3), ('"go\nod",10.0,20.0\n', 4)):
        obs_path.write_text("species_id,lon,lat\n" + first_row +
                            "bad,999.0,20.0\n"
                            "good,-10.0,-20.0\n")
        code = main(["train", "--obs", str(obs_path), "--out", str(model_path),
                     "--epochs", "1", "--batch-size", "2", "--hidden-dim", "4",
                     "--residual-layers", "0", "--seed", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{obs_path}: line {line}: coordinate out of range",
                                    f"{obs_path}: skipped 1 malformed rows"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is reported without numpy warnings
def test_diverging_train_exits_1(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    code = main(["train", "--obs", str(obs_path), "--out", str(tmp_path / "m.sinr"),
                 *TRAIN_ARGS, "--lr", "1e38"])
    assert code == 1
    assert "error: non-finite loss" in capsys.readouterr().err
    assert not (tmp_path / "m.sinr").exists()


def write_2000_species_csv(path, n=6000):
    """``n`` records over 2,000 species: record i has species i % 2,000 and
    coordinates drawn from ``default_rng(11)``."""
    rng = np.random.default_rng(11)
    obs = ObservationSet(tuple(f"sp{i:04d}" for i in range(2000)), np.arange(n) % 2000,
                         rng.uniform(-170, 170, n), rng.uniform(-80, 80, n))
    save_observations(obs, path)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a worker's numpy warning would raise
def test_diverging_train_on_two_workers_exits_1(tmp_path, capsys, monkeypatch):
    """Each loss chunk runs in the step's np.errstate, also on a pool thread,
    where np.errstate would otherwise be the default; a 512 x 2,000 batch
    spans 8 chunks, and the first chunk waits until a pool thread took one."""
    monkeypatch.setenv("SINR_THREADS", "2")
    assert len(row_chunks(512, 2000)) == 8
    obs_path = tmp_path / "obs.csv"
    write_2000_species_csv(obs_path, n=2000)
    losses_module = importlib.import_module("sinr.losses")
    errstates = []

    def loss_rows(*args, _real=losses_module._loss_rows):
        errstates.append(np.geterr())
        return _real(*args)

    monkeypatch.setattr(losses_module, "_loss_rows", loss_rows)
    helper_ran = hand_off_to_a_pool_thread(monkeypatch, "sinr.losses", "_loss_rows")
    code = main(["train", "--obs", str(obs_path), "--out", str(tmp_path / "m.sinr"),
                 *TRAIN_ARGS, "--batch-size", "512", "--lr", "1e38"])
    assert code == 1
    assert "error: non-finite loss" in capsys.readouterr().err
    assert helper_ran.is_set()
    assert all(e["over"] == e["invalid"] == "ignore" for e in errstates), errstates
    assert not (tmp_path / "m.sinr").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_last_update_exits_1(tmp_path, capsys):
    # One epoch of one step: no later step's loss check sees the overflowed
    # parameters, so the update itself must be checked.
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    code = main(["train", "--obs", str(obs_path), "--out", str(tmp_path / "m.sinr"),
                 *TRAIN_ARGS, "--epochs", "1", "--batch-size", "128", "--lr", "1e39",
                 "--checkpoint", str(tmp_path / "m.ckpt")])
    assert code == 1
    assert "error: non-finite parameters" in capsys.readouterr().err
    assert not (tmp_path / "m.sinr").exists()
    assert not (tmp_path / "m.ckpt").exists()


def test_overlong_species_id_fails_before_training(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("species_id,lon,lat\n" + "x" * 65536 + ",10.0,20.0\nok,1.0,2.0\n")
    code = run_train(tmp_path, obs_path, tmp_path / "m.sinr")
    assert code == 1
    out, err = capsys.readouterr()
    assert "65535 UTF-8 bytes" in err and "epoch" not in out


def test_train_matches_the_library_run_of_its_config(tmp_path, capsys):
    """``sinr train`` passes ``--seed`` as every seed, the per-species cap's
    included: its model has the bytes of ``train`` with this TrainConfig."""
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    env_path = tmp_path / "t.env"
    write_env_raster(env_path, np.add.outer(np.linspace(-1, 1, 8), np.linspace(0, 3, 16)),
                     (-180, 180, -90, 90))
    cli_model = tmp_path / "cli.sinr"
    assert run_train(tmp_path, obs_path, cli_model, "--env-raster", str(env_path),
                     "--input", "env+coords", "--cap-per-species", "2", "--seed", "5") == 0
    capsys.readouterr()

    layout = InputLayout.ENV_PLUS_COORDS
    cfg = TrainConfig(
        net=NetConfig(input_dim=input_dim(layout, 1), n_species=2, hidden_dim=8,
                      n_residual_layers=1, dropout_p=0.5, seed=5),
        loss=LossConfig(LossVariant.AN_FULL, lam=8.0),
        epochs=2,
        batch_size=32,
        initial_lr=1e-3,
        master_seed=5,
        input_layout=layout,
        cap_per_species=2,
    )
    result = train(cfg, load_observations(obs_path)[0], load_env_rasters([env_path]))
    assert result.n_records_used == 4
    lib_model = tmp_path / "lib.sinr"
    save_model(result.params, cfg.net, lib_model, input_layout=layout,
               species_ids=result.species_ids)
    assert cli_model.read_bytes() == lib_model.read_bytes()


def test_records_outside_the_raster_fail_before_the_first_step(tmp_path, capsys):
    """A record outside the ENVGRID extent stops ``train`` (and the resume of
    a checkpoint) before any step, whichever batches the seed would draw: no
    epoch line, no checkpoint, exit 1 and a message with the first such
    record, the count and the extent. Without it, or once ``--min-count``
    drops it, the corpus trains."""
    rng = np.random.default_rng(0)
    n = 6000
    inside = ObservationSet(("a", "b"), (np.arange(n) % 2).astype(np.int64),
                            rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
    outside = ObservationSet(inside.species_ids, np.r_[inside.species_index, 1],
                             np.r_[inside.lons, 50.0], np.r_[inside.lats, 5.0])
    rare = ObservationSet(("a", "b", "c"), np.r_[inside.species_index, 2],
                          np.r_[inside.lons, 50.0], np.r_[inside.lats, 5.0])
    env_path = tmp_path / "t.env"
    write_env_raster(env_path, np.add.outer(np.linspace(-1, 1, 4), np.linspace(0, 3, 4)),
                     (-10, 10, -10, 10))
    message = ("error: training records outside the raster extent "
               "[-10.0, 10.0] x [-10.0, 10.0]: 1, the first at (50.0, 5.0)\n")
    for name, corpus in (("inside", inside), ("outside", outside), ("rare", rare)):
        save_observations(corpus, tmp_path / f"{name}.csv")

    def run(name: str, ckpt, seed: int, *extra: str) -> int:
        return run_train(tmp_path, tmp_path / f"{name}.csv", tmp_path / "m.sinr",
                         "--env-raster", str(env_path), "--input", "env", "--batch-size", "600",
                         "--checkpoint", str(ckpt), "--seed", str(seed), *extra)

    for seed in (0, 1, 2):
        ckpt = tmp_path / f"out{seed}.ckpt"
        assert run("outside", ckpt, seed) == 1
        out, err = capsys.readouterr()
        assert "epoch" not in out and err == message
        assert not ckpt.exists() and not (tmp_path / "m.sinr").exists()

    ckpt = tmp_path / "in.ckpt"
    assert run("inside", ckpt, 1) == 0
    assert "epoch 2/2" in capsys.readouterr().out and ckpt.exists()
    assert run("outside", ckpt, 1) == 1  # the checkpoint exists: a resume
    assert capsys.readouterr().err == message
    # the check reads the records the run trains on: --min-count 2 drops "c"
    assert run("rare", tmp_path / "rare.ckpt", 1, "--min-count", "2") == 0
    capsys.readouterr()


class _Interrupted(Exception):
    pass


def test_train_resumes_from_checkpoint(tmp_path, capsys, monkeypatch):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    straight = tmp_path / "straight.sinr"
    assert run_train(tmp_path, obs_path, straight) == 0

    train_module = importlib.import_module("sinr.train")
    real_save = train_module.save_checkpoint

    def save_then_stop(path, state):
        real_save(path, state)
        raise _Interrupted

    ckpt = tmp_path / "run.ckpt"
    resumed = tmp_path / "resumed.sinr"
    monkeypatch.setattr(train_module, "save_checkpoint", save_then_stop)
    with pytest.raises(_Interrupted):
        run_train(tmp_path, obs_path, resumed, "--checkpoint", str(ckpt))
    monkeypatch.undo()
    assert ckpt.exists() and not resumed.exists()
    capsys.readouterr()

    assert run_train(tmp_path, obs_path, resumed, "--checkpoint", str(ckpt)) == 0
    out = capsys.readouterr().out
    assert "epoch 1/2" not in out and "epoch 2/2" in out
    assert resumed.read_bytes() == straight.read_bytes()


def test_train_refuses_a_mismatched_checkpoint(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    ckpt = tmp_path / "run.ckpt"
    assert run_train(tmp_path, obs_path, tmp_path / "a.sinr", "--checkpoint", str(ckpt)) == 0
    saved = ckpt.read_bytes()
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(obs_path.read_text().replace("north", "boreal"))
    capsys.readouterr()

    out = tmp_path / "b.sinr"
    for obs, extra, message in (
        (obs_path, ["--lr", "2e-3"], "checkpoint configuration does not match the expected one"),
        (renamed, [], "checkpoint species catalog does not match the corpus"),
    ):
        code = run_train(tmp_path, obs, out, "--checkpoint", str(ckpt), *extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
        assert ckpt.read_bytes() == saved and not out.exists()


def test_train_refuses_a_version_2_checkpoint(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    ckpt = tmp_path / "run.ckpt"
    assert run_train(tmp_path, obs_path, tmp_path / "a.sinr", "--checkpoint", str(ckpt)) == 0
    blob = ckpt.read_bytes()
    at = model_from_bytes(blob)[1] + 4  # the version field after the "CKPT" magic
    saved = blob[:at] + struct.pack("<I", 2) + blob[at + 4 :]
    ckpt.write_bytes(saved)
    capsys.readouterr()

    out = tmp_path / "b.sinr"
    assert run_train(tmp_path, obs_path, out, "--checkpoint", str(ckpt)) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: unsupported checkpoint version 2\n"
    assert ckpt.read_bytes() == saved and not out.exists()


def test_train_refuses_a_deeply_nested_checkpoint_config(tmp_path, capsys):
    """A config section of 200,000 ``[`` exceeds the JSON decoder's recursion
    limit: one ``error:`` line, and the checkpoint is left as it was."""
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    ckpt = tmp_path / "run.ckpt"
    assert run_train(tmp_path, obs_path, tmp_path / "a.sinr", "--checkpoint", str(ckpt)) == 0
    blob = ckpt.read_bytes()
    at = blob.rindex(b'{"net"') - 4  # the config section's u32 length, then its JSON
    assert struct.unpack_from("<I", blob, at)[0] == len(blob) - at - 4
    saved = blob[:at] + struct.pack("<I", 200_000) + b"[" * 200_000
    ckpt.write_bytes(saved)
    capsys.readouterr()

    out = tmp_path / "b.sinr"
    assert run_train(tmp_path, obs_path, out, "--checkpoint", str(ckpt)) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {ckpt}: malformed JSON section: maximum recursion depth exceeded"
    )
    assert "Traceback" not in err
    assert ckpt.read_bytes() == saved and not out.exists()


def test_train_refuses_a_checkpoint_of_other_records(tmp_path, capsys, monkeypatch):
    obs_path = tmp_path / "obs.csv"
    obs = make_obs_csv(obs_path)
    moved = tmp_path / "moved.csv"  # same species column and size, other coordinates
    save_observations(ObservationSet(obs.species_ids, obs.species_index, -obs.lons, obs.lats),
                      moved)

    train_module = importlib.import_module("sinr.train")
    real_save = train_module.save_checkpoint

    def save_then_stop(path, state):
        real_save(path, state)
        raise _Interrupted

    ckpt = tmp_path / "run.ckpt"
    out = tmp_path / "m.sinr"
    monkeypatch.setattr(train_module, "save_checkpoint", save_then_stop)
    with pytest.raises(_Interrupted):
        run_train(tmp_path, obs_path, out, "--checkpoint", str(ckpt))
    monkeypatch.undo()
    saved = ckpt.read_bytes()
    capsys.readouterr()

    assert run_train(tmp_path, moved, out, "--checkpoint", str(ckpt)) == 1
    assert "checkpoint" in capsys.readouterr().err
    assert ckpt.read_bytes() == saved and not out.exists()


_THREAD_VARS = ("SINR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


_CLI = "import sys; from sinr.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_python(code: str, *args: str, timeout: float = 300,
                **env_vars: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with no thread caps except ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = os.path.dirname(os.path.dirname(sinr.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def _python(code: str, *args: str, **env_vars: str) -> str:
    proc = _run_python(code, *args, **env_vars)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", ["train", "geoprior"])
def test_csv_field_over_the_csv_limit_exits_1_without_traceback(tmp_path, command):
    """A field longer than ``csv.field_size_limit()`` (131,072 characters) is
    a bad input file: one ``error:`` line naming the file and the line."""
    long_id = "x" * 140_000
    if command == "train":
        path = tmp_path / "obs.csv"
        path.write_text(f"species_id,lon,lat\n{long_id},10.0,20.0\n")
        args = ["train", "--obs", str(path), "--out", str(tmp_path / "m.sinr")]
        line = 2
    else:
        path = tmp_path / "scores.csv"
        path.write_text(f"r1,a,10.0,20.0,a:0.6,{long_id}:0.9\n")
        model = tmp_path / "flat.sinr"
        flat_model(model, species=("a", "b"))
        args = ["eval", "geoprior", "--model", str(model), "--scores", str(path),
                "--report", str(tmp_path / "gp.csv")]
        line = 1
    proc = _run_python(_CLI, *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: line {line}: field larger than field limit")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("loader", ["grid", "obs", "env-raster", "scores"])
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, loader):
    """A 0xff byte in an EVALGRID, observation CSV, ENVGRID or classifier-score
    file is a bad input file: one ``error:`` line that names it."""
    model, out = tmp_path / "flat.sinr", tmp_path / "out"
    flat_model(model, species=("a", "b"))
    obs = tmp_path / "obs.csv"
    make_obs_csv(obs)
    bad = tmp_path / f"bad.{loader}"
    if loader == "grid":
        bad.write_bytes(b"EVALGRID 1 1\na\xff 0 1\n")
        args = ["eval", "map", "--model", str(model), "--grid", str(bad), "--report", str(out)]
    elif loader == "obs":
        bad.write_bytes(b"species_id,lon,lat\na\xff,10.0,20.0\n")
        args = ["train", "--obs", str(bad), "--out", str(out), *TRAIN_ARGS]
    elif loader == "env-raster":
        bad.write_bytes(b"ENVGRID 1 1 -180 180 -90 90\n\xff\n")
        args = ["train", "--obs", str(obs), "--env-raster", str(bad), "--out", str(out),
                *TRAIN_ARGS]
    else:
        bad.write_bytes(b"r1,a,10.0,20.0,a\xff:0.6\n")
        args = ["eval", "geoprior", "--model", str(model), "--scores", str(bad),
                "--report", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not utf-8 text: invalid start byte (byte 0xff)\n"
    assert "Traceback" not in err
    assert not out.exists()


_NAMED_INPUTS = (
    "obs", "env-raster", "grid", "scores-duplicate", "scores-true-species", "scores-range",
    "model", "model-sizes", "model-catalog", "checkpoint", "resolution", "baseline-grid", "baseline-memory",
)


@pytest.mark.parametrize("case", _NAMED_INPUTS)
def test_input_errors_name_the_file_or_flag(tmp_path, capsys, case):
    """An error about an input file or a grid flag is one ``error: NAME: ``
    line, NAME the file or the flag and its value, with exit 1 and no
    traceback: an overlong observation id, ENVGRID layers that disagree, an
    EVALGRID header, classifier-score records, model files and checkpoints
    that do not parse, and grids that int64 or memory cannot hold."""
    model, out = tmp_path / "flat.sinr", tmp_path / "out"
    flat_model(model, species=("a", "b"))
    obs, grid = grid_fixture(tmp_path)
    bad = tmp_path / f"bad.{case}"
    name = bad
    train = ["train", "--obs", str(obs), "--out", str(out), *TRAIN_ARGS]
    if case == "obs":
        bad.write_text(f"species_id,lon,lat\n{'x' * 65_536},1.0,2.0\n")
        args = ["train", "--obs", str(bad), "--out", str(out), *TRAIN_ARGS]
        message = f"species id {'x' * 32!r}... is longer than 65535 UTF-8 bytes"
    elif case == "env-raster":
        first = tmp_path / "first.env"
        write_env_raster(first, np.ones((2, 4)), (-180.0, 180.0, -90.0, 90.0))
        write_env_raster(bad, np.ones((2, 3)), (-180.0, 180.0, -90.0, 90.0))
        args = [*train, "--input", "env", "--env-raster", str(first), "--env-raster", str(bad)]
        message = f"grid shape or bounds differ from {first}"
    elif case == "grid":
        bad.write_text("EVALGRID x 1\n")
        args = ["eval", "map", "--model", str(model), "--grid", str(bad), "--report", str(out)]
        message = "malformed header 'EVALGRID x 1'"
    elif case.startswith("scores"):
        row, message = {
            "scores-duplicate": ("r1,a,10.0,20.0,a:0.5,a:0.2", "record r1: duplicate candidate"),
            "scores-true-species": ("r1,c,10.0,20.0,a:0.5", "record r1: true species 'c' never"),
            "scores-range": ("r1,a,10.0,20.0,a:1.5", "record r1: scores must lie in [0, 1]"),
        }[case]
        bad.write_text(f"r0,a,1.0,2.0,a:0.5\n{row}\n")
        args = ["eval", "geoprior", "--model", str(model), "--scores", str(bad),
                "--report", str(out)]
    elif case == "model":
        bad.write_bytes(b"spec" + bytes(60))
        args = ["predict", "--model", str(bad), "--species", "a", "--resolution", "2",
                "--out", str(out)]
        message = "bad magic b'spec'"
    elif case == "model-sizes":
        blob = model.read_bytes()
        bad.write_bytes(blob[: len(blob) // 2])
        args = ["predict", "--model", str(bad), "--species", "a", "--resolution", "2",
                "--out", str(out)]
        message = "declared sizes exceed the "
    elif case == "model-catalog":  # "c" would index past the two-species head
        cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=4, n_residual_layers=1)
        bad.write_bytes(reference_model_bytes(init_params(cfg), cfg, InputLayout.COORDS,
                                              ("a", "b", "c")))  # which save_model refuses
        args = ["predict", "--model", str(bad), "--species", "c", "--resolution", "2",
                "--out", str(out)]
        message = "species catalog has 3 ids for 2 species"
    elif case == "checkpoint":
        bad.write_bytes(b"spec" + bytes(60))
        args = [*train, "--checkpoint", str(bad)]
        message = "bad magic b'spec'"
    elif case == "resolution":
        name = "--resolution 3000000000"
        args = ["predict", "--model", str(model), "--species", "a", "--resolution", "3000000000",
                "--out", str(out)]
        message = "resolution 3000000000 has 2*R^2 cells, past the int64 maximum"
    else:
        resolution, message = {
            "baseline-grid": ("3000000000", "resolution 3000000000 has 2*R^2 cells"),
            "baseline-memory": ("100000", "Unable to allocate "),
        }[case]
        name = f"--baseline grid:{resolution}"
        args = ["eval", "map", "--baseline", f"grid:{resolution}", "--obs", str(obs),
                "--grid", str(grid), "--report", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: {message}") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lon, lat, reason", [
    ("nan", "5.0", "non-finite coordinate"),
    ("10.0", "-inf", "non-finite coordinate"),
    ("500", "5.0", "coordinate out of range"),
    ("10.0", "-90.5", "coordinate out of range"),
])
def test_classifier_score_coordinates_are_checked_at_load(tmp_path, capsys, lon, lat, reason):
    """A classifier-score row whose coordinates no grid holds fails on load,
    naming the file and the line, as observation rows do."""
    scores, model = tmp_path / "scores.csv", tmp_path / "flat.sinr"
    scores.write_text(f"r1,a,10.0,20.0,a:0.6,b:0.9\nr2,b,{lon},{lat},b:0.8,a:0.2\n")
    flat_model(model, species=("a", "b"))
    report = tmp_path / "gp.csv"
    assert main(["eval", "geoprior", "--model", str(model), "--scores", str(scores),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {scores}: line 2: {reason}\n"
    assert not report.exists()


_BLAS_THREADS = (
    "import ctypes, sys\n"
    "first, *modules = sys.argv[1:]\n"
    "__import__(first)\n"
    "from numpy._core import _multiarray_umath\n"
    "blas = ctypes.CDLL(_multiarray_umath.__file__)\n"
    "before = blas.scipy_openblas_get_num_threads64_()\n"
    "for name in modules: __import__(name)\n"
    "print(before, blas.scipy_openblas_get_num_threads64_())\n"
)


def test_importing_sinr_pins_blas_to_one_thread():
    """Whatever ``SINR_THREADS`` says: with numpy loaded first under
    ``OPENBLAS_NUM_THREADS=2`` the pin takes BLAS from 2 threads to 1, and
    with ``sinr`` imported first and no thread variable set BLAS starts at 1."""
    for env in ({}, {"SINR_THREADS": "1"}, {"SINR_THREADS": "2"}):
        numpy_first = _python(_BLAS_THREADS, "numpy", "sinr", OPENBLAS_NUM_THREADS="2", **env)
        assert numpy_first.split() == ["2", "1"], env
        assert _python(_BLAS_THREADS, "sinr", **env).split() == ["1", "1"], env


def test_sinr_train_is_the_module(monkeypatch):
    """The package root re-exports no name: ``sinr.train`` is the module, not
    its ``train`` function, and a dotted monkeypatch path reaches it."""
    import sinr.train

    assert sinr.train.TrainConfig is TrainConfig
    assert all(isinstance(v, types.ModuleType) for k, v in vars(sinr).items() if k[0] != "_")
    marker = object()
    monkeypatch.setattr("sinr.train.forward", marker)
    assert sys.modules["sinr.train"].forward is marker


def _models_at_thread_counts(tmp_path, obs_path, *extra) -> list[bytes]:
    """Model bytes of one ``sinr train`` run under 1 and under 2 BLAS threads."""
    models = []
    for threads in ("1", "2"):
        models.append(tmp_path / f"threads{threads}.sinr")
        _python(_CLI, "train", "--obs", str(obs_path), "--out", str(models[-1]), *TRAIN_ARGS,
                "--batch-size", "128", "--hidden-dim", "64", *extra,
                OPENBLAS_NUM_THREADS=threads)
    return [m.read_bytes() for m in models]


def test_model_does_not_depend_on_blas_thread_count(tmp_path):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path, n=300)
    one, two = _models_at_thread_counts(tmp_path, obs_path)
    assert one == two


def test_read_head_model_does_not_depend_on_blas_thread_count_at_2000_species(tmp_path):
    """an-ssdl on 6,000 records over 2,000 species, trained with
    ``--batch-size 256 --hidden-dim 64 --residual-layers 2 --epochs 2
    --seed 5``: a step computes the head only at the positive's column of
    each of its 512 rows."""
    obs_path = tmp_path / "obs.csv"
    write_2000_species_csv(obs_path)
    one, two = _models_at_thread_counts(
        tmp_path, obs_path, "--loss", "an-ssdl", "--batch-size", "256", "--residual-layers",
        "2", "--epochs", "2", "--seed", "5",
    )
    assert one == two


_VARIANTS = tuple(v.value for v in LossVariant)
_PINNED = "import sinr.parallel\nassert sinr.parallel.BLAS_PINNED == '1'\n"
_TRAIN_VARIANTS = (
    "import sys; from sinr.cli import main\n"
    "obs, out, *args = sys.argv[1:]\n"
    f"for v in {_VARIANTS!r}:\n"
    "    argv = ['train', '--obs', obs, '--out', f'{out}/{v}.sinr', '--loss', v, *args]\n"
    "    assert main(argv) == 0\n"
)


def test_models_do_not_depend_on_the_worker_count(tmp_path):
    """All six variants in fresh processes with 1 and with 2 workers (BLAS
    held at one thread). A 1,024-record batch over 2,000 species spans 16
    loss chunks and 32 head-output chunks of a full step. An ssdl or slds
    step's read head (2,048 x 1 or 1,024 x 2 entries over 32 features) is
    one row chunk here; ``tests/test_train.py`` splits it over several."""
    assert len(row_chunks(1024, 2000)) == 16
    assert len(row_chunks(2048, 32)) == len(row_chunks(1024, 2 * 32)) == 1
    obs_path = tmp_path / "obs.csv"
    write_2000_species_csv(obs_path)
    models = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        _python(_TRAIN_VARIANTS, str(obs_path), str(out), "--batch-size", "1024",
                "--hidden-dim", "32", "--residual-layers", "1", "--epochs", "1", "--seed", "5",
                SINR_THREADS=workers, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")
        models[workers] = {v: (out / f"{v}.sinr").read_bytes() for v in _VARIANTS}
    assert models["1"] == models["2"]


def test_models_do_not_depend_on_blas_threads_or_workers(tmp_path):
    """All six variants in fresh processes under ``OPENBLAS_NUM_THREADS`` 1
    and 2 and ``SINR_THREADS`` 1 and 2. A full step's 2,048 rows over 2,000
    species and 128 features split each head product into at least 2
    blocks per worker on two workers. ssdl and slds steps make no head GEMM:
    their read head is row-wise dot products and per-column sums in a fixed
    order, so only their encoder products meet BLAS."""
    assert len(gemm_blocks(2048, 128 * 2000)) >= 4  # h @ w_head, dz @ w_head.T
    assert len(gemm_blocks(2000, 2048 * 128)) >= 4  # feats.T @ dz
    obs_path = tmp_path / "obs.csv"
    write_2000_species_csv(obs_path)
    models = {}
    for blas, workers in itertools.product("12", "12"):
        out = tmp_path / f"blas{blas}-workers{workers}"
        out.mkdir()
        _python(_PINNED + _TRAIN_VARIANTS, str(obs_path), str(out), "--batch-size", "1024",
                "--hidden-dim", "128", "--residual-layers", "1", "--epochs", "1",
                "--seed", "5", SINR_THREADS=workers, OPENBLAS_NUM_THREADS=blas)
        models[blas, workers] = {v: (out / f"{v}.sinr").read_bytes() for v in _VARIANTS}
    assert all(got == models["1", "1"] for got in models.values())


def test_read_head_model_does_not_depend_on_blas_thread_count(tmp_path):
    """an-ssdl over 200 species, in 128-record batches: a step computes the
    head at 256 entries, one a row."""
    rng = np.random.default_rng(1)
    n = 300
    obs = ObservationSet(tuple(f"sp{i:03d}" for i in range(200)), np.arange(n) % 200,
                         rng.uniform(-170, 170, n), rng.uniform(-80, 80, n))
    obs_path = tmp_path / "obs.csv"
    save_observations(obs, obs_path)
    one, two = _models_at_thread_counts(tmp_path, obs_path, "--loss", "an-ssdl")
    assert one == two


# ---------------------------------------------------------------------------
# predict / export-raster
# ---------------------------------------------------------------------------


def test_predict_matches_in_process_forward(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    make_obs_csv(obs_path)
    model_path = tmp_path / "m.sinr"
    assert run_train(tmp_path, obs_path, model_path) == 0
    out_csv = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--species", "south",
                 "--resolution", "3", "--out", str(out_csv)]) == 0
    capsys.readouterr()

    model = read_model_file(model_path)
    grid = GridSpec(3)
    lons, lats = cell_centroids(grid)
    from sinr.data import assemble_inputs

    x = assemble_inputs(lons, lats, model.input_layout, None)
    _, y = forward(model.params, model.cfg, x)
    col = model.species_ids.index("south")

    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "lon,lat,score"
    assert len(rows) == 1 + grid.n_cells
    for i, row in enumerate(rows[1:]):
        lon_s, lat_s, score_s = row.split(",")
        assert lon_s == repr(float(lons[i]))
        assert score_s == repr(float(y[i, col]))


def test_single_species_maps_compute_only_the_planned_head_columns(tmp_path, monkeypatch,
                                                                   capsys):
    """predict and export-raster --csv compute 2 of 50 head columns per chunk
    (16,200 cells x 2 x 64 features > 1e6) and write the dense column's bytes."""
    cfg = NetConfig(input_dim=4, n_species=50, hidden_dim=64, n_residual_layers=2,
                    dropout_p=0.0, seed=4)
    params = init_params(cfg)
    params = NetParams.from_flat(params.flat()[:-1] + [np.linspace(-2, 2, 50, dtype=np.float32)])
    model_path = tmp_path / "m.sinr"
    save_model(params, cfg, model_path, species_ids=tuple(f"sp{i}" for i in range(50)))
    model = read_model_file(model_path)
    grid = GridSpec(90)
    lons, lats = cell_centroids(grid)
    _, y = forward(model.params, model.cfg, assemble_inputs(lons, lats, InputLayout.COORDS, None))
    want = ["lon,lat,score"] + [
        f"{float(lons[i])!r},{float(lats[i])!r},{float(y[i, 37])!r}" for i in range(grid.n_cells)
    ]

    net_module = importlib.import_module("sinr.net")
    widths = []  # head columns computed per forward

    def recording(needed, n_rows, n_feat, n_species, _real=net_module._head_columns):
        cols = _real(needed, n_rows, n_feat, n_species)
        widths.append(n_species if cols is None else cols.size)
        return cols

    monkeypatch.setattr(net_module, "_head_columns", recording)
    common = ["--model", str(model_path), "--species", "sp37", "--resolution", "90"]
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 0
    assert main(["export-raster", *common, "--out", str(tmp_path / "m.pgm"),
                 "--binary-threshold", "fixed:0.5", "--csv", str(tmp_path / "e.csv")]) == 0
    capsys.readouterr()
    assert grid.n_cells == 16_200 and widths == [2, 2]
    for name in ("p.csv", "e.csv"):
        assert (tmp_path / name).read_text().splitlines() == want


def test_export_raster_flat_model_is_mid_gray(tmp_path, capsys):
    model_path = tmp_path / "flat.sinr"
    flat_model(model_path)
    out = tmp_path / "map.pgm"
    assert main(["export-raster", "--model", str(model_path), "--species", "north",
                 "--resolution", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 2"  # width height for resolution 2
    assert lines[2] == "255"
    pixels = [int(v) for row in lines[3:] for v in row.split()]
    assert len(pixels) == 8
    assert set(pixels) == {128}  # sigmoid(0) = 0.5 -> round-half-up 128


def test_export_raster_fixed_threshold(tmp_path, capsys):
    model_path = tmp_path / "flat.sinr"
    flat_model(model_path)
    out = tmp_path / "map.pgm"
    assert main(["export-raster", "--model", str(model_path), "--species", "north",
                 "--resolution", "2", "--out", str(out),
                 "--binary-threshold", "fixed:0.4"]) == 0
    assert {int(v) for r in out.read_text().splitlines()[3:] for v in r.split()} == {255}
    assert main(["export-raster", "--model", str(model_path), "--species", "north",
                 "--resolution", "2", "--out", str(out),
                 "--binary-threshold", "fixed:0.6"]) == 0
    assert {int(v) for r in out.read_text().splitlines()[3:] for v in r.split()} == {0}
    capsys.readouterr()


def test_export_raster_csv_sidecar(tmp_path, capsys):
    model_path = tmp_path / "flat.sinr"
    flat_model(model_path)
    out, side = tmp_path / "map.pgm", tmp_path / "cells.csv"
    assert main(["export-raster", "--model", str(model_path), "--species", "north",
                 "--resolution", "2", "--out", str(out), "--csv", str(side)]) == 0
    capsys.readouterr()
    rows = side.read_text().strip().splitlines()
    assert rows[0] == "lon,lat,score"
    assert len(rows) == 1 + GridSpec(2).n_cells
    assert all(r.endswith("0.5") for r in rows[1:])


def test_cell_scores_reuse_the_centroids_they_were_scored_at(tmp_path, capsys, monkeypatch):
    """predict and export-raster --csv build the grid's cell centroids once."""
    cli_module = importlib.import_module("sinr.cli")
    calls = []

    def counting(*args, _real=cli_module.cell_centroids):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(cli_module, "cell_centroids", counting)
    model = tmp_path / "flat.sinr"
    flat_model(model)
    common = ["--model", str(model), "--species", "north", "--resolution", "3"]
    for argv in (["predict", *common, "--out", str(tmp_path / "p.csv")],
                 ["export-raster", *common, "--out", str(tmp_path / "m.pgm"),
                  "--csv", str(tmp_path / "m.csv")]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1
    capsys.readouterr()
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("chunk", [7, 65536])
def test_cell_scores_are_csv_writer_bytes(tmp_path, monkeypatch, chunk):
    """``lon,lat,score`` rows, written a chunk of cells at a time, are the
    bytes csv.writer gives (``\\r\\n`` line ends), over a grid with negative
    coordinates."""
    monkeypatch.setattr(importlib.import_module("sinr.cli"), "_PREDICT_CHUNK", chunk)
    grid = GridSpec(3)
    scores = np.random.default_rng(0).uniform(0, 1, grid.n_cells).astype(np.float32)
    scores[:3] = [0.0, 1.0, np.float32(1e-30)]
    path = tmp_path / "cells.csv"
    lons, lats = cell_centroids(grid)
    _write_cell_scores(path, (lons, lats), scores)
    want = _csv_writer_bytes(["lon", "lat", "score"],
                             [[repr(float(lons[i])), repr(float(lats[i])), repr(float(scores[i]))]
                              for i in range(grid.n_cells)])
    assert min(lons) < 0 and min(lats) < 0
    assert path.read_bytes() == want


def test_write_pgm_row_order(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0, 1], [2, 3]]))
    assert path.read_text() == "P2\n2 2\n255\n0 1\n2 3\n"


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def grid_fixture(tmp_path):
    """Observations concentrated in known cells plus a matching eval grid."""
    grid = GridSpec(2)
    lons, lats = cell_centroids(grid, np.array([0, 5]))
    obs = ObservationSet(
        ("a", "b"),
        np.array([0] * 4 + [1] * 4, dtype=np.int64),
        np.concatenate([np.full(4, lons[0]), np.full(4, lons[1])]),
        np.concatenate([np.full(4, lats[0]), np.full(4, lats[1])]),
    )
    obs_path = tmp_path / "obs.csv"
    save_observations(obs, obs_path)
    labels = np.full((2, grid.n_cells), -1, dtype=np.int8)
    labels[0, [0, 5]] = [1, 0]
    labels[1, [0, 5]] = [0, 1]
    grid_path = tmp_path / "expert.evalgrid"
    save_eval_grid(EvalGrid(grid, ("a", "b"), labels), grid_path)
    return obs_path, grid_path


def test_eval_map_with_grid_baseline(tmp_path, capsys):
    obs_path, grid_path = grid_fixture(tmp_path)
    report = tmp_path / "map.csv"
    code = main(["eval", "map", "--baseline", "grid:2", "--obs", str(obs_path),
                 "--grid", str(grid_path), "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MAP (grid:2): 1.000000" in out
    rows = report.read_text().strip().splitlines()
    assert rows[0] == "species_id,ap,status"
    assert rows[-1] == "MAP,1.0,n=2"


def test_eval_map_reports_unknown_species(tmp_path, capsys):
    obs_path, grid_path = grid_fixture(tmp_path)
    model_path = tmp_path / "flat.sinr"
    flat_model(model_path, species=("a",))  # knows only one of the two
    report = tmp_path / "map.csv"
    code = main(["eval", "map", "--model", str(model_path),
                 "--grid", str(grid_path), "--report", str(report)])
    assert code == 0
    capsys.readouterr()
    assert "b,,not in predictor" in report.read_text()


def test_eval_map_dump_cells(tmp_path, capsys):
    obs_path, grid_path = grid_fixture(tmp_path)
    report, dump = tmp_path / "map.csv", tmp_path / "cells.csv"
    code = main(["eval", "map", "--baseline", "grid:2", "--obs", str(obs_path),
                 "--grid", str(grid_path), "--report", str(report),
                 "--dump-cells", str(dump)])
    assert code == 0
    capsys.readouterr()
    rows = dump.read_text().strip().splitlines()
    assert rows[0] == "cell,lon,lat,a,b"
    assert len(rows) == 3  # two valid cells


def test_eval_map_dump_cells_runs_the_model_once(tmp_path, capsys, monkeypatch):
    obs_path, grid_path = grid_fixture(tmp_path)
    model_path = tmp_path / "model.sinr"
    cfg = NetConfig(input_dim=4, n_species=2, hidden_dim=8, n_residual_layers=1, seed=5)
    params = dataclasses.replace(init_params(cfg), b_head=np.array([-0.5, 0.5], np.float32))
    save_model(params, cfg, model_path, species_ids=("a", "b"))
    cli_module = importlib.import_module("sinr.cli")
    rows = []

    def counting_forward(params, cfg, x, **kwargs):
        rows.append(len(x))
        return forward(params, cfg, x, **kwargs)

    monkeypatch.setattr(cli_module, "forward", counting_forward)
    grid = GridSpec(60)
    labels = np.full((2, grid.n_cells), -1, dtype=np.int8)
    labels[:, :200] = np.arange(200) % 2, 1 - np.arange(200) % 2
    save_eval_grid(EvalGrid(grid, ("a", "b"), labels), grid_path)
    report, dump = tmp_path / "map.csv", tmp_path / "cells.csv"
    code = main(["eval", "map", "--model", str(model_path), "--grid", str(grid_path),
                 "--report", str(report), "--dump-cells", str(dump)])
    assert code == 0
    capsys.readouterr()
    assert rows == [200]
    cells = np.arange(200)
    lons, lats = cell_centroids(grid, cells)
    y = forward(params, cfg, assemble_inputs(lons, lats, InputLayout.COORDS, None))[1]
    want = _csv_writer_bytes(["cell", "lon", "lat", "a", "b"], [
        [int(c), repr(float(lons[c])), repr(float(lats[c]))] + [repr(float(v)) for v in y[c]]
        for c in cells])
    assert dump.read_bytes() == want


def test_eval_map_grid_baseline_scores_the_grid_species_in_grid_order(tmp_path, capsys):
    """The grid baseline scores the evaluation species it knows in the grid's
    order, not in its own catalog order."""
    obs_path, _ = grid_fixture(tmp_path)
    grid = GridSpec(2)
    labels = np.full((3, grid.n_cells), -1, dtype=np.int8)
    labels[:, [0, 5]] = [[0, 1], [1, 0], [1, 0]]
    grid_path = tmp_path / "reordered.evalgrid"
    save_eval_grid(EvalGrid(grid, ("b", "zz", "a"), labels), grid_path)
    report, dump = tmp_path / "map.csv", tmp_path / "cells.csv"
    assert main(["eval", "map", "--baseline", "grid:2", "--obs", str(obs_path),
                 "--grid", str(grid_path), "--report", str(report),
                 "--dump-cells", str(dump)]) == 0
    capsys.readouterr()
    assert report.read_text().splitlines() == [
        "species_id,ap,status", "b,1.0,ok", "a,1.0,ok", "zz,,not in predictor", "MAP,1.0,n=2",
    ]
    lons, lats = cell_centroids(grid, np.array([0, 5]))
    assert dump.read_text().splitlines() == [
        "cell,lon,lat,b,a",
        f"0,{float(lons[0])!r},{float(lats[0])!r},0.0,1.0",
        f"5,{float(lons[1])!r},{float(lats[1])!r},1.0,0.0",
    ]


def test_evals_at_a_gathered_width_match_in_process_dense_forward(tmp_path, monkeypatch,
                                                                  capsys):
    """At 4,000 species and 256 features eval map and eval geoprior compute a
    few head columns per forward, yet write the bytes of the dense head; a
    one-record geoprior runs the whole head (1-row products round by column
    position)."""
    s = 4000
    cfg = NetConfig(input_dim=4, n_species=s, hidden_dim=256, n_residual_layers=1,
                    dropout_p=0.0, seed=8)
    params = init_params(cfg)
    params = NetParams.from_flat(params.flat()[:-1] + [np.linspace(-2, 2, s, dtype=np.float32)])
    species = tuple(f"sp{i:04d}" for i in range(s))
    model_path = tmp_path / "m.sinr"
    save_model(params, cfg, model_path, species_ids=species)
    model = read_model_file(model_path)

    def dense(lons, lats):
        return forward(model.params, model.cfg, assemble_inputs(lons, lats, InputLayout.COORDS,
                                                                None))[1]

    dense.species_ids = species
    rng = np.random.default_rng(8)
    grid = GridSpec(30)
    eval_ids = ("sp3999", "sp0007", "unknown", "sp2500", "sp0000", "sp1234")
    labels = np.full((len(eval_ids), grid.n_cells), -1, dtype=np.int8)
    cells = np.sort(rng.choice(grid.n_cells, 300, replace=False))
    labels[:, cells] = rng.integers(0, 2, (len(eval_ids), cells.size))
    labels[5, cells] = 1  # no valid absence: skipped
    eval_grid = EvalGrid(grid, eval_ids, labels)
    grid_path = tmp_path / "g.evalgrid"
    save_eval_grid(eval_grid, grid_path)
    known = [sid for sid in eval_ids if sid in species]
    lons, lats = cell_centroids(grid, cells)
    y = dense(lons, lats)[:, [species.index(sid) for sid in known]]
    result = map_task(lambda lo, la: y, eval_grid.restrict(known))
    want_report = (["species_id,ap,status"] + [f"{sid},{ap!r},ok" for sid, ap in result.per_species]
                   + [f"{sid},,{why}" for sid, why in result.skipped]
                   + ["unknown,,not in predictor", f"MAP,{result.mean_ap!r},n=4"])
    want_dump = [",".join(["cell", "lon", "lat", *known])] + [
        ",".join([str(c), repr(float(lons[i])), repr(float(lats[i]))]
                 + [repr(float(v)) for v in y[i]])
        for i, c in enumerate(cells)
    ]

    net_module = importlib.import_module("sinr.net")
    widths = []  # head columns computed per forward

    def recording(needed, n_rows, n_feat, n_species, _real=net_module._head_columns):
        cols = _real(needed, n_rows, n_feat, n_species)
        widths.append(n_species if cols is None else cols.size)
        return cols

    monkeypatch.setattr(net_module, "_head_columns", recording)
    report, dump = tmp_path / "map.csv", tmp_path / "cells.csv"
    assert main(["eval", "map", "--model", str(model_path), "--grid", str(grid_path),
                 "--report", str(report), "--dump-cells", str(dump)]) == 0
    assert report.read_text().splitlines() == want_report
    assert dump.read_text().splitlines() == want_dump
    assert len(widths) == 1 and widths[0] < s

    lines = []
    for r in range(40):
        cands = rng.choice(s, 5, replace=False)
        fields = [f"sp{c:04d}:{rng.random()!r}" for c in cands] + [f"other:{rng.random()!r}"]
        lines.append(",".join([f"r{r}", f"sp{cands[0]:04d}", repr(rng.uniform(-180, 180)),
                               repr(rng.uniform(-90, 90)), *fields]))
    for name, body, wide in [("many", lines, False), ("one", lines[:1], True)]:
        scores_path = tmp_path / f"{name}.csv"
        scores_path.write_text("\n".join(body) + "\n")
        gp = geo_prior_delta(load_classifier_scores(scores_path), dense)
        want = (["record_id,true_species,baseline_top1,weighted_top1"]
                + [",".join(pick) for pick in gp.picks]
                + [f"DELTA,{gp.delta_points!r},{gp.baseline_acc!r},{gp.weighted_acc!r}"])
        widths.clear()
        out = tmp_path / f"gp_{name}.csv"
        assert main(["eval", "geoprior", "--model", str(model_path),
                     "--scores", str(scores_path), "--report", str(out)]) == 0
        assert out.read_text().splitlines() == want
        if wide:
            assert widths == [s]
        else:
            assert len(widths) == 1 and widths[0] < s and gp.weighted_acc != gp.baseline_acc
    capsys.readouterr()


def test_eval_geoprior_flat_model_changes_nothing(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "r1,a,10.0,20.0,a:0.6,b:0.9\n"
        "r2,b,-30.0,5.0,b:0.8,a:0.2\n"
    )
    model_path = tmp_path / "flat.sinr"
    flat_model(model_path, species=("a", "b"))
    report = tmp_path / "gp.csv"
    code = main(["eval", "geoprior", "--model", str(model_path),
                 "--scores", str(scores), "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    # A constant prior multiplies every candidate by 0.5: ranking unchanged.
    assert "delta +0.00 points" in out
    assert report.read_text().strip().splitlines()[-1].startswith("DELTA,0.0,")


def test_eval_geoprior_with_grid_baseline(tmp_path, capsys):
    obs_path, _ = grid_fixture(tmp_path)
    grid = GridSpec(2)
    lons, lats = cell_centroids(grid, np.array([0, 5]))
    scores = tmp_path / "scores.csv"
    # True species a at a's home cell, but the classifier prefers b; the
    # indicator prior zeroes b there, flipping the pick to a.
    scores.write_text(
        f"r1,a,{lons[0]},{lats[0]},a:0.6,b:0.9\n"
        f"r2,b,{lons[1]},{lats[1]},b:0.8,a:0.2\n"
    )
    report = tmp_path / "gp.csv"
    code = main(["eval", "geoprior", "--baseline", "grid:2", "--obs", str(obs_path),
                 "--scores", str(scores), "--report", str(report)])
    assert code == 0
    assert "delta +50.00 points" in capsys.readouterr().out


@pytest.mark.parametrize("protocol", ["map", "geoprior"])
def test_grid_baseline_fits_only_the_species_it_scores(tmp_path, capsys, monkeypatch, protocol):
    """Of 2,000 species the grid or the candidates name three (and one the
    corpus lacks): the baseline counts only those three species' records,
    and its reports have the bytes of a whole-corpus fit."""
    obs_path = tmp_path / "obs.csv"
    write_2000_species_csv(obs_path)
    whole, _ = load_observations(obs_path)
    named = ("sp1999", "zz", "sp0007", "sp0500")
    records = np.flatnonzero(np.isin(np.asarray(whole.species_ids)[whole.species_index], named))
    grid = GridSpec(3)
    if protocol == "map":
        labels = np.zeros((len(named), grid.n_cells), dtype=np.int8)
        labels[:, ::7] = -1
        for i in records.tolist():
            row = named.index(whole.species_ids[whole.species_index[i]])
            labels[row, cell_indices(whole.lons[i : i + 1], whole.lats[i : i + 1], grid)] = 1
        save_eval_grid(EvalGrid(grid, named, labels), tmp_path / "g.evalgrid")
        args = ["map", "--grid", str(tmp_path / "g.evalgrid")]
    else:
        candidates = ",".join(f"{s}:0.{k + 3}" for k, s in enumerate(named))
        (tmp_path / "scores.csv").write_text("".join(
            f"r{i},{whole.species_ids[whole.species_index[i]]},{float(whole.lons[i])!r},"
            f"{float(whole.lats[i])!r},{candidates}\n" for i in records.tolist()))
        args = ["geoprior", "--scores", str(tmp_path / "scores.csv")]

    real_fit, fitted = sinr.cli.grid_baseline_fit, []

    def run(fit, name):
        monkeypatch.setattr("sinr.cli.grid_baseline_fit", fit)
        assert main(["eval", *args, "--baseline", "grid:3", "--obs", str(obs_path),
                     "--report", str(tmp_path / name)]) == 0
        return (tmp_path / name).read_bytes()

    scored = run(lambda obs, g: fitted.append(obs.species_ids) or real_fit(obs, g), "scored.csv")
    assert run(lambda obs, g: real_fit(whole, g), "whole.csv") == scored
    assert fitted == [tuple(s for s in whole.species_ids if s in named)] and len(fitted[0]) == 3
    rows = scored.decode().splitlines()
    if protocol == "map":  # the three species, then the one the corpus lacks
        assert [r.rsplit(",", 1)[1] for r in rows[1:-1]] == ["ok"] * 3 + ["not in predictor"]
    else:  # a header, the nine records and the delta
        assert len(rows) == 11 and rows[-1].startswith("DELTA,")


def test_eval_geofeature_end_to_end(tmp_path, capsys):
    rows, cols = 8, 16
    lat_centroids = 90.0 - (np.arange(rows) + 0.5) * 180.0 / rows
    # Target equals one of the encoder's own harmonics, so a linear read-out
    # of the features reconstructs it almost exactly.
    lat_vals = np.repeat(np.sin(np.pi * lat_centroids / 90.0)[:, None], cols, axis=1)
    write_env_raster(tmp_path / "t.env", lat_vals, (-180, 180, -90, 90))
    model_path = tmp_path / "id.sinr"
    flat_model(model_path, species=("s",), identity=True)
    report = tmp_path / "gf.csv"
    code = main(["eval", "geofeature", "--model", str(model_path),
                 "--env-raster", str(tmp_path / "t.env"),
                 "--report", str(report), "--split-seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean R^2" in out
    rows_ = report.read_text().strip().splitlines()
    assert rows_[0] == "layer,r2,alpha"
    assert rows_[-1].startswith("MEAN,")
    mean_r2 = float(rows_[-1].split(",")[1])
    assert mean_r2 > 0.999


@pytest.mark.parametrize("frac", ["inf", "nan", "0", "1", "-0.5"])
def test_eval_geofeature_rejects_a_train_frac_outside_0_1(tmp_path, capsys, frac):
    write_env_raster(tmp_path / "t.env", np.arange(32.0).reshape(4, 8), (-180, 180, -90, 90))
    model_path = tmp_path / "id.sinr"
    flat_model(model_path, species=("s",), identity=True)
    assert main(["eval", "geofeature", "--model", str(model_path),
                 "--env-raster", str(tmp_path / "t.env"), "--report", str(tmp_path / "gf.csv"),
                 "--train-frac", frac]) == 1
    err = capsys.readouterr().err
    assert f"--train-frac {float(frac)} leaves an empty train or test split" in err
    assert "Traceback" not in err
    assert not (tmp_path / "gf.csv").exists()


def test_eval_geofeature_rejects_baseline(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "geofeature", "--model", "x", "--baseline", "lr",
              "--env-raster", "y", "--report", str(tmp_path / "r")])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", [
    "map-grid-model", "map-grid-env", "map-grid-no-obs", "map-model-obs", "map-lr-obs",
    "map-lr-no-model", "geoprior-grid-model", "geoprior-model-obs", "geofeature-obs",
])
def test_eval_refuses_flags_its_predictor_never_reads(tmp_path, capsys, case):
    """``--baseline grid:RES`` reads neither a model nor rasters, and only it
    reads ``--obs``: such a flag is a usage error, even where the files exist
    and the run would otherwise succeed."""
    protocol, predictor = case.split("-", 1)
    obs, grid = grid_fixture(tmp_path)
    model, env, scores = tmp_path / "flat.sinr", tmp_path / "t.env", tmp_path / "scores.csv"
    flat_model(model, species=("a", "b"))
    write_env_raster(env, np.arange(32.0).reshape(4, 8), (-180, 180, -90, 90))
    scores.write_text("r1,a,10.0,20.0,a:0.6,b:0.9\n")
    args = {"map": ["--grid", str(grid)], "geoprior": ["--scores", str(scores)],
            "geofeature": ["--model", str(model), "--env-raster", str(env)]}[protocol]
    args += {"grid-model": ["--baseline", "grid:2", "--obs", str(obs), "--model", str(model)],
             "grid-env": ["--baseline", "grid:2", "--obs", str(obs), "--env-raster", str(env)],
             "grid-no-obs": ["--baseline", "grid:2"],
             "model-obs": ["--model", str(model), "--obs", str(obs)],
             "lr-obs": ["--baseline", "lr", "--model", str(model), "--obs", str(obs)],
             "lr-no-model": ["--baseline", "lr"],
             "obs": ["--obs", str(obs)]}[predictor]
    report = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", protocol, *args, "--report", str(report)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err, err
    assert not report.exists()


def test_model_layout_requires_env_rasters_exits_2(tmp_path, capsys):
    model_path = tmp_path / "env.sinr"
    flat_model(model_path, layout=InputLayout.ENV, input_dim=1)
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", str(model_path), "--species", "north",
              "--resolution", "2", "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    capsys.readouterr()
