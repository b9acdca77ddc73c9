"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Every oracle here is recomputed from first principles (plain
``math`` arithmetic, definition-level loops, or an independent solver) so the
checks cannot share a bug with the library code.
"""

import math
import time
from functools import lru_cache

import numpy as np

from helpers import (
    ap_oracle,
    composed_grads,
    composed_loss,
    disk_obs,
    epoch_means,
    fd_grads,
    loss,
    max_rel_error,
    model_to_bytes,
    params_equal,
    train_interrupted,
    well_conditioned_setup,
)
from sinr.data import (
    ObservationSet,
    assemble_inputs,
    filter_min_count,
    load_env_rasters,
    subsample_cap,
    write_env_raster,
)
from sinr.evaluate import (
    EvalGrid,
    geo_feature_task,
    geo_prior_delta,
    grid_baseline_fit,
    grid_baseline_scores,
    map_task,
    ridge_fit,
    ClassifierRecord,
    ClassifierScoreSet,
)
from sinr.geo import GridSpec, InputLayout, cell_centroids, cell_indices
from sinr.losses import (
    BatchTargets,
    LossConfig,
    LossVariant,
    bernoulli_entropy,
)
from sinr.net import NetConfig, forward, read_model_file, save_model
from sinr.train import LR_DECAY, TrainConfig, lr_at_epoch, train

DISK_CENTERS = ((-90.0, 30.0), (0.0, -30.0), (100.0, 15.0))
DISK_RADIUS_DEG = 20.0


# ---------------------------------------------------------------------------
# Shared synthetic task: three disjoint disk ranges
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _disk_task():
    obs = disk_obs(np.random.default_rng(99), n_records=10_000)
    grid = GridSpec(18)  # 10-degree cells, 648 of them
    lons, lats = cell_centroids(grid)
    labels = np.zeros((3, grid.n_cells), dtype=np.int8)
    for s, (clon, clat) in enumerate(DISK_CENTERS):
        inside = (lons - clon) ** 2 + (lats - clat) ** 2 <= DISK_RADIUS_DEG**2
        labels[s, inside] = 1
    return obs, EvalGrid(grid=grid, species_ids=obs.species_ids, labels=labels)


@lru_cache(maxsize=None)
def _disk_run(variant_value: str, seed: int):
    """Train on the disk corpus, score against the dense truth grid."""
    obs, eval_grid = _disk_task()
    cfg = TrainConfig(
        net=NetConfig(input_dim=4, n_species=3, hidden_dim=128, n_residual_layers=2,
                      dropout_p=0.1, seed=seed),
        loss=LossConfig(LossVariant(variant_value), lam=2048.0),
        epochs=10,
        batch_size=256,
        initial_lr=1e-3,
        master_seed=seed,
    )
    start = time.monotonic()
    result = train(cfg, obs)
    elapsed = time.monotonic() - start

    def predict(lons, lats):
        x = assemble_inputs(lons, lats, InputLayout.COORDS, None)
        return forward(result.params, cfg.net, x)[1]

    mean_ap = map_task(predict, eval_grid).mean_ap
    return mean_ap, tuple(epoch_means(result)), elapsed


# ---------------------------------------------------------------------------
# 1. Analytic gradients match finite differences on random small networks
# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences():
    start = time.monotonic()
    setups = []
    seed = 0
    while len(setups) < 20:  # keep only multi-species draws so every
        setup = well_conditioned_setup(seed)  # variant applies to every net
        seed += 1
        if setup is not None and setup[6] is not None:
            setups.append(setup)
    worst = 0.0
    for cfg, params, x_all, b, targets, lam, j_prime in setups:
        for variant in LossVariant:
            slds = variant in (LossVariant.AN_SLDS, LossVariant.ME_SLDS)
            xs = x_all[:b] if slds else x_all
            analytic = composed_grads(params, cfg, xs, b, variant, targets, lam, j_prime)
            numeric = fd_grads(
                lambda p: composed_loss(p, cfg, xs, b, variant, targets, lam, j_prime),
                params,
                h=1e-5,
            )
            worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"worst relative gradient error {worst}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Worked loss examples reproduce under independent hand recomputation
# ---------------------------------------------------------------------------


def test_criterion_02_loss_hand_values():
    t2 = BatchTargets(np.array([0]), 2)

    v, _, _ = loss("an-ssdl", [[0.8, 0.3]], t2, y_hat_rand=[[0.6, 0.9]])
    assert abs(v - -(math.log(0.8) + math.log(1 - 0.6))) < 1e-4  # 1.1394...

    v, _, _ = loss("an-slds", [[0.8, 0.3]], t2, j_prime=np.array([1]))
    assert abs(v - -(math.log(0.8) + math.log(1 - 0.3))) < 1e-4  # 0.5798...

    v, _, _ = loss("an-full", [[0.5]], BatchTargets(np.array([0]), 1), lam=1.0, y_hat_rand=[[0.5]])
    assert abs(v - 2 * math.log(2)) < 1e-4  # 1.3863...

    v, _, _ = loss("an-full", [[0.8, 0.3]], t2, lam=2048.0, y_hat_rand=[[0.6, 0.9]])
    hand = -0.5 * (
        2048.0 * math.log(0.8) + math.log(1 - 0.3) + math.log(1 - 0.6) + math.log(1 - 0.9)
    )
    assert abs(v - hand) < 1e-4  # 230.2868...

    def entropy(p):
        return -(p * math.log(p) + (1 - p) * math.log(1 - p))

    v, _, _ = loss("me-ssdl", [[0.8, 0.3]], t2, y_hat_rand=[[0.6, 0.9]])
    assert abs(v - (-math.log(0.8) + entropy(0.6))) < 1e-4  # 0.8962...

    assert abs(bernoulli_entropy(0.25) - entropy(0.25)) < 1e-4  # 0.5623...


# ---------------------------------------------------------------------------
# 3. Entropy and negative-log terms coincide at one half
# ---------------------------------------------------------------------------


def test_criterion_03_entropy_matches_log_terms_at_half():
    rng = np.random.default_rng(8)
    b, s = 6, 4
    targets = BatchTargets(rng.integers(0, s, b).astype(np.int64), s)
    y_free = rng.uniform(0.05, 0.95, (b, s))

    # Replaced terms in the paired variants are the random-location factors,
    # the sampled-species factor, and every non-positive direct factor: pin
    # each of those predictions at 0.5 and the variants must agree.
    y_half_rand = np.full((b, s), 0.5)
    an, _, _ = loss("an-ssdl", y_free, targets, y_hat_rand=y_half_rand)
    me, _, _ = loss("me-ssdl", y_free, targets, y_hat_rand=y_half_rand)
    assert abs(an - me) < 1e-12

    jp = ((targets.positive_index + 1) % s).astype(np.int64)
    y_slds = y_free.copy()
    y_slds[np.arange(b), jp] = 0.5
    an, _, _ = loss("an-slds", y_slds, targets, j_prime=jp)
    me, _, _ = loss("me-slds", y_slds, targets, j_prime=jp)
    assert abs(an - me) < 1e-12

    y_full = np.full((b, s), 0.5)
    y_full[np.arange(b), targets.positive_index] = rng.uniform(0.05, 0.95, b)
    for lam in (1.0, 512.0):
        an, _, _ = loss("an-full", y_full, targets, lam=lam, y_hat_rand=y_half_rand)
        me, _, _ = loss("me-full", y_full, targets, lam=lam, y_hat_rand=y_half_rand)
        assert abs(an - me) < 1e-12


# ---------------------------------------------------------------------------
# 4. Average precision against an exhaustive oracle
# ---------------------------------------------------------------------------


def test_criterion_04_average_precision_oracle():
    from sinr.evaluate import average_precision

    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = rng.random(n)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)  # exercise tied scores
        assert abs(
            average_precision(scores, labels) - ap_oracle(scores.tolist(), labels.tolist())
        ) <= 1e-12

    # A predictor that reads the truth off the grid ranks perfectly.
    _, eval_grid = _disk_task()

    def oracle_predictor(lons, lats):
        cells = cell_indices(np.asarray(lons), np.asarray(lats), eval_grid.grid)
        return (eval_grid.labels[:, cells] == 1).astype(np.float64).T

    assert map_task(oracle_predictor, eval_grid).mean_ap == 1.0


# ---------------------------------------------------------------------------
# 5. Synthetic end-to-end run: disk ranges recovered from presence-only data
# ---------------------------------------------------------------------------


def test_criterion_05_synthetic_end_to_end():
    mean_ap, epoch_means, elapsed = _disk_run(LossVariant.AN_FULL.value, 0)
    assert mean_ap >= 0.95, f"MAP {mean_ap:.4f}"
    for a, b in zip(epoch_means[:5], epoch_means[1:5]):
        assert a > b, f"epoch means not strictly decreasing: {epoch_means[:5]}"
    assert elapsed < 300.0, f"training took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. Full-assumption loss keeps pace with its single-pseudo-negative variant
# ---------------------------------------------------------------------------


def test_criterion_06_loss_ranking_sanity():
    full = [_disk_run(LossVariant.AN_FULL.value, seed)[0] for seed in range(5)]
    ssdl = [_disk_run(LossVariant.AN_SSDL.value, seed)[0] for seed in range(5)]
    assert np.mean(full) >= np.mean(ssdl) - 0.02, (
        f"mean MAP full={np.mean(full):.4f} ssdl={np.mean(ssdl):.4f}"
    )


# ---------------------------------------------------------------------------
# 7. Subsampling caps nest; min-count filter matches brute force
# ---------------------------------------------------------------------------


def _fifty_species_obs() -> ObservationSet:
    rng = np.random.default_rng(21)
    counts = [int(5 * 1.13**i) for i in range(50)]  # 5 ... ~2200 records
    index = np.repeat(np.arange(50, dtype=np.int64), counts)
    index = index[rng.permutation(index.size)]
    return ObservationSet(
        tuple(f"sp{i:03d}" for i in range(50)),
        index,
        rng.uniform(-180.0, 180.0, index.size),
        rng.uniform(-90.0, 90.0, index.size),
    )


def test_criterion_07_subsampling_nesting_and_min_count():
    obs = _fifty_species_obs()
    seed = 4
    capped = {k: subsample_cap(obs, k, seed) for k in (10, 100, 1000)}
    for k, sub in capped.items():
        np.testing.assert_array_equal(
            sub.counts(), np.minimum(obs.counts(), k)
        )
    for k_small, k_big in ((10, 100), (10, 1000), (100, 1000)):
        small = set(zip(capped[k_small].lons, capped[k_small].lats))
        big = set(zip(capped[k_big].lons, capped[k_big].lats))
        assert small <= big, f"cap {k_small} is not nested inside cap {k_big}"

    for min_count in (1, 7, 500, 2000):
        got = filter_min_count(obs, min_count)
        keep_species = [
            sid
            for sid, cnt in zip(obs.species_ids, obs.counts())
            if cnt >= min_count
        ]
        assert got.species_ids == tuple(keep_species)
        expected_rows = [
            (obs.species_ids[obs.species_index[i]], obs.lons[i], obs.lats[i])
            for i in range(obs.n_records)
            if obs.species_ids[obs.species_index[i]] in set(keep_species)
        ]
        actual_rows = [
            (got.species_ids[got.species_index[i]], got.lons[i], got.lats[i])
            for i in range(got.n_records)
        ]
        assert actual_rows == expected_rows


# ---------------------------------------------------------------------------
# 8. Grid baseline: exact hand counts, and speed at a million records
# ---------------------------------------------------------------------------


def test_criterion_08_grid_baseline_exact_and_fast():
    grid = GridSpec(2)
    lons, lats = cell_centroids(grid, np.array([0, 1, 2]))
    obs = ObservationSet(
        ("seen", "never"),
        np.zeros(4, dtype=np.int64),
        np.array([lons[0]] * 3 + [lons[1]]),
        np.array([lats[0]] * 3 + [lats[1]]),
    )
    model = grid_baseline_fit(obs, grid)
    ratio = grid_baseline_scores(model, lons, lats, "ratio")
    indicator = grid_baseline_scores(model, lons, lats, "indicator")
    assert ratio[:, 0].tolist() == [1.0, 1 / 3, 0.0]
    assert indicator[:, 0].tolist() == [1.0, 1.0, 0.0]
    assert ratio[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert indicator[:, 1].tolist() == [0.0, 0.0, 0.0]

    rng = np.random.default_rng(77)
    n = 1_000_000
    big = ObservationSet(
        tuple(f"sp{i:02d}" for i in range(50)),
        rng.integers(0, 50, n).astype(np.int64),
        rng.uniform(-180.0, 180.0, n),
        rng.uniform(-90.0, 90.0, n),
    )
    start = time.monotonic()
    big_model = grid_baseline_fit(big, GridSpec(10))
    scores = grid_baseline_scores(big_model, big.lons, big.lats, "ratio")
    elapsed = time.monotonic() - start
    assert scores.shape == (n, 50)
    assert big_model.counts.sum() == n
    assert elapsed < 10.0, f"fit+predict took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. Ridge against an independent solver; feature probing end to end
# ---------------------------------------------------------------------------


def test_criterion_09_ridge_oracle_and_feature_probe(tmp_path):
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        alpha = float(10 ** rng.uniform(-4, 2))
        w, b = ridge_fit(x, y, alpha)
        # Independent oracle: solve the augmented normal equations with an
        # explicit, unpenalized intercept column.
        xa = np.hstack([x, np.ones((n, 1))])
        reg = alpha * np.eye(d + 1)
        reg[d, d] = 0.0
        theta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y)
        np.testing.assert_allclose(w, theta[:d], atol=1e-8, rtol=0)
        assert abs(b - theta[d]) < 1e-8

    rows, cols = 12, 24
    lat_row = np.repeat(np.linspace(60.0, -60.0, rows)[:, None], cols, axis=1)
    lon_col = np.repeat(np.linspace(-150.0, 150.0, cols)[None, :], rows, axis=0)
    write_env_raster(tmp_path / "a.env", lat_row + 0.5 * lon_col, (-180, 180, -90, 90))
    write_env_raster(tmp_path / "b.env", 0.1 * lat_row - lon_col, (-180, 180, -90, 90))
    stack = load_env_rasters([tmp_path / "a.env", tmp_path / "b.env"])
    cells = stack.fully_observed_cells()
    train_cells, test_cells = cells[::2], cells[1::2]

    planted = geo_feature_task(
        lambda lons, lats: np.stack([lons, lats], axis=1), stack, train_cells, test_cells
    )
    assert planted.mean_r2 > 0.999, f"planted target R^2 {planted.mean_r2:.5f}"

    noise_rng = np.random.default_rng(5)
    noise = geo_feature_task(
        lambda lons, lats: noise_rng.normal(size=(len(lons), 6)),
        stack, train_cells, test_cells,
    )
    assert noise.mean_r2 <= 0.05, f"noise features R^2 {noise.mean_r2:.5f}"


# ---------------------------------------------------------------------------
# 10. Prior re-ranking: exact deltas on hand fixtures
# ---------------------------------------------------------------------------


class _FixedPrior:
    def __init__(self, probs):
        self._probs = dict(probs)

    @property
    def species_ids(self):
        return tuple(self._probs)

    def __call__(self, lons, lats):
        return np.tile(np.array(list(self._probs.values())), (len(lons), 1))


def test_criterion_10_prior_reranking_exact_deltas():
    score_set = ClassifierScoreSet(
        (
            ClassifierRecord("r1", "A", 10.0, 20.0, ("A", "B"), np.array([0.6, 0.9])),
            ClassifierRecord("r2", "C", -30.0, 5.0, ("C", "D"), np.array([0.8, 0.2])),
        )
    )
    identity = geo_prior_delta(
        score_set, _FixedPrior({"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0})
    )
    assert identity.delta_points == 0.0

    zero_b = geo_prior_delta(score_set, _FixedPrior({"B": 0.0}))
    assert zero_b.baseline_acc == 0.5
    assert zero_b.weighted_acc == 1.0
    assert zero_b.delta_points == 50.0


# ---------------------------------------------------------------------------
# 11. Determinism and serialization
# ---------------------------------------------------------------------------


def test_criterion_11_determinism_and_serialization(tmp_path):
    rng = np.random.default_rng(2)
    obs = ObservationSet(
        ("p", "q", "r"),
        rng.integers(0, 3, 400).astype(np.int64),
        rng.uniform(-170, 170, 400),
        rng.uniform(-80, 80, 400),
    )
    cfg = TrainConfig(
        net=NetConfig(input_dim=4, n_species=3, hidden_dim=16, n_residual_layers=1,
                      dropout_p=0.5, seed=6),
        loss=LossConfig(LossVariant.AN_FULL, lam=32.0),
        epochs=4,
        batch_size=64,
        initial_lr=1e-3,
        master_seed=13,
    )

    # Two runs, two files: byte-identical.
    paths = []
    for name in ("one.sinr", "two.sinr"):
        result = train(cfg, obs)
        path = tmp_path / name
        save_model(result.params, cfg.net, path, input_layout=InputLayout.COORDS,
                   species_ids=result.species_ids)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # Save/load round-trip: bit-identical predictions.
    straight = train(cfg, obs)
    x = assemble_inputs(np.linspace(-179, 179, 64), np.linspace(-89, 89, 64),
                        InputLayout.COORDS, None)
    _, y_mem = forward(straight.params, cfg.net, x)
    loaded = read_model_file(paths[0])
    _, y_disk = forward(loaded.params, loaded.cfg, x)
    assert y_mem.tobytes() == y_disk.tobytes()

    # Checkpoint-resume: bit-identical parameters and predictions.
    ckpt = tmp_path / "run.ckpt"
    train_interrupted(cfg, obs, ckpt, after=2)
    resumed = train(cfg, obs, checkpoint_path=ckpt)
    assert params_equal(straight.params, resumed.params)
    assert model_to_bytes(straight.params, cfg.net) == model_to_bytes(resumed.params, cfg.net)
    _, y_resumed = forward(resumed.params, cfg.net, x)
    assert y_mem.tobytes() == y_resumed.tobytes()


# ---------------------------------------------------------------------------
# 12. Learning-rate schedule
# ---------------------------------------------------------------------------


def test_criterion_12_learning_rate_schedule():
    # Independent recomputation: accumulate the per-epoch decay step by step.
    expected = 5e-4
    for _ in range(9):
        expected *= LR_DECAY
    assert abs(lr_at_epoch(5e-4, 9) - expected) < 1e-7
    lrs = [lr_at_epoch(5e-4, e) for e in range(300)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
