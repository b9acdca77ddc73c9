"""The benchmark's traced run times the training layers by replacing module
globals (``perfbench/child.py``, ``WRAPS``). A training step that stopped
calling one of them through that global would leave its span empty without
failing any other test."""

import collections
import importlib

import numpy as np

from helpers import random_obs
from sinr.data import SamplerConfig
from sinr.losses import LossConfig, LossVariant
from sinr.net import NetConfig
from sinr.train import TrainConfig, steps_per_epoch, train

TRACED = [
    ("sinr.train", "forward"),
    ("sinr.train", "compute_loss"),
    ("sinr.train", "backward"),
    ("sinr.net", "_sigmoid"),
]


def test_training_calls_the_traced_names_through_their_globals(monkeypatch):
    calls = collections.Counter()
    for module, attr in TRACED:
        mod = importlib.import_module(module)

        def counted(*args, _real=getattr(mod, attr), _name=f"{module}.{attr}", **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    obs = random_obs(np.random.default_rng(0), n_species=3, n_records=40)
    cfg = TrainConfig(
        net=NetConfig(input_dim=4, n_species=3, hidden_dim=4, n_residual_layers=1, seed=1),
        loss=LossConfig(LossVariant.AN_FULL),
        sampler=SamplerConfig(batch_size=16),
        epochs=1,
        batch_size=16,
    )
    train(cfg, obs)
    steps = steps_per_epoch(obs.n_records, cfg.batch_size)
    assert calls == {f"{m}.{a}": steps for m, a in TRACED}
