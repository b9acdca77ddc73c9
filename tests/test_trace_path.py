"""The benchmark's traced run times the training layers by replacing module
globals (``perfbench/child.py``, ``WRAPS``). A training step that stopped
calling one of them through that global would leave its span empty without
failing any other test. The entries ``_sigmoid`` sees pin the head work a
step does: every entry for the full losses, and only the entries each row
reads for ssdl (one) and slds (two), whatever the species count."""

import collections
import importlib

import numpy as np
import pytest

from helpers import random_obs
from sinr.losses import LossConfig, LossVariant
from sinr.net import NetConfig
from sinr.train import TrainConfig, steps_per_epoch, train

TRACED = [
    ("sinr.train", "forward"),
    ("sinr.train", "compute_loss"),
    ("sinr.train", "backward"),
    ("sinr.net", "_sigmoid"),
]


def _train_counting_traced_calls(monkeypatch, variant, n_species, hidden):
    """Train one epoch with every ``TRACED`` name counted; returns the call
    counts, the head widths ``sinr.train.forward`` returned, the entries each
    step's ``_sigmoid`` calls saw, and the steps."""
    calls = collections.Counter()
    widths, sigmoid_entries = [], []
    for module, attr in TRACED:
        mod = importlib.import_module(module)

        def counted(*args, _real=getattr(mod, attr), _name=f"{module}.{attr}", **kwargs):
            calls[_name] += 1
            if _name == "sinr.train.forward":
                sigmoid_entries.append(0)
            elif _name == "sinr.net._sigmoid":
                sigmoid_entries[-1] += args[0].size
            out = _real(*args, **kwargs)
            if _name == "sinr.train.forward":
                widths.append(out[1].shape[1])
            return out

        monkeypatch.setattr(mod, attr, counted)
    obs = random_obs(np.random.default_rng(0), n_species=n_species, n_records=40)
    cfg = TrainConfig(
        net=NetConfig(input_dim=4, n_species=n_species, hidden_dim=hidden,
                      n_residual_layers=1, seed=1),
        loss=LossConfig(variant),
        epochs=1,
        batch_size=16,
    )
    train(cfg, obs)
    return calls, widths, sigmoid_entries, steps_per_epoch(obs.n_records, cfg.batch_size)


def test_training_calls_the_traced_names_through_their_globals(monkeypatch):
    """An an-full step's forward runs the encoder alone (width 0), and its
    backward runs the head block by block with the loss, not through
    ``compute_loss``; the sigmoid sees every entry of its 32 rows x 3
    species, the 16 record rows and the 16 pseudo-location rows apart."""
    calls, widths, entries, steps = _train_counting_traced_calls(
        monkeypatch, LossVariant.AN_FULL, 3, 4
    )
    assert calls == {"sinr.train.forward": steps, "sinr.train.backward": steps,
                     "sinr.net._sigmoid": 2 * steps}
    assert widths == [0] * steps
    assert entries == [32 * 3] * steps


@pytest.mark.parametrize("variant, rows, width", [(LossVariant.AN_SSDL, 32, 1),
                                                   (LossVariant.ME_SLDS, 16, 2)])
def test_read_head_steps_call_the_traced_names_once_per_step(monkeypatch, variant, rows,
                                                              width):
    """Over 600 species and 64 features, an ssdl step's forward returns its
    32 rows (16 records and 16 pseudo-locations) one entry wide, and an slds
    step's its 16 rows two wide; ``_sigmoid`` sees exactly those entries."""
    calls, widths, entries, steps = _train_counting_traced_calls(monkeypatch, variant, 600, 64)
    assert calls == {f"{m}.{a}": steps for m, a in TRACED}
    assert widths == [width] * steps
    assert entries == [rows * width] * steps
