"""Pretraining loop: counts, determinism, degenerate configs."""

from __future__ import annotations

import numpy as np
import pytest

from tempt import data, losses, model, training
from tempt import tensor as T
from tempt.errors import DivergedLoss, EmptyClass


def tiny_dataset(master_seed=0, n_videos=6, t=48):
    # master_seed 0 covers all 8 classes at this size
    videos = data.make_videos(
        n_videos, t, 8, data.ShiftRanges(), 0.02, 10, master_seed=master_seed, templates=data.class_templates(4)
    )
    return data.FrameDataset.from_videos(videos)


def test_class_counts_balanced():
    ds = data.FrameDataset(np.zeros((16, 3, 8, 8), dtype=np.float32), np.repeat(np.arange(8), 2))
    counts = training.class_counts(ds, 8, 0.5)
    assert counts.n == (2,) * 8


def test_class_counts_match_video_ledger():
    ds = tiny_dataset()
    counts = training.class_counts(ds, 8, margin_scale=0.7)
    assert counts.n == tuple(np.bincount(ds.labels, minlength=8))
    assert sum(counts.n) == len(ds)
    assert counts.margin_scale == 0.7


def test_class_counts_rejects_empty_class():
    ds = data.FrameDataset(np.zeros((4, 3, 8, 8), dtype=np.float32), np.array([0, 0, 1, 1]))
    with pytest.raises(EmptyClass):
        training.class_counts(ds, 8, 0.5)


def balanced_toy_dataset(seed=0, per_class=1, hw=8):
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = rng.uniform(0, 1, size=(8 * per_class, 3, hw, hw)).astype(np.float32)
    labels = np.repeat(np.arange(8), per_class)
    return data.FrameDataset(frames, labels)


def test_train_deterministic(tiny_spec):
    ds = balanced_toy_dataset()
    cfg = training.TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=5)
    a = training.train(tiny_spec, ds, cfg)
    b = training.train(tiny_spec, ds, cfg)
    for name in a.params.names():
        assert a.params[name].array.tobytes() == b.params[name].array.tobytes()
    assert a.step_losses == b.step_losses
    assert len(a.epoch_log) == 2


def test_train_lr_zero_only_stats_move(tiny_spec):
    ds = balanced_toy_dataset()
    base = model.build_model(tiny_spec, seed=5)
    result = training.train(tiny_spec, ds, training.TrainConfig(epochs=1, batch_size=4, lr=0.0, seed=5))
    for name in base.names():
        same = result.params[name].array.tobytes() == base[name].array.tobytes()
        if base[name].group == model.GROUP_BN_STATS:
            assert not same, f"{name} should track batch statistics"
        else:
            assert same, f"{name} must not move at lr 0"


def test_train_loss_decreases_across_seeds(tiny_spec):
    """One epoch on an 8-sample set should reduce the dataset loss for
    nearly every seed."""
    improved = 0
    for seed in range(20):
        ds = balanced_toy_dataset(seed=seed)
        cfg = training.TrainConfig(epochs=1, batch_size=4, lr=1e-2, seed=seed)
        counts = training.class_counts(ds, 8, cfg.margin_scale)

        def dataset_loss(params):
            z = model.forward(params, ds.frames, mode="eval")
            return losses.ldam_loss(z, ds.labels, counts).item()

        before = dataset_loss(model.build_model(tiny_spec, seed))
        result = training.train(tiny_spec, ds, cfg)
        if dataset_loss(result.params) < before:
            improved += 1
    assert improved >= 18, f"only {improved}/20 seeds improved"


def test_margin_zero_gradients_match_cross_entropy_bitwise(rng):
    z0 = rng.uniform(-3, 3, size=(6, 8)).astype(np.float32)
    labels = rng.integers(0, 8, size=6)
    counts = losses.ClassCounts((10,) * 8, margin_scale=0.0)

    za = T.Tensor(z0, requires_grad=True)
    ga = T.backward(losses.ldam_loss(za, labels, counts))[za].data
    zb = T.Tensor(z0, requires_grad=True)
    gb = T.backward(losses.cross_entropy(zb, labels))[zb].data
    assert ga.tobytes() == gb.tobytes()


def test_epoch_log_schema(tiny_spec):
    ds = balanced_toy_dataset()
    result = training.train(tiny_spec, ds, training.TrainConfig(epochs=1, batch_size=8, seed=1))
    entry = result.epoch_log[0]
    assert set(entry) == {"epoch", "loss", "f1", "lr"}
    assert entry["lr"] == pytest.approx(1e-3)
    assert 0.0 <= entry["f1"] <= 1.0


def test_lr_step_decay(tiny_spec):
    ds = balanced_toy_dataset()
    cfg = training.TrainConfig(epochs=3, batch_size=8, lr=1e-2, lr_step_epochs=2, lr_gamma=0.1, seed=0)
    result = training.train(tiny_spec, ds, cfg)
    lrs = [e["lr"] for e in result.epoch_log]
    assert lrs == pytest.approx([1e-2, 1e-2, 1e-3])


def test_nonfinite_forward_activation_raises_diverged(tiny_spec, nan_in_tracked_relu):
    """A NaN born inside the forward pass (not at the loss) ends training with DivergedLoss."""
    with pytest.raises(DivergedLoss, match="relu"):
        training.train(tiny_spec, balanced_toy_dataset(), training.TrainConfig(epochs=1, batch_size=4, seed=0))


def test_nonfinite_gradient_at_optimizer_raises_diverged(tiny_spec, monkeypatch):
    real_backward = T.backward

    def poisoned_backward(loss):
        grads = real_backward(loss)
        for g in grads.values():
            g.data[...] = np.nan
        return grads

    monkeypatch.setattr(T, "backward", poisoned_backward)
    with pytest.raises(DivergedLoss, match="gradient"):
        training.train(tiny_spec, balanced_toy_dataset(), training.TrainConfig(epochs=1, batch_size=4, seed=0))


def test_overflowing_lr_raises_diverged(tiny_spec):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedLoss):
            training.train(tiny_spec, balanced_toy_dataset(), training.TrainConfig(epochs=2, batch_size=4, lr=1e38, seed=0))
