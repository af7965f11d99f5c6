"""Adaptation loop contracts: parameter isolation, determinism, fixed point."""

from __future__ import annotations

import numpy as np
import pytest

import tempt.adapt as adapt_mod
from tempt import adapt, data, model, temporal
from tempt import tensor as T
from tempt.errors import LabelOutOfRange, NoAdaptableParams, NonFiniteLoss


def small_video(rng, t=64, hw=8, noise=0.05, shift=None):
    templates = data.class_templates(patch=4)
    shift = shift or data.Shift(brightness=0.1, contrast=1.2, channel_gain=(1.1, 0.9, 1.0))
    return data.generate_video(templates, t, hw, shift, noise, min_segment=8, seed=int(rng.integers(2**31)))


@pytest.fixture
def video(rng):
    return small_video(rng)


def tempt_config(**kw):
    base = dict(method="tempt", steps=4, lr=1e-2, median_window=5, region_window=8, num_regions=3, batch_frames_cap=24, seed=3)
    base.update(kw)
    return adapt.AdaptConfig(**base)


def test_trainable_subset_is_bn_affine(tiny_params):
    names = adapt.trainable_subset(tiny_params, "tempt")
    # stem + 2 blocks x (bn1, bn2, proj_bn) = 7 bn layers, gamma+beta each
    assert len(names) == 14
    assert names == tiny_params.names_in_group(model.GROUP_BN_AFFINE)
    assert all(tiny_params[n].group == model.GROUP_BN_AFFINE for n in names)
    assert not any("running" in n for n in names)
    assert adapt.trainable_subset(tiny_params, "tent") == names
    assert adapt.trainable_subset(tiny_params, "none") == []


def test_trainable_subset_requires_bn(tiny_spec):
    params = model.ModelParams(tiny_spec)
    params.add("w", np.ones(3, dtype=np.float32), model.GROUP_OTHER)
    with pytest.raises(NoAdaptableParams):
        adapt.trainable_subset(params, "tempt")


@pytest.mark.parametrize("method", adapt.METHODS)
def test_label_out_of_range_raises_before_any_forward(tiny_params, video, monkeypatch, method):
    calls = []
    real_forward = model.forward
    monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(1) or real_forward(*a, **k))
    labels = video.labels.copy()
    labels[5] = 99
    with pytest.raises(LabelOutOfRange, match=r"^labels outside \[0,8\)$"):
        adapt.adapt_video(tiny_params, video.frames, tempt_config(method=method), labels=labels)
    assert calls == []


def test_steps_zero_is_bitwise_noop(tiny_params, video):
    cfg = tempt_config(steps=0)
    adapted, report = adapt.adapt_video(tiny_params, video.frames, cfg, labels=video.labels)
    assert report.logits_after.tobytes() == report.logits_before.tobytes()
    assert report.f1_after == report.f1_before
    assert report.norm_changes_after == report.norm_changes_before
    assert report.loss_trace == []
    for name in tiny_params.names():
        assert adapted[name].array.tobytes() == tiny_params[name].array.tobytes()


def test_method_none_keeps_metrics_equal(tiny_params, video):
    _, report = adapt.adapt_video(tiny_params, video.frames, adapt.AdaptConfig(method="none"), labels=video.labels)
    assert report.f1_after == report.f1_before
    assert report.loss_trace == []


def test_original_params_untouched(tiny_params, video):
    before = {n: tiny_params[n].array.tobytes() for n in tiny_params.names()}
    adapt.adapt_video(tiny_params, video.frames, tempt_config())
    assert {n: tiny_params[n].array.tobytes() for n in tiny_params.names()} == before


@pytest.mark.parametrize("method", ["tempt", "tent"])
def test_parameter_isolation(tiny_params, video, method):
    cfg = tempt_config(method=method)
    adapted, _ = adapt.adapt_video(tiny_params, video.frames, cfg)
    assert adapt.isolate_check(tiny_params, adapted) == []
    # and the adaptation really did move the bn_affine subset
    moved = any(
        adapted[n].array.tobytes() != tiny_params[n].array.tobytes()
        for n in tiny_params.names_in_group(model.GROUP_BN_AFFINE)
    )
    assert moved


def test_fixed_point_constant_video(tiny_params):
    """A video whose logit series equals its own median target must not move."""
    frame = np.full((1, 3, 8, 8), 0.3, dtype=np.float32)
    frames = np.repeat(frame, 40, axis=0)
    cfg = tempt_config(steps=6, weight_decay=0.0, batch_frames_cap=16, region_window=8, num_regions=2)
    adapted, report = adapt.adapt_video(tiny_params, frames, cfg)
    assert all(v == 0.0 for v in report.loss_trace)
    for name in tiny_params.names():
        assert adapted[name].array.tobytes() == tiny_params[name].array.tobytes(), name


def test_adapt_deterministic(tiny_params, video):
    cfg = tempt_config(region_sample=True, seed=11)
    a1, r1 = adapt.adapt_video(tiny_params, video.frames, cfg, labels=video.labels)
    a2, r2 = adapt.adapt_video(tiny_params, video.frames, cfg, labels=video.labels)
    assert r1.loss_trace == r2.loss_trace
    assert r1.regions == r2.regions
    assert r1.logits_after.tobytes() == r2.logits_after.tobytes()
    for name in a1.names():
        assert a1[name].array.tobytes() == a2[name].array.tobytes()


def test_tent_batches_differ_per_step_but_seeded(tiny_params, video):
    cfg = adapt.AdaptConfig(method="tent", steps=3, lr=1e-2, batch_frames_cap=16, seed=5)
    _, r1 = adapt.adapt_video(tiny_params, video.frames, cfg)
    _, r2 = adapt.adapt_video(tiny_params, video.frames, cfg)
    assert r1.loss_trace == r2.loss_trace
    _, r3 = adapt.adapt_video(tiny_params, video.frames, adapt.AdaptConfig(method="tent", steps=3, lr=1e-2, batch_frames_cap=16, seed=6))
    assert r1.loss_trace != r3.loss_trace


def test_target_checksum_recorded(tiny_params, video):
    _, report = adapt.adapt_video(tiny_params, video.frames, tempt_config())
    y_before = report.logits_before
    target = temporal.median_filter(y_before, 5)
    assert report.target_checksum == adapt_mod._checksum(target)


def test_loss_trace_length_and_finite(tiny_params, video):
    cfg = tempt_config(steps=7)
    _, report = adapt.adapt_video(tiny_params, video.frames, cfg)
    assert len(report.loss_trace) == 7
    assert all(np.isfinite(v) for v in report.loss_trace)


def test_tempt_optimizes_its_objective(tiny_params, video):
    cfg = tempt_config(steps=8)
    _, report = adapt.adapt_video(tiny_params, video.frames, cfg)
    assert report.loss_trace[-1] < report.loss_trace[0]


def test_nonfinite_loss_aborts_with_unadapted_copy(tiny_params, video, monkeypatch):
    def broken(*args, **kwargs):
        raise NonFiniteLoss("synthetic failure")

    monkeypatch.setattr(adapt_mod.losses, "temporal_consistency_loss", broken)
    adapted, report = adapt.adapt_video(tiny_params, video.frames, tempt_config())
    assert report.diagnostic is not None
    assert report.loss_trace == []
    for name in tiny_params.names():
        assert adapted[name].array.tobytes() == tiny_params[name].array.tobytes()


def assert_aborted_unadapted(params, adapted, report):
    assert report.diagnostic is not None
    for name in params.names():
        assert adapted[name].array.tobytes() == params[name].array.tobytes(), name
    assert report.logits_after.tobytes() == report.logits_before.tobytes()


@pytest.mark.parametrize("method", ["tempt", "tent"])
def test_nonfinite_forward_activation_aborts_with_report(tiny_params, video, nan_in_tracked_relu, method):
    adapted, report = adapt.adapt_video(tiny_params, video.frames, tempt_config(method=method), labels=video.labels)
    assert_aborted_unadapted(tiny_params, adapted, report)
    assert "relu" in report.diagnostic
    assert report.loss_trace == []
    assert report.f1_after == report.f1_before


def test_nonfinite_gradient_at_optimizer_aborts_with_report(tiny_params, video, monkeypatch):
    real_backward = T.backward

    def poisoned_backward(loss):
        grads = real_backward(loss)
        for g in grads.values():
            g.data[...] = np.inf
        return grads

    monkeypatch.setattr(T, "backward", poisoned_backward)
    adapted, report = adapt.adapt_video(tiny_params, video.frames, tempt_config())
    assert_aborted_unadapted(tiny_params, adapted, report)
    assert "gradient" in report.diagnostic
    assert report.loss_trace == []


def test_overflowing_lr_aborts_with_report(tiny_params, video):
    """A huge step blows the weights up; the next forward pass must end the run, not escape."""
    with np.errstate(over="ignore", invalid="ignore"):
        adapted, report = adapt.adapt_video(tiny_params, video.frames, tempt_config(lr=1e25))
    assert_aborted_unadapted(tiny_params, adapted, report)
    assert len(report.loss_trace) < 4


def test_round_robin_cap():
    regions = [temporal.Region(0, 4, 3), temporal.Region(10, 14, 2)]
    idx = adapt_mod._round_robin_cap(regions, 6)
    assert list(idx) == [0, 1, 2, 10, 11, 12]
    idx_all = adapt_mod._round_robin_cap(regions, 100)
    assert list(idx_all) == [0, 1, 2, 3, 10, 11, 12, 13]
    # unequal lengths: the exhausted 2-frame region is skipped from the third round on
    uneven = [temporal.Region(0, 2, 0), temporal.Region(5, 10, 0), temporal.Region(20, 23, 0)]
    assert list(adapt_mod._round_robin_cap(uneven, 6)) == [0, 1, 5, 6, 20, 21]
    assert list(adapt_mod._round_robin_cap(uneven, 7)) == [0, 1, 5, 6, 7, 20, 21]


def test_isolate_check_flags_drift(tiny_params):
    after = tiny_params.copy()
    after["stage0.block0.conv1.w"].array[0, 0, 0, 0] += 1.0
    violations = adapt.isolate_check(tiny_params, after)
    assert violations == ["param-drift:stage0.block0.conv1.w"]


def test_isolate_check_flags_stats_leak(tiny_params):
    after = tiny_params.copy()
    after["stem.bn.running_var"].array[0] += 1e-3
    violations = adapt.isolate_check(tiny_params, after)
    assert violations == ["stats-leak:stem.bn.running_var"]


def test_isolate_check_ignores_bn_affine(tiny_params):
    after = tiny_params.copy()
    after["stem.bn.gamma"].array[0] += 0.5
    assert adapt.isolate_check(tiny_params, after) == []
