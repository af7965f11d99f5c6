"""Synthetic generator contracts and evaluation metrics."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from tempt import data, metrics
from tempt.errors import ConfigError, InvalidRange, LabelOutOfRange, LengthMismatch


def test_templates_shape_and_determinism():
    a = data.class_templates()
    b = data.class_templates()
    assert a.shape == (8, 3, 16, 16)
    assert a.tobytes() == b.tobytes()
    assert a.min() >= 0.0 and a.max() <= 1.0
    # all classes pairwise distinct
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(a[i] - a[j]).max() > 0.1


def test_video_deterministic():
    templates = data.class_templates(4)
    ranges = data.ShiftRanges(brightness=(-0.2, 0.2), contrast=(0.8, 1.2), channel_gain=(0.8, 1.2))
    v1 = data.generate_video(templates, 60, 8, ranges, 0.05, 10, seed=42)
    v2 = data.generate_video(templates, 60, 8, ranges, 0.05, 10, seed=42)
    assert v1.frames.tobytes() == v2.frames.tobytes()
    assert np.array_equal(v1.labels, v2.labels)
    assert v1.shift == v2.shift
    v3 = data.generate_video(templates, 60, 8, ranges, 0.05, 10, seed=43)
    assert v1.frames.tobytes() != v3.frames.tobytes()


def test_labels_piecewise_constant_with_min_segment():
    templates = data.class_templates(4)
    video = data.generate_video(templates, 200, 8, data.Shift(), 0.0, 15, seed=9)
    assert video.labels.shape == (200,)
    for start, end, cls in video.segments:
        assert end - start >= 15
        assert np.all(video.labels[start:end] == cls)
    # segments tile [0, T) exactly and never repeat a class consecutively
    assert video.segments[0][0] == 0 and video.segments[-1][1] == 200
    for (s1, e1, c1), (s2, e2, c2) in zip(video.segments, video.segments[1:]):
        assert e1 == s2
        assert c1 != c2


def test_identity_shift_no_noise_renders_exact_template():
    templates = data.class_templates(4)
    video = data.generate_video(templates, 20, 8, data.Shift(), 0.0, 10, seed=3)
    frame = video.frames[0]
    cls = int(video.labels[0])
    off = np.argwhere((frame != 0.25).any(axis=0))
    top, left = off.min(axis=0)
    patch = frame[:, top : top + 4, left : left + 4]
    assert np.array_equal(patch, templates[cls])


def test_shift_applied_to_every_frame():
    templates = data.class_templates(4)
    shift = data.Shift(brightness=0.2, contrast=1.3, channel_gain=(1.2, 0.8, 1.0))
    plain = data.generate_video(templates, 30, 8, data.Shift(), 0.0, 10, seed=5)
    shifted = data.generate_video(templates, 30, 8, shift, 0.0, 10, seed=5)
    want = shift.apply(plain.frames)
    assert np.abs(shifted.frames - want).max() < 1e-6


def test_shift_ranges_validation():
    with pytest.raises(InvalidRange):
        data.ShiftRanges(contrast=(1.2, 0.8))
    with pytest.raises(InvalidRange):
        data.ShiftRanges(channel_gain=(-0.1, 1.0))


def test_make_videos_master_seed(tmp_path):
    ranges = data.ShiftRanges(brightness=(-0.1, 0.1))
    a = data.make_videos(3, 24, 8, ranges, 0.02, 10, master_seed=7, templates=data.class_templates(4))
    b = data.make_videos(3, 24, 8, ranges, 0.02, 10, master_seed=7, templates=data.class_templates(4))
    assert all(x.frames.tobytes() == y.frames.tobytes() for x, y in zip(a, b))
    assert len({v.frames.tobytes() for v in a}) == 3, "per-video seeds must differ"


def test_video_save_load_roundtrip(tmp_path):
    video = data.generate_video(data.class_templates(4), 24, 8, data.Shift(0.1, 1.1, (1.0, 0.9, 1.1)), 0.03, 10, seed=8)
    path = tmp_path / "clip.tten"
    data.save_video(path, video)
    loaded = data.load_video(path)
    assert loaded.frames.tobytes() == video.frames.tobytes()
    assert np.array_equal(loaded.labels, video.labels)

    sidecar = tmp_path / "clip.tten.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "labels": doc["labels"][:-1]}))
    with pytest.raises(LengthMismatch):
        data.load_video(path)
    sidecar.write_text('{"labels": [1')
    with pytest.raises(ConfigError, match="malformed"):
        data.load_video(path)
    sidecar.write_text(json.dumps({k: v for k, v in doc.items() if k != "labels"}))
    with pytest.raises(ConfigError, match="labels"):
        data.load_video(path)
    sidecar.unlink()
    with pytest.raises(ConfigError):
        data.load_video(path)


def _clip_with_sidecar(tmp_path, name, labelled=True, **keys):
    """The same 24-frame clip, saved as ``name`` with its labels (if ``labelled``) and ``keys`` in the sidecar."""
    video = data.generate_video(data.class_templates(4), 24, 8, data.Shift(0.1, 1.1, (1.0, 0.9, 1.1)), 0.03, 10, seed=8)
    path = tmp_path / name
    data.save_video(path, video)
    sidecar = {"labels": video.labels.tolist()} if labelled else {}
    Path(f"{path}.json").write_text(json.dumps({**sidecar, **keys}))
    return path


def test_sidecar_keys_other_than_labels_are_ignored(tmp_path):
    clean = data.load_video(_clip_with_sidecar(tmp_path, "clean.tten"))
    unread = {"segments": "ab", "noise_sigma": "x", "seed": [1], "min_segment": None, "glitch_rate": "y", "glitch_frames": "zz"}
    loaded = data.load_video(_clip_with_sidecar(tmp_path, "odd.tten", **unread))
    assert set(vars(loaded)) == {"frames", "labels"}
    assert loaded.frames.tobytes() == clean.frames.tobytes()
    assert loaded.labels.dtype == np.int64 and loaded.labels.tobytes() == clean.labels.tobytes()
    with pytest.raises(ConfigError, match="'labels'"):
        data.load_video(_clip_with_sidecar(tmp_path, "unlabelled.tten", labelled=False, **unread))


def test_glitch_frames_heavy_tailed_noise():
    templates = data.class_templates(4)
    calm = data.generate_video(templates, 60, 8, data.Shift(), 0.05, 10, seed=4, glitch_rate=0.0)
    spiky = data.generate_video(templates, 60, 8, data.Shift(), 0.05, 10, seed=4, glitch_rate=0.25, glitch_scale=8.0)
    assert calm.glitch_frames == ()
    assert 0 < len(spiky.glitch_frames) < 60
    # glitched frames deviate far more from their template rendering
    per_frame_dev = np.abs(spiky.frames - calm.frames).mean(axis=(1, 2, 3))
    glitched = np.zeros(60, dtype=bool)
    glitched[list(spiky.glitch_frames)] = True
    assert per_frame_dev[glitched].min() > per_frame_dev[~glitched].max()


def test_frame_dataset_flattens():
    videos = data.make_videos(2, 24, 8, data.ShiftRanges(), 0.0, 10, master_seed=1, templates=data.class_templates(4))
    ds = data.FrameDataset.from_videos(videos)
    assert len(ds) == 48
    assert ds.frames.shape == (48, 3, 8, 8)
    assert np.array_equal(ds.labels[:24], videos[0].labels)


# ---------------------------------------------------------------------------
# macro F1


def test_macro_f1_perfect():
    labels = [0, 1, 2, 3, 4, 5, 6, 7]
    r = metrics.macro_f1(labels, labels, 8)
    assert r.macro_f1 == 1.0
    assert r.per_class_f1 == [1.0] * 8


def test_macro_f1_single_class_predictor():
    labels = list(range(8)) * 3  # uniform ground truth over 8 classes
    preds = [2] * 24
    r = metrics.macro_f1(preds, labels, 8)
    assert r.per_class_f1[2] == pytest.approx(2 / 9)
    assert sum(r.per_class_f1) == pytest.approx(2 / 9)
    assert r.macro_f1 == pytest.approx(1 / 36)


def test_macro_f1_permutation_invariant(rng):
    preds = rng.integers(0, 8, size=100)
    labels = rng.integers(0, 8, size=100)
    base = metrics.macro_f1(preds, labels, 8).macro_f1
    perm = rng.permutation(8)
    assert metrics.macro_f1(perm[preds], perm[labels], 8).macro_f1 == pytest.approx(base, abs=1e-12)


def test_confusion_row_sums_are_class_counts(rng):
    preds = rng.integers(0, 5, size=60)
    labels = rng.integers(0, 5, size=60)
    r = metrics.macro_f1(preds, labels, 5)
    assert np.array_equal(r.confusion.sum(axis=1), np.bincount(labels, minlength=5))
    assert 0.0 <= r.macro_f1 <= 1.0


def test_macro_f1_absent_class_counts_as_zero():
    # class 3 never appears at all: F1 contribution 0, still averaged over k
    preds = [0, 1, 2, 0]
    labels = [0, 1, 2, 2]
    r = metrics.macro_f1(preds, labels, 4)
    assert r.per_class_f1[3] == 0.0
    assert r.macro_f1 == pytest.approx(np.mean(r.per_class_f1))


def test_macro_f1_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        metrics.macro_f1([0, 1], [0, 5], 4)


def test_evaluate_logits_norm_changes(rng):
    logits = np.zeros((6, 3), dtype=np.float32)
    logits[:3, 0] = 1.0
    logits[3:, 1] = 1.0
    labels = [0, 0, 0, 1, 1, 1]
    r = metrics.evaluate_logits(logits, labels, 3)
    assert r.macro_f1 == pytest.approx(np.mean([1.0, 1.0, 0.0]))
    assert r.norm_changes == pytest.approx(1 / 5)
