"""The shipped run configuration: present, strict-loadable, test split untouched."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from tempt import cli, config
from tempt.adapt import AdaptConfig
from tempt.benchmark import BenchmarkConfig
from tempt.errors import ConfigError, InvalidRange, InvalidSpec
from tempt.model import ModelSpec
from tempt.training import TrainConfig

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def test_shipped_default_config_loads():
    assert DEFAULT_CONFIG.is_file(), f"{DEFAULT_CONFIG} is missing; README, CLI examples and acceptance read it"
    config.load_config(DEFAULT_CONFIG)


def test_shipped_default_config_keeps_the_test_split():
    """Only pretraining data (train_shift) may differ from the benchmark defaults."""
    doc = json.loads(DEFAULT_CONFIG.read_text())
    assert set(doc.get("benchmark", {})) <= {"train_shift"}
    cfg = config.load_config(DEFAULT_CONFIG)
    assert cfg.benchmark == dataclasses.replace(BenchmarkConfig(), train_shift=cfg.benchmark.train_shift)


def test_shipped_train_shift_holds_out_the_strongest_test_shifts():
    cfg = config.load_config(DEFAULT_CONFIG)
    train, test = cfg.benchmark.train_shift, cfg.benchmark.test_shift
    for name in ("brightness", "contrast", "channel_gain"):
        (lo, hi), (test_lo, test_hi) = getattr(train, name), getattr(test, name)
        assert test_lo < lo <= hi < test_hi, name


@pytest.mark.parametrize(
    "doc",
    [
        {"adapt": {"method": "foo"}},
        {"adapt": {"steps": "10"}},
        {"train": {"epochs": 0}},
        {"adapt": {"median_window": 4}},
        {"adapt": {"beta1": "x"}},
        {"adapt": {"steps": 2.5}},
        {"benchmark": {"master_seed": None}},
        {"adapt": {"num_regions": 0}},
        {"adapt": {"region_window": 1}},
        {"train": {"lr": -1}},
        {"train": {"lr_step_epochs": 0}},
        {"train": {"lr_gamma": 0}},
        {"train": {"weight_decay": -1e-4}},
        {"adapt": {"beta1": 1.0}},
        {"adapt": {"beta2": -0.1}},
        {"adapt": {"eps": 0}},
        {"adapt": {"weight_decay": -0.01}},
        {"model": {"in_channels": 0}},
        {"adapt": {"lr": float("nan")}},
        {"benchmark": {"glitch_scale": float("inf")}},
        {"benchmark": {"test_glitch_rate": -0.5}},
        {"benchmark": {"test_glitch_rate": 1.5}},
        {"benchmark": {"glitch_scale": -1.0}},
        {"benchmark": {"noise_sigma": -0.01}},
        {"benchmark": {"frames_per_video": 49, "min_segment": 25}},
        {"train": {"seed": -2}},
        {"adapt": {"seed": -2}},
        {"benchmark": {"master_seed": -1}},
        {"train": {"margin_scale": -0.5}},
        {"benchmark": {"repeats": 0}},
    ],
    ids=[
        "unknown-method",
        "string-steps",
        "zero-epochs",
        "even-median-window",
        "string-beta1",
        "float-steps",
        "null-seed",
        "zero-regions",
        "one-frame-region-window",
        "negative-train-lr",
        "zero-lr-step-epochs",
        "zero-lr-gamma",
        "negative-train-weight-decay",
        "beta1-one",
        "negative-beta2",
        "zero-adapt-eps",
        "negative-adapt-weight-decay",
        "zero-in-channels",
        "nan-adapt-lr",
        "infinite-glitch-scale",
        "negative-glitch-rate",
        "glitch-rate-above-one",
        "negative-glitch-scale",
        "negative-noise-sigma",
        "video-shorter-than-two-segments",
        "negative-train-seed",
        "negative-adapt-seed",
        "negative-master-seed",
        "negative-margin-scale",
        "zero-repeats",
    ],
)
def test_invalid_config_rejected_at_load(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "w.twgt")]) == 2
    assert not (tmp_path / "w.twgt").exists()


@pytest.mark.parametrize(
    "section,field,value",
    [
        (TrainConfig(), "seed", -1),
        (TrainConfig(), "weight_decay", -1e-4),
        (AdaptConfig(), "method", "foo"),
        (AdaptConfig(), "beta2", 1.0),
        (BenchmarkConfig(), "master_seed", -1),
        (BenchmarkConfig(), "test_glitch_rate", 2.0),
    ],
    ids=["train-seed", "train-weight-decay", "adapt-method", "adapt-beta2", "master-seed", "glitch-rate"],
)
def test_override_checked_when_built(section, field, value):
    """A config changed after loading (a CLI override, a per-task copy) is checked like a loaded one."""
    with pytest.raises(InvalidRange, match=field):
        dataclasses.replace(section, **{field: value})


@pytest.mark.parametrize(
    "section,field,minimum,error",
    [
        (BenchmarkConfig(), "repeats", 1, InvalidRange),
        (BenchmarkConfig(), "min_segment", 1, InvalidRange),
        (AdaptConfig(), "batch_frames_cap", 1, InvalidRange),
        (ModelSpec(), "head_hidden", 1, InvalidSpec),
    ],
    ids=["repeats", "min-segment", "batch-frames-cap", "head-hidden"],
)
def test_lower_bound_message_names_field_bound_and_value(section, field, minimum, error):
    with pytest.raises(error, match=rf"^{field} must be >= {minimum}, got 0$"):
        dataclasses.replace(section, **{field: 0})


@pytest.mark.parametrize(
    "doc",
    [
        {"benchmark": {"train_shift": []}},
        {"benchmark": {"train_shift": {"brightness": ["a", "b"]}}},
        {"model": {"stages": [[8.5, 1]]}},
        {"model": {"stages": [[8, 1.5]]}},
        {"model": []},
    ],
    ids=["list-shift", "string-shift-bounds", "float-stage-channels", "float-stage-blocks", "list-section"],
)
def test_value_of_another_json_type_than_its_default_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "w.twgt")]) == 2
    assert not (tmp_path / "w.twgt").exists()


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"model": {"stages": [[8]]}}, "config.model.stages[0]"),
        ({"model": {"stages": [[8, 1, 1]]}}, "config.model.stages[0]"),
        ({"benchmark": {"train_shift": {"brightness": [0.0, 0.1, 0.2]}}}, "config.benchmark.train_shift.brightness"),
    ],
    ids=["one-number-stage", "three-number-stage", "three-number-range"],
)
def test_stage_or_range_of_another_length_rejected(tmp_path, doc, path):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must hold 2 values, got [13]$"):
        config.parse_config(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "w.twgt")]) == 2


@pytest.mark.parametrize("case", ["directory", "utf16-bom", "unreadable"])
def test_unreadable_config_raises_config_error(tmp_path, monkeypatch, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    elif case == "utf16-bom":
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    else:
        path.write_text("{}")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)  # a chmod does not stop a root reader
    with pytest.raises(ConfigError):
        config.load_config(path)
