"""The shipped run configuration: present, strict-loadable, test split untouched."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from tempt import cli, config
from tempt.benchmark import BenchmarkConfig
from tempt.errors import ConfigError

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def test_shipped_default_config_loads():
    assert DEFAULT_CONFIG.is_file(), f"{DEFAULT_CONFIG} is missing; README, CLI examples and acceptance read it"
    cfg = config.load_config(DEFAULT_CONFIG)
    for section in (cfg.model, cfg.train, cfg.adapt, cfg.benchmark):
        section.validate()


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
    ],
)
def test_invalid_config_rejected_at_load(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "w.twgt")]) == 2
    assert not (tmp_path / "w.twgt").exists()
