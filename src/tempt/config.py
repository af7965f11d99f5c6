"""Strict JSON run configuration.

One document with model/train/adapt/benchmark sections. Unknown keys are
fatal so that an echoed config always describes the run completely, and
every section is validated at load time.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .adapt import AdaptConfig
from .benchmark import BenchmarkConfig
from .data import ShiftRanges
from .errors import ConfigError, InvalidRange, InvalidSpec
from .model import ModelSpec
from .training import TrainConfig


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: ModelSpec = ModelSpec()
    train: TrainConfig = TrainConfig()
    adapt: AdaptConfig = AdaptConfig()
    benchmark: BenchmarkConfig = BenchmarkConfig()


_SECTIONS = {"model", "train", "adapt", "benchmark"}

# JSON types a scalar field takes, by the type of its default (an int is a valid float)
_SCALAR_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _build(cls, raw: dict, path: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        accepted = _SCALAR_TYPES.get(type(fields[name].default))
        if accepted and type(value) not in accepted:
            raise ConfigError(f"{path}.{name} must be {type(fields[name].default).__name__}, got {value!r}")
        if name in ("train_shift", "test_shift"):
            value = _shift_ranges(value, f"{path}.{name}")
        elif name == "stages":
            value = tuple(tuple(s) for s in value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad section {path}: {exc}") from exc


def _shift_ranges(raw: dict, path: str) -> ShiftRanges:
    allowed = {"brightness", "contrast", "channel_gain"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")
    kwargs = {k: tuple(v) for k, v in raw.items()}
    return ShiftRanges(**kwargs)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")
    cfg = RunConfig(
        model=_build(ModelSpec, doc.get("model", {}), "model"),
        train=_build(TrainConfig, doc.get("train", {}), "train"),
        adapt=_build(AdaptConfig, doc.get("adapt", {}), "adapt"),
        benchmark=_build(BenchmarkConfig, doc.get("benchmark", {}), "benchmark"),
    )
    for section in (cfg.model, cfg.train, cfg.adapt, cfg.benchmark, cfg.benchmark.train_shift, cfg.benchmark.test_shift):
        section.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return parse_config(doc)
    except (ValueError, TypeError, InvalidSpec, InvalidRange) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def resolved_dict(cfg: RunConfig) -> dict:
    """Full echo with every default filled in; goes into each output."""
    return dataclasses.asdict(cfg)
