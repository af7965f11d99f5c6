"""Strict JSON run configuration.

One document with model/train/adapt/benchmark sections. Unknown keys are
fatal so that an echoed config always describes the run completely, each
value must have the JSON type of its field's default, and each section's
type checks its own fields when it is built.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .adapt import AdaptConfig
from .benchmark import BenchmarkConfig
from .errors import ConfigError, InvalidRange, InvalidSpec
from .model import ModelSpec
from .training import TrainConfig


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: ModelSpec = ModelSpec()
    train: TrainConfig = TrainConfig()
    adapt: AdaptConfig = AdaptConfig()
    benchmark: BenchmarkConfig = BenchmarkConfig()


# JSON types a scalar field takes, by the type of its default (an int is a valid float)
_SCALAR_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _build(cls, raw, path: str):
    """A ``cls`` from a JSON object; each given value takes the type of its field's default."""
    if type(raw) is not dict:
        raise ConfigError(f"{path} must be a JSON object, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")
    return cls(**{name: _typed(defaults[name], value, f"{path}.{name}") for name, value in raw.items()})


def _typed(default, value, path: str):
    """``value`` in the type of ``default``.

    A dataclass default takes a JSON object, a tuple default a list whose
    elements each take the type of the default's first element (as many
    as the default holds when they are scalars: a stage, a shift range),
    and a scalar default a finite JSON value of its own type.
    """
    if dataclasses.is_dataclass(default):
        return _build(type(default), value, path)
    if isinstance(default, tuple):
        if type(value) is not list:
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        if not isinstance(default[0], tuple) and len(value) != len(default):
            raise ConfigError(f"{path} must hold {len(default)} values, got {len(value)}")
        return tuple(_typed(default[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if type(value) not in _SCALAR_TYPES[type(default)]:
        raise ConfigError(f"{path} must be {type(default).__name__}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return value


def parse_config(doc) -> RunConfig:
    return _build(RunConfig, doc, "config")


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
    except (InvalidSpec, InvalidRange) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def resolved_dict(cfg: RunConfig) -> dict:
    """Full echo with every default filled in; goes into each output."""
    return dataclasses.asdict(cfg)
