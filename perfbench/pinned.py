"""Pinned benchmark configuration and the path to the package under test.

Every value the workloads use comes from ``config.json`` next to this
file, never from the package defaults or from ``configs/``. Each section
must name exactly the fields of the dataclass it builds, so a field added
to or removed from the package stops the benchmark instead of moving a
workload silently.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing package, stale config)."""


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def raw_config() -> dict:
    return json.loads((HERE / "config.json").read_text())


def pin_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was pinned")
    threads = str(raw_config()["run"]["blas_threads"])
    for var in THREAD_VARS:
        os.environ[var] = threads


def import_tempt():
    """Import ``tempt`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tempt" / "__init__.py").is_file():
        raise SetupError(f"no tempt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempt

    if Path(tempt.__file__).resolve().parent != (SRC / "tempt").resolve():
        raise SetupError(f"imported tempt from {tempt.__file__}, not from {SRC}")
    return tempt


def build(cls, raw: dict, section: str, **overrides):
    """``cls(**raw)`` after checking that raw names exactly cls's fields."""
    fields = {f.name for f in dataclasses.fields(cls)}
    given = set(raw)
    if given != fields:
        raise SetupError(
            f"config section {section!r} does not match {cls.__name__}: "
            f"missing {sorted(fields - given)}, unknown {sorted(given - fields)}"
        )
    kwargs = dict(raw)
    kwargs.update(overrides)
    return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Pinned:
    spec: object  # tempt.model.ModelSpec
    adapt: object  # tempt.adapt.AdaptConfig
    train: object  # tempt.training.TrainConfig
    bench: object  # tempt.benchmark.BenchmarkConfig, master_seed from --seed
    weights_train: object  # TrainConfig of the weights recipe
    weights_bench: object  # BenchmarkConfig of the weights recipe's train split
    workloads: dict
    run: dict


def load(seed: int) -> Pinned:
    from tempt.adapt import AdaptConfig
    from tempt.benchmark import BenchmarkConfig
    from tempt.data import ShiftRanges
    from tempt.model import ModelSpec
    from tempt.training import TrainConfig

    raw = raw_config()

    def shifts(section: dict, name: str) -> dict:
        return {
            key: build(ShiftRanges, {k: tuple(v) for k, v in section[key].items()}, f"{name}.{key}")
            for key in ("train_shift", "test_shift")
        }

    bench_raw = raw["benchmark"]
    bench = build(BenchmarkConfig, bench_raw, "benchmark", master_seed=seed, **shifts(bench_raw, "benchmark"))
    recipe = raw["weights"]
    return Pinned(
        spec=build(ModelSpec, raw["model"], "model", stages=tuple(tuple(s) for s in raw["model"]["stages"])),
        adapt=build(AdaptConfig, raw["adapt"], "adapt"),
        train=build(TrainConfig, raw["train"], "train"),
        bench=bench,
        weights_train=build(TrainConfig, recipe["train"], "weights.train"),
        weights_bench=dataclasses.replace(
            bench, train_videos=recipe["train_videos"], master_seed=recipe["master_seed"]
        ),
        workloads=raw["workloads"],
        run=raw["run"],
    )


def resolved(pinned: Pinned) -> dict:
    """The config echo that goes into every result."""

    def plain(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        return obj

    return {
        "model": plain(pinned.spec),
        "adapt": plain(pinned.adapt),
        "train": plain(pinned.train),
        "benchmark": plain(pinned.bench),
        "weights": {"train": plain(pinned.weights_train), "benchmark": plain(pinned.weights_bench)},
        "workloads": pinned.workloads,
        "run": pinned.run,
    }
