"""Synthetic-benchmark protocol: three methods over a fixed video set.

Every adaptation starts from the same base parameters (no cross-video
carryover), per-task seeds derive from one master seed, and aggregation
is order-independent, so the whole table is reproducible bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .adapt import AdaptConfig, adapt_video
from .data import DEFAULT_PATCH, ShiftRanges, SyntheticVideo, class_templates, make_videos
from .model import ModelParams

METHOD_ORDER = ("none", "tent", "tempt")

DEFAULT_TRAIN_SHIFT = ShiftRanges(brightness=(-0.08, 0.08), contrast=(0.9, 1.1), channel_gain=(0.9, 1.1))
DEFAULT_TEST_SHIFT = ShiftRanges(brightness=(-0.30, 0.30), contrast=(0.55, 1.45), channel_gain=(0.55, 1.45))


@dataclass(frozen=True)
class BenchmarkConfig:
    train_videos: int = 24
    val_videos: int = 8
    test_videos: int = 20
    frames_per_video: int = 400
    min_segment: int = 25
    noise_sigma: float = 0.06
    train_shift: ShiftRanges = DEFAULT_TRAIN_SHIFT
    test_shift: ShiftRanges = DEFAULT_TEST_SHIFT
    test_glitch_rate: float = 0.08
    glitch_scale: float = 6.0
    repeats: int = 5
    master_seed: int = 2024

    def validate(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for name in ("train_videos", "val_videos", "test_videos", "frames_per_video", "min_segment"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def make_split(cfg: BenchmarkConfig, kind: str, hw: int) -> list[SyntheticVideo]:
    """train: ``train_shift``; val: unshifted; test: strong ``test_shift``.

    The train ranges may overlap the test ranges but should stay inside
    them, so that the strongest test shifts are never seen in training.
    Only the test split carries glitch frames: deployment streams have
    corruption events the curated training data does not.
    """
    glitch = 0.0
    if kind == "train":
        ranges, count, tag = cfg.train_shift, cfg.train_videos, 0
    elif kind == "val":
        ranges, count, tag = ShiftRanges(), cfg.val_videos, 1
    elif kind == "test":
        ranges, count, tag = cfg.test_shift, cfg.test_videos, 2
        glitch = cfg.test_glitch_rate
    else:
        raise ValueError(f"unknown split {kind!r}")
    templates = class_templates(min(DEFAULT_PATCH, hw // 2))
    return make_videos(
        count,
        cfg.frames_per_video,
        hw,
        ranges,
        cfg.noise_sigma,
        cfg.min_segment,
        master_seed=(cfg.master_seed, tag),
        templates=templates,
        glitch_rate=glitch,
        glitch_scale=cfg.glitch_scale,
    )


def _seed_free(method: str, adapt_cfg: AdaptConfig) -> bool:
    """True when a method's result cannot depend on its task seed.

    The static model never adapts, and tempt draws nothing at random
    unless its regions are sampled; their repeats are identical by
    construction.
    """
    return method == "none" or (method == "tempt" and not adapt_cfg.region_sample)


def _task_seed(master_seed: int, video_idx: int, method: str, repeat: int) -> int:
    mi = METHOD_ORDER.index(method)
    return int(np.random.SeedSequence((master_seed, 3, video_idx, mi, repeat)).generate_state(1)[0])


# worker-process globals, set once per worker by _init_worker
_WORKER: dict = {}


def _init_worker(base_params: ModelParams, videos: list[SyntheticVideo]) -> None:
    _WORKER["params"] = base_params
    _WORKER["videos"] = videos


def _run_task(args: tuple[int, str, int, int, AdaptConfig]) -> dict:
    video_idx, method, repeat, seed, adapt_cfg = args
    params = _WORKER["params"]
    video = _WORKER["videos"][video_idx]
    cfg = replace(adapt_cfg, method=method, seed=seed)
    adapted, report = adapt_video(params, video.frames, cfg, labels=video.labels)
    return {
        "video": video_idx,
        "method": method,
        "repeat": repeat,
        "seed": seed,
        "f1_before": report.f1_before,
        "f1_after": report.f1_after,
        "norm_changes_before": report.norm_changes_before,
        "norm_changes_after": report.norm_changes_after,
    }


@dataclass
class BenchmarkResult:
    rows: list[dict]
    summary: dict
    table: dict
    model_name: str

    def table_csv(self) -> str:
        lines = ["model,supervised,tent,tempt"]
        lines.append(
            f"{self.model_name},{self.table['supervised']:.6f},{self.table['tent']:.6f},{self.table['tempt']:.6f}"
        )
        return "\n".join(lines) + "\n"

    def details_csv(self) -> str:
        cols = ["video", "method", "repeat", "seed", "f1_before", "f1_after", "norm_changes_before", "norm_changes_after"]
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(
                ",".join(
                    f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
                    for c in cols
                )
            )
        return "\n".join(lines) + "\n"


def _aggregate(rows: list[dict], methods: tuple[str, ...]) -> dict:
    """Per-method means over videos x repeats.

    One repeat is one full pass over the video set with its own seeds, so
    the spread is the standard deviation across the per-repeat means: the
    deterministic static method reports exactly zero.
    """
    summary: dict = {}
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        repeats = sorted({r["repeat"] for r in sub})
        f1_by_rep = [np.mean([r["f1_after"] for r in sub if r["repeat"] == rep]) for rep in repeats]
        nc_by_rep = [np.mean([r["norm_changes_after"] for r in sub if r["repeat"] == rep]) for rep in repeats]
        summary[method] = {
            "f1_before_mean": float(np.mean([r["f1_before"] for r in sub])),
            "f1_after_mean": float(np.mean(f1_by_rep)),
            "f1_after_sd": float(np.std(f1_by_rep)),
            "norm_changes_before_mean": float(np.mean([r["norm_changes_before"] for r in sub])),
            "norm_changes_after_mean": float(np.mean(nc_by_rep)),
            "norm_changes_after_sd": float(np.std(nc_by_rep)),
            "runs": len(sub),
        }
    return summary


def run_benchmark(
    base_params: ModelParams,
    videos: list[SyntheticVideo],
    adapt_cfg: AdaptConfig,
    repeats: int = 5,
    methods: tuple[str, ...] = METHOD_ORDER,
    jobs: int = 1,
    master_seed: int = 2024,
    model_name: str = "cnn",
) -> BenchmarkResult:
    """Mean and spread of macro-F1 and flicker for each method.

    A method whose result does not depend on its seed (see ``_seed_free``)
    is evaluated once per video and its row replicated to every repeat.
    Other adaptation repeats differ only through their derived seeds.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    tasks: list[tuple[int, str, int, int, AdaptConfig]] = []
    for vi in range(len(videos)):
        for method in methods:
            n_rep = 1 if _seed_free(method, adapt_cfg) else repeats
            for r in range(n_rep):
                tasks.append((vi, method, r, _task_seed(master_seed, vi, method, r), adapt_cfg))

    if jobs > 1:
        prev = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        os.environ["OMP_NUM_THREADS"] = "1"
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=get_context("spawn"),
                initializer=_init_worker,
                initargs=(base_params, videos),
            ) as pool:
                rows = list(pool.map(_run_task, tasks, chunksize=1))
        finally:
            for k, v in prev.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    else:
        _init_worker(base_params, videos)
        rows = [_run_task(t) for t in tasks]

    # replicate the seed-free rows up to `repeats`
    expanded: list[dict] = []
    for row in rows:
        expanded.append(row)
        if _seed_free(row["method"], adapt_cfg):
            for r in range(1, repeats):
                expanded.append({**row, "repeat": r})
    expanded.sort(key=lambda r: (r["video"], METHOD_ORDER.index(r["method"]), r["repeat"]))

    summary = _aggregate(expanded, methods)
    table = {
        "supervised": summary["none"]["f1_after_mean"] if "none" in summary else float("nan"),
        "tent": summary["tent"]["f1_after_mean"] if "tent" in summary else float("nan"),
        "tempt": summary["tempt"]["f1_after_mean"] if "tempt" in summary else float("nan"),
    }
    return BenchmarkResult(rows=expanded, summary=summary, table=table, model_name=model_name)
