"""Synthetic-benchmark protocol: three methods over a fixed video set.

Every adaptation starts from the same base parameters (no cross-video
carryover), per-task seeds derive from one master seed, and aggregation
is order-independent, so the whole table is reproducible bit for bit.
An aborted adaptation reports the static model's numbers; its row says
``aborted``, the summary counts such runs and leaves them out of every
after-adaptation mean, so it is never read as a result.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .adapt import METHODS, AdaptConfig, adapt_video
from .data import DEFAULT_PATCH, ShiftRanges, SyntheticVideo, class_templates, make_videos
from .errors import InvalidRange, at_least
from .model import ModelParams
from .tensor import run_slices_inline

DEFAULT_TRAIN_SHIFT = ShiftRanges(brightness=(-0.08, 0.08), contrast=(0.9, 1.1), channel_gain=(0.9, 1.1))
DEFAULT_TEST_SHIFT = ShiftRanges(brightness=(-0.30, 0.30), contrast=(0.55, 1.45), channel_gain=(0.55, 1.45))

TABLE_COLUMNS = {"none": "supervised", "tent": "tent", "tempt": "tempt"}  # each method's column in table.csv


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

    def __post_init__(self) -> None:
        at_least(self, 1, "repeats", "train_videos", "val_videos", "test_videos", "frames_per_video", "min_segment")
        at_least(self, 0, "noise_sigma", "glitch_scale", "master_seed")
        if self.frames_per_video < 2 * self.min_segment:
            raise InvalidRange(f"frames_per_video {self.frames_per_video} must be >= 2*min_segment={2 * self.min_segment}")
        if not 0 <= self.test_glitch_rate <= 1:
            raise InvalidRange(f"test_glitch_rate must be in [0, 1], got {self.test_glitch_rate}")


def make_split(cfg: BenchmarkConfig, kind: str, hw: int) -> list[SyntheticVideo]:
    """train: ``train_shift``; val: unshifted; test: strong ``test_shift``.

    The train ranges may overlap the test ranges but should stay inside
    them, so that the strongest test shifts are never seen in training.
    Only the test split carries glitch frames: deployment streams have
    corruption events the curated training data does not.
    """
    ranges, count, tag, glitch = {
        "train": (cfg.train_shift, cfg.train_videos, 0, 0.0),
        "val": (ShiftRanges(), cfg.val_videos, 1, 0.0),
        "test": (cfg.test_shift, cfg.test_videos, 2, cfg.test_glitch_rate),
    }[kind]
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
    mi = METHODS.index(method)
    return int(np.random.SeedSequence((master_seed, 3, video_idx, mi, repeat)).generate_state(1)[0])


# worker-process globals, set once per worker by _init_worker (in this process when jobs is 1)
_WORKER: dict = {}


def _init_worker(base_params: ModelParams, videos: list[SyntheticVideo], inline: bool = False) -> None:
    if inline:  # a spawned worker: the jobs already fill the cores
        run_slices_inline()
    _WORKER["params"] = base_params
    _WORKER["videos"] = videos


def _run_task(args: tuple[int, str, int, int, AdaptConfig]) -> dict:
    """One task's row, with the abort message under ``diagnostic`` (None when it ran through)."""
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
        "aborted": report.diagnostic is not None,
        "diagnostic": report.diagnostic,
    }


@dataclass
class BenchmarkResult:
    rows: list[dict]
    summary: dict
    table: dict
    model_name: str
    aborts: list[tuple[int, str, int, str]]  # (video, method, repeat, diagnostic) of each aborted task, in task order

    def table_csv(self) -> str:
        """One line of after-adaptation F1 means; ``nan`` for a method with no completed run."""
        return _csv(["model", *self.table], [[self.model_name, *(float("nan") if v is None else v for v in self.table.values())]])

    def details_csv(self) -> str:
        """One line per row, in the columns ``_run_task`` gives a row."""
        return _csv(list(self.rows[0]), [row.values() for row in self.rows])


def _csv(header: list[str], lines) -> str:
    """Comma-separated lines under ``header``; floats with six decimals."""
    body = [",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in line) for line in lines]
    return "\n".join([",".join(header), *body]) + "\n"


def _aggregate(rows: list[dict], methods: tuple[str, ...]) -> dict:
    """Per-method means over videos x repeats.

    One repeat is one full pass over the video set with its own seeds, so
    the spread is the standard deviation across the per-repeat means: the
    deterministic static method reports exactly zero. The after-adaptation
    figures leave aborted rows out (a repeat whose every run aborted drops
    out), and are None (null in benchmark.json) when every run of the
    method aborted.
    """
    summary: dict = {}
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        ran = [r for r in sub if not r["aborted"]]
        repeats = sorted({r["repeat"] for r in ran})
        summary[method] = {}
        for metric in ("f1", "norm_changes"):
            by_rep = [np.mean([r[f"{metric}_after"] for r in ran if r["repeat"] == rep]) for rep in repeats]
            summary[method] |= {
                f"{metric}_before_mean": float(np.mean([r[f"{metric}_before"] for r in sub])),
                f"{metric}_after_mean": float(np.mean(by_rep)) if by_rep else None,
                f"{metric}_after_sd": float(np.std(by_rep)) if by_rep else None,
            }
        summary[method]["runs"] = len(sub)
        summary[method]["aborted"] = sum(r["aborted"] for r in sub)
    return summary


def run_benchmark(
    base_params: ModelParams,
    videos: list[SyntheticVideo],
    adapt_cfg: AdaptConfig,
    *,
    repeats: int,
    master_seed: int,
    methods: tuple[str, ...] = METHODS,
    jobs: int = 1,
    model_name: str = "cnn",
) -> BenchmarkResult:
    """Mean and spread of macro-F1 and flicker for each method.

    A method whose result does not depend on its seed (see ``_seed_free``)
    is evaluated once per video and its row replicated to every repeat.
    Other adaptation repeats differ only through their derived seeds.
    ``jobs`` above 1 runs the tasks on that many spawned workers, at most
    one per task.
    """
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
                max_workers=min(jobs, len(tasks)),  # a worker past the task count would copy the videos only to sit idle
                mp_context=get_context("spawn"),
                initializer=_init_worker,
                initargs=(base_params, videos, True),
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
        try:
            rows = [_run_task(t) for t in tasks]
        finally:
            _WORKER.clear()  # the caller's parameters and videos must not outlive the call

    aborts = [(r["video"], r["method"], r["repeat"], d) for r in rows if (d := r.pop("diagnostic")) is not None]

    # replicate the seed-free rows up to `repeats`
    expanded: list[dict] = []
    for row in rows:
        expanded.append(row)
        if _seed_free(row["method"], adapt_cfg):
            for r in range(1, repeats):
                expanded.append({**row, "repeat": r})
    expanded.sort(key=lambda r: (r["video"], METHODS.index(r["method"]), r["repeat"]))

    summary = _aggregate(expanded, methods)
    table = {col: summary[m]["f1_after_mean"] if m in summary else None for m, col in TABLE_COLUMNS.items()}
    return BenchmarkResult(rows=expanded, summary=summary, table=table, model_name=model_name, aborts=aborts)
