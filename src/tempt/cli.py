"""Command-line surface: train, adapt, eval, benchmark, gradcheck.

stdout carries exactly one machine-readable JSON document per run; all
human-facing logging goes to stderr. Exit codes: 0 ok, 2 config error,
3 training diverged, 4 adaptation aborted, 5 gradcheck failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import adapt_video, forward_all
from .benchmark import make_split, run_benchmark
from .config import RunConfig, load_config, resolved_dict
from .data import FrameDataset, load_video
from .errors import ConfigError, DivergedLoss, TemptError
from .gradcheck import LOSS_KINDS, run_gradcheck
from .metrics import evaluate_logits
from .model import ModelParams, ModelSpec, load_weights, save_weights
from .training import train

log = logging.getLogger("tempt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ADAPT_ABORTED = 4
EXIT_GRADCHECK = 5


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _resolve_seed(explicit: int | None, config_seed: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("TEMPT_SEED")
    if env is None:
        return config_seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"TEMPT_SEED must be an integer, got {env!r}") from None


def _output_file(path: str) -> Path:
    """``path`` as a file to write at the end of a run, checked before the run starts."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"cannot write {out}: it is a directory or its directory does not exist")
    return out


def _load_weights(path: str, spec: ModelSpec) -> ModelParams:
    weights_path = Path(path)
    if not weights_path.is_file():
        raise ConfigError(f"weights file not found: {weights_path}")
    return load_weights(weights_path.read_bytes(), spec=spec)


def _model_name(cfg: RunConfig) -> str:
    return "cnn" + "-".join(str(ch) for ch, _ in cfg.model.stages)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.train.seed)
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=seed))
    out_path = _output_file(args.out)
    log_path = _output_file(args.log or out_path.with_suffix(".log.jsonl"))
    log.info("generating %d training videos", cfg.benchmark.train_videos)
    videos = make_split(cfg.benchmark, "train", cfg.model.input_hw)
    dataset = FrameDataset.from_videos(videos)
    log.info("training on %d frames", len(dataset))
    result = train(cfg.model, dataset, cfg.train)

    out_path.write_bytes(save_weights(result.params))
    with open(log_path, "w") as fh:
        for entry in result.epoch_log:
            fh.write(json.dumps(entry) + "\n")
    _emit(
        {
            "command": "train",
            "config": resolved_dict(cfg),
            "weights": str(out_path),
            "log": str(log_path),
            "final": result.epoch_log[-1],
        }
    )
    return EXIT_OK


def _write_trace(path: Path, report) -> None:
    k = report.logits_before.shape[1]
    cols = (
        ["frame_id"]
        + [f"before_{i}" for i in range(k)]
        + [f"after_{i}" for i in range(k)]
        + ["argmax_before", "argmax_after"]
    )
    lines = [",".join(cols)]
    pb = np.argmax(report.logits_before, axis=1)
    pa = np.argmax(report.logits_after, axis=1)
    for t in range(report.logits_before.shape[0]):
        row = [str(t)]
        row += [f"{v:.6f}" for v in report.logits_before[t]]
        row += [f"{v:.6f}" for v in report.logits_after[t]]
        row += [str(int(pb[t])), str(int(pa[t]))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def cmd_adapt(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.adapt.seed)
    adapt_cfg = dataclasses.replace(cfg.adapt, seed=seed)
    if args.method:
        adapt_cfg = dataclasses.replace(adapt_cfg, method=args.method)
    trace_path = _output_file(args.trace) if args.trace else None

    params = _load_weights(args.weights, cfg.model)
    video = load_video(args.video)

    adapted, report = adapt_video(params, video.frames, adapt_cfg, labels=video.labels)
    if trace_path:
        _write_trace(trace_path, report)
    doc = report.to_json_dict()
    doc["command"] = "adapt"
    doc["run_config"] = resolved_dict(cfg)
    _emit(doc)
    if report.diagnostic is not None:
        log.error("adaptation aborted: %s", report.diagnostic)
        return EXIT_ADAPT_ABORTED
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    params = _load_weights(args.weights, cfg.model)
    if args.video:
        videos = [load_video(args.video)]
    else:
        videos = make_split(cfg.benchmark, "val", cfg.model.input_hw)
    results = []
    for video in videos:
        logits = forward_all(params, video.frames, cfg.adapt.batch_frames_cap)
        results.append(evaluate_logits(logits, video.labels, cfg.model.num_classes))
    _emit(
        {
            "command": "eval",
            "config": resolved_dict(cfg),
            "videos": len(videos),
            "macro_f1_mean": float(np.mean([r.macro_f1 for r in results])),
            "norm_changes_mean": float(np.mean([r.norm_changes for r in results])),
            "per_video": [r.to_json_dict() for r in results],
        }
    )
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.benchmark.master_seed)
    cfg = dataclasses.replace(cfg, benchmark=dataclasses.replace(cfg.benchmark, master_seed=seed))
    params = _load_weights(args.weights, cfg.model)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from None
    videos = make_split(cfg.benchmark, "test", cfg.model.input_hw)
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    log.info("benchmark: %d videos x %d repeats, jobs=%d", len(videos), cfg.benchmark.repeats, jobs)
    result = run_benchmark(
        params,
        videos,
        cfg.adapt,
        repeats=cfg.benchmark.repeats,
        jobs=jobs,
        master_seed=cfg.benchmark.master_seed,
        model_name=_model_name(cfg),
    )
    doc = {
        "command": "benchmark",
        "config": resolved_dict(cfg),
        "model": result.model_name,
        "table": result.table,
        "summary": result.summary,
        "rows": result.rows,
    }
    (out_dir / "benchmark.json").write_text(json.dumps(doc, indent=2) + "\n")
    (out_dir / "table.csv").write_text(result.table_csv())
    (out_dir / "details.csv").write_text(result.details_csv())
    _emit(doc)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args.seed, 0)
    params = None
    if args.weights:
        cfg = load_config(args.config) if args.config else RunConfig()
        params = _load_weights(args.weights, cfg.model)
    result = run_gradcheck(args.loss, seed=seed, params=params)
    _emit({"command": "gradcheck", **result.to_json_dict()})
    if not result.passed:
        log.error("gradcheck failed: worst parameter %s at %.2e", result.worst_param, result.max_rel_err)
        return EXIT_GRADCHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempt", description="temporal-consistency test-time adaptation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="pretrain on the synthetic train split")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output weights path (.twgt)")
    p.add_argument("--log", default=None, help="JSONL epoch log path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("adapt", help="adapt to one video and report")
    p.add_argument("--weights", required=True)
    p.add_argument("--video", required=True, help="video tensor file (with .json sidecar)")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=["tempt", "tent", "none"], default=None)
    p.add_argument("--trace", default=None, help="write per-frame before/after logits CSV")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("eval", help="evaluate static weights on the validation split or one video")
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--video", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("benchmark", help="run the full method comparison")
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("gradcheck", help="finite-difference check of one loss")
    p.add_argument("--loss", choices=list(LOSS_KINDS), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except DivergedLoss as exc:
        log.error("training diverged: %s", exc)
        return EXIT_DIVERGED
    except TemptError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
