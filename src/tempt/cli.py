"""Command-line surface: train, adapt, eval, benchmark, gradcheck.

stdout carries exactly one machine-readable JSON document per run; all
human-facing logging goes to stderr. Exit codes: 0 ok, 2 config error,
3 training diverged, 4 adaptation aborted (for ``benchmark``: any task,
after its artefacts are written), 5 gradcheck failure.
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
from .adapt import METHODS, adapt_video, forward_all
from .benchmark import make_split, run_benchmark
from .config import RunConfig, load_config, resolved_dict
from .data import FrameDataset, load_video
from .errors import ConfigError, DivergedLoss, TemptError
from .gradcheck import LOSS_KINDS, run_gradcheck
from .metrics import evaluate_logits
from .model import ModelParams, ModelSpec, load_weights, save_weights
from .tensor import usable_cpus
from .training import train

log = logging.getLogger("tempt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ADAPT_ABORTED = 4
EXIT_GRADCHECK = 5

ABORTS_SHOWN = 3  # aborted benchmark tasks named on stderr


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
    before, after = report.logits_before, report.logits_after
    k = before.shape[1]
    cols = ["frame_id", *(f"{side}_{i}" for side in ("before", "after") for i in range(k)), "argmax_before", "argmax_after"]
    rows = np.column_stack([np.arange(len(before)), before, after, before.argmax(1), after.argmax(1)])
    np.savetxt(path, rows, fmt=["%d"] + ["%.6f"] * (2 * k) + ["%d"] * 2, delimiter=",", header=",".join(cols), comments="")


def cmd_adapt(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.adapt.seed)
    adapt_cfg = dataclasses.replace(cfg.adapt, seed=seed, method=args.method or cfg.adapt.method)
    cfg = dataclasses.replace(cfg, adapt=adapt_cfg)
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
    jobs = usable_cpus() if args.jobs is None else args.jobs
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    params = _load_weights(args.weights, cfg.model)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from None
    videos = make_split(cfg.benchmark, "test", cfg.model.input_hw)
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
    if result.aborts:
        log.error("%d adaptation task(s) aborted; their rows report the static model", len(result.aborts))
        for video, method, repeat, diagnostic in result.aborts[:ABORTS_SHOWN]:
            log.error("aborted: video %d, method %s, repeat %d: %s", video, method, repeat, diagnostic)
        return EXIT_ADAPT_ABORTED
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args.seed, 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    params = None
    if args.config and not args.weights:
        raise ConfigError("gradcheck --config gives the model of --weights; pass both or neither")
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
    p.add_argument("--method", choices=METHODS, default=None)
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
    p.add_argument("--jobs", type=int, default=None, help="worker processes, at most one per task (default: every CPU this process may run on)")
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
    except DivergedLoss as exc:
        log.error("training diverged: %s", exc)
        return EXIT_DIVERGED
    except TemptError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
