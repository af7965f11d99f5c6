"""In-process lockstep A/B timing of two tempt source trees.

    python scripts/ab.py PARENT/src CHANGE/src --spec default --rounds 10
    python scripts/ab.py PARENT/src CHANGE/src --spec shipped --blas-threads 1

Both trees are imported into one process, as the packages ``tempt_a`` and
``tempt_b``, so both run on the same interpreter, heap and host state, and
a slow stretch of a shared host hits both sides alike. Each round times
every workload in ABBA order (A, B, B, A) on the same inputs, and its
ratio is B's two times over A's: below 1, B is faster. The table gives,
per workload, the median time of each side, the median ratio with its
quartiles, the rounds B won, and whether the first round's results of the
two sides have the same bytes.

Workloads: ``adapt-tempt`` and ``adapt-tent`` (``adapt.adapt_video`` on one
seeded test video), ``forward_all`` (on the same video) and ``train`` (one
``training.train`` epoch over a fixed frame set). ``--spec`` picks the
model and adaptation config: ``default`` (the package defaults),
``shipped`` (``configs/default.json``), both on a 400-frame test video
and a 512-frame train set, or ``tiny`` (an 8x8, 4-8-channel model with 2
adaptation steps on 60 and 64 frames, for a quick check that the tool
runs).
``--blas-threads N`` sets ``OPENBLAS_NUM_THREADS`` before numpy loads; left
out, OpenBLAS picks its own count (one per core). Both trees start their
own slice pool by that count, as each would in a process of its own.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import sys
import time
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("adapt-tempt", "adapt-tent", "forward_all", "train")
TINY = {
    "model": {"input_hw": 8, "stages": [[4, 1], [8, 1]], "head_hidden": 8},
    "adapt": {"steps": 2, "batch_frames_cap": 32, "region_window": 8, "num_regions": 2},
}
# spec -> frames of the test video and of the train epoch's set (rounded up to a multiple of the class count)
FRAMES = {"default": (400, 512), "shipped": (400, 512), "tiny": (60, 64)}


def load_tree(src: Path, name: str) -> types.SimpleNamespace:
    """The modules of the tempt package under ``src``, imported as the package ``name``."""
    spec = importlib.util.spec_from_file_location(name, src / "tempt" / "__init__.py", submodule_search_locations=[str(src / "tempt")])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no tempt package under {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ("adapt", "benchmark", "config", "data", "model", "training")
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def config_doc(spec: str) -> dict:
    if spec == "shipped":
        return json.loads((REPO / "configs" / "default.json").read_text())
    return {"default": {}, "tiny": TINY}[spec]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def params_arrays(params) -> list:
    return [params[n].array for n in params.names()]


def workload_calls(tree, doc: dict, frames: int, train_frames: int) -> dict:
    """name -> a call that runs the workload once on ``tree`` and returns a digest of its result."""
    import dataclasses

    import numpy as np

    cfg = tree.config.parse_config(doc)
    spec, hw = cfg.model, cfg.model.input_hw
    bench = dataclasses.replace(cfg.benchmark, frames_per_video=frames, min_segment=min(cfg.benchmark.min_segment, frames // 2))
    video = tree.benchmark.make_split(dataclasses.replace(bench, test_videos=1), "test", hw)[0]
    short = dataclasses.replace(cfg.benchmark, frames_per_video=100, min_segment=10)  # 24 short videos: every class shows
    pool = tree.data.FrameDataset.from_videos(tree.benchmark.make_split(short, "train", hw))
    per_class = -(-train_frames // spec.num_classes)  # class-balanced, as the train loss needs every class
    members = [np.flatnonzero(pool.labels == c) for c in range(spec.num_classes)]
    if min(m.size for m in members) == 0:
        raise SystemExit("the train videos miss a class")
    idx = np.sort(np.concatenate([m[np.arange(per_class) % m.size] for m in members]))
    dataset = tree.data.FrameDataset(frames=pool.frames[idx], labels=pool.labels[idx])
    params = tree.model.build_model(spec, 0)
    train_cfg = dataclasses.replace(cfg.train, epochs=1)

    def adapt(method: str):
        def call() -> str:
            adapted, report = tree.adapt.adapt_video(params, video.frames, dataclasses.replace(cfg.adapt, method=method), labels=video.labels)
            if report.diagnostic is not None:
                raise RuntimeError(f"{method} aborted: {report.diagnostic}")
            return digest(*params_arrays(adapted), np.asarray(report.logits_after))

        return call

    return {
        "adapt-tempt": adapt("tempt"),
        "adapt-tent": adapt("tent"),
        "forward_all": lambda: digest(tree.adapt.forward_all(params, video.frames)),
        "train": lambda: digest(*params_arrays(tree.training.train(spec, dataset, train_cfg).params)),
    }


def timed(call) -> tuple[float, str]:
    gc.collect()
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


def run(args) -> dict:
    import numpy as np

    trees = [load_tree(Path(src).resolve(), name) for src, name in ((args.a, "tempt_a"), (args.b, "tempt_b"))]
    doc = config_doc(args.spec)
    calls = [workload_calls(tree, doc, *FRAMES[args.spec]) for tree in trees]
    results = {}
    for name in WORKLOADS:  # warm-up: first-use costs stay out, and the first results give the byte check
        results[name] = {"a_s": [], "b_s": [], "ratio": [], "same_bytes": calls[0][name]() == calls[1][name]()}
    for _ in range(args.rounds):
        for name in WORKLOADS:
            a1, _ = timed(calls[0][name])
            b1, _ = timed(calls[1][name])
            b2, _ = timed(calls[1][name])
            a2, _ = timed(calls[0][name])
            r = results[name]
            r["a_s"] += [a1, a2]
            r["b_s"] += [b1, b2]
            r["ratio"].append((b1 + b2) / (a1 + a2))
    for r in results.values():
        q1, med, q3 = np.percentile(r["ratio"], [25, 50, 75])
        r.update(
            a_ms=1e3 * float(np.median(r["a_s"])),
            b_ms=1e3 * float(np.median(r["b_s"])),
            ratio_median=float(med),
            ratio_q1=float(q1),
            ratio_q3=float(q3),
            b_wins=int(sum(x < 1 for x in r["ratio"])),
            rounds=len(r["ratio"]),
        )
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the src directory of side A (the parent)")
    ap.add_argument("b", help="the src directory of side B (the change)")
    ap.add_argument("--spec", choices=("default", "shipped", "tiny"), default="default")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--blas-threads", type=int, help="OPENBLAS_NUM_THREADS for this process; default: OpenBLAS's own count")
    ap.add_argument("--json", type=Path, help="also write the results here")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be positive")
    if args.blas_threads is not None:
        if "numpy" in sys.modules:
            ap.error("--blas-threads must be set before numpy loads")
        os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    results = run(args)
    print(f"spec={args.spec} blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')} rounds={args.rounds} (ratio = B/A)")
    print(f"{'workload':<12} {'A ms':>9} {'B ms':>9} {'ratio':>7} {'quartiles':>15} {'B wins':>7} same bytes")
    for name, r in results.items():
        quartiles = f"{r['ratio_q1']:.3f}-{r['ratio_q3']:.3f}"
        wins = f"{r['b_wins']}/{r['rounds']}"
        print(f"{name:<12} {r['a_ms']:9.1f} {r['b_ms']:9.1f} {r['ratio_median']:7.3f} {quartiles:>15} {wins:>7} {r['same_bytes']}")
    if args.json is not None:
        doc = {"spec": args.spec, "blas_threads": args.blas_threads, "rounds": args.rounds, "frames": FRAMES[args.spec][0], "workloads": results}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
