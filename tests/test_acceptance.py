"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The heavyweight fixtures (pretraining, the shipped
20-video benchmark) are session-scoped and shared across criteria.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tempt import adapt, benchmark, cli, config, data, gradcheck, losses, metrics, model, temporal, training
from tempt import reference
from tempt import tensor as T
from tempt.adapt import forward_all

pytestmark = pytest.mark.acceptance

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def run_config() -> config.RunConfig:
    return config.load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def base_result(run_config):
    videos = benchmark.make_split(run_config.benchmark, "train", run_config.model.input_hw)
    dataset = data.FrameDataset.from_videos(videos)
    t0 = time.time()
    result = training.train(run_config.model, dataset, run_config.train)
    print(f"\n[fixture] pretraining: {time.time() - t0:.0f}s, final epoch {result.epoch_log[-1]}")
    return result


@pytest.fixture(scope="session")
def benchmark_run(run_config, base_result):
    videos = benchmark.make_split(run_config.benchmark, "test", run_config.model.input_hw)
    t0 = time.time()
    result = benchmark.run_benchmark(
        base_result.params,
        videos,
        run_config.adapt,
        repeats=run_config.benchmark.repeats,
        jobs=2,
        master_seed=run_config.benchmark.master_seed,
    )
    elapsed = time.time() - t0
    print(f"\n[fixture] shipped benchmark: {elapsed:.0f}s on 2 workers")
    return result, elapsed, videos


def test_criterion_1_gradcheck():
    t0 = time.time()
    worst = {}
    for kind in gradcheck.LOSS_KINDS:
        res = gradcheck.run_gradcheck(kind, seed=0)
        worst[kind] = res.max_rel_err
        assert res.passed, f"{kind}: {res.max_rel_err:.2e} (masked {res.masked_fraction:.2%})"
    elapsed = time.time() - t0
    ok = elapsed < 60 and all(v < 1e-3 for v in worst.values())
    report(1, ok, f"gradcheck ce/ldam/entropy/tempt max rel err {max(worst.values()):.2e}, {elapsed:.1f}s < 60s")


def test_criterion_2_ldam_reduction():
    rng = np.random.Generator(np.random.PCG64(2))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(2, 10))
        z = T.Tensor(rng.uniform(-8, 8, size=(n, k)).astype(np.float32))
        labels = rng.integers(0, k, size=n)
        counts = losses.ClassCounts(tuple(int(c) for c in rng.integers(1, 500, size=k)), margin_scale=0.0)
        diff = abs(losses.ldam_loss(z, labels, counts).item() - losses.cross_entropy(z, labels).item())
        worst = max(worst, diff)
    report(2, worst < 1e-6, f"margin-zero loss equals cross-entropy within {worst:.2e} over 100 batches")


def test_criterion_3_parameter_isolation(run_config, base_result, benchmark_run):
    _, _, videos = benchmark_run
    violations = []
    for method in ("tempt", "tent"):
        cfg = dataclasses.replace(run_config.adapt, method=method, seed=99)
        adapted, rep = adapt.adapt_video(base_result.params, videos[0].frames, cfg)
        assert rep.diagnostic is None
        violations += adapt.isolate_check(base_result.params, adapted)
    report(3, violations == [], f"isolate_check after tempt+tent adaptation: {violations or 'no violations'}")


def test_criterion_4_median_filter_oracle():
    rng = np.random.Generator(np.random.PCG64(4))
    checked = 0
    for _ in range(1000):
        t = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        max_half = (2 * t - 1) // 2
        window = 2 * int(rng.integers(0, max_half + 1)) + 1
        y = rng.uniform(-10, 10, size=(t, k)).astype(np.float32)
        got = temporal.median_filter(y, window)
        half = window // 2
        padded = np.pad(y, ((half, half), (0, 0)), mode="symmetric")
        for ti in range(t):
            for ci in range(k):
                want = np.sort(padded[ti : ti + window, ci])[window // 2]
                assert got[ti, ci] == want, f"T={t} w={window} at ({ti},{ci})"
        checked += 1
    report(4, checked == 1000, f"median filter matches sort-per-window oracle exactly on {checked} cases")


def test_criterion_5_jacobian_sanity():
    rng = np.random.Generator(np.random.PCG64(5))
    a = rng.uniform(-1, 1, size=(8, 6))
    x0 = rng.uniform(-1, 1, size=6)
    worst_col = 0.0
    for j in range(6):
        x1 = x0.copy()
        x1[j] += 1e-3
        jac = losses.jacobian_fd_approx(a @ x0, a @ x1, x0, x1)
        worst_col = max(worst_col, float(np.abs(jac[:, j] - a[:, j]).max()))

    xs = rng.uniform(-1, 1, size=(30, 6))
    ratios = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        m = alpha * a
        ys = xs @ m.T
        ratios.append(float(((ys[1:] - ys[:-1]) ** 2).sum()) / float((m**2).sum()))
    ratio_spread = max(abs(r - ratios[0]) / ratios[0] for r in ratios)
    ok = worst_col < 1e-4 and ratio_spread < 1e-5
    report(5, ok, f"column recovery err {worst_col:.2e} < 1e-4; scaling ratio spread {ratio_spread:.2e} < 1e-5")


def test_criterion_6_flicker_reduction(benchmark_run):
    result, elapsed, _ = benchmark_run
    before = result.summary["tempt"]["norm_changes_before_mean"]
    after = result.summary["tempt"]["norm_changes_after_mean"]
    ratio = after / before
    ok = ratio <= 0.5 and elapsed < 600
    report(
        6,
        ok,
        f"normalized changes {before:.4f} -> {after:.4f} (ratio {ratio:.3f} <= 0.5); "
        f"benchmark wall {elapsed:.0f}s < 600s on 2 cores (criterion allows 4)",
    )


def test_criterion_7_f1_improvement(benchmark_run):
    result, _, _ = benchmark_run
    static = result.summary["none"]["f1_after_mean"]
    tempt_f1 = result.summary["tempt"]["f1_after_mean"]
    tempt_sd = result.summary["tempt"]["f1_after_sd"]
    tent_f1 = result.summary["tent"]["f1_after_mean"]
    tent_sd = result.summary["tent"]["f1_after_sd"]
    ok = tempt_f1 >= static + 0.02
    report(
        7,
        ok,
        f"macro-F1 static {static:.4f}, tempt {tempt_f1:.4f}+-{tempt_sd:.4f} "
        f"(delta {tempt_f1 - static:+.4f} >= +0.02); tent recorded at {tent_f1:.4f}+-{tent_sd:.4f} (no gate)",
    )


def test_criterion_8_fixed_point(run_config, base_result):
    frame = benchmark.make_split(run_config.benchmark, "val", run_config.model.input_hw)[0].frames[:1]
    frames = np.repeat(frame, 160, axis=0)  # constant video: series equals its median target
    cfg = dataclasses.replace(run_config.adapt, method="tempt", weight_decay=0.0, seed=1)
    adapted, rep = adapt.adapt_video(base_result.params, frames, cfg)
    same = all(
        adapted[n].array.tobytes() == base_result.params[n].array.tobytes() for n in base_result.params.names()
    )
    report(8, same, f"constant-series video with weight_decay=0 leaves parameters bit-identical (loss trace {rep.loss_trace[:3]}...)")


def test_criterion_9_determinism(tmp_path_factory):
    d = tmp_path_factory.mktemp("determinism")
    cfg_doc = {
        "model": {"input_hw": 8, "stages": [[4, 1], [8, 1]], "num_classes": 8, "head_hidden": 8},
        "train": {"epochs": 1, "batch_size": 16, "seed": 3},
        "adapt": {"steps": 3, "lr": 0.01, "median_window": 5, "region_window": 8, "num_regions": 2, "batch_frames_cap": 16, "region_sample": True},
        "benchmark": {
            "train_videos": 3,
            "val_videos": 2,
            "test_videos": 2,
            "frames_per_video": 48,
            "min_segment": 10,
            "noise_sigma": 0.05,
            "repeats": 2,
            "master_seed": 27,
            "test_glitch_rate": 0.1,
        },
    }
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc))

    outputs = {}
    for tag in ("a", "b"):
        weights = d / f"w_{tag}.twgt"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(weights)]) == 0
        video = d / f"clip_{tag}.tten"
        vids = benchmark.make_split(config.load_config(cfg_path).benchmark, "test", 8)
        data.save_video(video, vids[0])
        bench_dir = d / f"bench_{tag}"
        assert cli.main(["benchmark", "--weights", str(weights), "--config", str(cfg_path), "--out", str(bench_dir), "--jobs", "1"]) == 0
        outputs[tag] = (
            weights.read_bytes(),
            (bench_dir / "table.csv").read_bytes(),
            (bench_dir / "details.csv").read_bytes(),
            (bench_dir / "benchmark.json").read_bytes(),
        )
    same = outputs["a"] == outputs["b"]
    report(9, same, "weights, table.csv, details.csv, benchmark.json byte-identical across reruns")


def test_criterion_10_trainability(run_config, base_result):
    videos = benchmark.make_split(run_config.benchmark, "val", run_config.model.input_hw)
    preds, labels = [], []
    for v in videos:
        logits = forward_all(base_result.params, v.frames, run_config.adapt.batch_frames_cap)
        preds.append(np.argmax(logits, axis=1))
        labels.append(v.labels)
    pooled = metrics.macro_f1(np.concatenate(preds), np.concatenate(labels), run_config.model.num_classes)
    ok = pooled.macro_f1 >= 0.9
    report(10, ok, f"pooled validation macro-F1 {pooled.macro_f1:.4f} >= 0.9 within default epoch budget")
