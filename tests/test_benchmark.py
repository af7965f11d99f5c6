"""Benchmark protocol at toy scale: layout, determinism, aggregation."""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from tempt import adapt, benchmark, data, model, training
from tempt import tensor as T


@pytest.fixture(scope="module")
def mini():
    spec = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)), num_classes=8, head_hidden=8)
    bc = benchmark.BenchmarkConfig(
        train_videos=3,
        val_videos=2,
        test_videos=3,
        frames_per_video=48,
        min_segment=10,
        noise_sigma=0.05,
        repeats=2,
        master_seed=27,
        test_glitch_rate=0.1,
    )
    train_videos = benchmark.make_split(bc, "train", 8)
    ds = data.FrameDataset.from_videos(train_videos)
    result = training.train(spec, ds, training.TrainConfig(epochs=1, batch_size=16, seed=0))
    videos = benchmark.make_split(bc, "test", 8)
    adapt_cfg = adapt.AdaptConfig(steps=2, lr=1e-2, median_window=5, region_window=8, num_regions=2, batch_frames_cap=16)
    return result.params, videos, adapt_cfg


def test_rows_and_summary_layout(mini):
    params, videos, adapt_cfg = mini
    res = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=5, model_name="m")
    assert len(res.rows) == 3 * 3 * 2  # videos x methods x repeats
    assert set(res.summary) == {"none", "tent", "tempt"}
    assert set(res.table) == {"supervised", "tent", "tempt"}
    assert res.summary["none"]["runs"] == 6
    for row in res.rows:
        assert 0.0 <= row["f1_after"] <= 1.0
        assert 0.0 <= row["norm_changes_after"] <= 1.0


def test_serial_run_releases_its_videos_and_params(mini):
    params, videos, adapt_cfg = mini
    benchmark.run_benchmark(params, videos[:1], adapt_cfg, repeats=1, jobs=1, master_seed=5)
    assert benchmark._WORKER == {}


def test_static_method_zero_variance(mini):
    params, videos, adapt_cfg = mini
    res = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=3, jobs=1, master_seed=5)
    assert res.summary["none"]["f1_after_sd"] == 0.0
    assert res.summary["none"]["f1_after_mean"] == res.summary["none"]["f1_before_mean"]


def test_benchmark_deterministic(mini):
    params, videos, adapt_cfg = mini
    a = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=9)
    b = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=9)
    assert a.rows == b.rows
    assert a.details_csv() == b.details_csv()
    c = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=10)
    assert a.rows != c.rows


def test_parallel_matches_serial(mini):
    params, videos, adapt_cfg = mini
    serial = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=9)
    parallel = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=2, master_seed=9)
    assert serial.details_csv() == parallel.details_csv()


def test_jobs_2_gives_the_rows_of_jobs_1_with_its_workers_inline(mini, pool, monkeypatch):
    """jobs=1 keeps this process's slice pool; each spawned worker drops its own."""
    params, videos, adapt_cfg = mini
    cfg = replace(adapt_cfg, batch_frames_cap=48)  # 48-frame forwards: three slices each
    serial = benchmark.run_benchmark(params, videos[:1], cfg, repeats=1, jobs=1, master_seed=9)
    assert T._POOL is pool
    made = []

    def recording_pool(**kwargs):
        made.append(kwargs)
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", recording_pool)
    parallel = benchmark.run_benchmark(params, videos[:1], cfg, repeats=1, jobs=2, master_seed=9)
    assert parallel.rows == serial.rows
    # one more worker set up as run_benchmark sets its workers up, one BLAS thread each
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ProcessPoolExecutor(**{**made[0], "max_workers": 1}) as workers:
        workers.submit(benchmark._run_task, (0, "tempt", 0, 0, cfg)).result()
        assert workers.submit(threading.active_count).result() == 1  # no slice thread was ever started


def _row(method, repeat, f1_after, aborted):
    return {"method": method, "repeat": repeat, "f1_before": 0.25, "f1_after": f1_after, "norm_changes_before": 0.5, "norm_changes_after": f1_after / 2, "aborted": aborted}


def test_aggregate_leaves_aborted_rows_out_of_the_after_figures():
    rows = [
        _row("tent", 0, 0.5, False),
        _row("tent", 0, 0.7, False),
        _row("tent", 1, 0.25, True),  # the static model's numbers
        _row("tent", 1, 0.9, False),
        _row("tempt", 0, 0.25, True),
        _row("tempt", 1, 0.25, True),
    ]
    summary = benchmark._aggregate(rows, ("tent", "tempt"))
    tent, tempt = summary["tent"], summary["tempt"]
    assert tent["f1_after_mean"] == pytest.approx((0.6 + 0.9) / 2)
    assert tent["f1_after_sd"] == pytest.approx(0.15)
    assert tent["norm_changes_after_mean"] == pytest.approx((0.3 + 0.45) / 2)
    assert tent["f1_before_mean"] == 0.25 and (tent["runs"], tent["aborted"]) == (4, 1)
    assert all(tempt[k] is None for k in ("f1_after_mean", "f1_after_sd", "norm_changes_after_mean", "norm_changes_after_sd"))
    assert tempt["f1_before_mean"] == 0.25 and (tempt["runs"], tempt["aborted"]) == (2, 2)


def test_adaptation_isolation_on_benchmark_videos(mini):
    params, videos, adapt_cfg = mini
    from dataclasses import replace

    for method in ("tempt", "tent"):
        adapted, _ = adapt.adapt_video(params, videos[0].frames, replace(adapt_cfg, method=method))
        assert adapt.isolate_check(params, adapted) == []


def test_csv_shapes(mini):
    params, videos, adapt_cfg = mini
    res = benchmark.run_benchmark(params, videos, adapt_cfg, repeats=2, jobs=1, master_seed=5, model_name="cnn4-8")
    table_lines = res.table_csv().strip().splitlines()
    assert table_lines[0] == "model,supervised,tent,tempt"
    assert table_lines[1].startswith("cnn4-8,")
    detail_lines = res.details_csv().strip().splitlines()
    assert len(detail_lines) == 1 + len(res.rows)
    assert detail_lines[0] == "video,method,repeat,seed,f1_before,f1_after,norm_changes_before,norm_changes_after,aborted"


@pytest.mark.parametrize("region_sample", [False, True])
def test_seed_free_tempt_runs_once_per_video(mini, monkeypatch, region_sample):
    """tempt without region sampling ignores its seed, so its repeats are replicated, not rerun."""
    from dataclasses import replace

    params, videos, adapt_cfg = mini
    cfg = replace(adapt_cfg, region_sample=region_sample)
    ran = []
    real_run_task = benchmark._run_task

    def counting_run_task(args):
        ran.append(args[1])
        return real_run_task(args)

    monkeypatch.setattr(benchmark, "_run_task", counting_run_task)
    res = benchmark.run_benchmark(params, videos, cfg, repeats=3, jobs=1, master_seed=5)
    assert ran.count("none") == len(videos)
    assert ran.count("tent") == 3 * len(videos)
    assert ran.count("tempt") == (3 if region_sample else 1) * len(videos)
    tempt_rows = [r for r in res.rows if r["method"] == "tempt"]
    assert sorted((r["video"], r["repeat"]) for r in tempt_rows) == [(v, r) for v in range(len(videos)) for r in range(3)]
    if not region_sample:
        assert res.summary["tempt"]["f1_after_sd"] == 0.0
        # a replicated row equals what a rerun with that repeat's seed gives
        for row in tempt_rows:
            _, rep = adapt.adapt_video(params, videos[row["video"]].frames, replace(cfg, seed=row["seed"] + 1), labels=videos[row["video"]].labels)
            assert rep.f1_after == row["f1_after"]
            assert rep.norm_changes_after == row["norm_changes_after"]
