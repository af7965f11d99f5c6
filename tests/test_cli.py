"""CLI contracts: exit codes, output formats, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from tempt import cli
from tempt import tensor as T
from tempt.errors import ArchMismatch, ConfigError

TINY_CONFIG = {
    "model": {"input_hw": 8, "stages": [[4, 1], [8, 1]], "num_classes": 8, "head_hidden": 8, "head_scale": 16.0},
    "train": {"epochs": 1, "batch_size": 16, "lr": 0.001, "seed": 1},
    "adapt": {"method": "tempt", "steps": 3, "lr": 0.01, "median_window": 5, "region_window": 8, "num_regions": 2, "batch_frames_cap": 16, "seed": 2},
    "benchmark": {
        "train_videos": 3,
        "val_videos": 2,
        "test_videos": 2,
        "frames_per_video": 48,
        "min_segment": 10,
        "noise_sigma": 0.05,
        "repeats": 2,
        "master_seed": 27,
    },
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "config.json").write_text(json.dumps(TINY_CONFIG))
    return d


@pytest.fixture(scope="module")
def trained_weights(workdir):
    out = workdir / "weights.twgt"
    code = cli.main(["train", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert code == 0
    return out


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_missing_config_exits_2(capsys, workdir):
    code, _ = run_cli(capsys, ["train", "--config", str(workdir / "nope.json"), "--out", str(workdir / "w.twgt")])
    assert code == 2


def test_unknown_config_key_exits_2(capsys, workdir):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"model": {"input_hw": 8, "bogus": 1}}))
    code, _ = run_cli(capsys, ["gradcheck", "--loss", "ce", "--weights", "x", "--config", str(bad)])
    assert code == 2


@pytest.mark.parametrize("command", ["adapt", "eval", "benchmark", "gradcheck"])
def test_missing_weights_exits_2(capsys, workdir, command):
    argv = [command, "--weights", str(workdir / "missing.twgt"), "--config", str(workdir / "config.json")]
    argv += {
        "adapt": ["--video", str(workdir / "clip.tten")],
        "benchmark": ["--out", str(workdir / "unused")],
        "gradcheck": ["--loss", "ce"],
    }.get(command, [])
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError):
        args.fn(args)
    code, _ = run_cli(capsys, argv)
    assert code == 2


def test_train_writes_weights_and_log(capsys, workdir, trained_weights):
    assert trained_weights.exists()
    log_path = trained_weights.with_suffix(".log.jsonl")
    assert log_path.exists()
    entries = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(entries) == 1
    assert set(entries[0]) == {"epoch", "loss", "f1", "lr"}

    from tempt import config, model

    cfg = config.load_config(workdir / "config.json")
    params = model.load_weights(trained_weights.read_bytes(), spec=cfg.model)
    assert params.names()


def test_train_deterministic_bytes(capsys, workdir, trained_weights):
    out2 = workdir / "weights2.twgt"
    code = cli.main(["train", "--config", str(workdir / "config.json"), "--out", str(out2)])
    assert code == 0
    assert out2.read_bytes() == trained_weights.read_bytes()


def make_video_file(workdir):
    from tempt import data

    path = workdir / "clip.tten"
    if not path.exists():
        video = data.generate_video(
            data.class_templates(4), 48, 8, data.Shift(0.1, 1.2, (1.1, 0.9, 1.0)), 0.05, 10, seed=3
        )
        data.save_video(path, video)
    return path


def test_adapt_report_and_trace(capsys, workdir, trained_weights):
    video = make_video_file(workdir)
    trace = workdir / "trace.csv"
    code, out = run_cli(
        capsys,
        [
            "adapt",
            "--weights",
            str(trained_weights),
            "--video",
            str(video),
            "--config",
            str(workdir / "config.json"),
            "--trace",
            str(trace),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "tempt"
    assert len(doc["loss_trace"]) == 3
    assert doc["config"]["steps"] == 3
    assert doc["f1_before"] is not None

    lines = trace.read_text().splitlines()
    assert len(lines) == 1 + 48  # header + one row per frame
    header = lines[0].split(",")
    assert header[0] == "frame_id"
    assert header[-2:] == ["argmax_before", "argmax_after"]
    assert all(len(line.split(",")) == 19 for line in lines)


def test_adapt_method_none_equal_metrics(capsys, workdir, trained_weights):
    video = make_video_file(workdir)
    code, out = run_cli(
        capsys,
        ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json"), "--method", "none"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["f1_after"] == doc["f1_before"]
    assert doc["norm_changes_after"] == doc["norm_changes_before"]


def test_adapt_methods_differ_only_in_method_fields(capsys, workdir, trained_weights):
    video = make_video_file(workdir)
    docs = {}
    for method in ("tempt", "tent"):
        code, out = run_cli(
            capsys,
            ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json"), "--method", method],
        )
        assert code == 0
        docs[method] = json.loads(out)
    assert docs["tempt"]["f1_before"] == docs["tent"]["f1_before"]
    assert docs["tempt"]["norm_changes_before"] == docs["tent"]["norm_changes_before"]
    assert docs["tempt"]["config"]["method"] == "tempt"
    assert docs["tent"]["config"]["method"] == "tent"
    assert docs["tent"]["regions"] == []
    assert docs["tempt"]["regions"]


def test_adapt_aborted_exits_4(capsys, workdir, trained_weights, monkeypatch):
    from tempt import adapt as adapt_mod
    from tempt.errors import NonFiniteLoss

    def broken(*a, **k):
        raise NonFiniteLoss("synthetic")

    monkeypatch.setattr(adapt_mod.losses, "temporal_consistency_loss", broken)
    video = make_video_file(workdir)
    code, out = run_cli(
        capsys,
        ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json")],
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["diagnostic"]


def test_adapt_nonfinite_activation_exits_4(capsys, workdir, trained_weights, nan_in_tracked_relu):
    video = make_video_file(workdir)
    code, out = run_cli(
        capsys,
        ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json")],
    )
    assert code == 4
    assert "relu" in json.loads(out)["diagnostic"]


def test_train_nonfinite_activation_exits_3(capsys, workdir, nan_in_tracked_relu):
    code, out = run_cli(capsys, ["train", "--config", str(workdir / "config.json"), "--out", str(workdir / "nan.twgt")])
    assert code == 3
    assert out == ""
    assert not (workdir / "nan.twgt").exists()


def test_eval_command(capsys, workdir, trained_weights):
    code, out = run_cli(capsys, ["eval", "--weights", str(trained_weights), "--config", str(workdir / "config.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["videos"] == 2
    assert 0.0 <= doc["macro_f1_mean"] <= 1.0


def test_eval_weights_for_another_model_exits_2(capsys, workdir, trained_weights):
    deeper = workdir / "deeper.json"
    model_cfg = {**TINY_CONFIG["model"], "stages": [[4, 1], [8, 1], [16, 1]]}
    deeper.write_text(json.dumps({**TINY_CONFIG, "model": model_cfg}))
    argv = ["eval", "--weights", str(trained_weights), "--config", str(deeper)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ArchMismatch):
        args.fn(args)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


def test_benchmark_outputs(capsys, workdir, trained_weights):
    out_dir = workdir / "bench"
    code, out = run_cli(
        capsys,
        ["benchmark", "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--out", str(out_dir), "--jobs", "1"],
    )
    assert code == 0
    table = (out_dir / "table.csv").read_text().splitlines()
    assert table[0] == "model,supervised,tent,tempt"
    assert len(table) == 2
    doc = json.loads((out_dir / "benchmark.json").read_text())
    assert set(doc["summary"]) == {"none", "tent", "tempt"}
    # 2 videos x (1 none + 2 tent + 2 tempt), none replicated to repeats
    assert len(doc["rows"]) == 2 * 3 * 2
    assert doc["config"]["benchmark"]["repeats"] == 2

    details = (out_dir / "details.csv").read_text().splitlines()
    assert details[0].startswith("video,method,repeat,seed")
    assert len(details) == 1 + len(doc["rows"])


def test_benchmark_rerun_identical_bytes(capsys, workdir, trained_weights):
    d1, d2 = workdir / "bench_a", workdir / "bench_b"
    for d in (d1, d2):
        code = cli.main(
            ["benchmark", "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--out", str(d), "--jobs", "1"]
        )
        assert code == 0
    for name in ("benchmark.json", "table.csv", "details.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gradcheck_ce_passes(capsys):
    code, out = run_cli(capsys, ["gradcheck", "--loss", "ce", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_rel_err"] < 1e-3


def test_gradcheck_entropy_passes_on_trained_weights(capsys, workdir, trained_weights):
    # with these weights a plain central difference's O(h^2) truncation error alone read 1.30e-3
    argv = ["gradcheck", "--loss", "entropy", "--weights", str(trained_weights), "--config", str(workdir / "config.json")]
    code, out = run_cli(capsys, argv)
    doc = json.loads(out)
    assert code == 0, doc
    assert doc["max_rel_err"] < 1e-3


def test_gradcheck_broken_backward_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(T, "_relu_mask", lambda x: x > 0.1)  # wrong subgradient
    code, out = run_cli(capsys, ["gradcheck", "--loss", "ce", "--seed", "0"])
    assert code == 5
    assert json.loads(out)["passed"] is False


def test_seed_env_override(capsys, workdir, trained_weights, monkeypatch):
    video = make_video_file(workdir)
    base = ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json")]
    monkeypatch.setenv("TEMPT_SEED", "77")
    _, out_env = run_cli(capsys, base)
    assert json.loads(out_env)["config"]["seed"] == 77
    # explicit flag beats the environment
    _, out_flag = run_cli(capsys, base + ["--seed", "5"])
    assert json.loads(out_flag)["config"]["seed"] == 5


def test_bad_seed_env_exits_2(capsys, workdir, monkeypatch):
    monkeypatch.setenv("TEMPT_SEED", "abc")
    weights = workdir / "seed.twgt"
    argv = ["train", "--config", str(workdir / "config.json"), "--out", str(weights)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError, match="TEMPT_SEED"):
        args.fn(args)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert not weights.exists()


@pytest.mark.parametrize("case", ["train-out", "train-log", "adapt-trace", "benchmark-out"])
def test_bad_output_path_exits_2_before_the_run(capsys, workdir, trained_weights, monkeypatch, case):
    def run_started(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    for name in ("train", "adapt_video", "run_benchmark"):
        monkeypatch.setattr(cli, name, run_started)
    config = str(workdir / "config.json")
    missing = workdir / "no_such_dir"
    weights = workdir / f"{case}.twgt"
    taken = workdir / "taken_by_a_file"
    taken.write_text("")
    argv = {
        "train-out": ["train", "--config", config, "--out", str(missing / "w.twgt")],
        "train-log": ["train", "--config", config, "--out", str(weights), "--log", str(missing / "log.jsonl")],
        "adapt-trace": ["adapt", "--weights", str(trained_weights), "--video", str(make_video_file(workdir)), "--config", config, "--trace", str(missing / "trace.csv")],
        "benchmark-out": ["benchmark", "--weights", str(trained_weights), "--config", config, "--out", str(taken)],
    }[case]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError):
        args.fn(args)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert not weights.exists()
    assert not missing.exists()
