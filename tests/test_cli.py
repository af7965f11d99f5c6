"""CLI contracts: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tempt import cli
from tempt import tensor as T
from tempt.errors import ArchMismatch, ConfigError, CorruptWeights

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


@pytest.mark.parametrize("case", ["directory", "utf16-bom"])
def test_unreadable_config_exits_2(capsys, workdir, trained_weights, case):
    path = workdir / f"config-{case}"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + json.dumps(TINY_CONFIG).encode("utf-16-le"))
    code, out = run_cli(capsys, ["eval", "--weights", str(trained_weights), "--config", str(path)])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("config", ["config.json", "nonexistent.json"])
def test_gradcheck_config_without_weights_exits_2(capsys, workdir, monkeypatch, config):
    def gradcheck_started(*args, **kwargs):
        raise AssertionError("gradcheck ran with a config and no weights")

    monkeypatch.setattr(cli, "run_gradcheck", gradcheck_started)
    argv = ["gradcheck", "--loss", "ce", "--config", str(workdir / config)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError):
        args.fn(args)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


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


def _video_prefix(workdir, frames: int) -> Path:
    """The first ``frames`` frames of the shared clip, as a video file with its sidecar."""
    from tempt.tten import read_tten, write_tten

    clip = make_video_file(workdir)
    path = workdir / f"clip_{frames}.tten"
    write_tten(path, read_tten(clip)[:frames])
    doc = json.loads(Path(f"{clip}.json").read_text())
    Path(f"{path}.json").write_text(json.dumps({**doc, "labels": doc["labels"][:frames]}))
    return path


@pytest.mark.parametrize(
    "frames,command,method",
    [(0, "adapt", "tempt"), (0, "adapt", "tent"), (0, "adapt", "none"), (0, "eval", None), (1, "adapt", "tempt")],
)
def test_too_few_frames_exit_2(capsys, workdir, trained_weights, frames, command, method):
    argv = [command, "--weights", str(trained_weights), "--config", str(workdir / "config.json")]
    argv += ["--video", str(_video_prefix(workdir, frames))] + (["--method", method] if method else [])
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("part", ["video", "weights"])
def test_wrapping_tensor_dims_exit_2(capsys, workdir, trained_weights, part):
    """Four dims of 65536: their int64 product wraps to 0, the exact one is far past the payload."""
    video, weights = make_video_file(workdir), trained_weights
    source = video if part == "video" else weights
    blob = bytearray(source.read_bytes())
    struct.pack_into("<4I", blob, blob.index(b"TTEN") + 7, *(65536,) * 4)
    broken = workdir / f"wrapping_dims{source.suffix}"
    broken.write_bytes(bytes(blob))
    if part == "video":
        Path(f"{broken}.json").write_bytes(Path(f"{video}.json").read_bytes())
        video = broken
    else:
        weights = broken
    argv = ["adapt", "--weights", str(weights), "--video", str(video), "--config", str(workdir / "config.json")]
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


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


def test_adapt_echoes_the_config_it_ran(capsys, workdir, trained_weights):
    video = make_video_file(workdir)
    argv = ["adapt", "--weights", str(trained_weights), "--video", str(video), "--config", str(workdir / "config.json")]
    code, out = run_cli(capsys, argv + ["--method", "tent", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["config"]["method"], doc["config"]["seed"]) == ("tent", 5)
    assert doc["run_config"]["adapt"] == doc["config"]


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


@pytest.mark.parametrize("head_hidden", [2, 4])
def test_train_with_all_zero_hidden_rows_exits_0(tmp_path, head_hidden):
    """So few hidden units that relu zeroes some frames' whole hidden layer during training."""
    doc = {
        "model": {"input_hw": 8, "stages": [[4, 1], [8, 1]], "head_hidden": head_hidden},
        "train": {"epochs": 2, "batch_size": 16},
        "benchmark": {"train_videos": 8, "val_videos": 1, "test_videos": 1, "frames_per_video": 100, "min_segment": 10},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "w.twgt")]) == 0


def test_train_overflowing_gradient_exits_3(capsys, workdir, monkeypatch):
    # relu's gradient is not scanned; a mask that scales it past float32 must still end training at the next op
    monkeypatch.setattr(T, "_relu_mask", lambda x: np.where(x > 0, np.float32(1e38), np.float32(0.0)))
    code, out = run_cli(capsys, ["train", "--config", str(workdir / "config.json"), "--out", str(workdir / "inf.twgt")])
    assert code == 3
    assert out == ""
    assert not (workdir / "inf.twgt").exists()


@pytest.mark.parametrize("command,method", [("adapt", "tempt"), ("adapt", "tent"), ("adapt", "none"), ("eval", None)])
def test_labels_only_sidecar_exits_0(capsys, workdir, trained_weights, command, method):
    clip = make_video_file(workdir)
    path = workdir / "labels_only.tten"
    path.write_bytes(clip.read_bytes())
    labels = json.loads(Path(f"{clip}.json").read_text())["labels"]
    Path(f"{path}.json").write_text(json.dumps({"labels": labels}))
    argv = [command, "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--video", str(path)]
    code, out = run_cli(capsys, argv + (["--method", method] if method else []))
    assert code == 0
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("method", ["tempt", "tent", "none"])
def test_adapt_label_out_of_range_exits_2_before_any_forward(capsys, caplog, workdir, trained_weights, monkeypatch, method):
    from tempt import model

    clip = make_video_file(workdir)
    path = workdir / "label_99.tten"
    path.write_bytes(clip.read_bytes())
    labels = json.loads(Path(f"{clip}.json").read_text())["labels"]
    Path(f"{path}.json").write_text(json.dumps({"labels": [99] + labels[1:]}))
    calls = []
    real_forward = model.forward
    monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(1) or real_forward(*a, **k))
    argv = ["adapt", "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--video", str(path)]
    code, out = run_cli(capsys, argv + ["--method", method])
    assert code == 2
    assert out == ""
    assert calls == []
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["labels outside [0,8)"]


@pytest.mark.parametrize("label", [1e30, 1.5, True], ids=["huge-float", "fraction", "boolean"])
def test_eval_sidecar_label_not_a_json_integer_exits_2(capsys, workdir, trained_weights, label):
    clip = make_video_file(workdir)
    path = workdir / f"label_{label}.tten"
    path.write_bytes(clip.read_bytes())
    doc = json.loads(Path(f"{clip}.json").read_text())
    Path(f"{path}.json").write_text(json.dumps({**doc, "labels": [label] * len(doc["labels"])}))
    argv = ["eval", "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--video", str(path)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError, match="malformed video sidecar"):
        args.fn(args)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("field,size,entry", [("num_classes", 10**21, "head.out.w"), ("head_hidden", 10**14, "head.fc1.w")])
def test_train_huge_model_exits_2_without_weights(capsys, caplog, workdir, field, size, entry):
    """numpy refuses the entry's shape; the run ends with the typed error, not numpy's.

    10^21 rows exceed numpy's dimension limit (ValueError). 10^14 hidden
    units ask for 5.7 PiB, past the x86-64 address space, so the allocation
    fails (MemoryError) even on a host that overcommits memory.
    """
    huge = workdir / f"train-huge-{field}.json"
    huge.write_text(json.dumps({**TINY_CONFIG, "model": {**TINY_CONFIG["model"], field: size}}))
    out_path = workdir / f"huge-{field}.twgt"
    code, out = run_cli(capsys, ["train", "--config", str(huge), "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and entry in errors[0]


@pytest.mark.parametrize(
    "section,field,size",
    [("model", "input_hw", 2**40), ("benchmark", "frames_per_video", 10**15)],
    ids=["input_hw", "frames_per_video"],
)
def test_unallocatable_video_size_exits_2(workdir, section, field, size):
    """Both sizes lie past the x86-64 address space, so numpy refuses them at once.

    Runs in a subprocess with a timeout, so a generator that never ends
    fails the test instead of hanging it.
    """
    huge = workdir / f"huge-video-{field}.json"
    huge.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG[section], field: size}}))
    out_path = workdir / f"huge-video-{field}.twgt"
    argv = [sys.executable, "-m", "tempt.cli", "train", "--config", str(huge), "--out", str(out_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not out_path.exists()
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "cannot allocate" in errors[0], proc.stderr


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


@pytest.mark.parametrize("field,size,entry", [("num_classes", 10**21, "head.out.w"), ("head_hidden", 10**11, "head.fc1.w")])
def test_eval_weights_against_a_huge_model_exits_2(capsys, caplog, workdir, trained_weights, field, size, entry):
    """The weights are checked against the config's model without allocating it."""
    huge = workdir / f"huge-{field}.json"
    huge.write_text(json.dumps({**TINY_CONFIG, "model": {**TINY_CONFIG["model"], field: size}}))
    code, out = run_cli(capsys, ["eval", "--weights", str(trained_weights), "--config", str(huge)])
    assert code == 2
    assert out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and entry in errors[0]


def test_trainable_byte_contradicting_its_group_exits_2(capsys, workdir, trained_weights):
    blob = bytearray(trained_weights.read_bytes())
    # first record: magic(4) + version(1) + count(4) + name_len(2) -> name, group byte, trainable byte
    name_len = int.from_bytes(blob[9:11], "little")
    blob[12 + name_len] ^= 1
    flipped = workdir / "flipped_trainable.twgt"
    flipped.write_bytes(bytes(blob))
    argv = ["eval", "--weights", str(flipped), "--config", str(workdir / "config.json")]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(CorruptWeights, match="trainable"):
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
    assert not any(row["aborted"] for row in doc["rows"])
    assert all(doc["summary"][m]["aborted"] == 0 for m in doc["summary"])


def _benchmark_with(capsys, workdir, trained_weights, name, adapt_overrides, jobs):
    """(exit code, benchmark.json) of ``tempt benchmark`` on the tiny config with ``adapt`` overrides."""
    cfg = {**TINY_CONFIG, "adapt": {**TINY_CONFIG["adapt"], **adapt_overrides}}
    (workdir / f"{name}.json").write_text(json.dumps(cfg))
    out_dir = workdir / name
    argv = ["benchmark", "--weights", str(trained_weights), "--config", str(workdir / f"{name}.json"), "--out", str(out_dir)]
    code, out = run_cli(capsys, argv + ["--jobs", str(jobs)])
    doc = json.loads((out_dir / "benchmark.json").read_text(), parse_constant=_strict_json)
    assert json.loads(out) == doc
    assert (out_dir / "table.csv").is_file() and (out_dir / "details.csv").is_file()
    return code, doc


def _strict_json(token: str):
    raise ValueError(f"benchmark.json holds {token}, which RFC 8259 JSON has no literal for")


def test_benchmark_with_aborted_tasks_writes_artefacts_then_exits_4(capsys, caplog, workdir, trained_weights):
    # an lr of 1e30 throws the affine parameters to about 1e30 in the first step; the next forward overflows
    code, doc = _benchmark_with(capsys, workdir, trained_weights, "bench_lr_huge", {"lr": 1e30}, jobs=1)
    assert code == 4
    assert all(row["aborted"] == (row["method"] != "none") for row in doc["rows"])
    assert {m: s["aborted"] for m, s in doc["summary"].items()} == {"none": 0, "tent": 4, "tempt": 4}
    details = (workdir / "bench_lr_huge" / "details.csv").read_text().splitlines()
    assert details[0].endswith(",aborted") and sum(line.endswith(",True") for line in details) == 8
    # aborted rows are not results: a method that only aborted reports null, not a mean
    assert all(doc["summary"][m][k] is None for m in ("tent", "tempt") for k in ("f1_after_mean", "f1_after_sd"))
    assert doc["table"] == {"supervised": doc["summary"]["none"]["f1_after_mean"], "tent": None, "tempt": None}
    table = (workdir / "bench_lr_huge" / "table.csv").read_text().splitlines()[1].split(",")
    assert table[1] == f"{doc['summary']['none']['f1_after_mean']:.6f}" and table[2:] == ["nan", "nan"]
    named = [r.getMessage() for r in caplog.records if r.levelname == "ERROR" and r.getMessage().startswith("aborted:")]
    assert len(named) == cli.ABORTS_SHOWN
    assert named[0].startswith("aborted: video 0, method tent, repeat 0: ") and "non-finite" in named[0]


def test_benchmark_abort_rows_do_not_depend_on_jobs(capsys, workdir, trained_weights):
    code1, serial = _benchmark_with(capsys, workdir, trained_weights, "bench_lr_huge_j1", {"lr": 1e30}, jobs=1)
    code2, pooled = _benchmark_with(capsys, workdir, trained_weights, "bench_lr_huge_j2", {"lr": 1e30}, jobs=2)
    assert code1 == code2 == 4
    assert serial["rows"] == pooled["rows"] and serial["summary"] == pooled["summary"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_benchmark_jobs_below_one_exits_2(capsys, workdir, trained_weights, jobs):
    out_dir = workdir / f"bench_jobs{jobs}"
    argv = ["benchmark", "--weights", str(trained_weights), "--config", str(workdir / "config.json"), "--out", str(out_dir)]
    code, out = run_cli(capsys, argv + ["--jobs", jobs])
    assert code == 2
    assert out == ""
    assert not out_dir.exists()


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


# the config field each command reads its seed from; gradcheck's seed is not a config field
SEED_FIELDS = {"train": ("train", "seed"), "adapt": ("adapt", "seed"), "benchmark": ("benchmark", "master_seed")}


@pytest.mark.parametrize(
    "command,source",
    [(c, s) for c in ("train", "adapt", "benchmark", "gradcheck") for s in ("flag", "env", "config") if (c, s) != ("gradcheck", "config")],
)
def test_negative_seed_exits_2(capsys, workdir, trained_weights, monkeypatch, command, source):
    config = workdir / "config.json"
    if source == "config":
        section, field = SEED_FIELDS[command]
        doc = json.loads(config.read_text())
        doc[section] = {**doc[section], field: -2}
        config = workdir / f"negative-{section}-seed.json"
        config.write_text(json.dumps(doc))
    out_path = workdir / f"negative-seed-{command}-{source}"
    argv = {
        "train": ["train", "--config", str(config), "--out", str(out_path)],
        "adapt": ["adapt", "--weights", str(trained_weights), "--video", str(make_video_file(workdir)), "--config", str(config)],
        "benchmark": ["benchmark", "--weights", str(trained_weights), "--config", str(config), "--out", str(out_path)],
        "gradcheck": ["gradcheck", "--loss", "ce"],
    }[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("TEMPT_SEED", "-3")
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert not out_path.exists()


def test_trace_csv_bytes(tmp_path):
    report = SimpleNamespace(
        logits_before=np.array([[-0.0, 1e30], [0.5, -1.25], [2.0000005, 3.0]], dtype=np.float32),
        logits_after=np.array([[0.25, -0.0], [1e-7, -7.5], [3.0, 3.0]], dtype=np.float32),
    )
    path = tmp_path / "trace.csv"
    cli._write_trace(path, report)
    assert path.read_bytes() == (
        b"frame_id,before_0,before_1,after_0,after_1,argmax_before,argmax_after\n"
        b"0,-0.000000,1000000015047466219876688855040.000000,0.250000,-0.000000,1,0\n"
        b"1,0.500000,-1.250000,0.000000,-7.500000,0,0\n"
        b"2,2.000000,3.000000,3.000000,3.000000,1,0\n"
    )


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
