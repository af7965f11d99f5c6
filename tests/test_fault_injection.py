"""Fault injection: a NaN or +-Inf in a conv output, a conv input gradient or a 4-D gradient sum stops the run.

None of these three is scanned where it is made (``tensor``'s one NaN/Inf
check per value chain); the batch norm that consumes each one reports it.
Each case writes one non-finite element at one such site of the tiny model
and expects NonFiniteValue from that batch norm, an aborted adaptation
report, a DivergedLoss from training and the CLI's exit codes, with no
RuntimeWarning.
"""

from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest

from tempt import adapt, cli, data, losses, model, training
from tempt import tensor as T
from tempt.errors import DivergedLoss, NonFiniteActivation, NonFiniteValue

BATCH = 3 * T.FRAME_SLICE + 5  # four conv slices and two trunk slices, the last of each a partial one
FRAMES = np.random.Generator(np.random.PCG64(5)).uniform(-1, 1, size=(BATCH, 3, 8, 8)).astype(np.float32)
LABELS = np.arange(BATCH) % 8
VALUES = [np.nan, np.inf, -np.inf]
VALUE_IDS = ["nan", "inf", "-inf"]

# the tiny model of conftest's ``tiny_spec``: a stem and two downsampling blocks
CONVS = [name for name, shape, _ in model.layout(model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)))) if len(shape) == 4]
# each block's input feeds its conv1 and its proj, so its gradient is a 4-D sum: (spatial size, the layers that made it)
BLOCK_INPUTS = {"stage0.block0": (8, {"stem.bn"}), "stage1.block0": (4, {"stage0.block0.bn2", "stage0.block0.proj_bn"})}
SITES = [("output", c) for c in CONVS] + [("input-gradient", c) for c in CONVS[1:]] + [("sum", b) for b in BLOCK_INPUTS]
SITE_OP = {"output": "batchnorm2d", "input-gradient": "backward[batchnorm2d]", "sum": "backward[batchnorm2d]"}


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _one_shot(value):
    """Write ``value`` into the middle element of the first array handed over; later arrays pass untouched."""
    shots = iter([value])  # next() on a list iterator is atomic under the GIL: one pooled slice gets the shot

    def hit(array: np.ndarray) -> None:
        shot = next(shots, None)
        if shot is not None:
            array[np.unravel_index(array.size // 2, array.shape)] = shot

    return hit


def _inject_output(monkeypatch, kernel: np.ndarray, value, tape_free: bool = False) -> None:
    """Inject into the output of the conv over ``kernel`` (matched by its bytes).

    On the tape route (and in ``stem_conv``) through ``conv2d``; with
    ``tape_free``, through the ``conv_forward`` of each trunk slice.
    """
    hit, want = _one_shot(value), kernel.tobytes()
    if tape_free:
        real_forward = T.conv_forward

        def conv_forward(x, k, stride, pad, cols=None):
            out = real_forward(x, k, stride, pad, cols)
            if k.tobytes() == want:
                hit(out)
            return out

        monkeypatch.setattr(T, "conv_forward", conv_forward)
        return
    real_conv = T.conv2d

    def conv2d(x, k, stride=1, pad=0):
        out = real_conv(x, k, stride=stride, pad=pad)
        if k.data.tobytes() == want:
            hit(out.data)
        return out

    monkeypatch.setattr(T, "conv2d", conv2d)


def _inject_input_gradient(monkeypatch, kernel: np.ndarray, value) -> None:
    """Inject into the input gradient (dx) of the tape conv over ``kernel``."""
    hit, want, real_conv = _one_shot(value), kernel.tobytes(), T.conv2d

    def conv2d(x, k, stride=1, pad=0):
        out = real_conv(x, k, stride=stride, pad=pad)
        if k.data.tobytes() == want and out.node is not None:
            grads = out.node.backward_fn

            def backward_fn(g):
                gx, gw = grads(g)
                hit(gx)
                return [gx, gw]

            out.node.backward_fn = backward_fn
        return out

    monkeypatch.setattr(T, "conv2d", conv2d)


def _inject_sum(monkeypatch, block: str, value) -> None:
    """Inject into the 4-D gradient sum of ``block``'s input, told apart by its spatial size."""
    hit, hw, real_accumulate = _one_shot(value), BLOCK_INPUTS[block][0], T._accumulate

    def accumulate(a, b, op):
        total = real_accumulate(a, b, op)
        if total.ndim == 4 and total.shape[2] == hw:
            hit(total)
        return total

    monkeypatch.setattr(T, "_accumulate", accumulate)


def _inject(monkeypatch, params: model.ModelParams, site: str, where: str, value) -> None:
    if site == "output":
        _inject_output(monkeypatch, params[where].array, value)
    elif site == "input-gradient":
        _inject_input_gradient(monkeypatch, params[where].array, value)
    else:
        _inject_sum(monkeypatch, where, value)


def _raising_batch_norms(monkeypatch) -> list[str]:
    """Record the layer of each tape batch norm whose forward or backward raises NonFiniteValue; returns the list."""
    raised: list[str] = []
    real_bn = T.batchnorm2d

    def recorded(fn, layer):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except NonFiniteValue:
                raised.append(layer)
                raise

        return run

    def batchnorm2d(x, gamma, *args, **kwargs):
        layer = gamma.name.removesuffix(".gamma")
        out = recorded(real_bn, layer)(x, gamma, *args, **kwargs)
        if out.node is not None:
            out.node.backward_fn = recorded(out.node.backward_fn, layer)
        return out

    monkeypatch.setattr(T, "batchnorm2d", batchnorm2d)
    return raised


def _bn_after(conv: str) -> str:
    """The batch norm a conv's output goes into."""
    prefix, kind = conv.removesuffix(".w").rsplit(".", 1)
    return {"conv": f"{prefix}.bn", "conv1": f"{prefix}.bn1", "conv2": f"{prefix}.bn2", "proj": f"{prefix}.proj_bn"}[kind]


def _bns_before(conv: str) -> set[str]:
    """The batch norms whose backward a conv's input gradient reaches first."""
    prefix, kind = conv.removesuffix(".w").rsplit(".", 1)
    return {f"{prefix}.bn1"} if kind == "conv2" else BLOCK_INPUTS[prefix][1]


def _step(kind: str, params: model.ModelParams) -> T.Tensor:
    """The loss of one training step (train-mode batch norm, every parameter a leaf) or one adaptation step."""
    if kind == "train":
        return losses.cross_entropy(model.forward(params, FRAMES, mode="train", leaves=params.leaves()), LABELS)
    leaves = params.leaves(trainable=set(params.names_in_group(model.GROUP_BN_AFFINE)))
    return losses.entropy_loss(model.forward(params, FRAMES, leaves=leaves, stem=model.stem_conv(params, FRAMES)))


# ---------------------------------------------------------------------------
# the op that reports it


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("conv", CONVS)
@pytest.mark.parametrize("route", ["train", "adapt", "tape-free"])
def test_a_non_finite_conv_output_raises_at_its_batch_norm(slices, monkeypatch, tiny_params, route, conv, value):
    params = tiny_params.copy()
    raised = _raising_batch_norms(monkeypatch)
    _inject_output(monkeypatch, params[conv].array, value, tape_free=route == "tape-free")
    with pytest.raises(NonFiniteActivation, match=r"^op 'batchnorm2d'"):
        if route == "tape-free":
            model.forward(params, FRAMES)
        else:
            _step(route, params)
    assert raised == ([] if route == "tape-free" else [_bn_after(conv)])


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("conv", CONVS[1:])  # the stem conv's input is the frames: it has no input gradient
@pytest.mark.parametrize("step", ["train", "adapt"])
def test_a_non_finite_conv_input_gradient_raises_at_its_batch_norm(slices, monkeypatch, tiny_params, step, conv, value):
    params = tiny_params.copy()
    raised = _raising_batch_norms(monkeypatch)
    _inject_input_gradient(monkeypatch, params[conv].array, value)
    loss = _step(step, params)
    with pytest.raises(NonFiniteValue, match=r"^op 'backward\[batchnorm2d\]'"):
        T.backward(loss)
    assert len(raised) == 1 and raised[0] in _bns_before(conv)


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("block", BLOCK_INPUTS)
@pytest.mark.parametrize("step", ["train", "adapt"])
def test_a_non_finite_gradient_sum_raises_at_its_batch_norm(slices, monkeypatch, tiny_params, step, block, value):
    params = tiny_params.copy()
    raised = _raising_batch_norms(monkeypatch)
    _inject_sum(monkeypatch, block, value)
    loss = _step(step, params)
    with pytest.raises(NonFiniteValue, match=r"^op 'backward\[batchnorm2d\]'"):
        T.backward(loss)
    assert len(raised) == 1 and raised[0] in BLOCK_INPUTS[block][1]


# ---------------------------------------------------------------------------
# what the run does with it


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("site,where", SITES, ids=[f"{s}-{w}" for s, w in SITES])
@pytest.mark.parametrize("method", ["tempt", "tent"])
def test_adapt_video_returns_an_aborted_report(monkeypatch, tiny_params, method, site, where, value):
    _inject(monkeypatch, tiny_params, site, where, value)
    # tent draws every frame each step, so whichever frame of its video stem is hit is in the batch
    config = adapt.AdaptConfig(method=method, steps=2, lr=1e-2, median_window=5, region_window=8, num_regions=2, batch_frames_cap=BATCH)
    work, report = adapt.adapt_video(tiny_params, FRAMES, config)
    assert report.diagnostic is not None and report.diagnostic.startswith(f"op '{SITE_OP[site]}'")
    assert report.loss_trace == []
    assert all(work[n].array.tobytes() == tiny_params[n].array.tobytes() for n in tiny_params.names())


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("site,where", SITES, ids=[f"{s}-{w}" for s, w in SITES])
def test_training_raises_diverged_loss(monkeypatch, tiny_spec, site, where, value):
    config = training.TrainConfig(epochs=1, batch_size=16, seed=1)
    _inject(monkeypatch, model.build_model(tiny_spec, config.seed), site, where, value)
    dataset = data.FrameDataset(FRAMES[:32], LABELS[:32])
    with pytest.raises(DivergedLoss, match=rf"^epoch 0: op '{re.escape(SITE_OP[site])}'"):
        training.train(tiny_spec, dataset, config)


# ---------------------------------------------------------------------------
# the CLI

CLI_CONFIG = {
    "model": {"input_hw": 8, "stages": [[4, 1], [8, 1]], "num_classes": 8, "head_hidden": 8, "head_scale": 16.0},
    "train": {"epochs": 1, "batch_size": 16, "lr": 0.001, "seed": 1},
    "adapt": {"method": "tempt", "steps": 2, "lr": 0.01, "median_window": 5, "region_window": 8, "num_regions": 2, "batch_frames_cap": 16, "seed": 2},
    "benchmark": {"train_videos": 3, "val_videos": 2, "test_videos": 2, "frames_per_video": 48, "min_segment": 10, "master_seed": 27},
}


def _cli_files(tmp_path):
    """(config, weights, video) paths for the tiny model; the weights are an untrained build."""
    paths = tmp_path / "config.json", tmp_path / "weights.twgt", tmp_path / "clip.tten"
    paths[0].write_text(json.dumps(CLI_CONFIG))
    spec = model.ModelSpec(**{**CLI_CONFIG["model"], "stages": ((4, 1), (8, 1))})
    paths[1].write_bytes(model.save_weights(model.build_model(spec, 0)))
    shift = data.Shift(0.1, 1.2, (1.1, 0.9, 1.0))
    data.save_video(paths[2], data.generate_video(data.class_templates(4), 48, 8, shift, 0.05, 10, seed=3))
    return spec, paths


def test_cli_adapt_exits_4_on_a_nan_in_a_conv_input_gradient(capsys, tmp_path, monkeypatch):
    spec, (config, weights, video) = _cli_files(tmp_path)
    _inject_input_gradient(monkeypatch, model.build_model(spec, 0)["stage1.block0.conv2.w"].array, np.nan)
    code = cli.main(["adapt", "--weights", str(weights), "--video", str(video), "--config", str(config)])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["diagnostic"].startswith("op 'backward[batchnorm2d]'")


def test_cli_train_exits_3_on_an_inf_in_a_conv_output(capsys, tmp_path, monkeypatch):
    spec, (config, _, _) = _cli_files(tmp_path)
    _inject_output(monkeypatch, model.build_model(spec, 1)["stage0.block0.conv1.w"].array, np.inf)
    out = tmp_path / "trained.twgt"
    code = cli.main(["train", "--config", str(config), "--out", str(out), "--seed", "1"])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# the layout the rule rests on


def _reaches_batch_norms(parent) -> bool:
    """Whether a gradient handed to ``parent`` meets a batch norm's backward on every path, through relu masks alone."""
    if not isinstance(parent, T.Node):
        return False
    return parent.op == "batchnorm2d" or parent.op == "relu" and all(_reaches_batch_norms(p) for p in parent.parents)


@pytest.mark.parametrize("step", ["train", "adapt"])
def test_the_model_layout_hands_every_unchecked_conv_value_to_a_batch_norm(monkeypatch, tiny_params, step):
    """Every conv output's only consumers are batch norms, every conv input gradient reaches a batch norm's backward
    through relu masks and sums alone, and every 4-D node with two consumers is a relu or a batch norm."""
    ndim = {}
    real_make = T._make

    def make(data, op, inputs, backward_fn, finite=False):
        out = real_make(data, op, inputs, backward_fn, finite)
        if out.node is not None:
            ndim[out.node] = out.data.ndim
        return out

    monkeypatch.setattr(T, "_make", make)
    order = T.tape_order(_step(step, tiny_params.copy()).node)
    consumers = {node: [] for node in order}
    for node in order:
        for p in node.parents:
            if isinstance(p, T.Node):
                consumers[p].append(node.op)
    convs = [node for node in order if node.op == "conv2d"]
    assert len(convs) == len(CONVS) - (step == "adapt")  # an adaptation step takes the stem conv's output as given
    for conv in convs:
        assert consumers[conv] and set(consumers[conv]) == {"batchnorm2d"}
        assert conv.parents[0] is None or _reaches_batch_norms(conv.parents[0])  # None: the frames
    shared = [node for node in order if ndim[node] == 4 and len(consumers[node]) > 1]
    assert len(shared) == len(BLOCK_INPUTS)
    assert {node.op for node in shared} <= {"relu", "batchnorm2d"}
