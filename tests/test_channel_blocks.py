"""Channel-blocked batch norm, relu and gradient sums: the bytes of whole-array ops, pooled or inline, and their finite checks."""

from __future__ import annotations

import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tempt import model
from tempt import tensor as T
from tempt.errors import NonFiniteValue

EPS = model.BN_EPS
# per-channel sizes 10,500, 8,815, 8,649 and 3,219: none a multiple of numpy's 8,192-element reduction buffer
SHAPES = [(1, 3, 50, 70), (3, 5, 41, 43), (16, 9, 31, 31), (64, 3, 37, 29)]
MODES = ["eval", "train"]


def _bn_inputs(rng, shape):
    c = shape[0]
    x = rng.normal(0.3, 2.0, size=shape).astype(np.float32)
    gamma, beta = rng.uniform(0.5, 1.5, size=c).astype(np.float32), rng.normal(0, 0.3, size=c).astype(np.float32)
    mean, var = rng.normal(0, 0.3, size=c).astype(np.float32), rng.uniform(0.5, 2.0, size=c).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    return x, gamma, beta, mean, var, g


def _bn_reference(x, gamma, beta, mean, var, g, mode, relu):
    """Batch norm, then relu when ``relu``, and the backward, as whole-array numpy ops.

    Returns (out, running mean, running var, gx, ggamma, gbeta).
    """
    c = x.shape[0]
    bc, axes, m = (c, 1, 1, 1), (1, 2, 3), x.size // c
    if mode == "eval":
        mu, v, new_mean, new_var = mean.reshape(bc), var.reshape(bc), mean, var
    else:
        mu_c, var_c = x.mean(axis=axes, dtype=np.float64), x.var(axis=axes, dtype=np.float64)
        var_unbiased = var_c * (m / (m - 1)) if m > 1 else var_c
        new_mean = ((1 - T.BN_MOMENTUM) * mean + T.BN_MOMENTUM * mu_c).astype(np.float32)
        new_var = ((1 - T.BN_MOMENTUM) * var + T.BN_MOMENTUM * var_unbiased).astype(np.float32)
        mu, v = mu_c.astype(np.float32).reshape(bc), var_c.astype(np.float32).reshape(bc)
    inv_std = 1.0 / np.sqrt(v + np.float32(EPS))
    xhat = (x - mu) * inv_std
    out = gamma.reshape(bc) * xhat + beta.reshape(bc)
    if relu:
        g = g * (out > 0)
        out = np.maximum(out, 0.0)
    gsum = g.sum(axis=axes, keepdims=True)
    gxhat_sum = (g * xhat).sum(axis=axes, keepdims=True)
    gw = gamma.reshape(bc) * inv_std
    gx = g * gw if mode == "eval" else gw * (g - gsum / m - xhat * gxhat_sum / m)
    return out, new_mean, new_var, gx, gxhat_sum.reshape(c), gsum.reshape(c)


def _bn_run(inputs, mode, relu, x_on_tape, fused=True):
    """(out, running mean, running var, gx, ggamma, gbeta) of the tape's batch norm (and relu) on ``inputs``."""
    x, gamma, beta, mean, var, g = inputs
    mean_t, var_t = T.Tensor(mean.copy()), T.Tensor(var.copy())
    leaves = [T.Tensor(x, requires_grad=x_on_tape), T.Tensor(gamma, requires_grad=True), T.Tensor(beta, requires_grad=True)]
    if fused:
        out = T.batchnorm2d(*leaves, mean_t, var_t, eps=EPS, mode=mode, relu=relu)
    else:
        out = T.batchnorm2d(*leaves, mean_t, var_t, eps=EPS, mode=mode)
        out = T.relu(out) if relu else out
    loss = T.tensor_sum(out * T.Tensor(g))
    grads = T.backward(loss)
    gx = grads[leaves[0]].data if x_on_tape else None
    return out.data, mean_t.data, var_t.data, gx, grads[leaves[1]].data, grads[leaves[2]].data


def _assert_same_bytes(got, want, labels=("out", "running_mean", "running_var", "gx", "ggamma", "gbeta")):
    for label, a, b in zip(labels, got, want):
        if a is None or b is None:
            assert a is None or b is None, label
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, label
        assert a.tobytes() == b.tobytes(), label


@pytest.mark.parametrize("x_on_tape", [True, False], ids=["x-tracked", "x-off-tape"])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no-relu"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"C{s[0]}")
def test_batchnorm_blocks_give_the_whole_array_bytes(pool, monkeypatch, rng, shape, mode, relu, x_on_tape):
    """Pooled blocks of three channels, inline blocks and the unfused batchnorm2d-then-relu chain all give the reference bytes."""
    inputs = _bn_inputs(rng, shape)
    want = list(_bn_reference(*inputs, mode, relu))
    if not x_on_tape:
        want[3] = None
    monkeypatch.setattr(T, "CHANNEL_BLOCK", 3 * int(np.prod(shape[1:])))  # several blocks, the last one short
    _assert_same_bytes(_bn_run(inputs, mode, relu, x_on_tape), want)
    monkeypatch.setattr(T, "_POOL", None)
    _assert_same_bytes(_bn_run(inputs, mode, relu, x_on_tape), want)
    _assert_same_bytes(_bn_run(inputs, mode, relu, x_on_tape, fused=False), want)


@pytest.fixture(scope="module")
def model_bn_shapes():
    """(channels, H, W) of each batch norm of the default model, from its own calls."""
    shapes = set()
    real_bn = T.batchnorm2d

    def bn(x, *args, **kwargs):
        shapes.add((x.shape[0],) + x.shape[2:])
        return real_bn(x, *args, **kwargs)

    params = model.build_model(model.ModelSpec(), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "batchnorm2d", bn)
        model.forward(params, np.zeros((2, 3, 32, 32), dtype=np.float32), mode="train", leaves=params.copy().leaves())
    return sorted(shapes)


@pytest.mark.parametrize("n", [1, 31, 64, 128])
def test_batchnorm_blocks_on_the_default_models_shapes(pool, rng, model_bn_shapes, n):
    """At the model's shapes and CHANNEL_BLOCK, a pooled batch norm gives the reference bytes in both modes, with relu."""
    assert len(model_bn_shapes) == 4
    for c, h, w in model_bn_shapes:
        inputs = _bn_inputs(rng, (c, n, h, w))
        for mode in MODES:
            _assert_same_bytes(_bn_run(inputs, mode, True, True), _bn_reference(*inputs, mode, True))


@pytest.mark.parametrize("shape", SHAPES + [(16, 128, 16, 16)], ids=lambda s: f"C{s[0]}-{s[1]}")
def test_fused_residual_add_gives_the_add_then_relu_bytes(pool, monkeypatch, rng, shape):
    """relu(a, skip) equals relu(a + skip) in its output and both gradients, pooled and inline; both inputs get one array."""
    a, b, g = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    s = a + b
    want = (np.maximum(s, 0.0), g * (s > 0))

    def run(fused):
        ta, tb = T.Tensor(a, requires_grad=True), T.Tensor(b, requires_grad=True)
        out = T.relu(ta, tb) if fused else T.relu(ta + tb)
        grads = T.backward(T.tensor_sum(out * T.Tensor(g)))
        return out.data, grads[ta].data, grads[tb].data

    monkeypatch.setattr(T, "CHANNEL_BLOCK", 3 * int(np.prod(shape[1:])))
    for pooled in (True, False):
        if not pooled:
            monkeypatch.setattr(T, "_POOL", None)
        for fused in (True, False):
            out, ga, gb = run(fused)
            _assert_same_bytes((out, ga, gb), (want[0], want[1], want[1]), ("out", "ga", "gb"))


def test_a_gradient_handed_to_two_parents_is_never_summed_in_place(pool, monkeypatch, rng):
    """x feeds a conv and, as the skip, the fused add: its gradient is a new sum, and the add's one array stays whole."""
    monkeypatch.setattr(T, "CHANNEL_BLOCK", 64)
    x = T.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32), requires_grad=True)
    kernel = T.Tensor(rng.standard_normal((4, 4, 3, 3)).astype(np.float32))
    conv = T.conv2d(x, kernel, stride=1, pad=1)
    out = T.relu(conv, x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    add_grads = out.node.backward_fn(g)
    assert add_grads[0] is add_grads[1]
    before = add_grads[1].copy()
    dx = conv.node.backward_fn(add_grads[0])[0]
    total = T._accumulate(add_grads[1], dx, "probe")
    assert total.tobytes() == (before + dx).tobytes()
    assert add_grads[0].tobytes() == before.tobytes()
    # the same through backward: x's gradient is the two paths' sum
    x2 = T.Tensor(x.data, requires_grad=True)
    got = T.backward(T.tensor_sum(T.relu(T.conv2d(x2, kernel, stride=1, pad=1), x2) * T.Tensor(g)))[x2].data
    assert got.tobytes() == (before + dx).tobytes()


# ---------------------------------------------------------------------------
# non-finite values


BLOCK_SHAPE = (12, 4, 8, 8)  # 256 elements a channel: with CHANNEL_BLOCK 512, six two-channel blocks
BAD_CHANNELS = [0, 5, 11]  # in the first, a middle and the last block


def _checked_ops(monkeypatch):
    """Record the op name and channel count of every finite check; returns the list."""
    seen = []
    real = T._ensure_finite
    monkeypatch.setattr(T, "_ensure_finite", lambda data, op: (seen.append((op, data.shape[0] if data.ndim == 4 else None)), real(data, op))[1])
    return seen


@pytest.mark.parametrize("bad_value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("channel", BAD_CHANNELS, ids=["first", "middle", "last"])
@pytest.mark.parametrize("mode", MODES)
def test_non_finite_in_one_block_of_a_batch_norm_forward_raises_after_every_block(pool, monkeypatch, rng, mode, channel, bad_value):
    monkeypatch.setattr(T, "CHANNEL_BLOCK", 512)
    x, gamma, beta, mean, var, _ = _bn_inputs(rng, BLOCK_SHAPE)
    x[channel, 1, 2, 3] = bad_value
    seen = _checked_ops(monkeypatch)
    leaves = [T.Tensor._unchecked(x, requires_grad=True), T.Tensor(gamma, requires_grad=True), T.Tensor(beta, requires_grad=True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"^op 'batchnorm2d'"):
            T.batchnorm2d(*leaves, T.Tensor(mean), T.Tensor(var), eps=EPS, mode=mode, relu=True)
    assert seen.count(("batchnorm2d", 2)) == 6  # every block ran to its check


@pytest.mark.parametrize("channel", BAD_CHANNELS, ids=["first", "middle", "last"])
@pytest.mark.parametrize("mode", MODES)
def test_overflow_in_one_block_of_a_batch_norm_backward_raises_after_every_block(pool, monkeypatch, rng, mode, channel):
    monkeypatch.setattr(T, "CHANNEL_BLOCK", 512)
    x, gamma, beta, mean, var, g = _bn_inputs(rng, BLOCK_SHAPE)
    # the channel's output stays near 0, so the loss sum(out * g) is finite, while g * gamma * inv_std is not:
    # x within 1e-11 of mean 0, beta 0, gamma 8, 1/std about 95 (eval) or 316 (train, where eps dominates), g 3e38
    x[channel] = np.float32(1e-12) * rng.standard_normal(BLOCK_SHAPE[1:])
    mean[channel], var[channel], beta[channel], gamma[channel] = 0.0, 1e-4, 0.0, 8.0
    g[channel] = 3e38
    leaves = [T.Tensor(x, requires_grad=True), T.Tensor(gamma, requires_grad=True), T.Tensor(beta, requires_grad=True)]
    out = T.batchnorm2d(*leaves, T.Tensor(mean), T.Tensor(var), eps=EPS, mode=mode, relu=True)
    seen = _checked_ops(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"^op 'backward\[batchnorm2d\]'"):
            T.backward(T.tensor_sum(out * T.Tensor(g)))
    assert seen.count(("backward[batchnorm2d]", 2)) == 6  # every block ran to its dx check


def _overflowing_loss(rng, which):
    """A loss whose gradient for ``which`` alone, of a conv or a batch norm, overflows float32; returns (loss, op).

    The loss is sum(out * 3e38): the op's output stays small enough for
    the product to be finite, and the gradient it hands the op, 3e38, is
    finite too. The conv's dx is left unchecked, so its input comes from a
    batch norm with relu, as every tracked conv input in the model does,
    and that batch norm's backward names it.
    """
    big = T.Tensor(np.full((4, 2, 4, 4), 3e38, dtype=np.float32))
    x = rng.uniform(1.0, 2.0, size=(4, 2, 4, 4)).astype(np.float32)
    stats = [T.Tensor(np.zeros(4, dtype=np.float32)), T.Tensor(np.ones(4, dtype=np.float32))]
    ones, zeros = T.Tensor(np.ones(4, dtype=np.float32)), T.Tensor(np.zeros(4, dtype=np.float32))
    if which.startswith("conv"):
        # dx sums kernel * 3e38 over 36 taps, dw sums x * 3e38 over 32 pixels
        scale, value = (1e-20, 10.0) if which == "conv-dx" else (1.0, 1e-10)
        xt = T.Tensor(x * np.float32(scale), requires_grad=which == "conv-dx")
        if which == "conv-dx":  # an identity batch norm: positive x passes its relu
            xt = T.batchnorm2d(xt, ones, zeros, *stats, eps=EPS, mode="eval", relu=True)
        kernel = T.Tensor(np.full((4, 4, 3, 3), value, dtype=np.float32), requires_grad=which == "conv-dw")
        loss = T.tensor_sum(T.conv2d(xt, kernel, stride=1, pad=1) * big)
        return loss, "backward[batchnorm2d]" if which == "conv-dx" else "backward[conv2d]"
    # eval, mean 0 and variance 1: dx is 3e38 * gamma, dgamma sums 3e38 * xhat and dbeta sums 3e38
    scale, value = (1e-30, 4.0) if which == "bn-dx" else (1.0, 1e-3)
    leaves = [
        T.Tensor(x * np.float32(scale), requires_grad=which == "bn-dx"),
        T.Tensor(np.full(4, value, dtype=np.float32), requires_grad=which == "bn-dgamma"),
        T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=which == "bn-dbeta"),
    ]
    return T.tensor_sum(T.batchnorm2d(*leaves, *stats, eps=EPS, mode="eval") * big), "backward[batchnorm2d]"


@pytest.mark.parametrize("which", ["conv-dx", "conv-dw", "bn-dx", "bn-dgamma", "bn-dbeta"])
def test_every_gradient_of_a_self_checking_node_is_caught_when_it_overflows(pool, rng, which):
    loss, op = _overflowing_loss(rng, which)
    assert all(n.finite for n in T.tape_order(loss.node) if n.op in ("conv2d", "batchnorm2d"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=rf"^op '{re.escape(op)}'"):
            T.backward(loss)


# ---------------------------------------------------------------------------
# the runner


def _in_thread(fn, timeout=60):
    """Run ``fn`` on a thread of its own; fail if it has not finished within ``timeout`` seconds, raise what it raised."""
    outcome = []

    def target():
        try:
            fn()
        except BaseException as exc:  # handed to the test's thread
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"did not finish within {timeout} s"
    if outcome[0] is not None:
        raise outcome[0]


def test_each_block_runs_once_under_frequent_thread_switches(monkeypatch):
    """Four helpers and the caller drain 200 one-channel blocks 20 times, with a 1 us switch interval."""
    monkeypatch.setattr(T, "CHANNEL_BLOCK", 1)
    monkeypatch.setattr(T, "POOL_MIN_ELEMENTS", 0)
    executor = ThreadPoolExecutor(4, thread_name_prefix="test-stress")
    monkeypatch.setattr(T, "_POOL", executor)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def rounds():
            for _ in range(20):
                runs = np.zeros(200, dtype=np.int64)

                def block(ch):
                    runs[ch] += 1

                T.run_channel_blocks(block, (200, 1))
                assert runs.tolist() == [1] * 200

        _in_thread(rounds)
    finally:
        sys.setswitchinterval(interval)
        executor.shutdown()


def test_the_caller_drains_every_part_when_the_pool_is_busy(pool):
    """With both pool threads held, the caller runs all slices alone and returns: the helpers that never started are cancelled."""
    release = threading.Event()
    held = [pool.submit(release.wait, 60) for _ in range(2)]
    try:
        names = []
        _in_thread(lambda: T.run_frame_slices(lambda f, p: names.append(threading.current_thread().name), 4 * T.FRAME_SLICE, T.FRAME_SLICE, 1, 0))
        assert len(names) == 4 and all(not name.startswith("test-slice") for name in names)
    finally:
        release.set()
        for future in held:
            future.result(timeout=60)
