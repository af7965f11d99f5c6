"""Tensor op semantics, oracle agreement, and gradient checks."""

from __future__ import annotations

import platform
import resource
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempt import adapt, losses, model
from tempt import tensor as T
from tempt.errors import (
    InvalidStride,
    NegativeVariance,
    NonFiniteLoss,
    NonFiniteValue,
    NonScalarLoss,
    ShapeMismatch,
)


def fd_check(op, shapes, seed=0, step=1e-3, tol=1e-3, low=-1.0, high=1.0):
    """Central-difference check of a tensor op at f32.

    The op output is projected to a scalar with a fixed random matrix so
    gradients of all inputs are exercised. Relative error is normalized
    by the largest finite-difference entry per input.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [rng.uniform(low, high, size=s).astype(np.float32) for s in shapes]
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs)
    proj = rng.uniform(-1, 1, size=out.shape).astype(np.float32)
    loss = T.tensor_sum(out * T.Tensor(proj))
    grads = T.backward(loss)

    def value(arrs):
        outs = op(*[T.Tensor(a) for a in arrs])
        return float((outs.data.astype(np.float64) * proj).sum())

    for i, base in enumerate(arrays):
        fd = np.zeros(base.size)
        flat = base.astype(np.float64).ravel().copy()
        for ci in range(base.size):
            orig = flat[ci]
            probe = [a.copy() for a in arrays]
            flat[ci] = orig + step
            probe[i] = flat.astype(np.float32).reshape(base.shape)
            f_plus = value(probe)
            flat[ci] = orig - step
            probe[i] = flat.astype(np.float32).reshape(base.shape)
            f_minus = value(probe)
            flat[ci] = orig
            fd[ci] = (f_plus - f_minus) / (2 * step)
        fd = fd.reshape(base.shape)
        analytic = grads[inputs[i]].data.astype(np.float64)
        scale = max(np.abs(fd).max(), 1e-6)
        assert np.abs(analytic - fd).max() / scale < tol, f"input {i}"


# ---------------------------------------------------------------------------
# elementwise


def test_binop_add():
    out = T.tensor_binop(T.Tensor([1, 2]), T.Tensor([3, 4]), "add")
    assert np.array_equal(out.data, [4, 6])


def test_binop_mul_zero_annihilates():
    out = T.tensor_binop(T.Tensor([1, 2]), T.Tensor([0, 0]), "mul")
    assert np.array_equal(out.data, [0, 0])


def test_binop_sub_scalar_cancels():
    out = T.Tensor([5.0, 5.0]) - 5.0
    assert np.array_equal(out.data, [0, 0])


def test_binop_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.tensor_binop(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4,))), "add")


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_broadcast_add_commutative(rows, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = T.Tensor(rng.uniform(-1, 1, size=(rows, cols)).astype(np.float32))
    b = T.Tensor(rng.uniform(-1, 1, size=(cols,)).astype(np.float32))
    assert np.array_equal((a + b).data, (b + a).data)


def test_binop_gradients():
    for kind in ("add", "sub", "mul"):
        fd_check(lambda a, b, k=kind: T.tensor_binop(a, b, k), [(3, 4), (3, 4)], seed=3)


def test_broadcast_grad_shapes():
    a = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    b = T.Tensor(np.ones((3,), dtype=np.float32), requires_grad=True)
    grads = T.backward(T.tensor_sum(a * b))
    assert grads[a].shape == (2, 3)
    assert grads[b].shape == (3,)
    assert np.array_equal(grads[b].data, [2, 2, 2])


def test_unary_gradients():
    fd_check(T.exp, [(4, 3)], seed=5)
    fd_check(T.log, [(4, 3)], seed=6, low=0.5, high=2.0)
    fd_check(T.sqrt, [(4, 3)], seed=7, low=0.5, high=2.0)
    fd_check(T.relu, [(4, 3)], seed=8)  # seed keeps every sample clear of the kink


def test_relu_forward():
    assert np.array_equal(T.relu(T.Tensor([-1.0, 2.0])).data, [0.0, 2.0])


def test_nonfinite_raises():
    with pytest.raises(NonFiniteValue):
        T.log(T.Tensor([0.0]))
    with pytest.raises(NonFiniteValue):
        T.div(T.Tensor([1.0]), T.Tensor([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_finite_check_finds_a_non_finite_value_at_every_offset(rng, bad):
    """Every offset of 4,096 (16 full 256-wide rows), of a 100-value tail, of a transposed and of a strided view."""
    top = np.finfo(np.float32).max
    flat = rng.uniform(-top, top, size=4096 + 100).astype(np.float32)  # x * 0 is 0 for every finite x
    grid = rng.uniform(-1, 1, size=(64, 96)).astype(np.float32)
    views = [flat, grid.T, grid[:, ::3]]  # contiguous, F-ordered, and neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for view in views:
            T._ensure_finite(view, "probe")
            for index in np.ndindex(view.shape):
                keep = view[index]
                view[index] = bad
                with pytest.raises(NonFiniteValue, match="'probe'"):
                    T._ensure_finite(view, "probe")
                view[index] = keep


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = T.Tensor(np.eye(2, dtype=np.float32))
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_dot_product():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape
    _, p = b.shape
    out = np.zeros((m, p), dtype=np.float32)
    for i in range(m):
        for j in range(p):
            acc = np.float32(0.0)
            for kk in range(n):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def test_matmul_matches_triple_loop(rng):
    a = rng.uniform(-1, 1, size=(3, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, size=(3, 3)).astype(np.float32)
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.allclose(got, triple_loop_matmul(a, b), atol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_gradients():
    fd_check(T.matmul, [(3, 4), (4, 2)], seed=9)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel(rng):
    x = rng.uniform(-1, 1, size=(1, 1, 3, 3)).astype(np.float32)
    k = np.ones((1, 1, 1, 1), dtype=np.float32)
    out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, pad=0)
    assert np.array_equal(out.data, x)


def test_conv2d_zero_kernel(rng):
    x = rng.uniform(-1, 1, size=(3, 2, 5, 5)).astype(np.float32)
    k = np.zeros((4, 3, 3, 3), dtype=np.float32)
    out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, pad=1)
    assert np.all(out.data == 0)


def _swap_nc(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) <-> (C,N,H,W): the oracles below are NCHW, conv2d is channel-major."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3))


def conv2d_direct(x: np.ndarray, kernel: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Loop-nest reference convolution over NCHW; the oracle the fast path must match."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).astype(np.float64)
    k64 = kernel.astype(np.float64)
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, oi * stride + i, oj * stride + j] * k64[fi, ci, i, j]
                    out[ni, fi, oi, oj] = acc
    return out.astype(np.float32)


def conv2d_direct_adjoint(
    g: np.ndarray, x: np.ndarray, kernel: np.ndarray, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Loop-nest adjoint of ``conv2d_direct`` at output gradient ``g`` (NCHW): (dx, dkernel)."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).astype(np.float64)
    g64, k64 = g.astype(np.float64), kernel.astype(np.float64)
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k64)
    for ni in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                r, q = oi * stride + i, oj * stride + j
                                dxp[ni, ci, r, q] += g64[ni, fi, oi, oj] * k64[fi, ci, i, j]
                                dk[fi, ci, i, j] += g64[ni, fi, oi, oj] * xp[ni, ci, r, q]
    return dxp[:, :, pad : pad + h, pad : pad + w].astype(np.float32), dk.astype(np.float32)


def _assert_rejected(x: T.Tensor, k: T.Tensor, stride: int, pad: int) -> None:
    with pytest.raises(ShapeMismatch, match="is not stride"):
        T.conv2d(x, k, stride=stride, pad=pad)


# (stride, pad, NCHW input shape, kernel shape, accepted): the four original
# cases keep their ids; then the model's three conv kinds (3x3/s1/p1 stem and
# residual convs, 3x3/s2/p1 downsampling, 1x1/s2/p0 projection) at batch 2,
# and stride 3, pad 2, 2x2, 2x3 and 5x5 kernels, odd inputs and H != W;
# "5x5-s2-p2-2x4" has a tap that meets only padding. conv2d accepts inputs of
# exactly stride x the output size and must reject the others.
CONV_CASES = [
    pytest.param(1, 0, (1, 2, 5, 5), (3, 2, 3, 3), False, id="1-0"),
    pytest.param(1, 1, (1, 2, 5, 5), (3, 2, 3, 3), True, id="1-1"),
    pytest.param(2, 1, (1, 2, 5, 5), (3, 2, 3, 3), False, id="2-1"),
    pytest.param(2, 0, (1, 2, 5, 5), (3, 2, 3, 3), False, id="2-0"),
    pytest.param(1, 1, (2, 3, 8, 8), (4, 3, 3, 3), True, id="model-3x3-s1-p1"),
    pytest.param(2, 1, (2, 4, 8, 8), (5, 4, 3, 3), True, id="model-3x3-s2-p1"),
    pytest.param(2, 0, (2, 4, 8, 8), (5, 4, 1, 1), True, id="model-1x1-s2-p0"),
    pytest.param(3, 2, (2, 2, 7, 5), (3, 2, 2, 2), False, id="2x2-s3-p2-7x5"),
    pytest.param(3, 0, (1, 2, 9, 7), (2, 2, 3, 3), False, id="3x3-s3-p0-9x7"),
    pytest.param(2, 1, (2, 1, 7, 6), (2, 1, 2, 3), False, id="2x3-s2-p1-7x6"),
    pytest.param(2, 2, (1, 2, 5, 7), (3, 2, 2, 2), False, id="2x2-s2-p2-5x7"),
    pytest.param(3, 1, (2, 2, 9, 6), (3, 2, 3, 3), True, id="3x3-s3-p1-9x6"),
    pytest.param(2, 1, (2, 3, 8, 6), (2, 3, 3, 3), True, id="3x3-s2-p1-8x6"),
    pytest.param(2, 0, (2, 2, 6, 4), (3, 2, 2, 2), True, id="2x2-s2-p0-6x4"),
    pytest.param(2, 2, (1, 2, 2, 4), (3, 2, 5, 5), True, id="5x5-s2-p2-2x4"),
    pytest.param(2, 1, (33, 2, 4, 4), (3, 2, 3, 3), True, id="model-3x3-s2-p1-n33"),  # crosses a frame slice
]


@pytest.mark.parametrize("stride,pad,x_shape,k_shape,accepted", CONV_CASES)
def test_conv2d_matches_direct_oracle(rng, stride, pad, x_shape, k_shape, accepted):
    x = rng.uniform(-1, 1, size=x_shape).astype(np.float32)
    k = rng.uniform(-1, 1, size=k_shape).astype(np.float32)
    if not accepted:
        _assert_rejected(T.Tensor(_swap_nc(x)), T.Tensor(k), stride, pad)
        return
    got = _swap_nc(T.conv2d(T.Tensor(_swap_nc(x)), T.Tensor(k), stride=stride, pad=pad).data)
    want = conv2d_direct(x, k, stride=stride, pad=pad)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-5


@pytest.mark.parametrize("stride,pad,x_shape,k_shape,accepted", CONV_CASES)
def test_conv2d_backward_matches_direct_adjoint(rng, stride, pad, x_shape, k_shape, accepted):
    x = rng.uniform(-1, 1, size=x_shape).astype(np.float32)
    k = rng.uniform(-1, 1, size=k_shape).astype(np.float32)
    xt = T.Tensor(_swap_nc(x), requires_grad=True)
    kt = T.Tensor(k, requires_grad=True)
    if not accepted:
        _assert_rejected(xt, kt, stride, pad)
        return
    out = T.conv2d(xt, kt, stride=stride, pad=pad)
    g = rng.uniform(-1, 1, size=out.shape).astype(np.float32)  # channel-major, like out
    grads = T.backward(T.tensor_sum(out * T.Tensor(g)))
    want_dx, want_dk = conv2d_direct_adjoint(_swap_nc(g), x, k, stride=stride, pad=pad)
    got_dx = _swap_nc(grads[xt].data)
    assert got_dx.shape == want_dx.shape
    assert np.abs(got_dx - want_dx).max() < 1e-5
    assert np.abs(grads[kt].data - want_dk).max() < 1e-5


def test_conv2d_output_shape():
    k = T.Tensor(np.zeros((2, 1, 3, 3), dtype=np.float32))
    assert T.conv2d(T.Tensor(np.zeros((1, 1, 8, 10), dtype=np.float32)), k, stride=2, pad=1).shape == (2, 1, 4, 5)
    _assert_rejected(T.Tensor(np.zeros((1, 1, 7, 9), dtype=np.float32)), k, stride=2, pad=1)  # 7x9 -> 4x5 too


def test_conv2d_invalid_stride():
    x = T.Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    k = T.Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(InvalidStride):
        T.conv2d(x, k, stride=0)


def test_conv2d_kernel_too_large():
    x = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    k = T.Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        T.conv2d(x, k)


# one frame, one short of, exactly at and one past the second slice's end, and a partial fifth slice
SLICE_BATCHES = [1, 2 * T.FRAME_SLICE - 1, 2 * T.FRAME_SLICE, 2 * T.FRAME_SLICE + 1, 4 * T.FRAME_SLICE + 6]


@pytest.mark.parametrize("n", SLICE_BATCHES)
@pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 3), (2, 0, 1)], ids=["3x3-s1-p1", "3x3-s2-p1", "1x1-s2-p0"])
def test_conv2d_frame_slices_keep_bytes(pool, monkeypatch, rng, stride, pad, k, n):
    """Output and dx equal frame-by-frame conv2d byte for byte, pooled and serial; dw is one GEMM over the whole batch."""
    x = rng.standard_normal((8, n, 16, 16)).astype(np.float32)
    kernel = T.Tensor(rng.standard_normal((12, 8, k, k)).astype(np.float32), requires_grad=True)
    per_frame = [T.conv2d(T.Tensor(x[:, i : i + 1], requires_grad=True), kernel, stride=stride, pad=pad) for i in range(n)]
    want_out = np.concatenate([o.data for o in per_frame], axis=1)
    g = rng.standard_normal(want_out.shape).astype(np.float32)
    want_dx = np.concatenate([o.node.backward_fn(g[:, i : i + 1])[0] for i, o in enumerate(per_frame)], axis=1)
    oh, ow = want_out.shape[2:]
    want_dw = g.reshape(12, -1) @ T._im2col(x, k, k, stride, pad, oh, ow).T
    for slices_on in (pool, None):  # the pool's threads, then the caller's
        monkeypatch.setattr(T, "_POOL", slices_on)
        out = T.conv2d(T.Tensor(x, requires_grad=True), kernel, stride=stride, pad=pad)
        dx, dw = out.node.backward_fn(g)
        assert out.data.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()
        assert dw.tobytes() == want_dw.reshape(dw.shape).tobytes()


@pytest.fixture(scope="module")
def default_model_layers():
    """(conv inputs, batch-norm inputs) of one default-model train forward, per frame and deduplicated.

    A conv input is (channels, (H, W), kernel shape, stride, pad), a
    batch-norm input (channels, H, W); both are recorded from the model's
    own calls, so they follow its topology.
    """
    convs, bns = set(), set()
    real_conv, real_bn = T.conv2d, T.batchnorm2d

    def conv(x, kernel, stride=1, pad=0):
        convs.add((x.shape[0], x.shape[2:], kernel.shape, stride, pad))
        return real_conv(x, kernel, stride=stride, pad=pad)

    def bn(x, *args, **kwargs):
        bns.add((x.shape[0],) + x.shape[2:])
        return real_bn(x, *args, **kwargs)

    params = model.build_model(model.ModelSpec(), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "conv2d", conv)
        mp.setattr(T, "batchnorm2d", bn)
        frames = np.zeros((2, 3, params.spec.input_hw, params.spec.input_hw), dtype=np.float32)
        model.forward(params, frames, mode="train", leaves=params.copy().leaves())
    return sorted(convs), sorted(bns)


MODEL_BATCHES = [1, 31, 33, 64, 70]


@pytest.mark.parametrize("n", MODEL_BATCHES)
def test_conv2d_kernel_gradient_is_one_whole_batch_gemm(rng, default_model_layers, n):
    """dw equals g @ im2col(whole batch).T byte for byte, for every conv of the default model."""
    convs, _ = default_model_layers
    assert len(convs) == 10
    for c, (h, w), kshape, stride, pad in convs:
        x = rng.standard_normal((c, n, h, w)).astype(np.float32)
        kernel = T.Tensor(rng.standard_normal(kshape).astype(np.float32), requires_grad=True)
        out = T.conv2d(T.Tensor(x), kernel, stride=stride, pad=pad)
        g = rng.standard_normal(out.shape).astype(np.float32)
        _, dw = out.node.backward_fn(g)
        f, _, kh, kw = kshape
        want = g.reshape(f, -1) @ T._im2col(x, kh, kw, stride, pad, *out.shape[2:]).T
        assert dw.tobytes() == want.reshape(kshape).tobytes(), (c, h, kshape, stride)


# (stride, pad, channel-major input shape, kernel shape, accepted); the first two keep their ids
CONV_GRAD_CASES = [
    pytest.param(1, 1, (2, 2, 5, 5), (3, 2, 3, 3), True, id="1-1"),
    pytest.param(2, 1, (2, 2, 5, 5), (3, 2, 3, 3), False, id="2-1"),
    pytest.param(2, 0, (3, 2, 6, 6), (2, 3, 1, 1), True, id="model-1x1-s2-p0"),
    pytest.param(3, 2, (2, 2, 7, 5), (3, 2, 2, 2), False, id="2x2-s3-p2-7x5"),
    pytest.param(2, 1, (1, 2, 7, 6), (2, 1, 2, 3), False, id="2x3-s2-p1-7x6"),
    pytest.param(3, 1, (2, 2, 9, 6), (3, 2, 3, 3), True, id="3x3-s3-p1-9x6"),
]


@pytest.mark.parametrize("stride,pad,x_shape,k_shape,accepted", CONV_GRAD_CASES)
def test_conv2d_gradients(stride, pad, x_shape, k_shape, accepted):
    if not accepted:
        zeros = [T.Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True) for shape in (x_shape, k_shape)]
        _assert_rejected(*zeros, stride, pad)
        return
    fd_check(
        lambda x, k: T.conv2d(x, k, stride=stride, pad=pad),
        [x_shape, k_shape],
        seed=11,
    )


# ---------------------------------------------------------------------------
# batchnorm2d


def _bn_args(rng, c=3, train=False):
    x = rng.uniform(-1, 1, size=(c, 2, 4, 4)).astype(np.float32)  # channel-major
    gamma = rng.uniform(0.5, 1.5, size=c).astype(np.float32)
    beta = rng.uniform(-0.5, 0.5, size=c).astype(np.float32)
    mean = rng.uniform(-0.5, 0.5, size=c).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=c).astype(np.float32)
    return x, gamma, beta, mean, var


def test_batchnorm_identity():
    x = np.random.default_rng(0).uniform(-1, 1, size=(2, 1, 3, 3)).astype(np.float32)
    out = T.batchnorm2d(
        T.Tensor(x),
        T.Tensor(np.ones(2, dtype=np.float32)),
        T.Tensor(np.zeros(2, dtype=np.float32)),
        T.Tensor(np.zeros(2, dtype=np.float32)),
        T.Tensor(np.ones(2, dtype=np.float32)),
        eps=1e-12,
        mode="eval",
    )
    assert np.abs(out.data - x).max() < 1e-6


def test_batchnorm_gamma_zero_gives_beta(rng):
    x, _, beta, mean, var = _bn_args(rng)
    out = T.batchnorm2d(
        T.Tensor(x),
        T.Tensor(np.zeros(3, dtype=np.float32)),
        T.Tensor(beta),
        T.Tensor(mean),
        T.Tensor(var),
        mode="eval",
    )
    assert np.allclose(out.data, np.broadcast_to(beta[:, None, None, None], x.shape))


def test_batchnorm_eval_matches_affine_oracle(rng):
    x, gamma, beta, mean, var = _bn_args(rng)
    out = T.batchnorm2d(
        T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), T.Tensor(mean), T.Tensor(var), eps=1e-5, mode="eval"
    )
    want = gamma[:, None, None, None] * (x - mean[:, None, None, None]) / np.sqrt(
        var[:, None, None, None] + 1e-5
    ) + beta[:, None, None, None]
    assert np.abs(out.data - want).max() < 1e-6


def test_batchnorm_eval_never_writes_stats(rng):
    x, gamma, beta, mean, var = _bn_args(rng)
    mean_t, var_t = T.Tensor(mean.copy()), T.Tensor(var.copy())
    g = T.Tensor(gamma, requires_grad=True)
    b = T.Tensor(beta, requires_grad=True)
    out = T.batchnorm2d(T.Tensor(x), g, b, mean_t, var_t, mode="eval")
    T.backward(T.tensor_sum(out))
    assert mean_t.data.tobytes() == mean.tobytes()
    assert var_t.data.tobytes() == var.tobytes()


def test_batchnorm_train_updates_stats(rng):
    x, gamma, beta, mean, var = _bn_args(rng)
    mean_t, var_t = T.Tensor(mean.copy()), T.Tensor(var.copy())
    T.batchnorm2d(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), mean_t, var_t, mode="train")
    batch_mean = x.mean(axis=(1, 2, 3))
    assert np.allclose(mean_t.data, 0.9 * mean + 0.1 * batch_mean, atol=1e-5)
    assert not np.array_equal(var_t.data, var)


def test_batchnorm_negative_variance(rng):
    x, gamma, beta, mean, var = _bn_args(rng)
    var[0] = -0.5
    with pytest.raises(NegativeVariance):
        T.batchnorm2d(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), T.Tensor(mean), T.Tensor(var))


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_batchnorm_gradients(rng, mode):
    x, gamma, beta, mean, var = _bn_args(rng)

    def op(xt, gt, bt):
        return T.batchnorm2d(xt, gt, bt, T.Tensor(mean.copy()), T.Tensor(var.copy()), mode=mode)

    fd_check(op, [(3, 2, 4, 4), (3,), (3,)], seed=13)


def _bn_train_reference(x, gamma, beta, running_mean, running_var, g, eps):
    """Train-mode batch norm with np.mean / np.var and its backward as one expression.

    Returns (out, new running mean, new running var, gx, ggamma, gbeta).
    """
    c = x.shape[0]
    bc, axes, m = (c, 1, 1, 1), (1, 2, 3), x.size // c
    mu_c = x.mean(axis=axes, dtype=np.float64)
    var_c = x.var(axis=axes, dtype=np.float64)
    var_unbiased = var_c * (m / (m - 1)) if m > 1 else var_c
    new_mean = ((1 - T.BN_MOMENTUM) * running_mean + T.BN_MOMENTUM * mu_c).astype(np.float32)
    new_var = ((1 - T.BN_MOMENTUM) * running_var + T.BN_MOMENTUM * var_unbiased).astype(np.float32)
    inv_std = 1.0 / np.sqrt(var_c.astype(np.float32).reshape(bc) + np.float32(eps))
    xhat = (x - mu_c.astype(np.float32).reshape(bc)) * inv_std
    out = gamma.reshape(bc) * xhat + beta.reshape(bc)
    gsum = g.sum(axis=axes, keepdims=True)
    gxhat_sum = (g * xhat).sum(axis=axes, keepdims=True)
    gx = gamma.reshape(bc) * inv_std * (g - gsum / m - xhat * gxhat_sum / m)
    ggamma = (g * xhat).sum(axis=axes).astype(np.float32)
    gbeta = g.sum(axis=axes).astype(np.float32)
    return out, new_mean, new_var, gx, ggamma, gbeta


@pytest.mark.parametrize("n", MODEL_BATCHES)
def test_batchnorm_train_matches_reference_bytes(rng, default_model_layers, n):
    """Output, running buffers and all three gradients equal the reference byte for byte on the model's shapes."""
    _, bns = default_model_layers
    assert len(bns) == 4
    for c, h, w in bns:
        x = rng.normal(0.3, 2.0, size=(c, n, h, w)).astype(np.float32)
        gamma, beta = rng.uniform(0.5, 1.5, size=c).astype(np.float32), rng.normal(0, 0.3, size=c).astype(np.float32)
        mean, var = rng.normal(0, 0.3, size=c).astype(np.float32), rng.uniform(0.5, 2.0, size=c).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        mean_t, var_t = T.Tensor(mean.copy()), T.Tensor(var.copy())
        leaves = [T.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = T.batchnorm2d(*leaves, mean_t, var_t, eps=model.BN_EPS, mode="train")
        gx, ggamma, gbeta, _, _ = out.node.backward_fn(g)
        got = (out.data, mean_t.data, var_t.data, gx, ggamma, gbeta)
        want = _bn_train_reference(x, gamma, beta, mean, var, g, model.BN_EPS)
        for label, a, b in zip(("out", "running_mean", "running_var", "gx", "ggamma", "gbeta"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (label, c, h)
            assert a.tobytes() == b.tobytes(), (label, c, h)


@pytest.mark.parametrize("shape", [(16, 128, 32, 32), (3, 7, 5, 9)], ids=["stem", "odd"])
def test_batchnorm_eval_off_tape_input_gives_xhat_path_bytes(shape):
    """An eval batch norm that recomputes xhat from an off-tape input gives the affine gradients of the kept-xhat path."""
    rng = np.random.Generator(np.random.PCG64(11))
    c = shape[0]
    x = rng.normal(0.3, 2.0, size=shape).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    stats = [T.Tensor(rng.normal(0, 0.3, size=c).astype(np.float32)), T.Tensor(rng.uniform(0.5, 2.0, size=c).astype(np.float32))]
    affine = [rng.uniform(0.5, 1.5, size=c).astype(np.float32), rng.normal(0, 0.3, size=c).astype(np.float32)]
    got = []
    for x_grad in (False, True):  # off the tape (recomputes xhat), then a leaf that needs grad (keeps xhat)
        gamma, beta = (T.Tensor(a, requires_grad=True) for a in affine)
        out = T.batchnorm2d(T.Tensor(x, requires_grad=x_grad), gamma, beta, *stats, eps=model.BN_EPS, mode="eval")
        got.append(out.node.backward_fn(g)[1:3])
    (ggamma, gbeta), (want_ggamma, want_gbeta) = got
    assert ggamma.tobytes() == want_ggamma.tobytes()
    assert gbeta.tobytes() == want_gbeta.tobytes()


# ---------------------------------------------------------------------------
# pooling


def test_global_avg_pool_constant():
    x = np.full((1, 1, 4, 4), 7.0, dtype=np.float32)
    assert np.array_equal(T.global_avg_pool(T.Tensor(x)).data, [[7.0]])


def test_global_avg_pool_takes_channel_major_gives_frame_rows(rng):
    x = rng.uniform(-1, 1, size=(3, 2, 4, 4)).astype(np.float32)
    out = T.global_avg_pool(T.Tensor(x)).data
    assert out.shape == (2, 3)
    assert np.array_equal(out, x.mean(axis=(2, 3), dtype=np.float32).T)


def test_global_avg_pool_backward_distributes():
    x = T.Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32), requires_grad=True)
    grads = T.backward(T.tensor_sum(T.global_avg_pool(x)))
    assert np.allclose(grads[x].data, np.full((1, 1, 4, 4), 1.0 / 16.0))


# ---------------------------------------------------------------------------
# backward engine


def test_backward_linear():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    x = T.Tensor([3.0, 4.0])
    grads = T.backward(T.tensor_sum(w * x))
    assert np.array_equal(grads[w].data, [3.0, 4.0])
    assert x not in grads


def test_backward_square():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    grads = T.backward(T.tensor_sum(w * w))
    assert np.array_equal(grads[w].data, [2.0, 4.0])


def test_backward_requires_scalar():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NonScalarLoss):
        T.backward(w * w)


def test_backward_rejects_nonfinite_loss():
    loss = T.Tensor(np.float32(1.0), requires_grad=True)
    loss.data = np.array(np.inf, dtype=np.float32)  # simulate corrupted value
    with pytest.raises(NonFiniteLoss):
        T.backward(loss)


def test_tape_topological_order_and_single_visit(rng):
    a = T.Tensor(rng.uniform(-1, 1, size=(3,)).astype(np.float32), requires_grad=True)
    b = a * a
    c = b + a
    d = c * b  # diamond: b feeds both c and d
    loss = T.tensor_sum(d)
    seen = set()
    for node in T.tape_order(loss.node):
        for p in node.parents:
            if isinstance(p, T.Node):
                assert p in seen, "parent must precede its consumer"
        assert node not in seen, "node visited twice"
        seen.add(node)
    assert len(seen) == 4 and loss.node in seen


def _conv_bn_relu_chain(mode, kernel_grad):
    """bn -> relu -> conv -> bn -> relu -> sum on fixed data, and weakrefs to every intermediate's values.

    Gamma and beta require grad; the kernel only when ``kernel_grad``.
    Returns (loss, leaves, {label: weakref to that intermediate's data}).
    """
    rng = np.random.default_rng(3)

    def bn_params(c):
        return [T.Tensor(rng.uniform(0.5, 1.5, size=c).astype(np.float32), requires_grad=True),
                T.Tensor(rng.uniform(-0.5, 0.5, size=c).astype(np.float32), requires_grad=True),
                T.Tensor(rng.uniform(-0.5, 0.5, size=c).astype(np.float32)),
                T.Tensor(rng.uniform(0.5, 2.0, size=c).astype(np.float32))]

    bn0, bn1 = bn_params(4), bn_params(6)
    kernel = T.Tensor(rng.uniform(-0.5, 0.5, size=(6, 4, 3, 3)).astype(np.float32), requires_grad=kernel_grad)
    out = {"bn input": T.Tensor(rng.uniform(-1, 1, size=(4, 5, 8, 8)).astype(np.float32))}
    out["bn output"] = T.batchnorm2d(out["bn input"], *bn0, mode=mode)
    out["conv input"] = T.relu(out["bn output"])
    out["conv output"] = T.conv2d(out["conv input"], kernel, stride=1, pad=1)
    out["second bn output"] = T.batchnorm2d(out["conv output"], *bn1, mode=mode)
    out["relu output"] = T.relu(out["second bn output"])
    loss = T.tensor_sum(out["relu output"])
    return loss, [*bn0[:2], *bn1[:2], kernel], {label: weakref.ref(t.data) for label, t in out.items()}


@pytest.mark.parametrize("mode,kernel_grad", [("eval", False), ("train", True)], ids=["adapt", "train"])
def test_tape_keeps_no_value_backward_never_reads(mode, kernel_grad):
    """While the loss is alive, the conv, batch-norm and relu outputs (and the conv's input) die with the caller's refs.

    The eval batch norm over the off-tape "bn input" keeps that input,
    and no xhat-sized array besides it, to recompute xhat from. Backward
    then gives the same gradient bytes as on a graph whose intermediates
    the caller kept.
    """
    kept_loss, kept_leaves, _ = _conv_bn_relu_chain(mode, kernel_grad)
    want = T.backward(kept_loss)
    loss, leaves, refs = _conv_bn_relu_chain(mode, kernel_grad)
    alive = [label for label, ref in refs.items() if ref() is not None]
    if mode == "eval":
        assert alive == ["bn input"], f"the tape keeps {alive}"
        first_bn = next(n for n in T.tape_order(loss.node) if n.op == "batchnorm2d" and n.parents[0] is None)
        held = [cell.cell_contents for cell in first_bn.backward_fn.__closure__]
        big = [a for a in held if isinstance(a, np.ndarray) and a.size == refs["bn input"]().size]
        assert len(big) == 1 and big[0] is refs["bn input"]()
        del held, big
    else:
        assert alive == [], f"the tape keeps {alive}"
    got = T.backward(loss)
    assert len(got) == len(want) == (5 if kernel_grad else 4)
    for leaf, kept_leaf in zip(leaves[: len(got)], kept_leaves):
        assert got[leaf].data.tobytes() == want[kept_leaf].data.tobytes(), leaf.shape


def test_tape_holds_xhat_and_relu_masks_only():
    """An adaptation forward of the default model at 16 frames holds little more than xhat per batch norm and a bool mask per relu.

    A tape that also kept every conv, batch-norm and relu output would
    hold about three times these bytes.
    """
    params = model.build_model(model.ModelSpec(), 0)
    frames = np.random.default_rng(0).uniform(-1, 1, size=(16, 3, 32, 32)).astype(np.float32)
    leaves = params.leaves(trainable=set(params.names_in_group(model.GROUP_BN_AFFINE)))
    sizes = []  # (elements, bytes per element) of each batch norm's xhat and each relu's mask
    real_bn, real_relu = T.batchnorm2d, T.relu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "batchnorm2d", lambda x, *a, **k: sizes.append((x.data.size, 4)) or real_bn(x, *a, **k))
        mp.setattr(T, "relu", lambda x: sizes.append((x.data.size, 1)) or real_relu(x))
        model.forward(params, frames, mode="eval", leaves=leaves)
    tape_bytes = sum(n * b for n, b in sizes)
    assert len(sizes) == 18 and tape_bytes == 2_917_376
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z = model.forward(params, frames, mode="eval", leaves=leaves)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert z.node is not None
    # about 38 KB more: the logits, the head's small arrays and the nodes themselves
    assert tape_bytes <= held <= tape_bytes + 100_000, (held, tape_bytes)


def test_tempt_step_memory_budget():
    """One tempt step (forward, loss, backward) of the default model on 128 frames peaks under 31 MB of traced memory.

    The stem is precomputed and the bn_affine parameters are the leaves,
    as in ``adapt_video``. The measured peak is 29.4 MB: the stem batch
    norm keeps the caller's stem map instead of its own xhat, and backward
    frees each closure once it has run. A tape that held its closures
    until the loss died, and the stem's xhat, peaked at 50.7 MB here.
    """
    params = model.build_model(model.ModelSpec(), 0)
    rng = np.random.Generator(np.random.PCG64(5))
    frames = rng.uniform(-1, 1, size=(128, 3, 32, 32)).astype(np.float32)
    target = rng.standard_normal((128, params.spec.num_classes)).astype(np.float32)
    stem = model.stem_conv(params, frames)
    affine = params.names_in_group(model.GROUP_BN_AFFINE)
    leaves = params.leaves(trainable=set(affine))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z = model.forward(params, frames, mode="eval", leaves=leaves, stem=stem)
        grads = T.backward(losses.temporal_consistency_loss(z, target))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(grads) == len(affine)
    assert peak < 31_000_000, peak


def test_backward_releases_every_closure_and_refuses_a_second_pass(rng):
    """A tape is single-use: backward drops each node's closure, and a second walk raises naming the op."""
    w = T.Tensor(rng.uniform(-1, 1, size=(3,)).astype(np.float32), requires_grad=True)
    b = w * w
    loss = T.tensor_sum(b * T.relu(b + w))
    nodes = T.tape_order(loss.node)
    first = T.backward(loss)
    assert len(nodes) == 5 and all(node.backward_fn is None for node in nodes)
    assert w in first
    with pytest.raises(ValueError, match="'sum' node .*single-use"):
        T.backward(loss)


def test_diamond_grad_accumulation():
    # loss = x*x + x -> dloss/dx = 2x + 1
    x = T.Tensor([3.0], requires_grad=True)
    loss = T.tensor_sum(x * x + x)
    assert np.allclose(T.backward(loss)[x].data, [7.0])


def test_overflowing_gradient_sum_raises_at_accumulation():
    # each path hands x a finite 3e38; their float32 sum overflows
    x = T.Tensor([0.0], requires_grad=True)
    big = T.Tensor([3e38])
    with pytest.raises(NonFiniteValue, match="accumulation"):
        T.backward(T.tensor_sum(x * big + x * big))


def test_nonfinite_gradient_into_relu_raises_at_the_op_that_formed_it():
    # the forward 1e-30 * 1e20 * 1e20 is finite; the gradient 1e20 * 1e20 headed for the relu is not
    x = T.Tensor([1e-30], requires_grad=True)
    loss = T.tensor_sum(T.relu(x) * T.Tensor([1e20]) * T.Tensor([1e20]))
    with pytest.raises(NonFiniteValue, match=r"backward\[mul\]"):
        T.backward(loss)


def test_relu_gradient_is_not_rescanned(monkeypatch):
    checked = []
    real = T._ensure_finite
    monkeypatch.setattr(T, "_ensure_finite", lambda data, op: (checked.append(op), real(data, op)))
    x = T.Tensor([-1.0, 2.0], requires_grad=True)
    grads = T.backward(T.tensor_sum(T.relu(x * T.Tensor([3.0, 3.0]))))
    assert np.array_equal(grads[x].data, [0.0, 3.0])
    assert "backward[relu]" not in checked
    assert "backward[mul]" in checked


def test_take_rows_gather_scatter():
    x = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    out = T.take_rows(x, [0, 2, 2])
    assert np.array_equal(out.data, x.data[[0, 2, 2]])
    grads = T.backward(T.tensor_sum(out))
    want = np.zeros((4, 3), dtype=np.float32)
    want[0] = 1
    want[2] = 2
    assert np.array_equal(grads[x].data, want)


def test_sum_axis_keepdims(rng):
    fd_check(lambda x: T.tensor_sum(x, axis=1, keepdims=True), [(3, 5)], seed=21)


# ---------------------------------------------------------------------------
# allocator


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc-only")
def test_repeated_adaptation_faults_in_no_fresh_pages():
    # every call allocates the same temporaries; with freed blocks kept in the
    # heap, calls after the first reuse its pages (about 28k faults per call without)
    params = model.build_model(model.ModelSpec(), 0)
    frames = np.random.Generator(np.random.PCG64(3)).uniform(-1, 1, size=(160, 3, 32, 32)).astype(np.float32)
    config = adapt.AdaptConfig(steps=3, batch_frames_cap=64, region_window=16)
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        adapt.adapt_video(params, frames, config)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[1:]) < 500, faults
