"""Tensor op semantics, oracle agreement, and gradient checks."""

from __future__ import annotations

import platform
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempt import adapt, model
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
    for t in T.tape_order(loss):
        for p in t.node.parents:
            if p.node is not None:
                assert id(p) in seen, "parent must precede its consumer"
        assert id(t) not in seen, "node visited twice"
        seen.add(id(t))


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
