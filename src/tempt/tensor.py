"""Dense float32 tensors with a reverse-mode autodiff tape.

The op set is exactly what the CNN forward pass and the losses need:
elementwise arithmetic with trailing-dim broadcasting, matmul, transpose, conv2d,
batchnorm2d, relu, global average pooling, exp/log/sqrt, reductions and
row gathering. Every array an op creates is checked for NaN/Inf once,
where it is born, and the op raises instead of propagating garbage. An
array that is finite whenever its checked input is (a relu's max with 0,
a gradient handed through unchanged) is not scanned again.

Activations are channel-major: conv2d, batchnorm2d and global_avg_pool
take (C, N, H, W) maps, so a conv's (F, C*kh*kw) @ (C*kh*kw, N*H'*W')
product is already its (F, N, H', W') output and its incoming gradient
is already a (F, N*H'*W') matrix. Kernels stay (F, C, kh, kw), and
global_avg_pool hands the head (N, C) rows.

Tensors are immutable values once created. A graph is recorded only when
an input requires grad, so plain inference builds no tape. Each backward
pass assembles its own topologically ordered tape from the loss node, so
forwards over distinct inputs can run concurrently.

Importing this module tunes glibc's allocator for the whole process (on
other C libraries it does nothing): blocks up to 32 MiB come from the heap
instead of fresh mmaps, and up to 256 MiB of freed heap stays mapped. Every
step of an adaptation allocates the same im2col columns, tap products and
gradients, so later steps reuse the pages of earlier ones instead of
faulting in new zeroed ones; RSS stays near its peak. Results do not change.
"""

from __future__ import annotations

import ctypes
import platform
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidStride,
    NegativeVariance,
    NonFiniteLoss,
    NonFiniteValue,
    NonScalarLoss,
    ShapeMismatch,
)

Array = np.ndarray

BN_MOMENTUM = 0.1  # weight of the batch statistic in each running-stat update

_M_TRIM_THRESHOLD = -1  # glibc <malloc.h> parameter numbers
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Serve large blocks from the heap and keep freed ones mapped (glibc only)."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    # setting either one stops glibc's dynamic mmap threshold, so both are set:
    # the trim threshold alone leaves mmap at its low threshold and faults more
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's maximum
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages()


def _ensure_finite(data: Array, op: str) -> None:
    # min/max reductions detect NaN (poisons both) and +-Inf without a bool temp
    if data.size == 0:
        return
    lo = float(np.min(data))
    hi = float(np.max(data))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteValue(f"op '{op}' produced a non-finite value")


class Node:
    """One tape record: op id, input refs and the gradient closure.

    ``backward_fn(grad_out)`` returns one gradient array (or None) per
    parent, aligned with ``parents``.
    """

    __slots__ = ("op", "parents", "backward_fn")

    def __init__(
        self,
        op: str,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[Array], list[Array | None]],
    ) -> None:
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """A float32 n-d array, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "name", "node")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float32)
        _ensure_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.node: Node | None = None

    @classmethod
    def _unchecked(
        cls, data: Array, requires_grad: bool = False, name: str | None = None, node: Node | None = None
    ) -> "Tensor":
        """A tensor over ``data`` as given: no copy, no dtype cast, no finite check."""
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = requires_grad
        t.name = name
        t.node = node
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return tensor_binop(self, _wrap(other), "add")

    def __sub__(self, other):
        return tensor_binop(self, _wrap(other), "sub")

    def __mul__(self, other):
        return tensor_binop(self, _wrap(other), "mul")

    def __truediv__(self, other):
        return div(self, _wrap(other))


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(data: Array, op: str, parents: tuple[Tensor, ...], backward_fn, finite: bool = False) -> Tensor:
    # finite=True: the op cannot make NaN/Inf from checked inputs, so the scan is skipped
    if not finite:
        _ensure_finite(data, op)
    if any(p.requires_grad for p in parents):
        return Tensor._unchecked(data, True, node=Node(op, parents, backward_fn))
    return Tensor._unchecked(data)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, inverting trailing-dim broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# elementwise ops


def tensor_binop(a: Tensor, b: Tensor, kind: str) -> Tensor:
    """Broadcasting elementwise add / sub / mul."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below, without a warning
            if kind == "add":
                data = a.data + b.data
            elif kind == "sub":
                data = a.data - b.data
            elif kind == "mul":
                data = a.data * b.data
            else:
                raise ValueError(f"unknown binop kind {kind!r}")
    except ValueError as exc:
        if "broadcast" in str(exc):
            raise ShapeMismatch(f"{kind}: shapes {a.shape} and {b.shape}") from None
        raise

    a_shape, b_shape = a.shape, b.shape

    def backward(g: Array) -> list[Array | None]:
        ga = gb = None
        if a.requires_grad:
            if kind == "mul":
                ga = _unbroadcast(g * b.data, a_shape)
            else:
                ga = _unbroadcast(g, a_shape)
        if b.requires_grad:
            if kind == "mul":
                gb = _unbroadcast(g * a.data, b_shape)
            elif kind == "sub":
                gb = _unbroadcast(-g, b_shape)
            else:
                gb = _unbroadcast(g, b_shape)
        return [ga, gb]

    return _make(data, kind, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward(g: Array) -> list[Array | None]:
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g / b.data, a.shape)
        if b.requires_grad:
            gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return [ga, gb]

    return _make(data, "div", (a, b), backward)


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(x.data)

    def backward(g: Array) -> list[Array | None]:
        return [g * data]

    return _make(data, "exp", (x,), backward)


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)

    def backward(g: Array) -> list[Array | None]:
        return [g / x.data]

    return _make(data, "log", (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        data = np.sqrt(x.data)

    def backward(g: Array) -> list[Array | None]:
        return [g * (0.5 / data)]

    return _make(data, "sqrt", (x,), backward)


def _relu_mask(x: Array) -> Array:
    # split out so tests can sabotage the backward path
    return x > 0


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g: Array) -> list[Array | None]:
        return [g * _relu_mask(x.data)]

    return _make(data, "relu", (x,), backward, finite=True)


# ---------------------------------------------------------------------------
# reductions and indexing


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32)
    data = np.asarray(data, dtype=np.float32)

    def backward(g: Array) -> list[Array | None]:
        if axis is None:
            return [np.broadcast_to(np.float32(g), x.shape).astype(np.float32)]
        axes = axis if isinstance(axis, tuple) else (axis,)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axes)
        return [np.broadcast_to(gx, x.shape).astype(np.float32)]

    return _make(data, "sum", (x,), backward)


def tensor_mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar."""
    return tensor_sum(x) * np.float32(1.0 / x.data.size)


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"take_rows expects a 2-D tensor, got {x.shape}")
    if idx.size == 0:
        raise ShapeMismatch("take_rows with empty index list")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeMismatch(f"row index out of range for {x.shape[0]} rows")
    data = x.data[idx]

    def backward(g: Array) -> list[Array | None]:
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return [gx]

    return _make(data, "take_rows", (x,), backward)


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul inner dims: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g: Array) -> list[Array | None]:
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return [ga, gb]

    return _make(data, "matmul", (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    """2-D transpose as a view of ``x``'s buffer."""

    def backward(g: Array) -> list[Array | None]:
        return [np.ascontiguousarray(g.T)]

    return _make(x.data.T, "transpose", (x,), backward)


# ---------------------------------------------------------------------------
# convolution


def _conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    return oh, ow


# A conv whose input is exactly stride x (oh, ow) -- every conv of the model --
# runs on the input's stride phases: phase (u, v) holds the pixels (s*r + u, s*q + v),
# a dense (N, oh, ow) grid flattened to one N*oh*ow row per channel. Output
# pixel (r, q) of tap (i, j) meets phase ((i - pad) % s, (j - pad) % s) at
# (r + di, q + dj) with (di, dj) = ((i - pad) // s, (j - pad) // s): one flat
# offset di*ow + dj. Pixels the offset carries past a row or frame edge are
# padding; they are zeroed, so each tap moves one contiguous block (a tap that
# only meets padding moves nothing). Other shapes go through an explicitly
# padded input.


def _tap_phases(kh: int, kw: int, stride: int, pad: int):
    """(i, j, (u, v), di, dj) for each tap, row-major."""
    for i in range(kh):
        di, u = divmod(i - pad, stride)
        for j in range(kw):
            dj, v = divmod(j - pad, stride)
            yield i, j, (u, v), di, dj


def _flat_pair(di: int, dj: int, ow: int, size: int) -> tuple[slice, slice]:
    """The output and phase ranges of a flat N*oh*ow row that offset (di, dj) pairs up."""
    shift = max(-size, min(size, di * ow + dj))
    if shift >= 0:
        return slice(0, size - shift), slice(shift, size)
    return slice(-shift, size), slice(0, size + shift)


def _zero_spill(rows: Array, n: int, oh: int, ow: int, di: int, dj: int) -> None:
    """Zero the output pixels of (C, N*oh*ow) ``rows`` whose offset (di, dj) target is padding."""
    grid = rows.reshape(rows.shape[0], n, oh, ow)
    if di:
        (grid[:, :, -di:] if di > 0 else grid[:, :, :-di]).fill(0.0)
    if dj:
        (grid[:, :, :, -dj:] if dj > 0 else grid[:, :, :, :-dj]).fill(0.0)


def _im2col(x: Array, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int) -> Array:
    """(C,N,H,W) -> (C*kh*kw, N*oh*ow) patch matrix of the zero-padded input.

    Rows are (channel, tap) and columns (frame, row, col), one patch per
    column.
    """
    c, n, h, w = x.shape
    size = n * oh * ow
    if h != stride * oh or w != stride * ow:
        xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]  # (C,N,oh,ow,kh,kw)
        return np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3)).reshape(c * kh * kw, size)

    grid = x.reshape(c, n, oh, stride, ow, stride)
    phases: dict[tuple[int, int], Array] = {}
    cols = np.empty((c, kh, kw, size), dtype=np.float32)
    for i, j, uv, di, dj in _tap_phases(kh, kw, stride, pad):
        rows = cols[:, i, j]
        if uv not in phases:
            phases[uv] = np.ascontiguousarray(grid[:, :, :, uv[0], :, uv[1]]).reshape(c, size)
        out, src = _flat_pair(di, dj, ow, size)
        rows[:, out] = phases[uv][:, src]
        _zero_spill(rows, n, oh, ow, di, dj)
    return cols.reshape(c * kh * kw, size)


def _col2im(taps: Array, gmat: Array, shape: tuple[int, ...], stride: int, pad: int, oh: int, ow: int) -> Array:
    """Adjoint of ``_im2col``: the (C,N,H,W) input gradient.

    ``taps`` is the kernel as (kh,kw,C,F) and ``gmat`` the (F, N*oh*ow)
    output gradient. Each tap's (C,F) @ (F,N*oh*ow) product is added into
    zero-filled buffers, taps in row-major order, so every input pixel sums
    its taps in one fixed order. Zeroed spill adds +0.0, which leaves a sum
    started from +0.0 bit-identical. Phases are interleaved once at the end.
    """
    c, n, h, w = shape
    s = stride
    size = n * oh * ow
    if h != s * oh or w != s * ow:
        gxp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
        for i in range(taps.shape[0]):
            for j in range(taps.shape[1]):
                gxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += (taps[i, j] @ gmat).reshape(c, n, oh, ow)
        return gxp[:, :, pad : pad + h, pad : pad + w]

    phases: dict[tuple[int, int], Array] = {}
    for i, j, uv, di, dj in _tap_phases(taps.shape[0], taps.shape[1], s, pad):
        prod = taps[i, j] @ gmat
        _zero_spill(prod, n, oh, ow, di, dj)
        if uv not in phases:
            phases[uv] = np.zeros((c, size), dtype=np.float32)
        out, dst = _flat_pair(di, dj, ow, size)
        phases[uv][:, dst] += prod[:, out]
    if s == 1:
        return phases[0, 0].reshape(c, n, h, w)
    gx = np.zeros((c, n, h, w), dtype=np.float32)
    grid = gx.reshape(c, n, oh, s, ow, s)
    for (u, v), phase in phases.items():
        grid[:, :, :, u, :, v] = phase.reshape(c, n, oh, ow)
    return gx


def conv_forward(x: Array, kernel: Array, stride: int, pad: int) -> tuple[Array, Array]:
    """The (F,N,H',W') output of a (C,N,H,W) map under a (F,C,kh,kw) kernel, and its patch matrix.

    Unchecked and untracked: ``conv2d`` validates the shapes, and the model's
    tape-free forward relies on its spec.
    """
    c, n, h, w = x.shape
    f, _, kh, kw = kernel.shape
    oh, ow = _conv_out_hw(h, w, kh, kw, stride, pad)
    cols = _im2col(x, kh, kw, stride, pad, oh, ow)
    return (kernel.reshape(f, c * kh * kw) @ cols).reshape(f, n, oh, ow), cols


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, channel-major.

    x: (C,N,H,W), kernel: (F,C,kh,kw) -> (F,N,H',W') with
    H' = (H + 2*pad - kh) // stride + 1.
    """
    if stride < 1:
        raise InvalidStride(f"stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-D input/kernel, got {x.shape}, {kernel.shape}")
    c, n, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeMismatch(f"conv2d channels: input {c} vs kernel {ck}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeMismatch(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    out, cols = conv_forward(x.data, kernel.data, stride, pad)
    oh, ow = out.shape[2:]

    # save the patch matrix only when the kernel gradient will be needed
    saved_cols = cols if kernel.requires_grad else None

    def backward(g: Array) -> list[Array | None]:
        gmat = g.reshape(f, n * oh * ow)
        gx = gw = None
        if kernel.requires_grad:
            gw = (gmat @ saved_cols.T).reshape(f, c, kh, kw)
        if x.requires_grad:
            taps = np.ascontiguousarray(kernel.data.transpose(2, 3, 1, 0))  # (kh,kw,C,F)
            gx = _col2im(taps, gmat, x.shape, stride, pad, oh, ow)
        return [gx, gw]

    return _make(out, "conv2d", (x, kernel), backward)


# ---------------------------------------------------------------------------
# batch normalization


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    eps: float = 1e-5,
    mode: str = "eval",
) -> Tensor:
    """Per-channel batch normalization over channel-major (C,N,H,W).

    eval mode normalizes with the running statistics and never writes
    them; train mode normalizes with batch statistics and updates the
    running buffers in place with momentum ``BN_MOMENTUM`` (biased
    variance for normalization, unbiased for the running update).
    """
    if eps <= 0:
        raise ShapeMismatch(f"batchnorm eps must be > 0, got {eps}")
    if x.data.ndim != 4:
        raise ShapeMismatch(f"batchnorm2d expects (C,N,H,W), got {x.shape}")
    c = x.shape[0]
    for t, label in ((gamma, "gamma"), (beta, "beta"), (running_mean, "running_mean"), (running_var, "running_var")):
        if t.shape != (c,):
            raise ShapeMismatch(f"batchnorm {label} shape {t.shape}, expected ({c},)")
    if float(running_var.data.min()) < 0:
        raise NegativeVariance("running_var has a negative entry")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batchnorm mode {mode!r}")

    bc = (c, 1, 1, 1)
    axes = (1, 2, 3)
    if mode == "eval":
        mu = running_mean.data.reshape(bc)
        var = running_var.data.reshape(bc)
    else:
        mu_c = x.data.mean(axis=axes, dtype=np.float64)
        var_c = x.data.var(axis=axes, dtype=np.float64)
        count = x.data.size // c
        if count > 1:
            var_unbiased = var_c * (count / (count - 1))
        else:
            var_unbiased = var_c
        # in-place running update; stats buffers are never graph nodes
        running_mean.data[...] = ((1 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mu_c).astype(np.float32)
        running_var.data[...] = ((1 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * var_unbiased).astype(np.float32)
        mu = mu_c.astype(np.float32).reshape(bc)
        var = var_c.astype(np.float32).reshape(bc)

    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    # in place: the same arithmetic as gamma * ((x - mu) * inv_std) + beta, two fewer temporaries
    xhat = x.data - mu
    xhat *= inv_std
    out = gamma.data.reshape(bc) * xhat
    out += beta.data.reshape(bc)

    def backward(g: Array) -> list[Array | None]:
        ggamma = (g * xhat).sum(axis=axes).astype(np.float32) if gamma.requires_grad else None
        gbeta = g.sum(axis=axes).astype(np.float32) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            gw = gamma.data.reshape(bc) * inv_std
            if mode == "eval":
                gx = g * gw
            else:
                m = x.data.size // c
                gsum = g.sum(axis=axes, keepdims=True)
                gxhat_sum = (g * xhat).sum(axis=axes, keepdims=True)
                gx = gw * (g - gsum / m - xhat * gxhat_sum / m)
        return [gx, ggamma, gbeta, None, None]

    return _make(out, "batchnorm2d", (x, gamma, beta, running_mean, running_var), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """(C,N,H,W) -> (N,C) mean over the spatial dims."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool expects (C,N,H,W), got {x.shape}")
    c, n, h, w = x.shape
    data = np.ascontiguousarray(x.data.mean(axis=(2, 3), dtype=np.float32).T)

    def backward(g: Array) -> list[Array | None]:
        # order="C": g.T is frame-major, and a gradient laid out like it would slow every op below
        gx = np.broadcast_to(g.T[:, :, None, None] / np.float32(h * w), x.shape).astype(np.float32, order="C")
        return [gx]

    return _make(data, "global_avg_pool", (x,), backward)


# ---------------------------------------------------------------------------
# backward pass


def tape_order(root: Tensor) -> list[Tensor]:
    """Tensors carrying Node records reachable from ``root``, inputs first."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            if p.node is not None and id(p) not in seen:
                stack.append((p, False))
    return order


@np.errstate(over="ignore", invalid="ignore")  # an overflowing gradient or sum raises NonFiniteValue, unwarned
def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Run reverse-mode accumulation from a finite scalar loss.

    Returns gradients for every requires_grad leaf reachable from the
    loss, keyed by the leaf tensor itself. Leaves with requires_grad
    False get no entry.
    """
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}")
    if not np.isfinite(loss.data.reshape(())):
        raise NonFiniteLoss("loss is not finite")

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Tensor] = {}
    if loss.node is None:
        if loss.requires_grad:
            leaf_grads[loss] = Tensor(np.ones_like(loss.data))
        return leaf_grads

    for t in reversed(tape_order(loss)):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        parent_grads = t.node.backward_fn(g)
        for p, pg in zip(t.node.parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            # g itself was checked when it was formed; a gradient passed through is not scanned again
            if pg is not g:
                _ensure_finite(pg, f"backward[{t.node.op}]")
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
                _ensure_finite(grads[key], f"backward[{t.node.op}] accumulation")
            else:
                grads[key] = pg
            if p.node is None:
                leaf_grads[p] = Tensor._unchecked(grads[key])
    return leaf_grads


def grads_by_name(leaves: dict[str, Tensor], grads: dict[Tensor, Tensor]) -> dict[str, Array]:
    """Gradient of each named leaf that requires grad, zeros where the loss does not reach it."""
    return {
        name: grads[leaf].data if leaf in grads else np.zeros_like(leaf.data)
        for name, leaf in leaves.items()
        if leaf.requires_grad
    }
