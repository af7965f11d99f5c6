"""Dense float32 tensors with a reverse-mode autodiff tape.

The op set is exactly what the CNN forward pass and the losses need:
elementwise arithmetic with trailing-dim broadcasting, matmul, transpose, conv2d,
batchnorm2d, relu, global average pooling, exp/log/sqrt, reductions and
row gathering. Every array an op creates is checked for NaN/Inf once,
where it is born, and the op raises instead of propagating garbage. An
array that is finite whenever its checked input is (a relu's output and
gradient, a gradient handed through unchanged) is not scanned again.

Activations are channel-major: conv2d, batchnorm2d and global_avg_pool
take (C, N, H, W) maps, so a conv's (F, C*kh*kw) @ (C*kh*kw, N*H'*W')
product is already its (F, N, H', W') output and its incoming gradient
is already a (F, N*H'*W') matrix. Kernels stay (F, C, kh, kw), and
global_avg_pool hands the head (N, C) rows. conv2d takes only inputs of
exactly stride times its output size, H = stride*H' and W = stride*W',
as every conv of the model is, and raises ShapeMismatch for any other.

A conv runs its forward and its input gradient FRAME_SLICE frames at a
time along axis 1, so each slice's patch matrix and tap products stay
near cache size whatever the batch; every output column and every input
gradient pixel is the same dot product in the same order under any
slicing, so the bytes do not depend on it. The kernel gradient stays one
GEMM over the whole batch's patch matrix, kept only when it is needed.

Tensors are immutable values once created. A graph is recorded only when
an input requires grad, so plain inference builds no tape. The graph holds
nodes, not tensors: a node keeps its inputs' nodes (or the leaf itself, for
a leaf that requires grad) and a backward closure that holds only the
arrays its backward reads, such as a batch norm's xhat and a relu's bool
mask; never an op's input or output. So an intermediate's values die with
its last reference outside the tape. One exception trades two elementwise
passes for memory: an eval-mode batch norm whose input is off the tape (it
needs no grad, so it has no node) keeps that input in place of xhat, and
backward recomputes xhat with the forward's own ops, so the bytes are the
same. A caller such as adapt_video holds that input anyway; one that drops
it leaves the tape an array of xhat's size, as before. Each backward pass
assembles its own topologically ordered tape from the loss node, so
forwards over distinct inputs can run concurrently.

A tape is single-use: backward drops each node's closure as it reaches
it, so the arrays a closure holds die as the walk passes them rather than
with the loss, and a second backward through the same nodes raises
ValueError.

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
FRAME_SLICE = 32  # frames per conv pass (forward and dx) and per tape-free trunk pass

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
    """One tape record: op id, parent entries and the gradient closure.

    ``parents`` holds one entry per op input: the input's Node, the input
    itself when it is a leaf that requires grad, or None for a constant.
    ``backward_fn(grad_out)`` returns one gradient array (or None) per
    entry; ``backward`` sets it to None when it reaches the node.
    ``finite`` is ``_make``'s flag.
    """

    __slots__ = ("op", "parents", "backward_fn", "finite")

    def __init__(
        self,
        op: str,
        parents: tuple["Node | Tensor | None", ...],
        backward_fn: Callable[[Array], list[Array | None]],
        finite: bool = False,
    ) -> None:
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.finite = finite


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


def _parent(t: Tensor) -> Node | Tensor | None:
    """``t``'s entry in a consumer's ``Node.parents``."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _make(data: Array, op: str, inputs: tuple[Tensor, ...], backward_fn, finite: bool = False) -> Tensor:
    # finite=True: the op cannot make NaN/Inf from checked values, so neither its output nor its gradients are scanned
    if not finite:
        _ensure_finite(data, op)
    if any(t.requires_grad for t in inputs):
        return Tensor._unchecked(data, True, node=Node(op, tuple(map(_parent, inputs)), backward_fn, finite))
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
    need_a, need_b = a.requires_grad, b.requires_grad
    # mul keeps the other operand, and only when its own operand needs grad
    a_factor = b.data if kind == "mul" and need_a else None
    b_factor = a.data if kind == "mul" and need_b else None

    def backward(g: Array) -> list[Array | None]:
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g if a_factor is None else g * a_factor, a_shape)
        if need_b:
            if kind == "sub":
                gb = _unbroadcast(-g, b_shape)
            else:
                gb = _unbroadcast(g if b_factor is None else g * b_factor, b_shape)
        return [ga, gb]

    return _make(data, kind, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    a_shape, b_shape, bd = a.shape, b.shape, b.data
    ad = a.data if b.requires_grad else None
    need_a = a.requires_grad

    def backward(g: Array) -> list[Array | None]:
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g / bd, a_shape)
        if ad is not None:
            gb = _unbroadcast(-g * ad / (bd * bd), b_shape)
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
    xd = x.data

    def backward(g: Array) -> list[Array | None]:
        return [g / xd]

    return _make(data, "log", (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        data = np.sqrt(x.data)

    def backward(g: Array) -> list[Array | None]:
        # 0 where sqrt(x) is 0: the model takes sqrt only of a row's sum of squares,
        # and on an all-zero row every path from that sum to the loss carries gradient 0
        return [g * np.divide(0.5, data, out=np.zeros_like(data), where=data > 0)]

    return _make(data, "sqrt", (x,), backward)


def _relu_mask(x: Array) -> Array:
    # split out so tests can sabotage the backward path
    return x > 0


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the tape keeps the bool mask ``x > 0``, not ``x``."""
    data = np.maximum(x.data, 0.0)
    mask = _relu_mask(x.data) if x.requires_grad else None

    def backward(g: Array) -> list[Array | None]:
        return [g * mask]

    return _make(data, "relu", (x,), backward, finite=True)


# ---------------------------------------------------------------------------
# reductions and indexing


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32)
    data = np.asarray(data, dtype=np.float32)
    x_shape = x.shape

    def backward(g: Array) -> list[Array | None]:
        if axis is None:
            return [np.broadcast_to(np.float32(g), x_shape).astype(np.float32)]
        axes = axis if isinstance(axis, tuple) else (axis,)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axes)
        return [np.broadcast_to(gx, x_shape).astype(np.float32)]

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
    x_shape = x.shape

    def backward(g: Array) -> list[Array | None]:
        gx = np.zeros(x_shape, dtype=np.float32)
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
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def backward(g: Array) -> list[Array | None]:
        ga = g @ bd.T if bd is not None else None
        gb = ad.T @ g if ad is not None else None
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


# A conv's input is exactly stride x (oh, ow) (conv2d rejects any other), so it
# runs on the input's stride phases: phase (u, v) holds the pixels (s*r + u, s*q + v),
# a dense (N, oh, ow) grid flattened to one N*oh*ow row per channel. Output
# pixel (r, q) of tap (i, j) meets phase ((i - pad) % s, (j - pad) % s) at
# (r + di, q + dj) with (di, dj) = ((i - pad) // s, (j - pad) // s): one flat
# offset di*ow + dj. Pixels the offset carries past a row or frame edge are
# padding; they are zeroed, so each tap moves one contiguous block (a tap that
# only meets padding moves nothing).


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


def _im2col(x: Array, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int, cols: Array | None = None) -> Array:
    """(C,N,H,W) -> (C*kh*kw, N*oh*ow) patch matrix of the zero-padded input.

    Rows are (channel, tap) and columns (frame, row, col), one patch per
    column. The matrix is written into ``cols`` when given (a column block
    of a larger one), else into a new array.
    """
    c, n = x.shape[:2]
    size = n * oh * ow
    grid = x.reshape(c, n, oh, stride, ow, stride)
    phases: dict[tuple[int, int], Array] = {}
    if cols is None:
        cols = np.empty((c * kh * kw, size), dtype=np.float32)
    taps = cols.reshape(c, kh, kw, size)
    for i, j, uv, di, dj in _tap_phases(kh, kw, stride, pad):
        rows = taps[:, i, j]
        if uv not in phases:
            phases[uv] = grid[:, :, :, uv[0], :, uv[1]].reshape(c, size)  # a view at stride 1, else a copy
        out, src = _flat_pair(di, dj, ow, size)
        rows[:, out] = phases[uv][:, src]
        _zero_spill(rows, n, oh, ow, di, dj)
    return cols


def _col2im(taps: Array, gmat: Array, gx: Array, stride: int, pad: int, oh: int, ow: int) -> None:
    """Adjoint of ``_im2col``: write the input gradient into the (C,N,H,W) view ``gx``.

    ``taps`` is the kernel as (kh,kw,C,F) and ``gmat`` the (F, N*oh*ow)
    output gradient. One GEMM forms every tap's (C,F) @ (F,N*oh*ow)
    product, each element the same dot product over F as in a GEMM per
    tap. The products are added into zero-filled buffers, taps in
    row-major order, so every input pixel sums its taps in one fixed
    order. Zeroed spill adds +0.0, which leaves a sum started from +0.0
    bit-identical. A stride-1 conv sums straight into the zero-filled
    ``gx``; other strides interleave their phases into it once at the
    end, zero-filled first only when some phase meets no tap (a 1x1
    stride-2 conv's).
    """
    c, n, h, w = gx.shape
    s = stride
    size = n * oh * ow
    phases: dict[tuple[int, int], Array] = {(0, 0): gx.reshape(c, size)} if s == 1 else {}
    if s == 1:
        gx.fill(0.0)
    kh, kw = taps.shape[:2]
    prods = (taps.reshape(kh * kw * c, -1) @ gmat).reshape(kh, kw, c, size)
    for i, j, uv, di, dj in _tap_phases(kh, kw, s, pad):
        prod = prods[i, j]
        _zero_spill(prod, n, oh, ow, di, dj)
        if uv not in phases:
            phases[uv] = np.zeros((c, size), dtype=np.float32)
        out, dst = _flat_pair(di, dj, ow, size)
        phases[uv][:, dst] += prod[:, out]
    if s > 1:
        if len(phases) < s * s:  # a phase no tap meets stays zero; one contiguous fill beats strided ones
            gx.fill(0.0)
        grid = gx.reshape(c, n, oh, s, ow, s)
        for (u, v), phase in phases.items():
            grid[:, :, :, u, :, v] = phase.reshape(c, n, oh, ow)


def _frame_slices(n: int, per_frame: int):
    """(frames, columns) slice pairs of each FRAME_SLICE-frame block of an n-frame batch."""
    for lo in range(0, n, FRAME_SLICE):
        hi = min(lo + FRAME_SLICE, n)
        yield slice(lo, hi), slice(lo * per_frame, hi * per_frame)


def conv_forward(x: Array, kernel: Array, stride: int, pad: int, cols: Array | None = None) -> Array:
    """The (F,N,H',W') output of a (C,N,H,W) map under a (F,C,kh,kw) kernel.

    It runs FRAME_SLICE frames at a time: each block's patch matrix is
    built and multiplied before the next one, and its GEMM writes
    straight into its columns of the output. Every output column is the
    same dot product under any slicing. The whole batch's patch matrix is
    also written into ``cols`` when given. Unchecked and untracked:
    ``conv2d`` validates the shapes, and the model's tape-free forward
    relies on its spec.
    """
    c, n, h, w = x.shape
    f, _, kh, kw = kernel.shape
    oh, ow = _conv_out_hw(h, w, kh, kw, stride, pad)
    wmat = kernel.reshape(f, c * kh * kw)
    out = np.empty((f, n * oh * ow), dtype=np.float32)
    for frames, part in _frame_slices(n, oh * ow):
        block = _im2col(x[:, frames], kh, kw, stride, pad, oh, ow, None if cols is None else cols[:, part])
        np.matmul(wmat, block, out=out[:, part])
    return out.reshape(f, n, oh, ow)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, channel-major.

    x: (C,N,H,W), kernel: (F,C,kh,kw) -> (F,N,H',W') with
    H' = (H + 2*pad - kh) // stride + 1; H must equal stride*H' and W
    stride*W'. The forward (``conv_forward``) and dx run in FRAME_SLICE
    frame slices; dw is one GEMM over the whole batch's patch matrix.
    """
    if stride < 1:
        raise InvalidStride(f"stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-D input/kernel, got {x.shape}, {kernel.shape}")
    c, n, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeMismatch(f"conv2d channels: input {c} vs kernel {ck}")
    oh, ow = _conv_out_hw(h, w, kh, kw, stride, pad)
    if h != stride * oh or w != stride * ow:
        raise ShapeMismatch(f"conv2d input {h}x{w} is not stride {stride} x its {oh}x{ow} output")
    # keep the whole-batch patch matrix only when the kernel gradient will be needed
    cols = np.empty((c * kh * kw, n * oh * ow), dtype=np.float32) if kernel.requires_grad else None
    out = conv_forward(x.data, kernel.data, stride, pad, cols)
    kdata, need_dx = kernel.data, x.requires_grad

    def backward(g: Array) -> list[Array | None]:
        gmat = g.reshape(f, n * oh * ow)
        gx = gw = None
        if cols is not None:
            # gmat @ cols.T's dot products, in the operand order OpenBLAS packs about twice as fast
            gw = (cols @ gmat.T).T.reshape(f, c, kh, kw)
        if need_dx:
            taps = np.ascontiguousarray(kdata.transpose(2, 3, 1, 0))  # (kh,kw,C,F)
            gx = np.empty((c, n, h, w), dtype=np.float32)
            for frames, part in _frame_slices(n, oh * ow):
                _col2im(taps, gmat[:, part], gx[:, frames], stride, pad, oh, ow)
        return [gx, gw]

    return _make(out, "conv2d", (x, kernel), backward)


# ---------------------------------------------------------------------------
# batch normalization


@np.errstate(over="ignore", invalid="ignore")  # an overflowing output raises NonFiniteValue, unwarned
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
        # np.mean's and np.var's own steps, with one float64 sum serving both
        count = x.data.size // c
        mu_c = np.add.reduce(x.data, axis=axes, dtype=np.float64) / count
        dev = x.data - mu_c.reshape(bc)
        dev *= dev
        var_c = np.add.reduce(dev, axis=axes, dtype=np.float64) / count
        del dev
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
    gamma_data, m = gamma.data, x.data.size // c
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    # an off-tape input in eval mode is kept in place of xhat (see the module docstring)
    x_kept = x.data if mode == "eval" and not need_x else None
    if x_kept is not None:
        xhat, mu = None, mu.copy()

    def backward(g: Array) -> list[Array | None]:
        xh = xhat
        if xh is None:
            xh = x_kept - mu
            xh *= inv_std
        gxhat_sum = (g * xh).sum(axis=axes, keepdims=True)
        gsum = g.sum(axis=axes, keepdims=True)
        gx = None
        if need_x:
            gw = gamma_data.reshape(bc) * inv_std
            if mode == "eval":
                gx = g * gw
            else:
                # gw * (g - gsum / m - xhat * gxhat_sum / m): the same ops in the same order, in place
                gx = g - gsum / m
                gx -= xh * gxhat_sum / m
                gx *= gw
        ggamma = gxhat_sum.reshape(c) if need_gamma else None
        gbeta = gsum.reshape(c) if need_beta else None
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
        gx = np.broadcast_to(g.T[:, :, None, None] / np.float32(h * w), (c, n, h, w)).astype(np.float32, order="C")
        return [gx]

    return _make(data, "global_avg_pool", (x,), backward)


# ---------------------------------------------------------------------------
# backward pass


def tape_order(root: Node) -> list[Node]:
    """Nodes reachable from ``root``, inputs first."""
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if isinstance(p, Node) and p not in seen:
                stack.append((p, False))
    return order


@np.errstate(over="ignore", invalid="ignore")  # an overflowing gradient or sum raises NonFiniteValue, unwarned
def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Run reverse-mode accumulation from a finite scalar loss.

    Returns gradients for every requires_grad leaf reachable from the
    loss, keyed by the leaf tensor itself. Leaves with requires_grad
    False get no entry. Each node's ``backward_fn`` is set to None as the
    walk reaches it, and the arrays it held are freed once it has run;
    reaching a node an earlier backward already walked raises ValueError.
    """
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}")
    if not np.isfinite(loss.data.reshape(())):
        raise NonFiniteLoss("loss is not finite")

    leaf_grads: dict[Tensor, Tensor] = {}
    if loss.node is None:
        if loss.requires_grad:
            leaf_grads[loss] = Tensor(np.ones_like(loss.data))
        return leaf_grads

    grads: dict[Node | Tensor, Array] = {loss.node: np.ones_like(loss.data)}
    for node in reversed(tape_order(loss.node)):
        fn, node.backward_fn = node.backward_fn, None
        if fn is None:
            raise ValueError(f"backward reached a '{node.op}' node an earlier backward already ran: a tape is single-use")
        g = grads.pop(node, None)
        if g is None:
            continue
        parent_grads = fn(g)
        del fn
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or p is None:
                continue
            # g itself was checked when it was formed; a gradient passed through, or formed
            # from g by an op that cannot make NaN/Inf (relu's g * mask), is not scanned again
            if pg is not g and not node.finite:
                _ensure_finite(pg, f"backward[{node.op}]")
            if p in grads:
                grads[p] = grads[p] + pg
                _ensure_finite(grads[p], f"backward[{node.op}] accumulation")
            else:
                grads[p] = pg
            if isinstance(p, Tensor):
                leaf_grads[p] = Tensor._unchecked(grads[p])
    return leaf_grads


def grads_by_name(leaves: dict[str, Tensor], grads: dict[Tensor, Tensor]) -> dict[str, Array]:
    """Gradient of each named leaf that requires grad, zeros where the loss does not reach it."""
    return {
        name: grads[leaf].data if leaf in grads else np.zeros_like(leaf.data)
        for name, leaf in leaves.items()
        if leaf.requires_grad
    }
