"""A small residual CNN with batch-norm layers and a cosine output head.

Topology: a stride-1 stem conv, then one downsampling residual stage per
``stages`` entry (conv-bn-relu, conv-bn, 1x1-projection skip, relu),
global average pooling, a hidden FC+relu, and a weight- and
input-normalized output layer z = scale * (What @ xhat) that bounds every
logit to [-scale, +scale].

Callers pass (N, 3, H, W) frames; the layers run on channel-major
(C, N, H, W) maps (see ``tensor``), and the frames are turned into one at
the stem.

``forward`` has two routes over one description of the network
(``_trunk``: stem batch norm, then the residual blocks). With graph leaves
it runs the tape's ops, in either mode; training and adaptation take this
route. Without leaves (``adapt.forward_all``: inference and the
before/after logit series of an adaptation) it runs in eval mode only,
tape-free: it owns its buffers and applies batch norm, relu and the
residual add in place on each conv's own output, in the same float32 ops
and order. Its trunk (stem through pooled features) runs on
``tensor.FRAME_SLICE`` (16) frames at a time, the slice every conv runs
in, which gives the same bytes under any slicing. When its convs average
``tensor.POOL_MIN_MACS`` multiply-adds per slice (``_trunk_macs``), the
trunk slices run at once on ``tensor``'s slice pool, each writing only
its own rows of the pooled features, in a copy of the caller's context
(so the forward's errstate holds in it); the convs inside a slice run
inline. Its head runs
once over the whole batch, because BLAS rounds the head's small matmuls
differently by row count. Both routes give identical logits and check
each new array for non-finite values once.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ArchMismatch,
    CorruptTensorFile,
    CorruptWeights,
    InvalidSpec,
    NegativeVariance,
    NonFiniteActivation,
    NonFiniteValue,
    NormalizationDegenerate,
    ShapeMismatch,
    VersionMismatch,
    at_least,
)
from .tten import tensor_from_bytes, tensor_to_bytes

GROUP_BN_AFFINE = "bn_affine"
GROUP_BN_STATS = "bn_stats"
GROUP_OTHER = "other"

_GROUP_CODES = {GROUP_OTHER: 0, GROUP_BN_AFFINE: 1, GROUP_BN_STATS: 2}
_CODE_GROUPS = {v: k for k, v in _GROUP_CODES.items()}

WEIGHTS_MAGIC = b"TWGT"
WEIGHTS_VERSION = 1

HEAD_NORM_EPS = 1e-8
BN_EPS = 1e-5


@dataclass(frozen=True)
class ModelSpec:
    input_hw: int = 32
    in_channels: int = 3
    stages: tuple[tuple[int, int], ...] = ((16, 1), (32, 1), (64, 1))
    num_classes: int = 8
    head_hidden: int = 64
    head_scale: float = 16.0

    def __post_init__(self) -> None:
        at_least(self, 2, "num_classes", error=InvalidSpec)
        at_least(self, 1, "in_channels", "head_hidden", error=InvalidSpec)
        if not self.stages:
            raise InvalidSpec("at least one stage required")
        for ch, blocks in self.stages:
            if ch < 1 or blocks < 1:
                raise InvalidSpec(f"bad stage ({ch}, {blocks})")
        if self.input_hw % (2 ** len(self.stages)) != 0:
            raise InvalidSpec(f"input_hw {self.input_hw} not divisible by 2^{len(self.stages)}")
        if self.head_scale <= 0:
            raise InvalidSpec(f"head_scale must be > 0, got {self.head_scale}")


@dataclass
class ParamEntry:
    array: np.ndarray
    group: str

    @property
    def trainable(self) -> bool:
        return self.group != GROUP_BN_STATS


class ModelParams:
    """Ordered name -> (array, group) store for one model.

    Batch-norm gamma/beta carry group 'bn_affine', running statistics
    'bn_stats' (never trainable), everything else 'other'. ``layout(spec)``
    lists the entries' names, shapes and groups, in order.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.entries: dict[str, ParamEntry] = {}

    def add(self, name: str, array: np.ndarray, group: str) -> None:
        self.entries[name] = ParamEntry(np.asarray(array, dtype=np.float32), group)

    def names(self) -> list[str]:
        return list(self.entries)

    def __getitem__(self, name: str) -> ParamEntry:
        return self.entries[name]

    def names_in_group(self, group: str) -> list[str]:
        return [n for n, e in self.entries.items() if e.group == group]

    def copy(self) -> "ModelParams":
        out = ModelParams(self.spec)
        for name, e in self.entries.items():
            out.add(name, e.array.copy(), e.group)
        return out

    def leaves(self, trainable: set[str] | None = None) -> dict[str, T.Tensor]:
        """Graph leaves over the shared buffers.

        With ``trainable`` given, exactly those names require grad;
        otherwise every trainable entry does. Running statistics never
        require grad.
        """
        out: dict[str, T.Tensor] = {}
        for name, e in self.entries.items():
            rg = e.trainable and (trainable is None or name in trainable)
            out[name] = T.Tensor._unchecked(e.array, rg, name)
        return out


_BN_PARTS = {"gamma": GROUP_BN_AFFINE, "beta": GROUP_BN_AFFINE, "running_mean": GROUP_BN_STATS, "running_var": GROUP_BN_STATS}


def _blocks(spec: ModelSpec):
    """(name prefix, in channels, channels, stride) of each residual block; a stage's first block downsamples."""
    in_ch = spec.stages[0][0]
    for si, (ch, blocks) in enumerate(spec.stages):
        for bi in range(blocks):
            yield f"stage{si}.block{bi}", in_ch, ch, 2 if bi == 0 else 1
            in_ch = ch


def layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, group) of every entry of a ``spec`` model, in its stored order."""
    def conv_bn(conv: str, bn: str, ch: int, in_ch: int, k: int) -> list:
        return [(f"{conv}.w", (ch, in_ch, k, k), GROUP_OTHER)] + [(f"{bn}.{part}", (ch,), group) for part, group in _BN_PARTS.items()]

    out = conv_bn("stem.conv", "stem.bn", spec.stages[0][0], spec.in_channels, 3)
    for p, in_ch, ch, stride in _blocks(spec):
        out += conv_bn(f"{p}.conv1", f"{p}.bn1", ch, in_ch, 3) + conv_bn(f"{p}.conv2", f"{p}.bn2", ch, ch, 3)
        if stride > 1:  # a downsampling block projects its skip
            out += conv_bn(f"{p}.proj", f"{p}.proj_bn", ch, in_ch, 1)
    return out + [
        ("head.fc1.w", (spec.head_hidden, spec.stages[-1][0]), GROUP_OTHER),
        ("head.fc1.b", (spec.head_hidden,), GROUP_OTHER),
        ("head.out.w", (spec.num_classes, spec.head_hidden), GROUP_OTHER),
    ]


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """He-uniform conv/linear weights (fan-in: all dims but the first), identity batch norm, zero bias; seed-deterministic."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = ModelParams(spec)
    for name, shape, group in layout(spec):
        try:
            if len(shape) >= 2:
                bound = np.sqrt(6.0 / math.prod(shape[1:]))
                array = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            else:  # ones for gamma and running_var, zeros for the rest
                array = np.full(shape, name.endswith((".gamma", ".running_var")), dtype=np.float32)
        except (MemoryError, ValueError) as exc:  # numpy refuses a shape too large to allocate or to index
            raise InvalidSpec(f"cannot build {name} of shape {shape}: {exc}") from None
        params.add(name, array, group)
    return params


def _trunk(spec: ModelSpec, x, conv, bn, relu, add):
    """The network from the stem batch norm to the last block, in the ops of one route.

    ``conv(x, kernel name, stride, pad)``, ``bn(x, layer prefix)``,
    ``relu(x)`` and ``add(a, b)`` are the tape's ops or the tape-free
    route's in-place ones; ``x`` is the stem conv's output.
    """
    x = relu(bn(x, "stem.bn"))
    for p, _, _, stride in _blocks(spec):
        out = relu(bn(conv(x, f"{p}.conv1.w", stride, 1), f"{p}.bn1"))
        out = bn(conv(out, f"{p}.conv2.w", 1, 1), f"{p}.bn2")
        skip = bn(conv(x, f"{p}.proj.w", stride, 0), f"{p}.proj_bn") if stride > 1 else x
        x = relu(add(out, skip))
    return x


def _check_frames(spec: ModelSpec, x: T.Tensor) -> None:
    if x.data.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ShapeMismatch(f"expected (N,{spec.in_channels},H,W), got {x.shape}")
    if x.shape[2] != spec.input_hw or x.shape[3] != spec.input_hw:
        raise ShapeMismatch(f"expected {spec.input_hw}x{spec.input_hw} frames, got {x.shape[2]}x{x.shape[3]}")


def _channel_major(x: T.Tensor) -> T.Tensor:
    """(N, 3, H, W) frames as the (3, N, H, W) map every layer takes: a view, which the stem's im2col reads."""
    return T.Tensor._unchecked(x.data.transpose(1, 0, 2, 3))


def stem_conv(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    """Untracked stem convolution of an (N, 3, H, W) batch, as a (C0, N, H, W) map.

    Adaptation never trains the stem kernel, so one pass over a video's
    frames serves every later ``forward`` on them (its ``stem`` argument,
    sliced along the frame axis 1).
    """
    x = T.Tensor(frames)
    _check_frames(params.spec, x)
    return T.conv2d(_channel_major(x), T.Tensor(params["stem.conv.w"].array), stride=1, pad=1).data


def forward(
    params: ModelParams,
    batch: np.ndarray,
    mode: str = "eval",
    leaves: dict[str, T.Tensor] | None = None,
    stem: np.ndarray | None = None,
) -> T.Tensor:
    """Per-frame logits (N, k) for an (N, 3, H, W) batch.

    Without ``leaves`` this is the tape-free eval forward, and ``mode``
    must be "eval" and ``stem`` None. ``leaves`` are pre-built graph
    leaves (they control which parameters require grad) for a tape
    forward in either mode. ``stem`` is ``stem_conv(params, batch)``
    computed earlier; it replaces the stem convolution and needs a frozen
    stem kernel.
    """
    spec = params.spec
    x = T.Tensor(batch)
    _check_frames(spec, x)
    if leaves is None and (mode != "eval" or stem is not None):
        raise ValueError("a forward without leaves is the eval forward of the frames alone; pass leaves")
    if stem is not None and stem.shape != (params["stem.conv.w"].array.shape[0], x.shape[0]) + x.shape[2:]:
        raise ShapeMismatch(f"stem has shape {stem.shape}, expected (C0, N, H, W) for a {x.shape} batch")

    try:
        if leaves is None:
            return _forward_untracked(params, x.data)
        if stem is None:
            out = T.conv2d(_channel_major(x), leaves["stem.conv.w"], stride=1, pad=1)
        elif leaves["stem.conv.w"].requires_grad:
            raise ValueError("a precomputed stem needs a frozen stem kernel")
        else:
            out = T.Tensor._unchecked(stem)  # a conv output of stem_conv, checked there
        out = _trunk(
            spec,
            out,
            conv=lambda t, name, stride, pad: T.conv2d(t, leaves[name], stride=stride, pad=pad),
            bn=lambda t, prefix: T.batchnorm2d(
                t, *(leaves[f"{prefix}.{part}"] for part in _BN_PARTS),
                eps=BN_EPS,
                mode=mode,
            ),
            relu=T.relu,
            add=lambda a, b: a + b,
        )
        return _head(spec, leaves, T.global_avg_pool(out))
    except NonFiniteValue as exc:
        raise NonFiniteActivation(str(exc)) from exc


def _head(spec: ModelSpec, leaves, feat: T.Tensor) -> T.Tensor:
    hidden = T.relu(T.matmul(feat, T.transpose(leaves["head.fc1.w"])) + leaves["head.fc1.b"])
    return _cosine_head(hidden, leaves["head.out.w"], spec.head_scale)


# ---------------------------------------------------------------------------
# tape-free eval forward


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises at its check, unwarned
def _forward_untracked(params: ModelParams, frames: np.ndarray) -> T.Tensor:
    """Eval-mode logits without a tape (see the module docstring); frames and parameters are only read."""
    spec = params.spec
    prefixes = [n.removesuffix(".running_var") for n in params.names_in_group(GROUP_BN_STATS) if n.endswith(".running_var")]
    bn = {prefix: _bn_constants(params, prefix) for prefix in prefixes}
    feat = np.empty((frames.shape[0], spec.stages[-1][0]), dtype=np.float32)

    def trunk_slice(part: slice, _) -> None:
        out = _trunk(
            spec,
            _conv(frames[part].transpose(1, 0, 2, 3), params["stem.conv.w"].array, 1, 1),
            conv=lambda x, name, stride, pad: _conv(x, params[name].array, stride, pad),
            bn=lambda x, prefix: _bn_eval(x, bn[prefix]),
            relu=lambda x: np.maximum(x, 0.0, out=x),
            add=_add_inplace,
        )
        pooled = out.mean(axis=(2, 3), dtype=np.float32)
        T._ensure_finite(pooled, "global_avg_pool")
        feat[part] = pooled.T

    T.run_frame_slices(trunk_slice, frames.shape[0], 1, _trunk_macs(spec))
    head = {name: T.Tensor._unchecked(params[name].array) for name in ("head.fc1.w", "head.fc1.b", "head.out.w")}
    return _head(spec, head, T.Tensor._unchecked(feat))


@functools.lru_cache(maxsize=16)
def _trunk_macs(spec: ModelSpec) -> int:
    """Mean multiply-adds per frame of the stem and trunk convs, from a pass of ``_trunk`` over sizes alone."""
    kernels = {name: math.prod(shape) for name, shape, _ in layout(spec) if len(shape) == 4}
    macs = [kernels["stem.conv.w"] * spec.input_hw**2]

    def conv(hw: int, name: str, stride: int, pad: int) -> int:
        macs.append(kernels[name] * (hw // stride) ** 2)
        return hw // stride

    _trunk(spec, spec.input_hw, conv, bn=lambda hw, prefix: hw, relu=lambda hw: hw, add=lambda a, b: a)
    return sum(macs) // len(macs)


def _bn_constants(params: ModelParams, prefix: str) -> tuple[np.ndarray, ...]:
    """(mean, 1/std, gamma, beta) of one eval batch-norm layer, each shaped (C, 1, 1, 1)."""
    var = params[f"{prefix}.running_var"].array
    if float(var.min()) < 0:
        raise NegativeVariance("running_var has a negative entry")
    bc = (var.shape[0], 1, 1, 1)
    inv_std = 1.0 / np.sqrt(var.reshape(bc) + np.float32(BN_EPS))
    return (
        params[f"{prefix}.running_mean"].array.reshape(bc),
        inv_std,
        params[f"{prefix}.gamma"].array.reshape(bc),
        params[f"{prefix}.beta"].array.reshape(bc),
    )


def _conv(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    out = T.conv_forward(x, kernel, stride, pad)
    T._ensure_finite(out, "conv2d")
    return out


def _bn_eval(x: np.ndarray, constants: tuple[np.ndarray, ...]) -> np.ndarray:
    """x = gamma * ((x - mean) * inv_std) + beta, in place on a conv output."""
    mu, inv_std, gamma, beta = constants
    x -= mu
    x *= inv_std
    x *= gamma
    x += beta
    T._ensure_finite(x, "batchnorm2d")
    return x


def _add_inplace(out: np.ndarray, skip: np.ndarray) -> np.ndarray:
    out += skip
    T._ensure_finite(out, "add")
    return out


def _cosine_head(x: T.Tensor, w: T.Tensor, scale: float) -> T.Tensor:
    """z = scale * (row-normalized W @ eps-normalized x)."""
    row_norms = np.sqrt((w.data.astype(np.float64) ** 2).sum(axis=1))
    if float(row_norms.min()) < 1e-12:
        raise NormalizationDegenerate("output head has a zero-norm weight row")
    xn = T.sqrt(T.tensor_sum(x * x, axis=1, keepdims=True)) + np.float32(HEAD_NORM_EPS)
    xhat = x / xn
    wn = T.sqrt(T.tensor_sum(w * w, axis=1, keepdims=True))
    what = w / wn
    return T.matmul(xhat, T.transpose(what)) * np.float32(scale)


# ---------------------------------------------------------------------------
# weight file


def save_weights(params: ModelParams) -> bytes:
    """Serialize entries in order; round-trips bit-identically."""
    chunks = [WEIGHTS_MAGIC, struct.pack("<BI", WEIGHTS_VERSION, len(params.entries))]
    for name, e in params.entries.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BB", _GROUP_CODES[e.group], int(e.trainable)))
        chunks.append(tensor_to_bytes(e.array))
    return b"".join(chunks)


def load_weights(data: bytes, spec: ModelSpec) -> ModelParams:
    """Parse a weights file, checking each record against ``layout(spec)`` as it is read; builds no model."""
    if len(data) < 9 or data[:4] != WEIGHTS_MAGIC:
        raise CorruptWeights("bad weights magic")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != WEIGHTS_VERSION:
        raise VersionMismatch(f"weights version {version}, expected {WEIGHTS_VERSION}")
    expected = layout(spec)
    if count != len(expected):
        raise ArchMismatch(f"{count} entries, the model has {len(expected)}")
    params = ModelParams(spec)
    pos = 9
    for want in expected:
        if len(data) - pos < 2:
            raise CorruptWeights("truncated record header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if len(data) - pos < name_len + 2:
            raise CorruptWeights("truncated record")
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptWeights(f"parameter name is not UTF-8: {exc}") from exc
        pos += name_len
        group_code, trainable = struct.unpack_from("<BB", data, pos)
        pos += 2
        if group_code not in _CODE_GROUPS:
            raise VersionMismatch(f"unknown group tag {group_code}")
        try:
            arr, pos = tensor_from_bytes(data, pos)
        except CorruptTensorFile as exc:
            raise CorruptWeights(str(exc)) from exc
        params.add(name, arr, _CODE_GROUPS[group_code])
        if trainable != params[name].trainable:
            raise CorruptWeights(f"entry {name!r}: trainable flag {trainable} contradicts its group")
        got = (name, arr.shape, params[name].group)
        if got != want:
            raise ArchMismatch(f"entry {got} where the model has {want}")
    if pos != len(data):
        raise CorruptWeights(f"{len(data) - pos} trailing bytes")
    return params


def check_same_arch(a: ModelParams, b: ModelParams) -> None:
    """``a`` and ``b`` hold the same (name, shape, group) entries, in the same order."""
    la, lb = ([(n, e.array.shape, e.group) for n, e in p.entries.items()] for p in (a, b))
    if la != lb:
        got, want = next((x, y) for x, y in zip(la + [None], lb + [None]) if x != y)  # None: past the shorter one's end
        raise ArchMismatch(f"entry {got} where the other model has {want}")
