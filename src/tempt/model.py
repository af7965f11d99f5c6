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
and order. Its trunk (stem through pooled features) runs on TRUNK_SLICE
frames at a time, which keeps the patch matrices small and gives the same
bytes under any slicing; its head runs once over the whole batch, because
BLAS rounds the head's small matmuls differently by row count. Both routes
give identical logits and check each new array for non-finite values once.
"""

from __future__ import annotations

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

    def validate(self) -> None:
        if self.num_classes < 2:
            raise InvalidSpec(f"num_classes must be >= 2, got {self.num_classes}")
        if self.in_channels < 1:
            raise InvalidSpec(f"in_channels must be >= 1, got {self.in_channels}")
        if not self.stages:
            raise InvalidSpec("at least one stage required")
        for ch, blocks in self.stages:
            if ch < 1 or blocks < 1:
                raise InvalidSpec(f"bad stage ({ch}, {blocks})")
        if self.input_hw % (2 ** len(self.stages)) != 0:
            raise InvalidSpec(
                f"input_hw {self.input_hw} not divisible by 2^{len(self.stages)}"
            )
        if self.head_hidden < 1:
            raise InvalidSpec("head_hidden must be >= 1")
        if self.head_scale <= 0:
            raise InvalidSpec("head_scale must be > 0")


@dataclass
class ParamEntry:
    array: np.ndarray
    group: str
    trainable: bool


class ModelParams:
    """Ordered name -> (array, group, trainable) store for one model.

    Batch-norm gamma/beta carry group 'bn_affine', running statistics
    'bn_stats' (never trainable), everything else 'other'. Names are
    stable across save/load.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.entries: dict[str, ParamEntry] = {}

    def add(self, name: str, array: np.ndarray, group: str, trainable: bool) -> None:
        if name in self.entries:
            raise InvalidSpec(f"duplicate parameter name {name!r}")
        if group not in _GROUP_CODES:
            raise InvalidSpec(f"unknown group {group!r}")
        if group == GROUP_BN_STATS and trainable:
            raise InvalidSpec(f"bn_stats entry {name!r} cannot be trainable")
        self.entries[name] = ParamEntry(np.asarray(array, dtype=np.float32), group, trainable)

    def names(self) -> list[str]:
        return list(self.entries)

    def __getitem__(self, name: str) -> ParamEntry:
        return self.entries[name]

    def names_in_group(self, group: str) -> list[str]:
        return [n for n, e in self.entries.items() if e.group == group]

    def copy(self) -> "ModelParams":
        out = ModelParams(self.spec)
        for name, e in self.entries.items():
            out.add(name, e.array.copy(), e.group, e.trainable)
        return out

    def leaves(self, trainable: set[str] | None = None) -> dict[str, T.Tensor]:
        """Graph leaves over the shared buffers.

        With ``trainable`` given, exactly those names require grad;
        otherwise each entry's own flag decides. Running statistics never
        require grad.
        """
        out: dict[str, T.Tensor] = {}
        for name, e in self.entries.items():
            if e.group == GROUP_BN_STATS:
                rg = False
            elif trainable is not None:
                rg = name in trainable
            else:
                rg = e.trainable
            out[name] = T.Tensor._unchecked(e.array, rg, name)
        return out


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _add_bn(params: ModelParams, rng, prefix: str, channels: int) -> None:
    params.add(f"{prefix}.gamma", np.ones(channels, dtype=np.float32), GROUP_BN_AFFINE, True)
    params.add(f"{prefix}.beta", np.zeros(channels, dtype=np.float32), GROUP_BN_AFFINE, True)
    params.add(f"{prefix}.running_mean", np.zeros(channels, dtype=np.float32), GROUP_BN_STATS, False)
    params.add(f"{prefix}.running_var", np.ones(channels, dtype=np.float32), GROUP_BN_STATS, False)


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """He-uniform conv/linear init, identity batch-norm, seed-deterministic."""
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(seed))
    params = ModelParams(spec)

    c0 = spec.stages[0][0]
    params.add("stem.conv.w", _he_uniform(rng, (c0, spec.in_channels, 3, 3), spec.in_channels * 9), GROUP_OTHER, True)
    _add_bn(params, rng, "stem.bn", c0)

    in_ch = c0
    for si, (ch, blocks) in enumerate(spec.stages):
        for bi in range(blocks):
            p = f"stage{si}.block{bi}"
            downsample = bi == 0
            params.add(f"{p}.conv1.w", _he_uniform(rng, (ch, in_ch, 3, 3), in_ch * 9), GROUP_OTHER, True)
            _add_bn(params, rng, f"{p}.bn1", ch)
            params.add(f"{p}.conv2.w", _he_uniform(rng, (ch, ch, 3, 3), ch * 9), GROUP_OTHER, True)
            _add_bn(params, rng, f"{p}.bn2", ch)
            if downsample:
                params.add(f"{p}.proj.w", _he_uniform(rng, (ch, in_ch, 1, 1), in_ch), GROUP_OTHER, True)
                _add_bn(params, rng, f"{p}.proj_bn", ch)
            in_ch = ch

    params.add("head.fc1.w", _he_uniform(rng, (spec.head_hidden, in_ch), in_ch), GROUP_OTHER, True)
    params.add("head.fc1.b", np.zeros(spec.head_hidden, dtype=np.float32), GROUP_OTHER, True)
    params.add("head.out.w", _he_uniform(rng, (spec.num_classes, spec.head_hidden), spec.head_hidden), GROUP_OTHER, True)
    return params


def _trunk(spec: ModelSpec, x, conv, bn, relu, add):
    """The network from the stem batch norm to the last block, in the ops of one route.

    ``conv(x, kernel name, stride, pad)``, ``bn(x, layer prefix)``,
    ``relu(x)`` and ``add(a, b)`` are the tape's ops or the tape-free
    route's in-place ones; ``x`` is the stem conv's output.
    """
    x = relu(bn(x, "stem.bn"))
    for si, (ch, blocks) in enumerate(spec.stages):
        for bi in range(blocks):
            p = f"stage{si}.block{bi}"
            stride = 2 if bi == 0 else 1  # the first block of a stage downsamples
            out = relu(bn(conv(x, f"{p}.conv1.w", stride, 1), f"{p}.bn1"))
            out = bn(conv(out, f"{p}.conv2.w", 1, 1), f"{p}.bn2")
            skip = bn(conv(x, f"{p}.proj.w", stride, 0), f"{p}.proj_bn") if bi == 0 else x
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
                t, *(leaves[f"{prefix}.{part}"] for part in ("gamma", "beta", "running_mean", "running_var")),
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

TRUNK_SLICE = 32  # frames per trunk pass of the untracked forward


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises at its check, unwarned
def _forward_untracked(params: ModelParams, frames: np.ndarray) -> T.Tensor:
    """Eval-mode logits without a tape (see the module docstring); frames and parameters are only read."""
    spec = params.spec
    prefixes = [n.removesuffix(".running_var") for n in params.names_in_group(GROUP_BN_STATS) if n.endswith(".running_var")]
    bn = {prefix: _bn_constants(params, prefix) for prefix in prefixes}
    feat = np.empty((frames.shape[0], spec.stages[-1][0]), dtype=np.float32)
    for lo in range(0, frames.shape[0], TRUNK_SLICE):
        part = slice(lo, lo + TRUNK_SLICE)
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
    head = {name: T.Tensor._unchecked(params[name].array) for name in ("head.fc1.w", "head.fc1.b", "head.out.w")}
    return _head(spec, head, T.Tensor._unchecked(feat))


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
    out = T.conv_forward(x, kernel, stride, pad)[0]
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
    """Parse a weights file; its entries must be exactly those ``build_model(spec)`` makes."""
    if len(data) < 9 or data[:4] != WEIGHTS_MAGIC:
        raise CorruptWeights("bad weights magic")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != WEIGHTS_VERSION:
        raise VersionMismatch(f"weights version {version}, expected {WEIGHTS_VERSION}")
    params = ModelParams(spec)
    pos = 9
    for _ in range(count):
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
        params.add(name, arr, _CODE_GROUPS[group_code], bool(trainable))
    if pos != len(data):
        raise CorruptWeights(f"{len(data) - pos} trailing bytes")
    check_same_arch(params, build_model(spec, 0))
    return params


def check_same_arch(a: ModelParams, b: ModelParams) -> None:
    if a.names() != b.names():
        unmatched = sorted(set(a.names()) ^ set(b.names()))[:3]
        raise ArchMismatch(f"parameter names differ in set or order, e.g. {unmatched}")
    for name in a.names():
        ea, eb = a[name], b[name]
        if ea.array.shape != eb.array.shape or ea.group != eb.group:
            raise ArchMismatch(f"entry {name!r} differs in shape or group")
