"""A small residual CNN with batch-norm layers and a cosine output head.

Topology: a stride-1 stem conv, then one downsampling residual stage per
``stages`` entry (conv-bn-relu, conv-bn, 1x1-projection skip, relu),
global average pooling, a hidden FC+relu, and a weight- and
input-normalized output layer z = scale * (What @ xhat) that bounds every
logit to [-scale, +scale].

Callers pass (N, 3, H, W) frames; the layers run on channel-major
(C, N, H, W) maps (see ``tensor``), and the frames are turned into one at
the stem.
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


def _bn(leaves, prefix: str, x: T.Tensor, mode: str) -> T.Tensor:
    return T.batchnorm2d(
        x,
        leaves[f"{prefix}.gamma"],
        leaves[f"{prefix}.beta"],
        leaves[f"{prefix}.running_mean"],
        leaves[f"{prefix}.running_var"],
        eps=BN_EPS,
        mode=mode,
    )


def _block_forward(leaves, prefix: str, x: T.Tensor, downsample: bool, mode: str) -> T.Tensor:
    stride = 2 if downsample else 1
    out = T.conv2d(x, leaves[f"{prefix}.conv1.w"], stride=stride, pad=1)
    out = T.relu(_bn(leaves, f"{prefix}.bn1", out, mode))
    out = T.conv2d(out, leaves[f"{prefix}.conv2.w"], stride=1, pad=1)
    out = _bn(leaves, f"{prefix}.bn2", out, mode)
    if downsample:
        skip = T.conv2d(x, leaves[f"{prefix}.proj.w"], stride=stride, pad=0)
        skip = _bn(leaves, f"{prefix}.proj_bn", skip, mode)
    else:
        skip = x
    return T.relu(out + skip)


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

    ``leaves`` lets a caller pass pre-built graph leaves (to control
    which parameters require grad); without it the forward runs
    untracked. ``stem`` is ``stem_conv(params, batch)`` computed earlier;
    it replaces the stem convolution and needs a frozen stem kernel.
    """
    spec = params.spec
    x = T.Tensor(batch)
    _check_frames(spec, x)
    if leaves is None:
        leaves = params.leaves(trainable=set())

    try:
        if stem is None:
            out = T.conv2d(_channel_major(x), leaves["stem.conv.w"], stride=1, pad=1)
        elif leaves["stem.conv.w"].requires_grad:
            raise ValueError("a precomputed stem needs a frozen stem kernel")
        elif stem.shape != (leaves["stem.conv.w"].shape[0], x.shape[0]) + x.shape[2:]:
            raise ShapeMismatch(f"stem has shape {stem.shape}, expected (C0, N, H, W) for a {x.shape} batch")
        else:
            out = T.Tensor._unchecked(stem)  # a conv output of stem_conv, checked there
        out = T.relu(_bn(leaves, "stem.bn", out, mode))
        for si, (ch, blocks) in enumerate(spec.stages):
            for bi in range(blocks):
                out = _block_forward(leaves, f"stage{si}.block{bi}", out, downsample=bi == 0, mode=mode)
        feat = T.global_avg_pool(out)
        hidden = T.relu(T.matmul(feat, T.transpose(leaves["head.fc1.w"])) + leaves["head.fc1.b"])
        return _cosine_head(hidden, leaves["head.out.w"], spec.head_scale)
    except NonFiniteValue as exc:
        raise NonFiniteActivation(str(exc)) from exc


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
