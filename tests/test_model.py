"""Model construction, forward contracts, and weight-file round-trips."""

from __future__ import annotations

import re
import struct
import warnings

import numpy as np
import pytest

from tempt import adapt, losses, model, reference, tten
from tempt import tensor as T
from tempt.errors import (
    ArchMismatch,
    CorruptTensorFile,
    CorruptWeights,
    InvalidSpec,
    NegativeVariance,
    NonFiniteActivation,
    NormalizationDegenerate,
    ShapeMismatch,
    VersionMismatch,
)


def expected_param_count(spec: model.ModelSpec) -> int:
    """Layer-shape arithmetic, independent of the builder."""
    total = 0

    def bn(c):
        return 4 * c  # gamma, beta, running mean, running var

    c0 = spec.stages[0][0]
    total += c0 * spec.in_channels * 9 + bn(c0)
    in_ch = c0
    for ch, blocks in spec.stages:
        for bi in range(blocks):
            total += ch * in_ch * 9 + bn(ch)  # conv1 + bn1
            total += ch * ch * 9 + bn(ch)  # conv2 + bn2
            if bi == 0:
                total += ch * in_ch + bn(ch)  # 1x1 projection + bn
            in_ch = ch
    total += spec.head_hidden * in_ch + spec.head_hidden  # fc1 + bias
    total += spec.num_classes * spec.head_hidden  # cosine head
    return total


def test_build_deterministic(tiny_spec):
    a = model.build_model(tiny_spec, seed=3)
    b = model.build_model(tiny_spec, seed=3)
    assert a.names() == b.names()
    for name in a.names():
        assert a[name].array.tobytes() == b[name].array.tobytes()


def test_build_seed_changes_weights(tiny_spec):
    a = model.build_model(tiny_spec, seed=3)
    b = model.build_model(tiny_spec, seed=4)
    assert a["stem.conv.w"].array.tobytes() != b["stem.conv.w"].array.tobytes()


def test_param_count_two_stages():
    spec = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)), num_classes=8, head_hidden=8)
    params = model.build_model(spec, seed=0)
    assert sum(e.array.size for e in params.entries.values()) == expected_param_count(spec)


def test_layout_is_the_built_models_table():
    spec = model.ModelSpec(input_hw=8, stages=((4, 2), (8, 3)), num_classes=5, head_hidden=6)
    params = model.build_model(spec, seed=1)
    assert model.layout(spec) == [(n, params[n].array.shape, params[n].group) for n in params.names()]
    assert [n for n, _, _ in model.layout(spec) if n.endswith(".proj.w")] == ["stage0.block0.proj.w", "stage1.block0.proj.w"]


def test_init_contract(tiny_params):
    for name in tiny_params.names():
        e = tiny_params[name]
        if name.endswith(".gamma"):
            assert np.all(e.array == 1.0)
            assert e.group == model.GROUP_BN_AFFINE
        elif name.endswith(".beta"):
            assert np.all(e.array == 0.0)
            assert e.group == model.GROUP_BN_AFFINE
        elif name.endswith(".running_mean"):
            assert np.all(e.array == 0.0)
            assert e.group == model.GROUP_BN_STATS and not e.trainable
        elif name.endswith(".running_var"):
            assert np.all(e.array == 1.0)
            assert e.group == model.GROUP_BN_STATS and not e.trainable
        else:
            assert e.group == model.GROUP_OTHER


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        model.ModelSpec(num_classes=1)
    with pytest.raises(InvalidSpec):
        model.ModelSpec(input_hw=30)  # not divisible by 2^3
    with pytest.raises(InvalidSpec):
        model.ModelSpec(stages=())


def test_forward_shape_and_bound(tiny_spec, tiny_params, rng):
    x = rng.uniform(-2, 2, size=(5, 3, 8, 8)).astype(np.float32)
    z = model.forward(tiny_params, x)
    assert z.shape == (5, tiny_spec.num_classes)
    assert np.abs(z.data).max() <= tiny_spec.head_scale + 1e-5


def test_forward_cosine_bound_extreme_inputs(tiny_spec, tiny_params, rng):
    for scale in (1e-3, 1.0, 1e3):
        x = (rng.uniform(-1, 1, size=(2, 3, 8, 8)) * scale).astype(np.float32)
        z = model.forward(tiny_params, x)
        assert np.abs(z.data).max() <= tiny_spec.head_scale + 1e-5


def test_forward_deterministic(tiny_params, rng):
    x = rng.uniform(-1, 1, size=(3, 3, 8, 8)).astype(np.float32)
    a = model.forward(tiny_params, x).data
    b = model.forward(tiny_params, x).data
    assert a.tobytes() == b.tobytes()


def test_precomputed_stem_gives_identical_logits(tiny_params, rng):
    x = rng.uniform(-1, 1, size=(3, 3, 8, 8)).astype(np.float32)
    stem = model.stem_conv(tiny_params, x)
    frozen = tiny_params.leaves(trainable=set())
    with_stem = model.forward(tiny_params, x, leaves=frozen, stem=stem).data
    assert with_stem.tobytes() == model.forward(tiny_params, x).data.tobytes()
    assert stem.shape == (tiny_params["stem.conv.w"].array.shape[0], 3, 8, 8)  # (C0, N, H, W)


def _spread_bn(params: model.ModelParams, seed: int) -> model.ModelParams:
    """A copy whose batch-norm statistics and affines are far from identity, as after training."""
    out = params.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    for name in out.names():
        a = out[name].array
        if name.endswith((".running_mean", ".beta")):
            a[...] = rng.normal(0.0, 0.3, a.shape)
        elif name.endswith((".running_var", ".gamma")):
            a[...] = rng.uniform(0.5, 2.0, a.shape)
    return out


@pytest.mark.parametrize("spec_name", ["default", "tiny"])
def test_untracked_forward_equals_tape_forward(spec_name, tiny_spec):
    """The tape-free eval route gives the tape route's bytes at any batch size, slices and tail included."""
    spec = model.ModelSpec() if spec_name == "default" else tiny_spec
    params = _spread_bn(model.build_model(spec, seed=3), seed=4)
    rng = np.random.Generator(np.random.PCG64(5))
    frames = rng.uniform(-1, 1, size=(384, spec.in_channels, spec.input_hw, spec.input_hw)).astype(np.float32)
    for n in (1, 16, 24, 70, 128, 384):
        untracked = model.forward(params, frames[:n]).data
        tape = model.forward(params, frames[:n], leaves=params.leaves(trainable=set())).data
        assert untracked.tobytes() == tape.tobytes(), f"batch {n}"
        stem = model.stem_conv(params, frames[:n])
        with_stem = model.forward(params, frames[:n], leaves=params.leaves(trainable=set()), stem=stem).data
        assert with_stem.tobytes() == tape.tobytes(), f"batch {n}, stem"


def test_untracked_forward_writes_no_caller_data(tiny_params, rng):
    params = _spread_bn(tiny_params, seed=6)
    frames = rng.uniform(-1, 1, size=(70, 3, 8, 8)).astype(np.float32)
    stem = model.stem_conv(params, frames)
    before = [frames.tobytes(), stem.tobytes()] + [params[n].array.tobytes() for n in params.names()]
    adapt.forward_all(params, frames, chunk=48)
    model.forward(params, frames, leaves=params.leaves(trainable=set()), stem=stem)
    after = [frames.tobytes(), stem.tobytes()] + [params[n].array.tobytes() for n in params.names()]
    assert before == after


@pytest.fixture(scope="module")
def default_params():
    return _spread_bn(model.build_model(model.ModelSpec(), seed=3), seed=4)


@pytest.mark.parametrize("n", [1, model.TRUNK_SLICE - 1, model.TRUNK_SLICE + 1, 2 * 128 + 5])
def test_forward_all_gives_the_bytes_of_forward_chunk_by_chunk(slices, default_params, n):
    """One trunk pass over the clip, its slices spanning head chunks, then the head per chunk: a forward per chunk's bytes.

    The default spec's head rounds by row count (one head over the whole
    clip would differ), so this pins the head to each chunk.
    """
    frames = np.random.Generator(np.random.PCG64(n)).uniform(-1, 1, size=(n, 3, 32, 32)).astype(np.float32)
    for chunk in (24, 128, n):
        want = np.concatenate([model.forward(default_params, frames[lo : lo + chunk]).data for lo in range(0, n, chunk)])
        assert adapt.forward_all(default_params, frames, chunk).tobytes() == want.tobytes(), f"chunk {chunk}"


def test_untracked_forward_raises_typed_errors(tiny_params, rng):
    frames = rng.uniform(-1, 1, size=(40, 3, 8, 8)).astype(np.float32)
    params = tiny_params.copy()
    params["stem.conv.w"].array[0, 0, 1, 1] = np.inf
    with pytest.raises(NonFiniteActivation, match="^op 'batchnorm2d'"):  # the stem conv's output, at the stem batch norm
        model.forward(params, frames)


def test_forward_rejects_wrong_hw(tiny_params, rng):
    with pytest.raises(ShapeMismatch):
        model.forward(tiny_params, rng.uniform(size=(1, 3, 16, 16)).astype(np.float32))


def test_zero_head_row_rejected(tiny_spec, rng):
    params = model.build_model(tiny_spec, seed=0)
    params["head.out.w"].array[0] = 0.0
    with pytest.raises(NormalizationDegenerate):
        model.forward(params, rng.uniform(size=(1, 3, 8, 8)).astype(np.float32))


def test_all_zero_hidden_row_gives_finite_gradients(tiny_spec, rng):
    """A frame whose hidden layer is all zero: the head's sqrt sees 0 and its backward must not divide by it."""
    params = model.build_model(tiny_spec, seed=0)
    params["head.fc1.b"].array[:] = -1e3  # relu zeroes every hidden unit of every frame
    x = rng.uniform(-1, 1, size=(4, 3, 8, 8)).astype(np.float32)
    leaves = params.leaves()
    z = model.forward(params, x, mode="train", leaves=leaves)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = T.grads_by_name(leaves, T.backward(losses.cross_entropy(z, np.arange(4) % tiny_spec.num_classes)))
    assert grads and all(np.isfinite(g).all() for g in grads.values())


def test_forward_agrees_with_reference(tiny_spec, tiny_params, rng):
    x = rng.uniform(-1, 1, size=(4, 3, 8, 8)).astype(np.float32)
    z = model.forward(tiny_params, x).data
    arrays = {n: tiny_params[n].array for n in tiny_params.names()}
    zr = reference.forward_eval(arrays, tiny_spec, x)
    assert np.abs(z - zr).max() < 1e-4


def test_bn_affine_gradient_matches_fd(tiny_spec, tiny_params, rng):
    """Single bn_affine coordinates vs central differences.

    Probes whose perturbation flips a relu sign are skipped: central
    differences are not a derivative estimate across a kink.
    """
    x = rng.uniform(-1, 1, size=(2, 3, 8, 8)).astype(np.float32)
    names = ["stage0.block0.bn1.gamma", "stage1.block0.bn2.beta", "stem.bn.gamma"]
    leaves = tiny_params.leaves(trainable=set(names))
    z = model.forward(tiny_params, x, leaves=leaves)
    proj = rng.uniform(-1, 1, size=z.shape).astype(np.float32)
    grads = T.backward(T.tensor_sum(z * T.Tensor(proj)))

    arrays = {n: tiny_params[n].array.copy() for n in tiny_params.names()}
    step = 1e-3
    checked = 0
    for name in names:
        analytic = grads[leaves[name]].data
        for ci in range(analytic.size):
            base = arrays[name][ci]
            values = []
            patterns = []
            for delta in (step, -step):
                arrays[name][ci] = base + delta
                pat: list = []
                zr = reference.forward_eval(arrays, tiny_spec, x, relu_pattern=pat)
                values.append(float((zr * proj).sum()))
                patterns.append(b"".join(pat))
            arrays[name][ci] = base
            if patterns[0] != patterns[1]:
                continue  # probe straddles a relu kink
            fd = (values[0] - values[1]) / (2 * step)
            assert abs(analytic[ci] - fd) / max(abs(fd), 1e-3) < 1e-3, f"{name}[{ci}]"
            checked += 1
    assert checked >= 5, "too few kink-free probes to be meaningful"


def test_eval_forward_pure(tiny_params, rng):
    x = rng.uniform(-1, 1, size=(2, 3, 8, 8)).astype(np.float32)
    before = {n: tiny_params[n].array.tobytes() for n in tiny_params.names()}
    model.forward(tiny_params, x, mode="eval")
    after = {n: tiny_params[n].array.tobytes() for n in tiny_params.names()}
    assert before == after


def test_train_mode_updates_running_stats(tiny_spec, rng):
    params = model.build_model(tiny_spec, seed=0)
    x = rng.uniform(-1, 1, size=(4, 3, 8, 8)).astype(np.float32)
    model.forward(params, x, mode="train", leaves=params.leaves())
    assert not np.all(params["stem.bn.running_mean"].array == 0.0)


# ---------------------------------------------------------------------------
# weight file


def test_save_load_roundtrip(tiny_spec, rng):
    params = model.build_model(tiny_spec, seed=9)
    params["stem.conv.w"].array[:] = rng.uniform(-1, 1, size=params["stem.conv.w"].array.shape).astype(np.float32)
    blob = model.save_weights(params)
    loaded = model.load_weights(blob, spec=tiny_spec)
    assert loaded.names() == params.names()
    for name in params.names():
        assert loaded[name].array.tobytes() == params[name].array.tobytes()
        assert loaded[name].group == params[name].group
        assert loaded[name].trainable == params[name].trainable
    assert model.save_weights(loaded) == blob


@pytest.mark.parametrize("entry", ["stem.bn.running_var", "stage1.block0.bn2.running_var"])
def test_negative_running_variance_rejected_at_load(tiny_spec, tiny_params, entry):
    params = tiny_params.copy()
    params[entry].array[0] = -1.0
    with pytest.raises(NegativeVariance, match=f"^entry '{re.escape(entry)}' has a negative variance$"):
        model.load_weights(model.save_weights(params), spec=tiny_spec)


# a NaN variance passes a "< 0" test; an Inf kernel or gamma would only show at the first forward
@pytest.mark.parametrize(
    "entry,value",
    [("stage1.block0.bn2.running_var", np.nan), ("stage0.block0.conv1.w", np.inf), ("stem.bn.gamma", -np.inf)],
    ids=["nan-variance", "inf-kernel", "-inf-gamma"],
)
def test_non_finite_entry_rejected_at_load(tiny_spec, tiny_params, entry, value):
    params = tiny_params.copy()
    params[entry].array.reshape(-1)[-1] = value
    with pytest.raises(CorruptWeights, match=f"^entry '{re.escape(entry)}' holds a non-finite value$"):
        model.load_weights(model.save_weights(params), spec=tiny_spec)


def test_truncated_weights_rejected(tiny_spec, tiny_params):
    blob = model.save_weights(tiny_params)
    with pytest.raises(CorruptWeights):
        model.load_weights(blob[: len(blob) // 2], spec=tiny_spec)
    bad_name = bytearray(blob)
    bad_name[11] = 0xFF  # first byte of the first parameter name: not UTF-8
    with pytest.raises(CorruptWeights):
        model.load_weights(bytes(bad_name), spec=tiny_spec)


def _wrapping_dims(blob: bytes) -> bytes:
    """``blob`` with its first tensor record's four dims set to 65536 each, a product int64 wraps to 0."""
    out = bytearray(blob)
    struct.pack_into("<4I", out, blob.index(tten.MAGIC) + 7, *(65536,) * 4)
    return bytes(out)


def test_tensor_dims_product_is_exact(tiny_spec, tiny_params):
    record = _wrapping_dims(tten.tensor_to_bytes(np.zeros((2, 2, 2, 2), dtype=np.float32)))
    with pytest.raises(CorruptTensorFile, match="payload"):
        tten.tensor_from_bytes(record)
    with pytest.raises(CorruptWeights, match="payload"):
        model.load_weights(_wrapping_dims(model.save_weights(tiny_params)), spec=tiny_spec)
    # past numpy's 64 dims, and a zero-size shape whose other dims overflow numpy's index type
    blob = model.save_weights(tiny_params)
    first = blob.index(tten.MAGIC)
    _, end = tten.tensor_from_bytes(blob, first)
    for shape in [(1,) * 65, (4, 2**31, 2**31, 0)]:
        record = tten.MAGIC + struct.pack(f"<BBB{len(shape)}I", tten.VERSION, tten.DTYPE_F32, len(shape), *shape) + bytes(4)
        with pytest.raises(CorruptTensorFile):
            tten.tensor_from_bytes(record)
        with pytest.raises(CorruptWeights):
            model.load_weights(blob[:first] + record + blob[end:], spec=tiny_spec)


def test_weights_for_another_spec_rejected(tiny_spec, tiny_params):
    blob = model.save_weights(tiny_params)
    deeper = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1), (16, 1)), num_classes=8, head_hidden=8)
    with pytest.raises(ArchMismatch):
        model.load_weights(blob, spec=deeper)
    wider = model.ModelSpec(input_hw=8, stages=((4, 1), (16, 1)), num_classes=8, head_hidden=8)
    with pytest.raises(ArchMismatch):
        model.load_weights(blob, spec=wider)


def test_weights_with_records_in_swapped_order_rejected(tiny_spec, tiny_params):
    """Every record is well-formed and of the right model, but two trade places."""
    names = tiny_params.names()
    names[1], names[2] = names[2], names[1]  # stem.bn.gamma and stem.bn.beta: same shape and group
    swapped = model.ModelParams(tiny_spec)
    for name in names:
        swapped.add(name, tiny_params[name].array, tiny_params[name].group)
    with pytest.raises(ArchMismatch, match="stem.bn.beta"):
        model.load_weights(model.save_weights(swapped), spec=tiny_spec)


def test_load_weights_builds_no_model(tiny_spec, tiny_params, monkeypatch):
    """The file is checked against the spec's layout, never against a model built for the comparison."""
    blob = model.save_weights(tiny_params)
    for name in ("build_model", "check_same_arch"):
        monkeypatch.setattr(model, name, None)
    assert model.save_weights(model.load_weights(blob, spec=tiny_spec)) == blob
    huge = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)), num_classes=10**21, head_hidden=8)
    with pytest.raises(ArchMismatch, match="head.out.w"):
        model.load_weights(blob, spec=huge)


def test_unknown_group_tag_rejected(tiny_spec, tiny_params):
    blob = bytearray(model.save_weights(tiny_params))
    # first record: magic(4) + version(1) + count(4) + name_len(2) -> name, then group byte
    name_len = int.from_bytes(blob[9:11], "little")
    group_pos = 11 + name_len
    blob[group_pos] = 99
    with pytest.raises(VersionMismatch):
        model.load_weights(bytes(blob), spec=tiny_spec)


def test_bad_magic_rejected(tiny_spec):
    with pytest.raises(CorruptWeights):
        model.load_weights(b"NOPE" + b"\x00" * 16, spec=tiny_spec)
