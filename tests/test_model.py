"""Model construction, forward contracts, and weight-file round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from tempt import adapt, model, reference
from tempt import tensor as T
from tempt.errors import (
    ArchMismatch,
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
        model.ModelSpec(num_classes=1).validate()
    with pytest.raises(InvalidSpec):
        model.ModelSpec(input_hw=30).validate()  # not divisible by 2^3
    with pytest.raises(InvalidSpec):
        model.ModelSpec(stages=()).validate()


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
    with pytest.raises(ShapeMismatch):
        model.forward(tiny_params, x, leaves=frozen, stem=stem[:, :2])  # two of the batch's three frames
    with pytest.raises(ShapeMismatch):
        model.forward(tiny_params, x, leaves=frozen, stem=stem[:2])  # two of the stem's four channels
    with pytest.raises(ValueError, match="frozen stem kernel"):
        model.forward(tiny_params, x, leaves=tiny_params.leaves(), stem=stem)


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


def test_untracked_forward_raises_typed_errors(tiny_params, rng):
    frames = rng.uniform(-1, 1, size=(40, 3, 8, 8)).astype(np.float32)
    params = tiny_params.copy()
    params["stem.conv.w"].array[0, 0, 1, 1] = np.inf
    with pytest.raises(NonFiniteActivation, match="conv2d"):
        model.forward(params, frames)
    params = tiny_params.copy()
    params["stage1.block0.bn2.running_var"].array[0] = -1.0
    with pytest.raises(NegativeVariance):
        model.forward(params, frames)


def test_forward_rejects_wrong_hw(tiny_params, rng):
    with pytest.raises(ShapeMismatch):
        model.forward(tiny_params, rng.uniform(size=(1, 3, 16, 16)).astype(np.float32))


def test_zero_head_row_rejected(tiny_spec, rng):
    params = model.build_model(tiny_spec, seed=0)
    params["head.out.w"].array[0] = 0.0
    with pytest.raises(NormalizationDegenerate):
        model.forward(params, rng.uniform(size=(1, 3, 8, 8)).astype(np.float32))


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


def test_forward_without_leaves_is_eval_of_frames_only(tiny_params, rng):
    x = rng.uniform(-1, 1, size=(2, 3, 8, 8)).astype(np.float32)
    before = {n: tiny_params[n].array.tobytes() for n in tiny_params.names()}
    with pytest.raises(ValueError, match="pass leaves"):
        model.forward(tiny_params, x, mode="train")
    with pytest.raises(ValueError, match="pass leaves"):
        model.forward(tiny_params, x, stem=model.stem_conv(tiny_params, x))
    assert before == {n: tiny_params[n].array.tobytes() for n in tiny_params.names()}


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


def test_truncated_weights_rejected(tiny_spec, tiny_params):
    blob = model.save_weights(tiny_params)
    with pytest.raises(CorruptWeights):
        model.load_weights(blob[: len(blob) // 2], spec=tiny_spec)
    bad_name = bytearray(blob)
    bad_name[11] = 0xFF  # first byte of the first parameter name: not UTF-8
    with pytest.raises(CorruptWeights):
        model.load_weights(bytes(bad_name), spec=tiny_spec)


def test_weights_for_another_spec_rejected(tiny_spec, tiny_params):
    blob = model.save_weights(tiny_params)
    deeper = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1), (16, 1)), num_classes=8, head_hidden=8)
    with pytest.raises(ArchMismatch):
        model.load_weights(blob, spec=deeper)
    wider = model.ModelSpec(input_hw=8, stages=((4, 1), (16, 1)), num_classes=8, head_hidden=8)
    with pytest.raises(ArchMismatch):
        model.load_weights(blob, spec=wider)


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
