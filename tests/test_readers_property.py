"""Fuzzed readers: any bytes give a value or a typed error, never a bare exception."""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempt import config, data, model, tten
from tempt.errors import TemptError

# 2**31 and 2**32 - 1 overflow numpy's index type once two of them multiply
DIMS = st.sampled_from([0, 1, 2, 7, 2**31, 2**32 - 1])

CLIP_FRAMES = 3
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
# valid labels, plus the JSON values a label check must reject: bools, floats, negatives, 2**63 and beyond
LABEL = st.integers(0, 2**63 - 1) | st.booleans() | st.floats() | st.integers(-(2**64), 2**64) | st.sampled_from([-1, 2**63])
LABELS = (
    st.lists(st.integers(0, 2**63 - 1), min_size=CLIP_FRAMES, max_size=CLIP_FRAMES)
    | st.lists(LABEL, min_size=CLIP_FRAMES, max_size=CLIP_FRAMES)
    | st.lists(LABEL, max_size=CLIP_FRAMES + 1)
    | st.deferred(lambda: SCALARS)
)
# st.deferred keeps a union as one branch of the union around it (a plain `|` flattens it),
# so labelled objects are not one branch among eight (at 300 examples, 33 load and 10 miscount their frames)
UNLABELLED = st.deferred(lambda: st.dictionaries(st.text(max_size=8), SCALARS, max_size=3) | st.lists(SCALARS, max_size=3) | SCALARS)
SIDECARS = st.fixed_dictionaries({"labels": LABELS}, optional={"segments": SCALARS, "seed": SCALARS}) | UNLABELLED


@given(st.lists(DIMS, max_size=80), st.binary(max_size=32))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_tensor_header_decodes_or_raises_typed(dims, payload):
    record = tten.MAGIC + struct.pack(f"<BBB{len(dims)}I", tten.VERSION, tten.DTYPE_F32, len(dims), *dims) + payload
    try:
        arr, end = tten.tensor_from_bytes(record)
    except TemptError:
        return
    assert arr.shape == tuple(dims)
    assert end == len(record) - len(payload) + 4 * arr.size


@given(
    st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=4),
    st.none() | st.integers(0, 2**20),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_weights_load_or_raise_typed(tiny_spec, tiny_params, flips, cut):
    blob = bytearray(model.save_weights(tiny_params))
    for at, value in flips:
        blob[at % len(blob)] = value
    if cut is not None:
        del blob[cut % (len(blob) + 1) :]
    try:
        model.load_weights(bytes(blob), spec=tiny_spec)
    except TemptError:
        pass


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("clip") / "clip.tten"
    tten.write_tten(path, np.zeros((CLIP_FRAMES, 3, 2, 2), dtype=np.float32))
    return path


@given(SIDECARS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_json_sidecar_loads_labels_or_raises_typed(clip, sidecar):
    clip.with_suffix(".tten.json").write_text(json.dumps(sidecar))
    try:
        video = data.load_video(clip)
    except TemptError:
        return
    assert video.labels.dtype == np.int64
    assert video.labels.tolist() == sidecar["labels"]
    assert len(video.labels) == len(video.frames) == CLIP_FRAMES


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def shaped_like(default) -> st.SearchStrategy:
    """JSON values shaped like a config field's ``default``: itself, or any value of its JSON type (lists of any length for a tuple)."""
    if dataclasses.is_dataclass(default):
        return config_documents(default)
    if isinstance(default, tuple):
        return st.just(json.loads(json.dumps(default))) | st.lists(shaped_like(default[0]), max_size=4)
    return st.just(default) | {bool: st.booleans(), int: st.integers(), float: st.floats() | st.integers(), str: st.text(max_size=5)}[type(default)]


def config_documents(default) -> st.SearchStrategy:
    """JSON objects over some of ``default``'s real field names, each value shaped like the field's default or any JSON value."""
    return st.fixed_dictionaries({}, optional={f.name: shaped_like(getattr(default, f.name)) | JSON for f in dataclasses.fields(default)})


@given(config_documents(config.RunConfig()) | JSON)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_config_document_parses_or_raises_typed(doc):
    try:
        cfg = config.parse_config(doc)
    except TemptError:
        return
    assert isinstance(cfg, config.RunConfig)


DEFAULT_CONFIG = (Path(__file__).resolve().parent.parent / "configs" / "default.json").read_bytes()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@given(
    st.lists(st.tuples(st.integers(0, len(DEFAULT_CONFIG)), st.integers(0, 255)), min_size=1, max_size=4),
    st.none() | st.integers(0, len(DEFAULT_CONFIG)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_config_file_loads_or_raises_typed(config_path, flips, cut):
    blob = bytearray(DEFAULT_CONFIG)
    for at, value in flips:
        blob[at % len(blob)] = value
    if cut is not None:
        del blob[cut:]
    config_path.write_bytes(bytes(blob))
    try:
        cfg = config.load_config(config_path)
    except TemptError:
        return
    assert isinstance(cfg, config.RunConfig)
