"""Fuzzed readers: any bytes give a value or a typed error, never a bare exception."""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from tempt import model, tten
from tempt.errors import TemptError

# 2**31 and 2**32 - 1 overflow numpy's index type once two of them multiply
DIMS = st.sampled_from([0, 1, 2, 7, 2**31, 2**32 - 1])


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
