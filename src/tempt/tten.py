"""Binary tensor container.

Layout: magic "TTEN", u8 version, u8 dtype (0 = float32), u8 rank,
u32 dims[rank] little-endian, then the raw little-endian float32 payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CorruptTensorFile, VersionMismatch

MAGIC = b"TTEN"
VERSION = 1
DTYPE_F32 = 0


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = MAGIC + struct.pack("<BBB", VERSION, DTYPE_F32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return header + dims + arr.tobytes()


def tensor_from_bytes(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor record; returns (array, offset past the record)."""
    if len(data) - offset < 7:
        raise CorruptTensorFile("truncated tensor header")
    if data[offset : offset + 4] != MAGIC:
        raise CorruptTensorFile("bad tensor magic")
    version, dtype, rank = struct.unpack_from("<BBB", data, offset + 4)
    if version != VERSION:
        raise VersionMismatch(f"tensor container version {version}, expected {VERSION}")
    if dtype != DTYPE_F32:
        raise VersionMismatch(f"unknown tensor dtype code {dtype}")
    pos = offset + 7
    if len(data) - pos < 4 * rank:
        raise CorruptTensorFile("truncated tensor dims")
    shape = struct.unpack_from(f"<{rank}I", data, pos) if rank else ()
    pos += 4 * rank
    count = math.prod(shape)  # exact: an int64 product wraps (65536**4 is 0 in int64)
    nbytes = 4 * count
    if len(data) - pos < nbytes:
        raise CorruptTensorFile("truncated tensor payload")
    try:  # numpy refuses more than 64 dims, and a zero-size shape whose other dims overflow its index type
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=pos).reshape(shape).copy()
    except ValueError as exc:
        raise CorruptTensorFile(f"unusable tensor shape of rank {rank}: {exc}") from None
    return arr, pos + nbytes


def write_tten(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(arr))


def read_tten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    arr, end = tensor_from_bytes(data)
    if end != len(data):
        raise CorruptTensorFile(f"{len(data) - end} trailing bytes after tensor payload")
    return arr
