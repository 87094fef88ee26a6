"""Binary tensor dumps: bit-exact float32 round-trips.

Format: magic "VTDR", version byte 0x01, u8 rank, rank little-endian
u32 dims, then the float32 payload little-endian row-major. Loading is
strict: wrong magic, wrong version, short files, and trailing bytes
are all rejected.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"VTDR"
VERSION = 1


def dump_tensor(path, array) -> None:
    """Write an array (any rank >= 1) as a VTDR file."""
    a = np.asarray(array, dtype="<f4")
    if a.ndim < 1 or a.ndim > 255:
        raise ValueError(f"rank {a.ndim} not supported")
    a = np.ascontiguousarray(a)
    if any(d >= 2**32 for d in a.shape):
        raise ValueError("dimension too large for u32 header")
    with open(path, "wb") as f:
        f.write(MAGIC + bytes([VERSION, a.ndim]) + struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(a.data)  # the C-ordered buffer itself, not a bytes copy of it


def load_tensor(path) -> np.ndarray:
    """Read a VTDR file back into a float32 array, validating strictly."""
    blob = Path(path).read_bytes()
    if len(blob) < 6:
        raise ValueError(f"{path}: truncated header")
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    if blob[4] != VERSION:
        raise ValueError(f"{path}: unsupported version {blob[4]}")
    rank = blob[5]
    if rank < 1:
        raise ValueError(f"{path}: rank must be at least 1")
    dims_end = 6 + 4 * rank
    if len(blob) < dims_end:
        raise ValueError(f"{path}: truncated dimension header")
    shape = struct.unpack(f"<{rank}I", blob[6:dims_end])
    count = 1
    for d in shape:
        count *= d
    expected = dims_end + 4 * count
    if len(blob) < expected:
        raise ValueError(f"{path}: truncated payload")
    if len(blob) > expected:
        raise ValueError(f"{path}: {len(blob) - expected} trailing bytes")
    data = np.frombuffer(blob, dtype="<f4", offset=dims_end, count=count)
    return data.reshape(shape).copy()
