import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vidtldr.harness import tensorio


def test_round_trip_2d(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 5)).astype(np.float32)
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, a)
    b = tensorio.load_tensor(path)
    assert b.dtype == np.float32
    assert_array_equal(a, b)


def test_round_trip_rank3_and_rank1(tmp_path):
    rng = np.random.default_rng(2)
    for shape in ((2, 3, 4), (7,)):
        a = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.vtdr"
        tensorio.dump_tensor(path, a)
        assert_array_equal(tensorio.load_tensor(path), a)


def test_header_layout(tmp_path):
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, a)
    blob = path.read_bytes()
    assert blob[:4] == b"VTDR"
    assert blob[4] == 1
    assert blob[5] == 2
    assert struct.unpack("<2I", blob[6:14]) == (2, 3)
    assert blob[14:] == a.tobytes(order="C")
    assert len(blob) == 14 + 24


def _old_dump_bytes(array) -> bytes:
    """The file bytes as dump_tensor once built them, in one bytes object."""
    a = np.ascontiguousarray(np.asarray(array, dtype="<f4"))
    header = tensorio.MAGIC + bytes([tensorio.VERSION, a.ndim])
    return header + struct.pack(f"<{a.ndim}I", *a.shape) + a.tobytes(order="C")


_RNG = np.random.default_rng(5)


@pytest.mark.parametrize(
    "array",
    [
        _RNG.normal(size=7).astype(np.float32),
        _RNG.normal(size=(3, 5)),  # float64
        _RNG.normal(size=(2, 3, 4)).astype(np.float32),
        _RNG.normal(size=(3, 4)).astype(">f4"),
        _RNG.normal(size=(4, 6)).astype(np.float32)[:, ::2],
        _RNG.normal(size=(3, 4, 5)).transpose(2, 0, 1),
        np.zeros((0, 3), dtype=np.float32),
        np.zeros((2, 0, 4)),
    ],
    ids=["rank1", "rank2-f64", "rank3", "big-endian", "strided", "transposed",
         "empty-rows", "empty-middle"],
)
def test_dump_bytes_equal_old_expression(tmp_path, array):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, array)
    assert path.read_bytes() == _old_dump_bytes(array)


def test_non_contiguous_input(tmp_path):
    a = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, a)
    assert_array_equal(tensorio.load_tensor(path), a)


def test_dump_rejects_scalar(tmp_path):
    with pytest.raises(ValueError):
        tensorio.dump_tensor(tmp_path / "t.vtdr", np.float32(3.0))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, np.ones((2, 2), np.float32))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        tensorio.load_tensor(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, np.ones((2, 2), np.float32))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        tensorio.load_tensor(path)


def test_load_rejects_truncations(tmp_path):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, np.ones((2, 2), np.float32))
    blob = path.read_bytes()
    for cut in (3, 5, 9, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated"):
            tensorio.load_tensor(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, np.ones((2, 2), np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        tensorio.load_tensor(path)


def test_load_rejects_zero_rank(tmp_path):
    path = tmp_path / "t.vtdr"
    path.write_bytes(b"VTDR" + bytes([1, 0]))
    with pytest.raises(ValueError, match="rank"):
        tensorio.load_tensor(path)


def test_loaded_array_is_writable(tmp_path):
    path = tmp_path / "t.vtdr"
    tensorio.dump_tensor(path, np.ones((2, 2), np.float32))
    out = tensorio.load_tensor(path)
    out[0, 0] = 5.0  # must not raise: a copy, not a frombuffer view
