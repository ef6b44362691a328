"""Round-trip and corruption tests for the OSWT weight container."""

import mmap
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from vocalsim import container as container_module
from vocalsim.container import (
    KIND_TO_CODE,
    LayerDesc,
    read_container,
    write_container,
)
from vocalsim.errors import DataError


def test_roundtrip_layers_and_named(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.normal(size=(16, 8, 3)).astype(np.float32)
    b = rng.normal(size=16).astype(np.float32)
    d = rng.normal(size=(4, 10)).astype(np.float32)
    layers = [
        LayerDesc("conv1d", [w, b]),
        LayerDesc("relu"),
        LayerDesc("flatten"),
        LayerDesc("dense", [d, np.zeros(4, dtype=np.float32)]),
    ]
    named = {"pca_mean": rng.normal(size=12).astype(np.float32), "opt/step": np.float32(7.0)}
    path = tmp_path / "net.oswt"
    write_container(path, layers, named)

    got_layers, got_named = read_container(path)
    assert [l.kind for l in got_layers] == ["conv1d", "relu", "flatten", "dense"]
    np.testing.assert_array_equal(got_layers[0].weight, w.astype(np.float64))
    np.testing.assert_array_equal(got_layers[0].bias, b.astype(np.float64))
    assert got_layers[1].tensors == []
    np.testing.assert_array_equal(got_layers[3].weight, d.astype(np.float64))
    assert set(got_named) == {"pca_mean", "opt/step"}
    assert got_named["opt/step"].shape == ()
    assert float(got_named["opt/step"]) == 7.0


def test_float64_input_is_stored_as_float32(tmp_path):
    x = np.array([1.0, 1.0 + 1e-12, np.pi])
    path = tmp_path / "t.oswt"
    write_container(path, [], {"x": x})
    _, named = read_container(path)
    np.testing.assert_array_equal(named["x"], x.astype(np.float32).astype(np.float64))


def test_sorted_names_give_byte_identical_files(tmp_path):
    a = np.arange(5, dtype=np.float32)
    b = np.ones(3, dtype=np.float32)
    p1, p2 = tmp_path / "1.oswt", tmp_path / "2.oswt"
    write_container(p1, [], {"beta": b, "alpha": a})
    write_container(p2, [], {"alpha": a, "beta": b})
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_container_roundtrip(tmp_path):
    path = tmp_path / "empty.oswt"
    write_container(path)
    layers, named = read_container(path)
    assert layers == [] and named == {}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.oswt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_container(path)


def test_truncated_file_rejected(tmp_path):
    good = tmp_path / "good.oswt"
    write_container(good, [LayerDesc("dense", [np.ones((4, 4), dtype=np.float32)])])
    raw = good.read_bytes()
    bad = tmp_path / "cut.oswt"
    bad.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(DataError, match="truncated"):
        read_container(bad)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "junk.oswt"
    write_container(path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataError, match="trailing"):
        read_container(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "v9.oswt"
    write_container(path, version=9)
    with pytest.raises(DataError, match="version"):
        read_container(path)


def test_unknown_kind_code_rejected(tmp_path):
    path = tmp_path / "kind.oswt"
    buf = b"OSWT" + struct.pack("<II", 1, 1) + struct.pack("<II", 99, 0) + struct.pack("<I", 0)
    path.write_bytes(buf)
    with pytest.raises(DataError, match="kind"):
        read_container(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_container(tmp_path / "absent.oswt")


def test_kind_codes_are_stable():
    assert KIND_TO_CODE == {"conv1d": 1, "dense": 2, "relu": 3, "flatten": 4}


def test_bad_layer_kind_rejected_at_construction():
    with pytest.raises(ValueError):
        LayerDesc("conv2d")


def test_empty_file_is_data_error(tmp_path):
    path = tmp_path / "zero.oswt"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="truncated"):
        read_container(path)


def test_cut_inside_tensor_header_is_truncated_not_buffer_error(tmp_path):
    path = tmp_path / "net.oswt"
    write_container(path, [LayerDesc("dense", [np.ones((4, 4), dtype=np.float32)])])
    raw = path.read_bytes()
    # after magic, version and layer count (12) and kind and tensor count (8):
    # cut inside the 4-byte ndim, then inside the 8 dims bytes
    for cut in (12 + 8 + 2, 12 + 8 + 4 + 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="truncated"):
            read_container(path)


def test_implausible_dims_are_truncated(tmp_path):
    # 8 dims of 2^32-1 overflow a 64-bit element count
    path = tmp_path / "big.oswt"
    buf = b"OSWT" + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"x"
    buf += struct.pack("<I", 8) + struct.pack("<8I", *[0xFFFFFFFF] * 8)
    path.write_bytes(buf)
    with pytest.raises(DataError, match="truncated"):
        read_container(path)


def test_non_utf8_name_is_data_error(tmp_path):
    path = tmp_path / "name.oswt"
    buf = b"OSWT" + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"\xff"
    path.write_bytes(buf + struct.pack("<I", 0))
    with pytest.raises(DataError, match="UTF-8"):
        read_container(path)


@pytest.mark.parametrize("cut", [None, 3, 30, 40])
def test_file_map_closed_on_every_path(tmp_path, monkeypatch, cut):
    path = tmp_path / "net.oswt"
    write_container(path, [LayerDesc("dense", [np.ones((4, 4)), np.zeros(4)])], {"a": np.ones(2)})
    if cut is not None:
        path.write_bytes(path.read_bytes()[:cut])
    maps = []

    def recording_mmap(*args, **kwargs):
        maps.append(mmap.mmap(*args, **kwargs))
        return maps[-1]

    fake = SimpleNamespace(mmap=recording_mmap, ACCESS_READ=mmap.ACCESS_READ)
    monkeypatch.setattr(container_module, "mmap", fake)
    if cut is None:
        read_container(path)
    else:
        with pytest.raises(DataError, match="truncated"):
            read_container(path)
    assert maps and all(m.closed for m in maps)


def test_read_arrays_are_owned_copies(tmp_path):
    path = tmp_path / "net.oswt"
    w = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_container(path, [LayerDesc("dense", [w, np.ones(3)])], {"s": np.float32(2.0)})
    layers, named = read_container(path)
    arrays = layers[0].tensors + [named["s"]]
    for arr in arrays:
        assert arr.dtype == np.float64 and arr.flags.owndata and arr.flags.writeable
    write_container(path, [LayerDesc("dense", [-w, np.zeros(3)])], {"s": np.float32(5.0)})
    path.unlink()
    np.testing.assert_array_equal(arrays[0], w.astype(np.float64))
    np.testing.assert_array_equal(arrays[1], np.ones(3))
    assert float(arrays[2]) == 2.0


class _FailingFile:
    """Writes the first `budget` parts through, then fails like a full disk."""

    def __init__(self, fh, budget: int):
        self.fh = fh
        self.budget = budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, parts):
        for part in parts:
            if self.budget == 0:
                raise OSError(28, "No space left on device")
            self.fh.write(part)
            self.budget -= 1


@pytest.mark.parametrize("budget", [0, 3, 6])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, budget):
    path = tmp_path / "net.oswt"
    write_container(path, [LayerDesc("dense", [np.ones((8, 8)), np.zeros(8)])], {"a": np.ones(5)})
    before = path.read_bytes()

    def failing_open(file, mode="r", *args, **kwargs):
        return _FailingFile(open(file, mode, *args, **kwargs), budget)

    monkeypatch.setattr(container_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_container(path, [LayerDesc("dense", [2 * np.ones((8, 8)), np.ones(8)])], {"a": np.zeros(5)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.oswt"]


def test_write_replaces_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "net.oswt"
    write_container(path, [], {"a": np.ones(3)})
    old_inode = path.stat().st_ino
    write_container(path, [], {"a": np.zeros(3)})
    _, named = read_container(path)
    np.testing.assert_array_equal(named["a"], np.zeros(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.oswt"]
    assert path.stat().st_ino != old_inode  # a new file, not a rewrite
