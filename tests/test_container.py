"""Round-trip and corruption tests for the OSWT weight container."""

import gc
import mmap
import re
import struct
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalsim import container as container_module
from vocalsim import errors as errors_module
from vocalsim.container import (
    KIND_TO_CODE,
    LayerDesc,
    map_container,
    read_container,
    tensor_names,
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
    path.write_bytes(b"OSWT" + struct.pack("<II", 9, 0) + struct.pack("<I", 0))
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


def record_maps(monkeypatch) -> list:
    """Every map the container module makes, as it is made."""
    maps = []

    def recording_mmap(*args, **kwargs):
        maps.append(mmap.mmap(*args, **kwargs))
        return maps[-1]

    fake = SimpleNamespace(mmap=recording_mmap, ACCESS_READ=mmap.ACCESS_READ)
    monkeypatch.setattr(container_module, "mmap", fake)
    return maps


@pytest.mark.parametrize("cut", [None, 3, 30, 40])
def test_file_map_closed_on_every_path(tmp_path, monkeypatch, cut):
    path = tmp_path / "net.oswt"
    write_container(path, [LayerDesc("dense", [np.ones((4, 4)), np.zeros(4)])], {"a": np.ones(2)})
    if cut is not None:
        path.write_bytes(path.read_bytes()[:cut])
    maps = record_maps(monkeypatch)
    for read in (read_container, map_container):
        if cut is None:
            read(path)
        else:
            with pytest.raises(DataError, match="truncated"):
                read(path)
    # a mapped read that succeeds leaves its map to its views, which close
    # it when freed (test_mapped_views_hold_the_map_open)
    closed = maps[:1] if cut is None else maps
    assert len(maps) == 2 and all(m.closed for m in closed)


@pytest.mark.parametrize("cut", [None, 30, 40])
def test_tensor_names_read_headers_only(tmp_path, monkeypatch, cut):
    path = tmp_path / "net.oswt"
    named = {"b/mfcc": np.ones((3, 2)), "a/text": np.ones(4)}
    write_container(path, [LayerDesc("dense", [np.ones((4, 4)), np.zeros(4)])], named)
    if cut is not None:
        path.write_bytes(path.read_bytes()[:cut])
    maps = record_maps(monkeypatch)
    monkeypatch.setattr(np, "frombuffer", None)  # no tensor is viewed, so none is read
    if cut is None:
        assert tensor_names(path) == ["a/text", "b/mfcc"]
    else:
        with pytest.raises(DataError, match="truncated"):
            tensor_names(path)
    assert len(maps) == 1 and maps[0].closed


def test_mapped_views_hold_the_map_open(tmp_path, monkeypatch):
    path = tmp_path / "net.oswt"
    w = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_container(path, [LayerDesc("dense", [w, np.ones(3)])], {"s": np.float32(2.0)})
    maps = record_maps(monkeypatch)
    layers, named = map_container(path)
    mapped = weakref.ref(maps.pop())
    arrays = layers[0].tensors + [named["s"]]
    del layers, named
    for arr in arrays:
        assert arr.dtype == np.float32 and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0, 0] = 7.0
    # a replaced and unlinked file still backs the views
    write_container(path, [LayerDesc("dense", [-w, np.zeros(3)])], {"s": np.float32(5.0)})
    path.unlink()
    gc.collect()
    assert not mapped().closed
    np.testing.assert_array_equal(arrays[0], w)
    np.testing.assert_array_equal(arrays[1], np.ones(3))
    assert float(arrays[2]) == 2.0
    arrays.pop(0)
    assert mapped() is not None  # the others still hold it
    del arrays, arr
    gc.collect()
    assert mapped() is None  # freed, and so unmapped


def test_mapped_read_equals_owned_read(tmp_path):
    rng = np.random.default_rng(1)
    layers = [LayerDesc("conv1d", [rng.normal(size=(3, 2, 5)), rng.normal(size=3)])]
    named = {"odd-length-name": rng.normal(size=(7,)), "x": np.float32(3.5), "e": np.zeros((0, 4))}
    path = tmp_path / "net.oswt"
    write_container(path, layers + [LayerDesc("relu")], named)
    owned, mapped = read_container(path), map_container(path)
    assert [l.kind for l in mapped[0]] == [l.kind for l in owned[0]]
    for a, b in zip(owned[0][0].tensors, mapped[0][0].tensors):
        np.testing.assert_array_equal(a, b)
        assert a.shape == b.shape
    assert set(mapped[1]) == set(owned[1])
    for name, arr in owned[1].items():
        assert arr.shape == mapped[1][name].shape
        np.testing.assert_array_equal(arr, mapped[1][name])


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """A path to overwrite, and the bytes of a container with every section:
    two layers, one without tensors, and named tensors of ranks 0 to 3."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.oswt"
    write_container(
        path,
        [LayerDesc("dense", [np.ones((3, 2)), np.zeros(3)]), LayerDesc("flatten")],
        {"a": np.float32(1.0), "bb": np.arange(4.0), "ccc": np.ones((2, 1, 2))},
    )
    return path, path.read_bytes()


_fuzz = settings(max_examples=150, deadline=None)


@_fuzz
@given(at=st.integers(0, 1 << 16))
def test_fuzz_truncation_is_data_error(fuzz_file, at):
    path, base = fuzz_file
    path.write_bytes(base[: at % len(base)])
    for read in (read_container, map_container):
        with pytest.raises(DataError):
            read(path)


@_fuzz
@given(
    flips=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), min_size=1, max_size=4
    )
)
def test_fuzz_byte_flips_raise_only_data_error(fuzz_file, flips):
    path, base = fuzz_file
    raw = bytearray(base)
    for at, mask in flips:
        raw[at % len(raw)] ^= mask
    path.write_bytes(bytes(raw))
    for read in (read_container, map_container):
        try:
            read(path)
        except DataError:
            pass  # any other exception fails the test


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

    monkeypatch.setattr(errors_module, "open", failing_open, raising=False)
    with pytest.raises(DataError, match=re.escape(f"cannot write {path}: No space")):
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
