"""Binary container for network weights, PCA parameters, checkpoints, and
feature caches.

Layout, all integers unsigned 32-bit little-endian:

    magic "OSWT" | version | layer_count
    per layer:   kind code | tensor_count | tensors
    named section: entry_count, then per entry: name_len | utf-8 name | tensor
    tensor:      ndim | dims... | zero pad | row-major float32 little-endian data

The pad puts each tensor's data a multiple of 64 bytes from the file's
start, so a mapped tensor goes to the BLAS where it lies. Version-1 files,
unpadded, still read: the version picks the alignment (_ALIGNMENT).

Layer kind codes: conv1d=1, dense=2, relu=3, flatten=4.

read_container, the one reader, returns every tensor as a read-only float32
view of the mapped file, or as a copy made at load where a version-1 file
leaves it unaligned; tensor_names reads the headers alone.
"""

import math
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, replace_file

MAGIC = b"OSWT"
VERSION = 2
# the byte boundary each version puts tensor data on, from the file's start
_ALIGNMENT = {1: 1, 2: 64}
KIND_TO_CODE = {"conv1d": 1, "dense": 2, "relu": 3, "flatten": 4}
CODE_TO_KIND = {v: k for k, v in KIND_TO_CODE.items()}
_MAX_NDIM = 8
_MAX_NAME = 4096


@dataclass
class LayerDesc:
    """One serialized layer: a kind tag plus its tensors (weight, bias, ...)."""

    kind: str
    tensors: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in KIND_TO_CODE:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @property
    def weight(self) -> np.ndarray:
        return self.tensors[0]

    @property
    def bias(self) -> np.ndarray:
        return self.tensors[1]


def _pack_tensor(arr: np.ndarray, pos: int) -> tuple[bytes, np.ndarray]:
    """Header and pad, then float32 data, of one tensor whose header starts
    at byte pos; the data is written straight from the array's buffer."""
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    head = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + bytes(-(pos + len(head)) % _ALIGNMENT[VERSION]), arr


class _Reader:
    """Parses a bytes object or a mapped file into a layout: headers are
    unpacked in place, names are copied out, and each tensor is recorded as
    its dims and data offset. Parsing takes no view of the buffer, so a
    failed parse leaves nothing that holds a mapped file open."""

    def __init__(self, buf, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Advance past n bytes; return where they start."""
        if self.pos + n > len(self.buf):
            raise DataError(f"{self.path}: truncated container")
        start = self.pos
        self.pos += n
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.buf[start : self.pos]  # a copy, for bytes and mmap alike

    def u32(self) -> int:
        return struct.unpack_from("<I", self.buf, self.skip(4))[0]

    def tensor(self, align: int) -> tuple[tuple[int, ...], int]:
        """The dims of the next tensor and the offset of its aligned data."""
        ndim = self.u32()
        if ndim > _MAX_NDIM:
            raise DataError(f"{self.path}: implausible tensor rank {ndim}")
        dims = struct.unpack_from(f"<{ndim}I", self.buf, self.skip(4 * ndim))
        self.skip(-self.pos % align)
        return dims, self.skip(4 * math.prod(dims))


def write_container(
    path,
    layers: list[LayerDesc] = (),
    named: dict[str, np.ndarray] | None = None,
) -> None:
    """Serialize layers plus named tensors. Named entries are written in
    sorted-name order so equal content produces byte-identical files.

    The file replaces `path` whole (errors.replace_file), so a reader
    never sees a half-written file, and a file another process has mapped
    is replaced, never rewritten under it. A failed write leaves the old
    file as it was."""
    named = named or {}
    parts, pos = [], 0  # pos: the bytes in parts

    def put(*new) -> None:
        nonlocal pos
        parts.extend(new)
        pos += sum(memoryview(part).nbytes for part in new)

    put(MAGIC, struct.pack("<II", VERSION, len(layers)))
    for layer in layers:
        put(struct.pack("<II", KIND_TO_CODE[layer.kind], len(layer.tensors)))
        for arr in layer.tensors:
            put(*_pack_tensor(arr, pos))
    put(struct.pack("<I", len(named)))
    for name in sorted(named):
        raw = name.encode("utf-8")
        if not raw or len(raw) > _MAX_NAME:
            raise ValueError(f"bad tensor name {name!r}")
        put(struct.pack("<I", len(raw)) + raw)
        put(*_pack_tensor(named[name], pos))
    with replace_file(path, "wb") as fh:
        fh.writelines(parts)


def _open_map(path):
    """The file mapped read-only, or b"" for an empty file, which cannot be
    mapped and parses as a truncated one."""
    try:
        with open(path, "rb") as fh:
            if not os.fstat(fh.fileno()).st_size:
                return b""
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise DataError(f"cannot read container {path}: {exc}") from exc


def _close_map(buf) -> None:
    if not isinstance(buf, bytes):
        buf.close()


def read_container(path) -> tuple[list[LayerDesc], dict[str, np.ndarray]]:
    """Parse a container file; tensors come back as read-only float32 views
    of the mapped file, so none is cast and reading one costs only the
    pages it touches. A version-1 file's tensor off a 4-byte boundary is
    copied once, here, to an owned read-only array: every tensor reaches
    the BLAS aligned, and only a legacy file pays for it.

    The map stays open while any view lives and is closed when the last one
    is freed; a file that fails to parse has its map closed before the
    DataError is raised. The map is shared with the file: a file rewritten
    in place while a view lives changes what the view reads, and a truncated
    one raises SIGBUS when the view reads a page past the new end. So a
    file that may be mapped is replaced only by renaming a new one over it,
    as every writer here does (errors.replace_file); a view keeps the
    contents it was mapped with.
    """
    buf = _open_map(path)
    try:
        layers, named = _parse(_Reader(buf, str(path)))
    except BaseException:
        _close_map(buf)
        raise

    def view(dims, offset):
        arr = np.frombuffer(buf, "<f4", math.prod(dims), offset).reshape(dims)
        if not arr.flags.aligned:  # only a version-1 file's
            arr = arr.copy()
            arr.flags.writeable = False
        return arr

    return (
        [LayerDesc(kind, [view(*t) for t in tensors]) for kind, tensors in layers],
        {name: view(*t) for name, t in named.items()},
    )


def tensor_names(path) -> list[str]:
    """The names of a container file's named tensors, in file order, read
    from its headers alone: no tensor data is read. The whole layout is
    checked as read_container checks it, and the map is closed before
    returning."""
    buf = _open_map(path)
    try:
        return list(_parse(_Reader(buf, str(path)))[1])
    finally:
        _close_map(buf)


def _parse(r: _Reader) -> tuple[list, dict]:
    """The layout of a container: [(kind, [tensor])] and {name: tensor},
    each tensor a (dims, data offset) pair."""
    path = r.path
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: not a weight container (bad magic)")
    version = r.u32()
    if version not in _ALIGNMENT:
        raise DataError(f"{path}: unsupported container version {version}")
    align = _ALIGNMENT[version]
    layers = []
    for _ in range(r.u32()):
        code = r.u32()
        if code not in CODE_TO_KIND:
            raise DataError(f"{path}: unknown layer kind code {code}")
        layers.append((CODE_TO_KIND[code], [r.tensor(align) for _ in range(r.u32())]))
    named = {}
    for _ in range(r.u32()):
        name_len = r.u32()
        if name_len == 0 or name_len > _MAX_NAME:
            raise DataError(f"{path}: implausible tensor name length {name_len}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: tensor name is not UTF-8 ({exc})") from exc
        named[name] = r.tensor(align)
    if r.pos != len(r.buf):
        raise DataError(f"{path}: {len(r.buf) - r.pos} trailing bytes after container")
    return layers, named
