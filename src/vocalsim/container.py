"""Binary container for network weights, PCA parameters, checkpoints, and
feature caches.

Layout, all integers unsigned 32-bit little-endian:

    magic "OSWT" | version | layer_count
    per layer:   kind code | tensor_count | tensors
    named section: entry_count, then per entry: name_len | utf-8 name | tensor
    tensor:      ndim | dims... | row-major float32 little-endian data

Layer kind codes: conv1d=1, dense=2, relu=3, flatten=4.
"""

import contextlib
import math
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MAGIC = b"OSWT"
VERSION = 1
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


def _pack_tensor(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Header and float32 data of one tensor; the data is written straight
    from the array's buffer."""
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    head = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head, arr


class _Reader:
    """Parses a bytes object or a mapped file without taking views of it:
    headers are unpacked in place, names are copied out and tensor data is
    converted straight out of the buffer, so no view of a mapped file
    outlives the call that made it."""

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

    def tensor(self) -> np.ndarray:
        ndim = self.u32()
        if ndim > _MAX_NDIM:
            raise DataError(f"{self.path}: implausible tensor rank {ndim}")
        dims = struct.unpack_from(f"<{ndim}I", self.buf, self.skip(4 * ndim))
        count = math.prod(dims)
        offset = self.skip(4 * count)
        # one expression, so no name holds the buffer past the copy
        return (
            np.frombuffer(self.buf, dtype="<f4", count=count, offset=offset)
            .reshape(dims)
            .astype(np.float64)
        )


def write_container(
    path,
    layers: list[LayerDesc] = (),
    named: dict[str, np.ndarray] | None = None,
    version: int = VERSION,
) -> None:
    """Serialize layers plus named tensors. Named entries are written in
    sorted-name order so equal content produces byte-identical files.

    The file is written under a temporary name in the same directory and
    then renamed over `path`, so a reader never sees a half-written file,
    and a file another process has mapped is replaced, never rewritten
    under it. A failed write leaves the old file as it was."""
    named = named or {}
    parts = [MAGIC, struct.pack("<II", version, len(layers))]
    for layer in layers:
        parts.append(struct.pack("<II", KIND_TO_CODE[layer.kind], len(layer.tensors)))
        for arr in layer.tensors:
            parts.extend(_pack_tensor(np.asarray(arr)))
    parts.append(struct.pack("<I", len(named)))
    for name in sorted(named):
        raw = name.encode("utf-8")
        if not raw or len(raw) > _MAX_NAME:
            raise ValueError(f"bad tensor name {name!r}")
        parts.append(struct.pack("<I", len(raw)) + raw)
        parts.extend(_pack_tensor(np.asarray(named[name])))
    directory, base = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{base}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_container(path) -> tuple[list[LayerDesc], dict[str, np.ndarray]]:
    """Parse a container file; tensors come back as float64 arrays that own
    their data.

    The file is mapped read-only and each tensor is converted straight out
    of the page cache, so no copy of the whole file is made. The map is
    closed before returning, on error paths too.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # an empty file cannot be mapped; it parses as a truncated one
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    except OSError as exc:
        raise DataError(f"cannot read container {path}: {exc}") from exc
    try:
        return _parse(_Reader(buf, str(path)))
    finally:
        if size:
            buf.close()


def _parse(r: _Reader) -> tuple[list[LayerDesc], dict[str, np.ndarray]]:
    path = r.path
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: not a weight container (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    layers = []
    for _ in range(r.u32()):
        code = r.u32()
        if code not in CODE_TO_KIND:
            raise DataError(f"{path}: unknown layer kind code {code}")
        tensors = [r.tensor() for _ in range(r.u32())]
        layers.append(LayerDesc(CODE_TO_KIND[code], tensors))
    named = {}
    for _ in range(r.u32()):
        name_len = r.u32()
        if name_len == 0 or name_len > _MAX_NAME:
            raise DataError(f"{path}: implausible tensor name length {name_len}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: tensor name is not UTF-8 ({exc})") from exc
        named[name] = r.tensor()
    if r.pos != len(r.buf):
        raise DataError(f"{path}: {len(r.buf) - r.pos} trailing bytes after container")
    return layers, named
