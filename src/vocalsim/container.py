"""Binary container for network weights, PCA parameters, checkpoints, and
feature caches.

Layout, all integers unsigned 32-bit little-endian:

    magic "OSWT" | version | layer_count
    per layer:   kind code | tensor_count | tensors
    named section: entry_count, then per entry: name_len | utf-8 name | tensor
    tensor:      ndim | dims... | row-major float32 little-endian data

Layer kind codes: conv1d=1, dense=2, relu=3, flatten=4.
"""

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
    def __init__(self, buf: bytes, path: str):
        self.buf = memoryview(buf)  # slices share the file bytes, no copies
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise DataError(f"{self.path}: truncated container")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def tensor(self) -> np.ndarray:
        ndim = self.u32()
        if ndim > _MAX_NDIM:
            raise DataError(f"{self.path}: implausible tensor rank {ndim}")
        dims = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4")
        return data.reshape(dims).astype(np.float64)


def write_container(
    path,
    layers: list[LayerDesc] = (),
    named: dict[str, np.ndarray] | None = None,
    version: int = VERSION,
) -> None:
    """Serialize layers plus named tensors. Named entries are written in
    sorted-name order so equal content produces byte-identical files."""
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
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_container(path) -> tuple[list[LayerDesc], dict[str, np.ndarray]]:
    """Parse a container file; tensors come back as float64 arrays."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read container {path}: {exc}") from exc
    r = _Reader(buf, str(path))
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
        name = bytes(r.take(name_len)).decode("utf-8")
        named[name] = r.tensor()
    if r.pos != len(buf):
        raise DataError(f"{path}: {len(buf) - r.pos} trailing bytes after container")
    return layers, named
