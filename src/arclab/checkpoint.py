"""Bit-exact named-tensor checkpoint format.

Layout, all little-endian:

    magic   4 bytes  b"ARCL"
    version u32
    fused   u8       0 or 1
    digest  32 bytes sha256 of the canonical run-config JSON
    then per tensor, in sorted name order:
        name_len u32, name utf-8, ndim u32, dims u32 each,
        payload float64 little-endian, row-major

There is no tensor count: records run to end of file. Any byte-level
inconsistency, a record cut short included, rejects the whole file before
anything is returned, but a file cut exactly at a record boundary reads as
the records before the cut.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"ARCL"
VERSION = 1
_MAX_NAME = 4096
_MAX_NDIM = 8


@dataclass(frozen=True)
class CheckpointHeader:
    version: int
    fused: bool
    config_digest: bytes


def config_digest(config: dict) -> bytes:
    """Digest of a JSON-serializable config under a canonical encoding."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def save(path, tensors, digest: bytes = b"\x00" * 32, fused: bool = False) -> None:
    if len(digest) != 32:
        raise CheckpointError(f"config digest must be 32 bytes, got {len(digest)}")
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<B", int(fused)), digest]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        encoded = name.encode()
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise CheckpointError(f"truncated while reading {what}", offset=self.offset)
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load(path) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint.

    Every field is checked and every returned record is complete; a
    malformed or short record raises CheckpointError with its byte offset.
    The format has no tensor count, so a file cut exactly at a record
    boundary returns the records before the cut: callers that need a full
    set check the names (``model.validate_weights``, the CLI's adapter
    check).
    """
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    version = reader.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported format version {version}", offset=4)
    fused_byte = reader.take(1, "fused flag")[0]
    if fused_byte not in (0, 1):
        raise CheckpointError(f"fused flag must be 0 or 1, got {fused_byte}", offset=8)
    digest = reader.take(32, "config digest")
    tensors: dict[str, np.ndarray] = {}
    while reader.offset < len(reader.blob):
        record_at = reader.offset
        name_len = reader.u32("tensor name length")
        if name_len == 0 or name_len > _MAX_NAME:
            raise CheckpointError(f"implausible name length {name_len}", offset=record_at)
        try:
            name = reader.take(name_len, "tensor name").decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}", offset=record_at) from exc
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}", offset=record_at)
        ndim = reader.u32("tensor rank")
        if ndim > _MAX_NDIM:
            raise CheckpointError(f"implausible rank {ndim} for {name!r}", offset=record_at)
        dims = [reader.u32(f"dim {i} of {name!r}") for i in range(ndim)]
        if any(d == 0 for d in dims):
            raise CheckpointError(f"zero-sized dim in {name!r}: {dims}", offset=record_at)
        count = int(np.prod(dims)) if dims else 1
        payload = reader.take(8 * count, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        tensors[name] = arr
    header = CheckpointHeader(version=version, fused=bool(fused_byte), config_digest=digest)
    return header, tensors
