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

Both directions stream. :func:`save` writes each payload straight from its
array into a temp file beside the target and renames it over the target, so
it never holds a second copy of the weights. :func:`load` reads the file once,
front to back: it checks each record head, then reads that record's payload
into an array of its own if it was asked for, or seeks past it if not. It
never holds the file's bytes beside the arrays, and a load that keeps only
the adapter bank allocates the bank's bytes, not the backbone's.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

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
    # the dims of every record in the file, in file order, whether its payload was read or not
    shapes: dict[str, tuple[int, ...]] = field(default_factory=dict, compare=False)


def config_digest(config: dict) -> bytes:
    """Digest of a JSON-serializable config under a canonical encoding."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def _record_head(name: str, tensor) -> tuple[bytes, np.ndarray]:
    """The bytes before ``tensor``'s payload, and the array to write after them.

    Rejects, naming the tensor, every record :func:`load` would refuse and
    every array that float64 cannot hold.
    """
    try:
        encoded = name.encode()
    except UnicodeEncodeError as exc:
        raise CheckpointError(f"tensor name {name!r} is not encodable as UTF-8: {exc}") from exc
    if not 0 < len(encoded) <= _MAX_NAME:
        raise CheckpointError(
            f"tensor name {name[:64]!r} encodes to {len(encoded)} bytes; "
            f"it must be 1 to {_MAX_NAME}")
    arr = np.atleast_1d(tensor)  # a 0-d array is stored with shape (1,), as it always was
    if not np.can_cast(arr.dtype, np.float64, casting="same_kind"):
        raise CheckpointError(f"tensor {name!r} has dtype {arr.dtype}, which float64 cannot hold")
    if arr.ndim > _MAX_NDIM:
        raise CheckpointError(f"tensor {name!r} has rank {arr.ndim}; at most {_MAX_NDIM} is stored")
    if 0 in arr.shape:
        raise CheckpointError(f"tensor {name!r} is empty: shape {arr.shape}")
    head = struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
    return head, arr


def replace_file(path, write: Callable[[BinaryIO], None]) -> None:
    """Give ``path`` the bytes ``write(fh)`` writes into the binary file ``fh``, atomically.

    ``fh`` is a hidden temp file beside the target, created exclusively,
    which then replaces the target with ``os.replace``: a reader sees the
    old file or the new one, never a mix, and a failed write (an exception
    from ``write`` included) deletes the temp file and leaves the old file
    as it was. There is no fsync, so the rename is atomic against other
    processes, not durable across a power cut. The new file keeps the
    permissions of the one it replaces, and a symlinked ``path`` has its
    target replaced. A ``path`` that is a directory raises
    IsADirectoryError before the temp file exists; that error, and one from
    creating the temp file (a missing or non-directory parent), names
    ``path`` as given, not the temp file.
    """
    target = Path(os.path.realpath(path))  # through a symlink to its target, not over it
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def replace_csv(path, rows) -> None:
    """Write ``rows``, an iterable of rows of cells, as UTF-8 CSV at ``path``
    through :func:`replace_file`: ``csv.writer``'s bytes, and a failed write
    leaves an old file as it was."""
    def write(fh) -> None:
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            csv.writer(text).writerows(rows)

    replace_file(path, write)


def save(path, tensors, digest: bytes = b"\x00" * 32, fused: bool = False) -> None:
    """Write ``tensors`` to ``path`` atomically (:func:`replace_file`), one
    record at a time.

    Every record is checked before a byte is written, and a tensor the
    format cannot hold (a name that is not a nonempty str, an empty or
    complex array, rank above 8) raises CheckpointError naming it. A failed
    save leaves the old file as it was. Each payload is written from its own
    array, copied only if it is not C-contiguous little-endian float64.
    """
    if not isinstance(digest, (bytes, bytearray)):
        raise CheckpointError(f"config digest must be bytes, got {type(digest).__name__}")
    if len(digest) != 32:
        raise CheckpointError(f"config digest must be 32 bytes, got {len(digest)}")
    for name in tensors:
        if not isinstance(name, str):
            raise CheckpointError(f"tensor name {name!r} is not a str")
    records = [_record_head(name, tensors[name]) for name in sorted(tensors)]

    def write(fh) -> None:
        fh.write(struct.pack("<4sIB32s", MAGIC, VERSION, int(fused), digest))
        for head, arr in records:
            fh.write(head)
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))

    replace_file(path, write)


class _Reader:
    """Reads a checkpoint once, front to back, checking each step against the file size."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def _advance(self, n: int, what: str) -> int:
        """Move past the next ``n`` bytes, which must all be in the file; return where they start."""
        start = self.offset
        if start + n > self.size:
            raise CheckpointError(f"truncated while reading {what}", offset=start)
        self.offset += n
        return start

    def take(self, n: int, what: str) -> bytes:
        start = self._advance(n, what)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank after it was measured
            raise CheckpointError(f"truncated while reading {what}", offset=start)
        return out

    def skip(self, n: int, what: str) -> None:
        self._advance(n, what)
        self.fh.seek(self.offset)

    def read_floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next payload, of ``shape``, read into a float64 array of its own
        once the bounds check has passed."""
        start = self._advance(8 * math.prod(shape), what)
        out = np.empty(shape, dtype="<f8")
        if self.fh.readinto(memoryview(out).cast("B")) != out.nbytes:  # the file shrank
            raise CheckpointError(f"truncated while reading {what}", offset=start)
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load(path, keep: Callable[[str], bool] | None = None
         ) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint; return its header and tensors.

    Every field of every record is checked, whether ``keep`` picks the
    record or not, and every returned record is complete; a malformed or
    short record raises CheckpointError whose message starts with ``path``
    and gives the byte offset, the same error on every selection.
    Each length is checked against the file size before anything is
    allocated for it. The format has no tensor count, so a file cut exactly
    at a record boundary returns the records before the cut: callers that
    need a full set check the names (``adapters.check_shapes``, as the CLI
    does). The header's ``shapes`` lists every record's dims.

    The file is read once, front to back, each byte at most once. Only the
    records whose name ``keep`` accepts are returned (all of them when
    ``keep`` is None); the payloads of the others are seeked past, not
    read. A file damaged after some kept records is rejected once their
    payloads have been read, with the same error and offset as when nothing
    is kept, and those arrays are dropped: a failing load never holds more
    than a successful load of the same file.

    Each kept payload is read into its own float64 array, writeable and
    C-contiguous, that shares memory with no other returned tensor, so a
    tensor still referenced keeps only its own bytes alive. Payload-sized
    arrays, unlike one buffer for the whole file, fit into heap memory the
    process has already freed.
    """
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh)
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
            shapes: dict[str, tuple[int, ...]] = {}
            tensors: dict[str, np.ndarray] = {}
            while reader.offset < reader.size:
                record_at = reader.offset
                # a record head in three reads: name length; name and rank; dims
                name_len = reader.u32("tensor name length")
                if name_len == 0 or name_len > _MAX_NAME:
                    raise CheckpointError(f"implausible name length {name_len}", offset=record_at)
                encoded, ndim = struct.unpack(
                    f"<{name_len}sI", reader.take(name_len + 4, "tensor name and rank"))
                try:
                    name = encoded.decode()
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"tensor name is not UTF-8: {exc}", offset=record_at) from exc
                if name in shapes:
                    raise CheckpointError(f"duplicate tensor name {name!r}", offset=record_at)
                if ndim > _MAX_NDIM:
                    raise CheckpointError(f"implausible rank {ndim} for {name!r}", offset=record_at)
                dims = struct.unpack(f"<{ndim}I", reader.take(4 * ndim, f"dims of {name!r}"))
                if 0 in dims:
                    raise CheckpointError(f"zero-sized dim in {name!r}: {list(dims)}", offset=record_at)
                shapes[name] = dims
                if keep is None or keep(name):
                    tensors[name] = reader.read_floats(dims, f"payload of {name!r}")
                else:
                    reader.skip(8 * math.prod(dims), f"payload of {name!r}")
    except CheckpointError as exc:
        exc.args = (f"{path}: {exc}",)  # the byte offset, if any, stays in .offset
        raise
    header = CheckpointHeader(version=version, fused=bool(fused_byte), config_digest=digest,
                              shapes=shapes)
    return header, tensors
