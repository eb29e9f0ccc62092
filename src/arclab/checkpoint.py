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
it never holds a second copy of the weights. :func:`load` reads the file by
offset, front to back, with no buffer in between: one ``os.pread`` of a
fixed window at each record checks its head, which may read a bounded few
bytes past it, and one ``os.preadv`` reads that record's payload straight
into an array of its own if it was asked for; a payload it was not asked
for costs no read at all. It never holds the file's bytes beside the arrays,
and a load that keeps only the adapter bank allocates the bank's bytes, not
the backbone's. It opens without blocking and refuses anything but a
regular file, so a FIFO path fails at once instead of waiting for a writer.
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
_HEAD_WINDOW = 256  # bytes read at each record: the head of any name up to 216 bytes
_U32 = struct.Struct("<I")
_DIMS = tuple(struct.Struct(f"<{n}I") for n in range(_MAX_NDIM + 1))  # the dims of each rank


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


def _nonblocking_opener(path, flags: int) -> int:
    """An ``opener`` for :func:`open` that never waits in ``open`` itself: a
    FIFO with no writer opens at once instead of blocking until one comes.
    A directory still raises ``open``'s own IsADirectoryError naming ``path``."""
    return os.open(path, flags | os.O_NONBLOCK)


def _truncated(what: str, offset: int) -> CheckpointError:
    return CheckpointError(f"truncated while reading {what}", offset=offset)


def _read_payload(fd: int, dims: tuple[int, ...], at: int, what: str) -> np.ndarray:
    """The float64 payload of ``dims`` at byte ``at``, read by ``os.preadv``
    straight into an array of its own; one call, unless the kernel returns a
    payload above its 2 GiB per-read cap in parts."""
    out = np.empty(dims, dtype="<f8")
    view = memoryview(out).cast("B")
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], at + done)
        if n == 0:  # the file shrank after it was measured
            raise _truncated(what, at)
        done += n
    return out


def _read_records(fd: int, size: int, keep) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    """The header and the kept tensors of the checkpoint open as ``fd``, of
    ``size`` bytes; :func:`load` without the open and the error prefix.
    A field past what a read returned, where the file shrank after it was
    measured, raises the same error as a field past ``size``."""
    head = os.pread(fd, min(41, size), 0)

    def field(start: int, stop: int, what: str) -> bytes:
        if len(head) < stop:
            raise _truncated(what, start)
        return head[start:stop]

    magic = field(0, 4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    version = _U32.unpack(field(4, 8, "version"))[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported format version {version}", offset=4)
    fused_byte = field(8, 9, "fused flag")[0]
    if fused_byte not in (0, 1):
        raise CheckpointError(f"fused flag must be 0 or 1, got {fused_byte}", offset=8)
    digest = field(9, 41, "config digest")
    shapes: dict[str, tuple[int, ...]] = {}
    tensors: dict[str, np.ndarray] = {}
    at = 41
    while at < size:
        # one read of the head window; a second only for a name too long for it
        buf = os.pread(fd, min(_HEAD_WINDOW, size - at), at)
        got = len(buf)
        if got < 4:
            raise _truncated("tensor name length", at)
        name_len = _U32.unpack_from(buf)[0]
        if name_len == 0 or name_len > _MAX_NAME:
            raise CheckpointError(f"implausible name length {name_len}", offset=at)
        rank_end = 8 + name_len  # the head up to and with the rank
        if got == _HEAD_WINDOW < rank_end + 4 * _MAX_NDIM:
            buf += os.pread(fd, min(rank_end + 4 * _MAX_NDIM, size - at) - got, at + got)
            got = len(buf)
        if got < rank_end:
            raise _truncated("tensor name and rank", at + 4)
        try:
            name = buf[4:4 + name_len].decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}", offset=at) from exc
        if name in shapes:
            raise CheckpointError(f"duplicate tensor name {name!r}", offset=at)
        ndim = _U32.unpack_from(buf, rank_end - 4)[0]
        if ndim > _MAX_NDIM:
            raise CheckpointError(f"implausible rank {ndim} for {name!r}", offset=at)
        payload_at = at + rank_end + 4 * ndim
        if got < rank_end + 4 * ndim:
            raise _truncated(f"dims of {name!r}", at + rank_end)
        dims = _DIMS[ndim].unpack_from(buf, rank_end)
        if 0 in dims:
            raise CheckpointError(f"zero-sized dim in {name!r}: {list(dims)}", offset=at)
        shapes[name] = dims
        at = payload_at + 8 * math.prod(dims)
        if at > size:
            raise _truncated(f"payload of {name!r}", payload_at)
        if keep is None or keep(name):
            tensors[name] = _read_payload(fd, dims, payload_at, f"payload of {name!r}")
    return CheckpointHeader(version=version, fused=bool(fused_byte), config_digest=digest,
                            shapes=shapes), tensors


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

    The file is read by offset, front to back, with no buffer between the
    file and the arrays: one ``os.pread`` of the 41-byte file header; one
    ``os.pread`` of a 256-byte window at each record, which holds the whole
    head of any name up to 216 bytes (a longer name takes a second read, to
    the end of the longest head it allows); and one ``os.preadv`` of each
    kept payload, straight into its array. So each head is read once, each
    kept payload byte exactly once, and past a head at most the window less
    the head (for a longer name, the room of its unused dims). Only the
    records whose name ``keep`` accepts are returned (all of them when
    ``keep`` is None); the payloads of the others cost no read at all. A
    file damaged after some kept records is rejected once their payloads
    have been read, with the same error and offset as when nothing is kept,
    and those arrays are dropped: a failing load never holds more than a
    successful load of the same file. A read that comes back short, where
    the file shrank after it was measured, raises "truncated while reading"
    at the offset of the field it cut.

    ``path`` must be a regular file. The open does not block, so a FIFO or
    a device is refused with a CheckpointError naming it instead of being
    waited on; a directory raises ``open``'s IsADirectoryError.

    Each kept payload is read into its own float64 array, writeable and
    C-contiguous, that shares memory with no other returned tensor, so a
    tensor still referenced keeps only its own bytes alive. Payload-sized
    arrays, unlike one buffer for the whole file, fit into heap memory the
    process has already freed.
    """
    try:
        with open(path, "rb", buffering=0, opener=_nonblocking_opener) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise CheckpointError("not a regular file")
            return _read_records(fh.fileno(), info.st_size, keep)
    except CheckpointError as exc:
        exc.args = (f"{path}: {exc}",)  # the byte offset, if any, stays in .offset
        raise
