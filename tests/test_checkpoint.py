from __future__ import annotations

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import checkpoint
from arclab.checkpoint import MAGIC, VERSION, CheckpointHeader, config_digest, load, save
from arclab.errors import CheckpointError
from arclab.kernel import Rng


@pytest.fixture
def tensors():
    rng = Rng(1)
    return {
        "alpha": rng.normals((3, 4)),
        "beta.gamma": rng.normals((1, 7)),
        "delta": rng.normals((5, 2, 2)),
    }


class TestRoundTrip:
    def test_bitwise_identity(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        digest = config_digest({"a": 1})
        save(path, tensors, digest)
        header, loaded = load(path)
        assert header == CheckpointHeader(version=VERSION, fused=False, config_digest=digest)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_fused_flag_round_trips(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors, fused=True)
        header, _ = load(path)
        assert header.fused is True

    def test_deterministic_bytes(self, tmp_path, tensors) -> None:
        a, b = tmp_path / "a.arcl", tmp_path / "b.arcl"
        save(a, tensors)
        save(b, dict(reversed(list(tensors.items()))))  # insertion order irrelevant
        assert a.read_bytes() == b.read_bytes()

    def test_pinned_bytes(self, tmp_path) -> None:
        # digest computed with the writer that joined every record in memory
        rng = Rng(1)
        tensors = {
            "alpha": rng.normals((3, 4)),
            "beta.gamma": rng.normals((1, 7)),
            "delta": rng.normals((5, 2, 2)),
            "scalar": np.array(2.5),
            "special": np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-1074]]),
            "strided": np.arange(24.0).reshape(4, 6)[:, ::2],
            "ints": np.arange(6).reshape(2, 3),
            "f32": np.linspace(-1, 1, 5, dtype=np.float32),
            "na\u00efve": np.ones((1,) * 8),
        }
        path = tmp_path / "ck.arcl"
        save(path, tensors, config_digest({"a": 1}), fused=True)
        blob = path.read_bytes()
        assert len(blob) == 818
        assert hashlib.sha256(blob).hexdigest() == \
            "300e541e9033fff5c6ea900e01238cc980d94f64e0f797ffd3efb49bf4463fb2"
        _, loaded = load(path)
        assert loaded["scalar"].shape == (1,)  # a 0-d tensor is stored as shape (1,)

    def test_loaded_tensors_share_no_memory(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        _, loaded = load(path)
        arrays = list(loaded.values())
        for i, t in enumerate(arrays):
            assert t.flags.owndata and t.flags.c_contiguous and t.flags.aligned
            assert t.flags.writeable
            assert not any(np.shares_memory(t, other) for other in arrays[i + 1:])
        loaded["alpha"][...] = 7.0
        assert np.array_equal(loaded["beta.gamma"], tensors["beta.gamma"])
        assert np.array_equal(loaded["delta"], tensors["delta"])

    def test_picked_records(self, tmp_path, tensors) -> None:
        """``keep`` picks records by name: the header, and its shapes of
        every record, are the whole load's, and each kept tensor owns an
        array of its own size."""
        path = tmp_path / "ck.arcl"
        save(path, tensors, config_digest({"a": 1}), fused=True)
        whole_header, whole = load(path)
        assert whole_header.shapes == {name: tensors[name].shape for name in sorted(tensors)}
        for kept in ([], ["alpha"], ["alpha", "delta"], sorted(tensors)):
            header, loaded = load(path, keep=kept.__contains__)
            assert header == whole_header and header.shapes == whole_header.shapes
            assert list(loaded) == kept
            for name in kept:
                assert loaded[name].tobytes() == tensors[name].tobytes()
                assert loaded[name].flags.owndata and loaded[name].nbytes == tensors[name].nbytes

    def test_special_values_preserved(self, tmp_path) -> None:
        special = {"s": np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-1074]])}
        path = tmp_path / "ck.arcl"
        save(path, special)
        _, loaded = load(path)
        assert loaded["s"].tobytes() == special["s"].tobytes()


class TestRejection:
    def test_bad_magic(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load(path)

    def test_unknown_version(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load(path)

    @pytest.mark.parametrize("cut", [2, 8, 40, 60])
    def test_truncation_reports_offset(self, tmp_path, tensors, cut) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])
        with pytest.raises(CheckpointError) as info:
            load(path)
        assert info.value.offset is not None
        assert "offset" in str(info.value)
        assert str(info.value).startswith(f"{path}: truncated while reading ")

    def test_truncated_header(self, tmp_path) -> None:
        path = tmp_path / "ck.arcl"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointError):
            load(path)

    def test_implausible_name_length(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        blob = bytearray(path.read_bytes())
        blob[41:45] = (2**31).to_bytes(4, "little")  # first record's name length
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="name length"):
            load(path)

    def test_duplicate_name(self, tmp_path) -> None:
        import struct
        path = tmp_path / "ck.arcl"
        record = struct.pack("<I", 1) + b"x" + struct.pack("<II", 1, 1) + \
            np.zeros(1).astype("<f8").tobytes()
        path.write_bytes(MAGIC + struct.pack("<I", VERSION) + b"\x00" + b"\x00" * 32
                         + record + record)
        with pytest.raises(CheckpointError, match="duplicate"):
            load(path)
        with pytest.raises(CheckpointError, match="duplicate"):  # among records not read, too
            load(path, keep=lambda name: False)

    def test_bad_fused_flag(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        blob = bytearray(path.read_bytes())
        blob[8] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="fused"):
            load(path)

    def test_bad_digest_length_on_save(self, tmp_path, tensors) -> None:
        with pytest.raises(CheckpointError):
            save(tmp_path / "ck.arcl", tensors, digest=b"short")

    @pytest.mark.parametrize("digest, match", [
        ("x" * 32, "config digest must be bytes, got str"),
        (None, "config digest must be bytes, got NoneType"),
        (b"x" * 31, "config digest must be 32 bytes, got 31"),
    ], ids=["str", "none", "31-bytes"])
    def test_bad_digest_rejected_before_any_file(self, tmp_path, tensors, monkeypatch,
                                                 digest, match) -> None:
        def no_open(*args, **kwargs):
            raise AssertionError("save opened a file before checking the digest")

        monkeypatch.setattr("arclab.checkpoint.open", no_open, raising=False)
        with pytest.raises(CheckpointError, match=match):
            save(tmp_path / "ck.arcl", tensors, digest=digest)
        assert list(tmp_path.iterdir()) == []  # no checkpoint and no temp file

    def test_bytearray_digest_accepted(self, tmp_path, tensors) -> None:
        digest = bytearray(config_digest({"a": 1}))
        save(tmp_path / "ck.arcl", tensors, digest=digest)
        assert load(tmp_path / "ck.arcl")[0].config_digest == bytes(digest)

    @pytest.mark.parametrize("dims", [[2**32 - 1] * 8, [2**31, 2**31, 4], [3, 3]])
    def test_payload_length_checked_before_reading(self, tmp_path, dims) -> None:
        path = tmp_path / "ck.arcl"
        record = struct.pack(f"<I1sI{len(dims)}I", 1, b"x", len(dims), *dims) + bytes(64)
        path.write_bytes(MAGIC + struct.pack("<I", VERSION) + b"\x00" * 33 + record)
        with pytest.raises(CheckpointError, match="payload of 'x'") as info:
            load(path)
        assert info.value.offset == 41 + 9 + 4 * len(dims)


def _listing(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


class _SpyFile:
    """The file :func:`load` opens, recording the byte span of each read and
    the position before and after each seek. It offers only the methods it
    records, so a read by any other route fails the test."""

    def __init__(self, fh):
        self.fh = fh
        self.reads: list[tuple[int, int]] = []
        self.seeks: list[tuple[int, int]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.fh.close()

    def fileno(self) -> int:
        return self.fh.fileno()

    def read(self, n: int) -> bytes:
        start = self.fh.tell()
        out = self.fh.read(n)
        self.reads.append((start, start + len(out)))
        return out

    def readinto(self, buffer) -> int:
        start = self.fh.tell()
        n = self.fh.readinto(buffer)
        self.reads.append((start, start + n))
        return n

    def seek(self, offset: int, whence: int = 0) -> int:
        before = self.fh.tell()
        after = self.fh.seek(offset, whence)
        self.seeks.append((before, after))
        return after


def _merged(spans) -> list[tuple[int, int]]:
    """``spans`` in order, each one that starts where the last stops joined to it."""
    out: list[tuple[int, int]] = []
    for start, stop in spans:
        if out and out[-1][1] == start:
            out[-1] = (out[-1][0], stop)
        else:
            out.append((start, stop))
    return out


class TestOnePass:
    """:func:`load` reads a file once, front to back: the file header, then
    each record head, then that record's payload or a seek past it."""

    @pytest.fixture
    def spied(self, tmp_path, monkeypatch):
        """A checkpoint with a bank and a backbone, its tensors, and the
        spies of the files :func:`load` opens."""
        rng = Rng(3)
        tensors = {"arc.down": rng.normals((16, 4)), "arc.up": rng.normals((4, 16)),
                   "blocks.0.w": rng.normals((64, 64)), "cls": rng.normals((1, 16)),
                   "pos": rng.normals((5, 16))}  # blocks.0.w is 32 KiB, past any read buffer
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        spies: list[_SpyFile] = []

        def spy_open(*args, **kwargs):
            spies.append(_SpyFile(open(*args, **kwargs)))
            return spies[-1]

        monkeypatch.setattr(checkpoint, "open", spy_open, raising=False)
        return path, tensors, spies

    @staticmethod
    def _expected_reads(tensors, keep) -> list[tuple[int, int]]:
        spans, at = [(0, 41)], 41  # magic, version, fused flag and digest
        for name in sorted(tensors):
            t = tensors[name]
            head = 8 + len(name.encode()) + 4 * t.ndim
            spans.append((at, at + head))
            if keep is None or keep(name):
                spans.append((at + head, at + head + t.nbytes))
            at += head + t.nbytes
        return _merged(spans)

    def test_whole_load_reads_each_byte_once(self, spied) -> None:
        path, tensors, spies = spied
        _, loaded = load(path)
        [spy] = spies
        assert all(after >= before for before, after in spy.seeks), spy.seeks
        assert spy.reads == sorted(spy.reads)
        assert sum(stop - start for start, stop in spy.reads) == path.stat().st_size
        assert _merged(spy.reads) == [(0, path.stat().st_size)]
        assert all(loaded[name].tobytes() == t.tobytes() for name, t in tensors.items())

    def test_bank_only_load_reads_heads_and_bank(self, spied) -> None:
        """The bytes ``spectrum`` reads: the file header, every record head
        and the bank's payloads, each once; the backbone payloads are
        seeked past."""
        path, tensors, spies = spied
        keep = lambda n: n.startswith("arc.")  # noqa: E731 - the CLI's selection
        _, loaded = load(path, keep=keep)
        [spy] = spies
        assert all(after >= before for before, after in spy.seeks), spy.seeks
        assert spy.reads == sorted(spy.reads)
        assert _merged(spy.reads) == self._expected_reads(tensors, keep)
        heads = sum(8 + len(name) + 4 * t.ndim for name, t in tensors.items())
        bank = sum(t.nbytes for name, t in tensors.items() if keep(name))
        assert sum(stop - start for start, stop in spy.reads) == 41 + heads + bank
        assert list(loaded) == ["arc.down", "arc.up"]


class TestSaveContract:
    @pytest.mark.parametrize("name, tensor, match", [
        ("z", np.zeros((0, 3)), "'z' is empty"),
        ("", np.ones(2), "encodes to 0 bytes"),
        ("n" * 5000, np.ones(2), "encodes to 5000 bytes"),
        ("r", np.ones((1,) * 9), "'r' has rank 9"),
        ("c", np.array([1 + 2j]), "'c' has dtype complex128"),
        ("s", np.array(["1.0"]), "'s' has dtype <U3"),
        ("\ud800", np.ones(2), "not encodable"),
    ], ids=["empty-array", "empty-name", "long-name", "rank-9", "complex", "string", "surrogate"])
    def test_unloadable_tensor_rejected_before_writing(self, tmp_path, tensors, name,
                                                       tensor, match) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match=match):
            save(path, {**tensors, name: tensor})
        assert path.read_bytes() == before
        assert _listing(tmp_path) == ["ck.arcl"]

    @pytest.mark.parametrize("extra, match", [
        ({1: np.ones(2)}, "tensor name 1 is not a str"),
        ({"a": np.ones(2), b"b": np.ones(2)}, "tensor name b'b' is not a str"),
    ], ids=["int-only", "mixed"])
    def test_non_str_name_rejected_before_sorting(self, tmp_path, tensors, extra, match) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match=match):
            save(path, extra)
        assert path.read_bytes() == before
        assert _listing(tmp_path) == ["ck.arcl"]

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["os-error", "interrupt"])
    def test_failed_save_leaves_old_file(self, tmp_path, tensors, monkeypatch, failure) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        before = path.read_bytes()
        convert = np.ascontiguousarray
        calls = []

        def fail_on_second(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise failure
            return convert(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_second)
        with pytest.raises(type(failure)):
            save(path, {name: t + 1.0 for name, t in tensors.items()})
        monkeypatch.undo()
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert _listing(tmp_path) == ["ck.arcl"]

    def test_replaces_rather_than_rewrites(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        before = path.read_bytes()
        with open(path, "rb") as old:
            save(path, {"alpha": tensors["alpha"]})
            assert old.read() == before
        _, loaded = load(path)
        assert list(loaded) == ["alpha"]
        assert _listing(tmp_path) == ["ck.arcl"]

    def test_keeps_permissions_and_symlinks(self, tmp_path, tensors) -> None:
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        path.chmod(0o600)
        link = tmp_path / "link.arcl"
        link.symlink_to(path.name)
        save(link, {"alpha": tensors["alpha"]})
        assert link.is_symlink()
        assert path.stat().st_mode & 0o777 == 0o600
        assert list(load(path)[1]) == ["alpha"]
        assert _listing(tmp_path) == ["ck.arcl", "link.arcl"]

    def test_streamed_memory(self, tmp_path) -> None:
        gen = np.random.default_rng(0)
        tensors = {f"t{i}": gen.normal(size=(500, 500)) for i in range(8)}  # 2M values
        path = tmp_path / "ck.arcl"
        mib = 2**20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save(path, tensors)
            save_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, loaded = load(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < mib
        assert load_peak <= path.stat().st_size + mib
        assert all(np.array_equal(loaded[k], tensors[k]) for k in tensors)

    def test_picked_records_memory(self, tmp_path) -> None:
        """Loading only the adapter bank of a checkpoint with a 16 MB backbone
        allocates the bank's bytes, not the backbone's."""
        gen = np.random.default_rng(1)
        bank = {f"arc.{i}": gen.normal(size=(64, 50)) for i in range(3)}
        tensors = {**bank, **{f"enc.{i}": gen.normal(size=(500, 500)) for i in range(8)}}
        path = tmp_path / "ck.arcl"
        save(path, tensors)
        bank_bytes = sum(t.nbytes for t in bank.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            header, loaded = load(path, keep=lambda name: name.startswith("arc."))
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert load_peak < bank_bytes + 2**20
        assert list(loaded) == sorted(bank) and len(header.shapes) == len(tensors)
        assert all(loaded[k].tobytes() == bank[k].tobytes() for k in bank)


@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    """A three-record checkpoint, its bytes, its tensors and its record boundaries."""
    rng = Rng(5)
    tensors = {"a": rng.normals((2, 3)), "bb": rng.normals((4,)), "c.d": rng.normals((1, 2, 2))}
    path = tmp_path_factory.mktemp("fuzz") / "ck.arcl"
    save(path, tensors)
    ends = [41]
    for name in sorted(tensors):
        t = tensors[name]
        ends.append(ends[-1] + 8 + len(name) + 4 * t.ndim + 8 * t.size)
    return path, path.read_bytes(), tensors, ends


def _middle(name: str) -> bool:
    return name == "bb"


def _load_both(path):
    """``load(path)``, checked against a load that keeps only the middle
    record: both raise the same CheckpointError at the same offset, or both
    return the same header and record shapes, and the middle record's bits."""
    try:
        header, tensors = load(path)
    except CheckpointError as exc:
        with pytest.raises(CheckpointError) as info:
            load(path, keep=_middle)
        assert (str(info.value), info.value.offset) == (str(exc), exc.offset)
        raise
    picked_header, picked = load(path, keep=_middle)
    assert picked_header == header and picked_header.shapes == header.shapes
    assert list(picked) == [name for name in tensors if _middle(name)]
    for name, t in picked.items():
        assert t.tobytes() == tensors[name].tobytes()
    return header, tensors


class TestDamagedFiles:
    """A damaged file loads or raises CheckpointError: never another
    exception, and the same one when only the middle record is kept."""

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(0, 400))
    def test_truncation(self, valid_file, cut) -> None:
        path, blob, tensors, ends = valid_file
        cut = min(cut, len(blob))
        damaged = path.with_name("cut.arcl")
        damaged.write_bytes(blob[:cut])
        try:
            _, loaded = _load_both(damaged)
        except CheckpointError as exc:
            assert cut not in ends and exc.offset is not None
            return
        kept = ends.index(cut)
        assert list(loaded) == sorted(tensors)[:kept]
        for name, t in loaded.items():
            assert t.tobytes() == tensors[name].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(at=st.integers(0, 400), mask=st.integers(1, 255))
    def test_byte_flip(self, valid_file, at, mask) -> None:
        path, blob, _, _ = valid_file
        damaged = bytearray(blob)
        damaged[at % len(blob)] ^= mask
        flipped = path.with_name("flip.arcl")
        flipped.write_bytes(bytes(damaged))
        try:
            _load_both(flipped)
        except CheckpointError:
            pass

    def test_every_cut(self, valid_file, tmp_path) -> None:
        """A cut at a record boundary loads the records before it; any other
        cut raises naming the path and an offset inside the cut record."""
        path, blob, tensors, ends = valid_file
        starts = [0] + ends  # the 41-byte file header, then each record
        damaged = tmp_path / "cut.arcl"
        for cut in range(len(blob) + 1):
            damaged.write_bytes(blob[:cut])
            if cut in ends:
                _, loaded = _load_both(damaged)
                assert list(loaded) == sorted(tensors)[: ends.index(cut)], cut
                continue
            with pytest.raises(CheckpointError) as info:
                _load_both(damaged)
            k = max(i for i, start in enumerate(starts) if start <= cut)
            assert str(info.value).startswith(f"{damaged}: truncated while reading "), cut
            assert starts[k] <= info.value.offset <= cut < starts[k + 1], cut

    @settings(max_examples=300, deadline=None)
    @given(record=st.integers(0, 2), at=st.integers(0, 63), data=st.binary(min_size=1, max_size=8))
    def test_overwritten_record_head(self, valid_file, record, at, data) -> None:
        """Any bytes written over a record head load or raise CheckpointError."""
        path, blob, tensors, ends = valid_file
        t = tensors[sorted(tensors)[record]]
        head = 8 + len(sorted(tensors)[record]) + 4 * t.ndim
        start = ends[record] + at % head
        data = data[: ends[record] + head - start]  # the head's bytes only
        damaged = bytearray(blob)
        damaged[start : start + len(data)] = data
        assert len(damaged) == len(blob)
        written = path.with_name("head.arcl")
        written.write_bytes(bytes(damaged))
        try:
            _, loaded = _load_both(written)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{written}: ") and exc.offset is not None
            return
        assert sum(8 * a.size for a in loaded.values()) <= len(damaged)


class TestDigest:
    def test_canonicalization(self) -> None:
        assert config_digest({"b": 1, "a": 2}) == config_digest({"a": 2, "b": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({})) == 32
