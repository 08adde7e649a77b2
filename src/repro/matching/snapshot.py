"""Persisted warm-state snapshots: materialized matching state survives processes.

The compiled runtime (:mod:`repro.matching.runtime`) turns Section-4
matchers into integer transition rows, but every process re-exercises
those rows from scratch: cold starts pay the full matcher preprocessing
plus one structure query per ``(state, symbol)`` pair.  The Li et al.
large-scale schema study (arXiv:1805.12503) shows real-world content
models repeat heavily across schemas — exactly the workload where the
state one warm process has materialized is the state the next thousand
processes will need.  This module persists it.

**Format v3** stores independent *sections* behind one CRC-checked
header + directory:

* ``ROWS`` — the lazy-DFA rows: per pattern a *fingerprint* (SHA-256
  over the reconstruction identity), its meta and every visited row,
  completed to alphabet width as an ``array('i')``, with rows written
  through a **file-level interning pool**.  Acceptance is not stored: it
  comes off the parse tree (Lemma 2.3);
* ``MEMO`` — the symbol-sequence entries of each pattern's verdict
  memo (:mod:`repro.matching.memo`): ``symbol-sequence → verdict``
  pairs that validators and list-word batches stored, keyed by the same
  pattern fingerprints (``str`` batch words are not written).

A reader skips a section tag it does not know without reading it, so a
damaged section the reader would not parse rejects nothing.

Every section carries its own CRC-32 in the directory, so corruption
**degrades per section**: a bit flip inside one section rejects only
that section (recorded in :attr:`Snapshot.section_errors`, counted by
the API layer) while the other still adopts.  Header/directory
corruption, truncation, or a foreign file reject the whole load.  In
either case the fallback is the normal lazy rebuild — **corruption can
never change a verdict** (the property suite flips random bits end to
end and checks exactly that).

A file of any other version (the older v1 and v2 formats included) is
one ``version`` rejection and a cold start.  Snapshots are written
atomically (temp file + ``os.replace``) and loaded via
``mmap``: adopted rows are zero-copy ``memoryview`` slices into the
page cache, so forked workers — and independent processes loading the
same file — share the row pages copy-on-write.

The user-facing surface lives in :mod:`repro.api`
(``save_snapshot`` / ``load_snapshot`` / ``stats()["snapshot"]``); the
serving layer adds a live lifecycle on top — a background
re-persist thread (:class:`repro.service.prefork.SnapshotRefresher`)
and a ``GET /snapshot`` endpoint streaming the current file so a fresh
host bootstraps from a running fleet.  Format details and compatibility
rules are documented in ``docs/snapshot.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: First 8 bytes of every snapshot file, whatever its version (the
#: ``version`` field right after it tells them apart); readers reject
#: anything but an exact match.
MAGIC = b"RPRODFA1"

#: The format version (u16 in the header); :func:`load` reads no other.
VERSION = 3

#: Fixed-size header: magic, version, itemsize, byteorder flag, section
#: count, directory CRC-32.  The CRC covers the directory bytes that
#: follow, so a flipped header/directory byte rejects the whole file
#: before any section is trusted.
_HEADER = struct.Struct("<8sHBBII")

#: One directory entry per section: 4-byte tag, payload CRC-32, absolute
#: file offset, payload length.
_SECTION = struct.Struct("<4sIQQ")

#: Section tags.  Unknown tags (a newer writer's) are skipped on load.
SECTION_ROWS = b"ROWS"
SECTION_MEMOS = b"MEMO"

#: Upper bound on the section count a reader will accept; the writer
#: emits at most two.
MAX_SECTIONS = 16

#: Dense rows are ``array('i')``; snapshots record the writer's itemsize
#: and readers reject a mismatch instead of reinterpreting the bytes.
ITEMSIZE = array("i").itemsize

#: 0 = little-endian writer, 1 = big-endian.  Row payloads are raw
#: ``array.tobytes()`` (native order), so a cross-endian load is invalid.
_BYTEORDER_FLAG = 0 if sys.byteorder == "little" else 1

#: Fields hashed into a pattern fingerprint, in canonical JSON order.
#: ``expr``/dialects/strategy pin how the pattern is reconstructed;
#: ``alphabet``/``positions``/``width`` pin the row encoding itself —
#: a parser or tree-builder change that shifts either one changes the
#: fingerprint and retires every stale snapshot automatically.
FINGERPRINT_FIELDS = (
    "expr",
    "parse_dialect",
    "key_kind",
    "dialect",
    "strategy",
    "compiled",
    "alphabet",
    "positions",
    "width",
)


class SnapshotError(Exception):
    """A snapshot failed validation; carries a machine-readable *reason*.

    Reasons are short tags (``"truncated"``, ``"checksum"``,
    ``"fingerprint"``, ``"alphabet-width"``, ``"row-bounds"``, ...)
    that the API layer's ``snapshot_rejected`` telemetry counts per
    kind.  The error is always recoverable: callers degrade to the
    normal lazy fill.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def pattern_fingerprint(meta: Mapping[str, object]) -> bytes:
    """SHA-256 digest of the reconstruction identity in *meta*.

    Hashes exactly :data:`FINGERPRINT_FIELDS` (canonical JSON, sorted
    keys), so two processes agree on a fingerprint iff they agree on how
    to rebuild the pattern *and* on the row encoding it produces.

    >>> meta = {"expr": "(ab)*", "parse_dialect": "paper", "key_kind": "text",
    ...         "dialect": "paper", "strategy": "auto", "compiled": True,
    ...         "alphabet": ["a", "b"], "positions": 4, "width": 2}
    >>> len(pattern_fingerprint(meta))
    32
    >>> pattern_fingerprint(meta) == pattern_fingerprint(dict(meta))
    True
    """
    try:
        identity = {name: meta[name] for name in FINGERPRINT_FIELDS}
    except KeyError as error:
        raise SnapshotError("meta", f"snapshot meta lacks field {error}") from None
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).digest()


@dataclass(frozen=True, slots=True)
class SnapshotEntry:
    """One pattern's persisted dense rows inside a loaded snapshot.

    ``rows()`` materializes ``{state: row}`` where each row is a
    zero-copy ``memoryview`` into the snapshot's mmap (int-typed, exactly
    ``meta["width"]`` entries) — handing them to
    :meth:`~repro.matching.runtime.CompiledRuntime.adopt_rows` shares the
    on-disk pages instead of copying them.
    """

    fingerprint: bytes
    meta: dict
    _row_refs: tuple[tuple[int, int], ...]
    _snapshot: "Snapshot"

    def rows(self) -> dict[int, memoryview]:
        return {state: self._snapshot.pool_row(index) for state, index in self._row_refs}

    @property
    def row_count(self) -> int:
        return len(self._row_refs)


@dataclass(frozen=True, slots=True)
class MemoEntry:
    """One pattern's persisted verdict-memo entries (``MEMO``).

    ``entries`` is a sequence of ``(symbol sequence, verdict)`` pairs;
    shape validation happens in
    :meth:`repro.matching.memo.AcceptanceMemo.adopt`, strictly before any
    mutation.
    """

    fingerprint: bytes
    meta: dict
    entries: tuple

    @property
    def entry_count(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class Snapshot:
    """A validated, mmap-backed snapshot file.

    The mmap stays open for the object's lifetime; adopted row views keep
    it (and therefore the shared pages) alive even if the Snapshot object
    itself is dropped.  ``section_errors`` records per-section validation
    failures — the sections that *did* validate are still populated
    (per-section degradation).
    """

    path: str
    entries: list[SnapshotEntry] = field(default_factory=list)
    memos: list[MemoEntry] = field(default_factory=list)
    #: tags of the sections that validated and parsed completely; the
    #: API layer counts a load as successful only when this is non-empty
    sections: list[str] = field(default_factory=list)
    section_errors: list[tuple[str, SnapshotError]] = field(default_factory=list)
    _mm: mmap.mmap | None = None
    _view: memoryview | None = None
    _pool_spans: list[tuple[int, int]] = field(default_factory=list)
    _pool_views: dict[int, memoryview] = field(default_factory=dict)

    def pool_row(self, index: int) -> memoryview:
        """The interned row at *index*, cast to ints (cached per pool slot)."""
        view = self._pool_views.get(index)
        if view is None:
            offset, length = self._pool_spans[index]
            view = self._view[offset : offset + length].cast("i")
            self._pool_views[index] = view
        return view

    @property
    def pool_size(self) -> int:
        """Number of distinct interned rows stored in the file."""
        return len(self._pool_spans)

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self.path)


class _Reader:
    """Bounds-checked cursor over a payload's bytes."""

    __slots__ = ("data", "offset")

    def __init__(self, data: memoryview):
        self.data = data
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if count < 0 or self.offset + count > len(self.data):
            raise SnapshotError("truncated", "payload ends mid-record")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def pad4(self) -> None:
        self.offset += (-self.offset) % 4
        if self.offset > len(self.data):
            raise SnapshotError("truncated", "payload ends inside padding")


def _write_padded(buffer: io.BytesIO, chunk: bytes) -> None:
    buffer.write(struct.pack("<I", len(chunk)))
    buffer.write(chunk)
    buffer.write(b"\x00" * ((-(4 + len(chunk))) % 4))


# ---------------------------------------------------------------------------
# section encoders
# ---------------------------------------------------------------------------


def _encode_rows(entries: Sequence[dict]) -> tuple[bytes, dict]:
    """The ``ROWS`` payload + stats."""
    pool: dict[tuple[int, ...], int] = {}
    pool_rows: list[tuple[int, ...]] = []
    encoded_entries: list[bytes] = []
    total_rows = 0
    for entry in entries:
        meta_bytes = json.dumps(entry["meta"], sort_keys=True).encode("utf-8")
        refs = io.BytesIO()
        rows: Mapping[int, Sequence[int]] = entry["rows"]
        for state in sorted(rows):
            key = tuple(rows[state])
            index = pool.get(key)
            if index is None:
                index = pool[key] = len(pool_rows)
                pool_rows.append(key)
            refs.write(struct.pack("<II", state, index))
            total_rows += 1
        body = io.BytesIO()
        fingerprint: bytes = entry["fingerprint"]
        if len(fingerprint) != 32:
            raise ValueError("fingerprints must be 32-byte SHA-256 digests")
        body.write(fingerprint)
        _write_padded(body, meta_bytes)
        body.write(struct.pack("<I", len(rows)))
        body.write(refs.getvalue())
        encoded_entries.append(body.getvalue())

    payload = io.BytesIO()
    payload.write(struct.pack("<I", len(pool_rows)))
    for key in pool_rows:
        payload.write(struct.pack("<I", len(key)))
        payload.write(array("i", key).tobytes())
    payload.write(struct.pack("<I", len(encoded_entries)))
    for body in encoded_entries:
        payload.write(body)
    stats = {
        "patterns": len(encoded_entries),
        "rows": total_rows,
        "pool_rows": len(pool_rows),
    }
    return payload.getvalue(), stats


def _encode_memos(entries: Sequence[dict]) -> tuple[bytes, dict]:
    """The ``MEMO`` payload: verdict-memo entries (JSON bodies)."""
    payload = io.BytesIO()
    payload.write(struct.pack("<I", len(entries)))
    total = 0
    for entry in entries:
        fingerprint: bytes = entry["fingerprint"]
        if len(fingerprint) != 32:
            raise ValueError("fingerprints must be 32-byte SHA-256 digests")
        payload.write(fingerprint)
        _write_padded(payload, json.dumps(entry["meta"], sort_keys=True).encode("utf-8"))
        body = [[list(word), bool(verdict)] for word, verdict in entry["entries"]]
        _write_padded(payload, json.dumps(body, sort_keys=True).encode("utf-8"))
        total += len(body)
    return payload.getvalue(), {"memo_patterns": len(entries), "memo_entries": total}


def _atomic_write(path: str | os.PathLike, blob: bytes) -> None:
    """Write *blob* to *path* atomically (temp file + ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write(
    path: str | os.PathLike,
    entries: Iterable[dict],
    memos: Iterable[dict] = (),
) -> dict:
    """Atomically write a snapshot file; returns a stats dict.

    *entries* is the dense-row section (``{"fingerprint": bytes, "meta":
    dict, "rows": {state: int-sequence}}`` — the shape
    :meth:`CompiledRuntime.export_rows` plus the API layer's meta builder
    produce); *memos* carry ``entries`` pairs
    (:meth:`AcceptanceMemo.export`).  An empty memo section is omitted
    from the file.  The file appears atomically via ``os.replace``, so a
    reader can never observe a half-written snapshot — at worst a stale
    complete one.
    """
    rows_payload, stats = _encode_rows(list(entries))
    sections: list[tuple[bytes, bytes]] = [(SECTION_ROWS, rows_payload)]
    memos = list(memos)
    if memos:
        payload, memo_stats = _encode_memos(memos)
        sections.append((SECTION_MEMOS, payload))
        stats.update(memo_stats)
    else:
        stats.update({"memo_patterns": 0, "memo_entries": 0})

    directory = io.BytesIO()
    offset = _HEADER.size + len(sections) * _SECTION.size
    for tag, payload in sections:
        directory.write(
            _SECTION.pack(tag, zlib.crc32(payload) & 0xFFFFFFFF, offset, len(payload))
        )
        offset += len(payload)
    directory_bytes = directory.getvalue()
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        ITEMSIZE,
        _BYTEORDER_FLAG,
        len(sections),
        zlib.crc32(directory_bytes) & 0xFFFFFFFF,
    )
    _atomic_write(path, header + directory_bytes + b"".join(p for _, p in sections))
    stats["sections"] = [tag.decode("ascii") for tag, _ in sections]
    stats["bytes"] = offset
    return stats


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _parse_rows(snapshot: Snapshot, data: memoryview) -> None:
    """Parse a rows payload into *snapshot* (pool spans index into *data*).

    Parses into locals and publishes onto *snapshot* only after the whole
    section validated — a failure mid-parse must reject the section as a
    unit, never leave a half-adopted prefix behind (the per-section
    degradation contract).
    """
    reader = _Reader(data)
    pool_count = reader.u32()
    pool_spans: list[tuple[int, int]] = []
    for _ in range(pool_count):
        ints = reader.u32()
        if ints > len(data) // ITEMSIZE:
            raise SnapshotError("malformed", "pool row longer than the payload")
        start = reader.offset
        reader.take(ints * ITEMSIZE)
        pool_spans.append((start, ints * ITEMSIZE))
    entry_count = reader.u32()
    entries: list[SnapshotEntry] = []
    for _ in range(entry_count):
        fingerprint = bytes(reader.take(32))
        meta = _read_meta(reader)
        row_count = reader.u32()
        refs: list[tuple[int, int]] = []
        for _ in range(row_count):
            state = reader.u32()
            index = reader.u32()
            if index >= pool_count:
                raise SnapshotError("malformed", f"row reference {index} outside the pool")
            refs.append((state, index))
        entries.append(
            SnapshotEntry(
                fingerprint=fingerprint,
                meta=meta,
                _row_refs=tuple(refs),
                _snapshot=snapshot,
            )
        )
    snapshot._view = data
    snapshot._pool_spans = pool_spans
    snapshot.entries = entries


def _read_meta(reader: _Reader) -> dict:
    meta_bytes = bytes(reader.take(reader.u32()))
    reader.pad4()
    try:
        meta = json.loads(meta_bytes)
    except ValueError as error:
        raise SnapshotError("malformed", f"snapshot meta is not JSON: {error}") from None
    if not isinstance(meta, dict):
        raise SnapshotError("malformed", "snapshot meta must be a JSON object")
    return meta


def _parse_memos(data: memoryview) -> list[MemoEntry]:
    reader = _Reader(data)
    entries: list[MemoEntry] = []
    for _ in range(reader.u32()):
        fingerprint = bytes(reader.take(32))
        meta = _read_meta(reader)
        body_bytes = bytes(reader.take(reader.u32()))
        reader.pad4()
        try:
            body = json.loads(body_bytes)
        except ValueError as error:
            raise SnapshotError("malformed", f"memo body is not JSON: {error}") from None
        if not isinstance(body, list):
            raise SnapshotError("malformed", "memo body must be a JSON list")
        entries.append(MemoEntry(fingerprint=fingerprint, meta=meta, entries=tuple(body)))
    return entries


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _open_mapped(path: str) -> mmap.mmap:
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise SnapshotError("missing", f"cannot open snapshot {path!r}: {error}") from None
    with handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as error:  # empty file or mmap failure
            raise SnapshotError("truncated", f"cannot map snapshot {path!r}: {error}") from None


def load(path: str | os.PathLike) -> Snapshot:
    """mmap and validate a snapshot file; raises :class:`SnapshotError`.

    Validation order matters for the corruption tests: size/magic/version
    and the machine-compatibility fields are checked before any checksum,
    and checksums before structural parsing, so every class of corruption
    maps to one stable ``reason`` tag.  File-level failures (truncation,
    bad magic/version, header corruption) raise; a *section* whose own
    CRC or structure fails is recorded in :attr:`Snapshot.section_errors`
    while the remaining sections load — per-section degradation is the
    designed behaviour.
    """
    path = os.fspath(path)
    mm = _open_mapped(path)
    if len(mm) < 12:  # magic + version + machine-compat bytes
        raise SnapshotError("truncated", f"{path!r} is shorter than the snapshot header")
    if bytes(mm[:8]) != MAGIC:
        raise SnapshotError("magic", f"{path!r} is not a repro snapshot")
    (version,) = struct.unpack_from("<H", mm, 8)
    if version != VERSION:
        raise SnapshotError("version", f"snapshot version {version} (expected {VERSION})")
    if len(mm) < _HEADER.size:
        raise SnapshotError("truncated", f"{path!r} is shorter than the snapshot header")
    _magic, _version, itemsize, byteorder, section_count, directory_crc = _HEADER.unpack_from(
        mm, 0
    )
    if itemsize != ITEMSIZE:
        raise SnapshotError("itemsize", f"row itemsize {itemsize} (expected {ITEMSIZE})")
    if byteorder != _BYTEORDER_FLAG:
        raise SnapshotError("byte-order", "snapshot was written on a different-endian machine")
    if section_count > MAX_SECTIONS:
        raise SnapshotError("malformed", f"implausible section count {section_count}")
    directory_end = _HEADER.size + section_count * _SECTION.size
    if len(mm) < directory_end:
        raise SnapshotError("truncated", f"{path!r} ends inside the section directory")
    view = memoryview(mm)
    directory_bytes = view[_HEADER.size : directory_end]
    if zlib.crc32(directory_bytes) & 0xFFFFFFFF != directory_crc:
        raise SnapshotError("checksum", f"directory CRC mismatch in {path!r}")
    sections: list[tuple[bytes, int, int, int]] = []
    total = 0
    for index in range(section_count):
        tag, crc, offset, length = _SECTION.unpack_from(directory_bytes, index * _SECTION.size)
        if offset < directory_end or offset + length > len(mm):
            raise SnapshotError("truncated", f"section {tag!r} extends past the file")
        sections.append((tag, crc, offset, length))
        total += length
    if directory_end + total != len(mm):
        raise SnapshotError(
            "truncated", f"sections cover {total} bytes but the file has {len(mm) - directory_end}"
        )

    snapshot = Snapshot(path=path)
    snapshot._mm = mm
    seen: set[bytes] = set()
    for tag, crc, offset, length in sections:
        try:
            if tag in seen:
                raise SnapshotError("malformed", f"duplicate section {tag!r}")
            seen.add(tag)
            if tag not in (SECTION_ROWS, SECTION_MEMOS):
                # Unknown tags are skipped unread, CRC included: a newer
                # writer may add sections this reader does not understand.
                continue
            data = view[offset : offset + length]
            if zlib.crc32(data) & 0xFFFFFFFF != crc:
                raise SnapshotError("checksum", f"CRC mismatch in section {tag!r}")
            if tag == SECTION_ROWS:
                _parse_rows(snapshot, data)
            else:
                snapshot.memos = _parse_memos(data)
            snapshot.sections.append(tag.decode("ascii"))
        except SnapshotError as error:
            snapshot.section_errors.append((tag.decode("ascii", "replace"), error))
    return snapshot


def describe_file(path: str | os.PathLike) -> dict:
    """Header/directory summary of a snapshot file (no payload parsing).

    Returns ``{"format": version, "bytes": size, "sections": [{"tag",
    "offset", "length"}, ...]}``.  Used by the section-targeting
    corruption tests and handy for operators inspecting a live
    snapshot; raises :class:`SnapshotError` on a file of another version
    or one too damaged to carry a directory.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        # Only the header and directory are needed — never the payload,
        # which for a fleet snapshot can run to hundreds of megabytes.
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(_HEADER.size)
        if len(head) < 12 or head[:8] != MAGIC:
            raise SnapshotError("magic", f"{path!r} is not a repro snapshot")
        (version,) = struct.unpack_from("<H", head, 8)
        if version != VERSION:
            raise SnapshotError("version", f"snapshot version {version} (expected {VERSION})")
        if len(head) < _HEADER.size:
            raise SnapshotError("truncated", f"{path!r} is shorter than the snapshot header")
        section_count = _HEADER.unpack_from(head, 0)[4]
        directory = handle.read(section_count * _SECTION.size)
        if len(directory) < section_count * _SECTION.size:
            raise SnapshotError("truncated", f"{path!r} ends inside the section directory")
    sections = []
    for index in range(section_count):
        tag, _crc, offset, length = _SECTION.unpack_from(directory, index * _SECTION.size)
        sections.append(
            {"tag": tag.decode("ascii", "replace"), "offset": offset, "length": length}
        )
    return {"format": version, "bytes": size, "sections": sections}
