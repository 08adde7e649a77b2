"""Process-wide pattern cache and snapshot persistence/telemetry.

Split out of :mod:`repro.api` so the facade stays a facade: this module
owns the two pieces of *process-wide* mutable state —

* :data:`PATTERN_CACHE` — the ``re``-style LRU of compiled patterns
  behind :func:`repro.compile` (:class:`PatternCache`, thread-safe,
  lock-free warm hits);
* :data:`SNAPSHOT_TELEMETRY` — the save/load/adoption counters behind
  ``repro.stats()["snapshot"]`` — plus the snapshot walk itself
  (:func:`save_snapshot` / :func:`load_snapshot`), which persists and
  re-adopts every warm pattern's materialized matching state (completed
  lazy-DFA rows and the symbol sequences of its verdict memo).

Engine state is read through the pattern's runtime, which owns the
pattern's one verdict memo, never forced: a pattern that has not matched
yet contributes nothing.

The public spellings stay on :mod:`repro.api` (``repro.save_snapshot``,
``repro.load_snapshot``, ``repro.stats``...); the private names live
here only.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from .errors import ReproError
from .matching.snapshot import SnapshotError
from .regex.ast import Regex
from .regex.parser import parse
from .regex.printer import to_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Pattern

#: Size of the module-level compile cache.  512 comfortably covers the
#: content models of the largest schemas in the Grijzenhout/Li corpora
#: while bounding memory for adversarial streams of distinct patterns.
COMPILE_CACHE_SIZE = 512


class PatternCache:
    """A thread-safe LRU of compiled patterns (replaces ``functools.lru_cache``).

    The ``lru_cache`` it replaces had a latent race with ``repro.purge``:
    eviction bookkeeping lived in a module global (``_build_count``) that a
    purge reset *before* ``cache_clear()`` ran, so a concurrent miss could
    finish its construction in between and re-insert into the supposedly
    cleared cache — eviction counts could even go negative.  Here every
    mutation — hit bookkeeping, the whole miss (count, build, insert,
    evict) and the purge (entries and counters) — happens under one
    re-entrant mutex, so a purge is strictly before or strictly after any
    insertion.

    Reads stay cheap — and never stall behind a build: the warm path
    probes the dictionary without any lock (a single ``dict.get``, atomic
    under the GIL), counts the hit under a dedicated counter mutex that no
    slow operation ever holds, and bumps the LRU recency only if the
    writer mutex is free right now (``acquire(blocking=False)``) — while a
    miss is constructing a large pattern, concurrent warm hits return
    immediately with at worst slightly stale recency ordering.  A probe
    that races a purge simply returns the still-valid pre-purge pattern to
    its caller without re-inserting it — in-flight work keeps its pattern,
    the cache stays empty.
    """

    __slots__ = ("maxsize", "lock", "_count_lock", "_entries", "hits", "misses", "insertions")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        #: writer mutex (entries + eviction); re-entrant so a build that
        #: (now or in the future) compiles a sub-pattern through
        #: ``repro.compile`` cannot self-deadlock
        self.lock = threading.RLock()
        #: counter mutex: held only for integer bumps and snapshots, never
        #: while building, so hit accounting cannot block on a slow miss.
        #: Lock order where both are taken: ``lock`` before ``_count_lock``.
        self._count_lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Pattern]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: successful constructions since the last purge; a failed build
        #: (syntax error) counts as a miss but inserts nothing, so the
        #: eviction count must be derived from insertions, not misses
        self.insertions = 0

    def _count_hit(self, key: tuple) -> None:
        with self._count_lock:
            self.hits += 1
        if self.lock.acquire(blocking=False):  # recency is best-effort
            try:
                self._entries.move_to_end(key)
            except KeyError:
                pass  # evicted/purged between probe and bump; see class docstring
            finally:
                self.lock.release()

    def get_or_build(self, key: tuple, build: Callable[[], "Pattern"]) -> "Pattern":
        pattern = self._entries.get(key)  # optimistic lock-free probe
        if pattern is not None:
            self._count_hit(key)
            return pattern
        with self.lock:
            pattern = self._entries.get(key)
            if pattern is not None:  # another thread built it while we waited
                with self._count_lock:
                    self.hits += 1
                self._entries.move_to_end(key)
                return pattern
            # Single-writer miss path: construction runs under the writer
            # lock, so concurrent misses for one key build once and purge
            # is atomic with respect to the insertion.
            with self._count_lock:
                self.misses += 1
            pattern = build()
            with self._count_lock:
                self.insertions += 1
            self._entries[key] = pattern
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return pattern

    def purge(self) -> None:
        with self.lock:
            with self._count_lock:
                self._entries.clear()
                self.hits = self.misses = self.insertions = 0

    def resize(self, maxsize: int) -> int:
        """Change the cache bound; returns the previous bound.

        Shrinking evicts the least-recently-used overflow immediately
        (under the writer lock, atomic with concurrent misses); growing
        just raises the bound.  In-flight matches keep any pattern they
        already hold — eviction only drops the cache's reference.
        """
        if maxsize < 1:
            raise ValueError("cache size must be >= 1")
        with self.lock:
            previous = self.maxsize
            self.maxsize = maxsize
            while len(self._entries) > maxsize:
                self._entries.popitem(last=False)
            return previous

    def items(self) -> list[tuple[tuple, "Pattern"]]:
        """A consistent (key, pattern) snapshot of the live entries."""
        with self.lock:
            return list(self._entries.items())

    def stats(self) -> dict[str, int]:
        with self._count_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.insertions - len(self._entries),
                "size": len(self._entries),
                "max_size": self.maxsize,
            }


#: The process-wide compile cache behind :func:`repro.compile`.
PATTERN_CACHE = PatternCache(COMPILE_CACHE_SIZE)


def compile_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the compile cache (tests and telemetry).

    ``evictions`` is derived: every successful construction inserts one
    entry and only LRU eviction removes one (``purge`` resets all
    counters), so evictions = insertions − live entries.  Failed compiles
    (syntax errors) count as misses but not insertions.  The snapshot is
    taken under the cache lock, so the counters are mutually consistent
    even while worker threads compile (``GET /stats`` on the validation
    service reads them mid-traffic).  Sustained growth of the eviction
    number is the signal to raise :data:`COMPILE_CACHE_SIZE` — see
    ``examples/xsd_validation.py`` for reading these under a real
    validation workload.

    This is the internal, warning-free entry point; the public surface
    is ``repro.stats()["pattern_cache"]``.
    """
    return PATTERN_CACHE.stats()


class SnapshotTelemetry:
    """Process-wide counters behind ``repro.stats()["snapshot"]`` (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.saves = 0
        self.loads = 0
        self.patterns_saved = 0
        self.rows_saved = 0
        self.memo_entries_saved = 0
        self.patterns_skipped = 0
        self.patterns_loaded = 0
        self.rows_loaded = 0
        self.memo_entries_loaded = 0
        self.snapshot_rejected = 0
        self.rejected_reasons: dict[str, int] = {}
        self.last_error: str | None = None

    def record_save(self, patterns: int, rows: int, skipped: int, memo_entries: int = 0) -> None:
        with self._lock:
            self.saves += 1
            self.patterns_saved += patterns
            self.rows_saved += rows
            self.patterns_skipped += skipped
            self.memo_entries_saved += memo_entries

    def record_load(self, patterns: int, rows: int, memo_entries: int = 0) -> None:
        with self._lock:
            self.loads += 1
            self.patterns_loaded += patterns
            self.rows_loaded += rows
            self.memo_entries_loaded += memo_entries

    def record_reject(self, reason: str, message: str) -> None:
        with self._lock:
            self.snapshot_rejected += 1
            self.rejected_reasons[reason] = self.rejected_reasons.get(reason, 0) + 1
            self.last_error = message

    def stats(self) -> dict:
        with self._lock:
            return {
                "saves": self.saves,
                "loads": self.loads,
                "patterns_saved": self.patterns_saved,
                "rows_saved": self.rows_saved,
                "memo_entries_saved": self.memo_entries_saved,
                "patterns_skipped": self.patterns_skipped,
                "patterns_loaded": self.patterns_loaded,
                "rows_loaded": self.rows_loaded,
                "memo_entries_loaded": self.memo_entries_loaded,
                "snapshot_rejected": self.snapshot_rejected,
                "rejected_reasons": dict(self.rejected_reasons),
                "last_error": self.last_error,
            }


SNAPSHOT_TELEMETRY = SnapshotTelemetry()


def snapshot_meta(key: tuple, pattern: "Pattern") -> dict | None:
    """The reconstruction identity of a cached pattern, or ``None``.

    A snapshot entry must let a *fresh* process rebuild the identical
    cache entry: same cache key, same parse tree, same row encoding.
    String-keyed patterns reuse their original text; AST-keyed ones
    (content models compiled by the DTD/XSD validators) are printed and
    re-parsed, and any expression whose text round-trip does not
    reproduce the exact AST is skipped rather than persisted wrongly.
    """
    expr, dialect, strategy, compiled = key
    if isinstance(expr, str):
        key_kind = "text"
        text = expr
        parse_dialect = dialect
        try:
            if parse(text, dialect=dialect) != pattern.expression:
                return None
        except ReproError:
            return None
    else:
        key_kind = "ast"
        for parse_dialect, printer_dialect in (("paper", "paper"), ("named", "named")):
            try:
                text = to_text(expr, dialect=printer_dialect)
                if parse(text, dialect=parse_dialect) == expr:
                    break
            except (ReproError, ValueError):
                continue
        else:
            return None
    alphabet = pattern.tree.alphabet.as_list()
    return {
        "expr": text,
        "parse_dialect": parse_dialect,
        "key_kind": key_kind,
        "dialect": dialect,
        "strategy": strategy,
        "compiled": bool(compiled),
        "alphabet": alphabet,
        "positions": len(pattern.tree.positions),
        "width": len(alphabet),
    }


def save_snapshot(path: str) -> dict:
    """Persist every warm pattern's materialized state to *path* (atomically).

    Walks the compile cache and writes one checksummed snapshot file
    (:func:`repro.matching.snapshot.write`) with up to two sections per
    the state each pattern holds:

    * lazy-DFA rows
      (:meth:`~repro.matching.runtime.CompiledRuntime.export_rows`; every
      visited row is completed first, so the snapshot replays with zero
      matcher delegations);
    * the symbol sequences of the runtime's verdict memo, which
      validators and list-word batches fill
      (:meth:`~repro.matching.memo.AcceptanceMemo.export`; ``str`` batch
      words are not written).

    Patterns with no materialized state in either section — or whose
    expression text does not round-trip — are skipped and counted.
    Returns ``{"path", "patterns", "rows", "pool_rows", "memo_patterns",
    "memo_entries", "sections", "bytes", "skipped"}``.
    """
    from .matching import snapshot as snapshot_format

    rows_entries = []
    memo_entries = []
    skipped = 0
    for key, pattern in PATTERN_CACHE.items():
        row_export = memo_export = None
        runtime = pattern._built_runtime()
        if runtime is not None:
            row_export = runtime.export_rows()
            if not row_export["rows"]:
                row_export = None
            memo_export = runtime.memo.export() or None
        if row_export is None and memo_export is None:
            skipped += 1
            continue
        meta = snapshot_meta(key, pattern)
        if meta is None:
            skipped += 1
            continue
        fingerprint = snapshot_format.pattern_fingerprint(meta)
        if row_export is not None:
            rows_entries.append(
                {"fingerprint": fingerprint, "meta": meta, "rows": row_export["rows"]}
            )
        if memo_export is not None:
            memo_entries.append(
                {"fingerprint": fingerprint, "meta": meta, "entries": memo_export}
            )
    written = snapshot_format.write(path, rows_entries, memos=memo_entries)
    SNAPSHOT_TELEMETRY.record_save(
        written["patterns"], written["rows"], skipped, memo_entries=written["memo_entries"]
    )
    return {"path": str(path), "skipped": skipped, **written}


#: Timeout (seconds) for fetching a snapshot over HTTP (``--snapshot-url``).
SNAPSHOT_FETCH_TIMEOUT = 30.0


def resolve_snapshot_pattern(meta: dict, fingerprint: bytes) -> "Pattern":
    """Recompile the pattern a snapshot entry describes and verify identity.

    Re-derives the fingerprint from the *live* pattern (current parser,
    tree builder, alphabet encoding) and raises ``SnapshotError
    ("fingerprint")`` on any drift — stale snapshots retire themselves.
    """
    from .api import compile as compile_pattern
    from .matching import snapshot as snapshot_format

    if meta.get("key_kind") == "text":
        expr: Regex | str = meta["expr"]
    else:
        expr = parse(meta["expr"], dialect=meta["parse_dialect"])
    pattern = compile_pattern(
        expr,
        dialect=meta["dialect"],
        strategy=meta["strategy"],
        compiled=bool(meta["compiled"]),
    )
    live = dict(meta)
    live["alphabet"] = pattern.tree.alphabet.as_list()
    live["positions"] = len(pattern.tree.positions)
    live["width"] = len(pattern.tree.alphabet)
    if snapshot_format.pattern_fingerprint(live) != fingerprint:
        raise SnapshotError(
            "fingerprint",
            f"snapshot entry for {meta.get('expr')!r} does not match this build",
        )
    return pattern


def load_snapshot_url(url: str) -> dict:
    """Fetch a snapshot over HTTP (``GET /snapshot``) and load it.

    The fleet-bootstrap path: a fresh host downloads the current file
    from a running server into a temporary file, loads it exactly like a
    local snapshot, then unlinks the temp file (the mmap keeps the pages
    alive for every adopted row).  A fetch failure is a counted
    ``"fetch"`` rejection — the host simply boots cold.
    """
    import http.client
    import shutil
    import tempfile
    import urllib.error
    import urllib.request

    try:
        fd, temp_path = tempfile.mkstemp(prefix=".snapshot-fetch-")
        try:
            # fdopen first: it owns the descriptor from here on, so a
            # failed urlopen cannot leak the mkstemp fd (a bootstrap
            # retry loop against a dead fleet must not bleed fds).
            with os.fdopen(fd, "wb") as handle:
                with urllib.request.urlopen(url, timeout=SNAPSHOT_FETCH_TIMEOUT) as response:
                    shutil.copyfileobj(response, handle)
        except BaseException:
            os.unlink(temp_path)
            raise
    except (OSError, urllib.error.URLError, http.client.HTTPException, ValueError) as error:
        # HTTPException covers protocol-level garbage (BadStatusLine from
        # a non-HTTP endpoint or broken proxy) — still just a cold start.
        message = f"cannot fetch snapshot from {url!r}: {error}"
        SNAPSHOT_TELEMETRY.record_reject("fetch", message)
        return {
            "path": url,
            "url": url,
            "format": None,
            "patterns_loaded": 0,
            "rows_loaded": 0,
            "memos_loaded": 0,
            "memo_entries_loaded": 0,
            "rejected": 1,
            "errors": [message],
        }
    try:
        result = load_snapshot(temp_path)
    finally:
        try:
            # POSIX: the mmap holds the inode; adopted rows stay valid.
            os.unlink(temp_path)
        except OSError:  # pragma: no cover - platform-specific
            pass
    result["url"] = url
    result["path"] = url
    return result


def load_snapshot(path: str) -> dict:
    """Adopt the warm state persisted at *path* (or an ``http(s)://`` URL).

    The file is mmap'd read-only (loading it in a parent before forking
    shares the row pages copy-on-write across every worker); each entry
    re-compiles its pattern from the recorded identity, re-derives the
    fingerprint from the *live* pattern and adopts only on an exact
    match.  The sections are adopted independently — rows into the
    compiled runtimes, memo entries into the runtimes' verdict memos,
    which validators and warm list-word batches read.  A file of an
    older format version is one counted ``version`` rejection.  Given an
    ``http://``/``https://`` URL the file is first fetched from a running
    server's ``GET /snapshot`` (fleet bootstrap).

    Corrupt or stale input degrades, never breaks: any validation
    failure — at the file level, per section, or per entry — is counted
    in ``repro.stats()["snapshot"]`` under ``snapshot_rejected`` and
    matching simply proceeds with the normal lazy rebuild of that piece.
    Adopted rows keep the underlying mapping alive for as long as they
    are referenced; the snapshot object itself is not retained.  They
    serve single words, streams, validators and cold batches; kernel
    programs come off the parse tree, so every adopted pattern's first
    warm batch gets a complete program while its matcher stays deferred.
    Returns ``{"path", "format", "patterns_loaded", "rows_loaded",
    "memos_loaded", "memo_entries_loaded", "rejected", "errors"}``.
    """
    from .matching import snapshot as snapshot_format

    source = os.fspath(path) if not isinstance(path, str) else path
    if isinstance(source, str) and source.startswith(("http://", "https://")):
        return load_snapshot_url(source)

    result: dict = {
        "path": str(path),
        "format": None,
        "patterns_loaded": 0,
        "rows_loaded": 0,
        "memos_loaded": 0,
        "memo_entries_loaded": 0,
        "rejected": 0,
        "errors": [],
    }

    def reject(error: Exception, prefix: str = "") -> None:
        if isinstance(error, SnapshotError):
            reason, message = error.reason, str(error)
        else:
            reason, message = "entry", repr(error)
        SNAPSHOT_TELEMETRY.record_reject(reason, prefix + message)
        result["rejected"] += 1
        result["errors"].append(prefix + message)

    try:
        snapshot = snapshot_format.load(path)
    except SnapshotError as error:
        reject(error)
        return result
    result["format"] = snapshot_format.VERSION
    for tag, section_error in snapshot.section_errors:
        reject(section_error, prefix=f"section {tag}: ")

    # One pattern typically appears in both sections (rows + memos);
    # resolve each fingerprint once per load so the bootstrap window does
    # not re-parse and re-hash the same expression per section (the cost
    # the bench gate puts on the clock).
    resolved: dict[bytes, "Pattern"] = {}

    def resolve(meta: dict, fingerprint: bytes) -> "Pattern":
        pattern = resolved.get(fingerprint)
        if pattern is None:
            pattern = resolve_snapshot_pattern(meta, fingerprint)
            resolved[fingerprint] = pattern
        return pattern

    for entry in snapshot.entries:
        try:
            pattern = resolve(entry.meta, entry.fingerprint)
            result["rows_loaded"] += pattern.runtime.adopt_rows(entry.rows())
            result["patterns_loaded"] += 1
        except (SnapshotError, ReproError, KeyError, TypeError, ValueError) as error:
            reject(error)
    for memo_entry in snapshot.memos:
        try:
            pattern = resolve(memo_entry.meta, memo_entry.fingerprint)
            result["memo_entries_loaded"] += pattern.acceptance_memo().adopt(memo_entry.entries)
            result["memos_loaded"] += 1
        except (SnapshotError, ReproError, KeyError, TypeError, ValueError) as error:
            reject(error)
    # No explicit pinning: every adopted row is a memoryview chain rooted
    # at the snapshot's mmap, so the mapping lives exactly as long as
    # some runtime still references a row from it — repeated loads of
    # refreshed snapshots cannot accumulate dead mappings.
    if snapshot.sections:
        # A load is counted only when at least one section validated — a
        # file whose every section was rejected is a cold start, not a
        # successful load, and must not look healthy on a dashboard
        # watching loads.
        SNAPSHOT_TELEMETRY.record_load(
            result["patterns_loaded"],
            result["rows_loaded"],
            memo_entries=result["memo_entries_loaded"],
        )
    return result


def materialization() -> dict:
    """Gauge of the matching state currently materialized in this process.

    Walks the compile cache without forcing anything: memoized lazy-DFA
    transitions and verdict-memo entries, plus a ``total``.
    ``memo_entries`` counts exactly the entries :func:`save_snapshot`
    would write (symbol sequences, not ``str`` batch words).  The
    snapshot auto-refresh policy compares ``total`` across time to decide
    when the on-disk snapshot has gone stale.  The memo count can fall
    when a memo generation turns over; the refresher then persists the
    new working set once the gauge grows past the level it last saved.
    """
    patterns = 0
    transitions = 0
    memo_entries = 0
    for _key, pattern in PATTERN_CACHE.items():
        patterns += 1
        runtime = pattern._built_runtime()
        if runtime is not None:
            transitions += runtime.materialized()
            memo_entries += runtime.memo.exported()
    return {
        "patterns": patterns,
        "transitions": transitions,
        "memo_entries": memo_entries,
        "total": transitions + memo_entries,
    }


def snapshot_stats() -> dict:
    """Process-wide snapshot telemetry (saves, loads, adoption, rejects).

    ``snapshot_rejected`` counts every validation failure — whole files,
    sections and individual entries — with ``rejected_reasons``
    breaking them down by kind (``"checksum"``, ``"version"``,
    ``"fingerprint"``, ``"alphabet-width"``, ``"row-bounds"``,
    ``"memo-entry"``, ``"fetch"``, ...); rejects are the designed
    degradation path, so a non-zero count means cold starts, never wrong
    verdicts.  ``materialized`` is a live gauge of the state the
    *next* :func:`save_snapshot` would persist — the auto-refresh thread
    (:class:`repro.service.prefork.SnapshotRefresher`) watches its
    ``total``.  Merged into the validation service's ``GET /stats``
    under ``"snapshot"``.

    This is the internal, warning-free entry point; the public surface
    is ``repro.stats()["snapshot"]``.
    """
    return {**SNAPSHOT_TELEMETRY.stats(), "materialized": materialization()}


__all__ = [
    "COMPILE_CACHE_SIZE",
    "PATTERN_CACHE",
    "PatternCache",
    "SNAPSHOT_FETCH_TIMEOUT",
    "SNAPSHOT_TELEMETRY",
    "SnapshotTelemetry",
    "compile_cache_stats",
    "load_snapshot",
    "load_snapshot_url",
    "materialization",
    "resolve_snapshot_pattern",
    "save_snapshot",
    "snapshot_meta",
    "snapshot_stats",
]
