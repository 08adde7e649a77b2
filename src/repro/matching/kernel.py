"""Batch matching kernel: whole corpora over flat tables, no per-symbol Python.

The compiled runtime (:mod:`repro.matching.runtime`) already holds exactly
the memory layout a tight scanner wants — interned ``array('i')`` dense
rows over a frozen alphabet encoding — but its drivers still re-enter the
interpreter once per symbol.  This module lowers those rows one step
further, into a single flat *kernel program* that an entire encoded corpus
runs through in chunks:

**Table layout.**  A program over ``S`` runtime states and alphabet width
``W`` adds two absorbing synthetic states — ``DEAD`` (``S``, every
rejection sink) and ``MISS`` (``S + 1``, "this transition has not been
materialized") — and two synthetic columns: ``W`` (symbols outside the
alphabet, which can never advance any state) and ``W + 1`` (``PAD``, an
identity self-loop used to round words up to the stride).  With
``WP = W + 2`` columns per state the table is conceptually
``(S + 2) × WP``; to remove even the multiply from the inner loop it is
stored *premultiplied*: entry values are ``target_state * span`` where
``span = WP ** stride``, so the whole scan of a word is::

    off = start_offset            # start_state * span
    for g in groups:              # g encodes `stride` symbols in base WP
        off = table[off + g]
    verdict = accepts[off]        # 0 reject, 1 accept, 2 kernel-miss

**Striding.**  Because ``PAD`` is an identity column, tables compose:
``T²[s][c₁·WP + c₂] = T[T[s][c₁]][c₂]`` handles two symbols per Python-level
loop iteration, ``T³`` three.  The builder picks the largest stride whose
composed table stays within :data:`TABLE_LIMIT` entries, and corpora are
group-encoded once to match (``bytes`` when a group fits a byte,
``array('H')``/``array('i')`` otherwise).  Both absorbing states survive
composition, so the loop body has **no branch at all** — dead and
not-yet-materialized paths simply keep striding through their absorbing
rows, and the verdict byte at the final offset says which case happened.

**Repeated-match corpora.**  A batch arrives as a :class:`Corpus`, built
once by ``Pattern.match_all``: each distinct word is encoded and scanned
once and the verdicts fan back out through the corpus's index.  Real
schema corpora re-match the same few child sequences millions of times
(the Li et al. observation the benchmarks model), which a per-word driver
cannot exploit but a corpus-level kernel gets for free.

**Fallback semantics.**  A verdict byte of 2 means the scan crossed a
transition the runtime has not materialized (or ended in a state whose
acceptance is unresolved).  Those words replay through
``CompiledRuntime.accepts_encoded``, which *fills* the missing rows and
bumps the runtime's generation, so the next
:meth:`CompiledRuntime.export_kernel_program` rebuilds the program over
the larger row set.  ``Pattern.match_all`` avoids that churn for every
machine the kernel can tabulate: before the first program it completes
the warm runtime's reachable machine once (``CompiledRuntime.complete``),
so no word falls back and one program serves every later batch.  Direct
callers of :func:`match_words`, and runtimes whose matcher is still
deferred behind snapshot rows, converge by rebuilding.  Kernel scans
never mutate the runtime, so ``transitions_memoized == misses`` (the
invariant the runtime tests pin) is untouched.

**Backends.**  :func:`KernelProgram.scan` runs the loop either in pure
Python (the permanent oracle) or through an optional C helper
(``_kernel.c``, compiled best-effort by ``setup.py`` or
``python -m repro.matching.kernel --build-native``) that walks the same
premultiplied ``int32`` table natively.  ``REPRO_KERNEL`` selects:
``auto`` (native when the shared object is present), ``pure``, or
``native``; a requested-but-missing native backend degrades silently to
pure.  Both backends read identical program/corpus buffers, so they are
interchangeable per call — the property suite diffs their verdict bytes.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import threading
from array import array
from typing import Iterable, Sequence

#: Hard ceiling on flat-table entries (``int32``) per program.  The builder
#: picks the deepest stride whose composed table fits; a machine whose
#: *stride-1* table already exceeds the ceiling gets no program at all
#: (``build_program`` returns ``None``) and batch calls stay on the
#: per-word driver.  2²¹ entries is 8 MiB — far beyond any content model
#: in the Grijzenhout/Li corpora, yet small enough that a burst of
#: distinct patterns cannot blow up a serving process.
TABLE_LIMIT = 1 << 21

#: Deepest stride the builder will compose.  Three symbols per Python-level
#: iteration is where the returns flatten: the composed table grows by a
#: factor of WP per extra symbol while the loop only sheds interpreter
#: overhead that is already down to one index per three symbols.
MAX_STRIDE = 3

#: Batches smaller than this skip the kernel unless a program is already
#: cached: building (or rebuilding) a composed table costs milliseconds,
#: which only a real corpus amortizes.
MIN_BATCH = 8

#: Distinct-word encodings memoized per program before the cache is
#: dropped and restarted.  A program that meets a stream of new words
#: would otherwise keep them all: with all five match-stream patterns on
#: the kernel, ``1 << 16`` took that workload's peak RSS to 170 MB
#: against 41 MB at ``1 << 10``.  Each drop re-encodes the hot words
#: once more, which costs serve-aio some throughput (``docs/kernel.md``).
ENCODE_CACHE_LIMIT = 1 << 10

#: Verdict bytes produced by a scan.
VERDICT_REJECT = 0
VERDICT_ACCEPT = 1
VERDICT_FALLBACK = 2

# -- module-wide telemetry ---------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_STATS = {
    "programs_built": 0,
    "corpora_encoded": 0,
    "kernel_words": 0,
    "fallback_words": 0,
}


def stats() -> dict:
    """Process-wide kernel telemetry (``GET /stats`` serves this).

    ``programs_built`` counts flat-table compilations (rebuilds after a
    runtime generation bump included), ``kernel_words`` / ``fallback_words``
    split batch traffic between words answered by the scan and words that
    replayed through the runtime, and ``backend`` names the loop actually
    in use right now (``requested`` preserves the ``REPRO_KERNEL`` ask
    even when the native library is unavailable).
    """
    with _STATS_LOCK:
        snapshot: dict = dict(_STATS)
    requested = requested_backend()
    snapshot["requested"] = requested
    snapshot["native_available"] = native_library() is not None
    snapshot["backend"] = _effective_backend(requested)
    return snapshot


def reset_kernel_stats() -> None:
    """Zero the module counters (test isolation helper)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


def _bump(**deltas: int) -> None:
    with _STATS_LOCK:
        for key, delta in deltas.items():
            _STATS[key] += delta


# -- backend selection -------------------------------------------------------------------

#: Loaded native library, ``None`` until probed, ``False`` when the probe
#: failed (so a missing shared object is stat'ed at most once).
_NATIVE: ctypes.CDLL | None | bool = None
_NATIVE_LOCK = threading.Lock()


def _native_path() -> str:
    return os.path.join(os.path.dirname(__file__), "_repro_kernel.so")


def requested_backend() -> str:
    """The ``REPRO_KERNEL`` selection: ``auto`` (default), ``pure`` or ``native``."""
    value = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
    return value if value in ("auto", "pure", "native") else "auto"


def _effective_backend(requested: str | None = None) -> str:
    if requested is None:
        requested = requested_backend()
    if requested != "pure" and native_library() is not None:
        return "native"
    return "pure"


def native_library() -> ctypes.CDLL | None:
    """The loaded native scan library, or ``None`` when unavailable.

    The shared object is probed once per process; call
    :func:`invalidate_native` after building it to re-probe.
    """
    global _NATIVE
    lib = _NATIVE
    if lib is None:
        with _NATIVE_LOCK:
            lib = _NATIVE
            if lib is None:
                lib = _load_native()
                _NATIVE = lib if lib is not None else False
    return lib if isinstance(lib, ctypes.CDLL) else None


def _load_native() -> ctypes.CDLL | None:
    path = _native_path()
    if not os.path.exists(path):
        return None
    try:
        lib = ctypes.CDLL(path)
        scan = lib.repro_kernel_scan
    except (OSError, AttributeError):
        return None
    scan.argtypes = [
        ctypes.c_void_p,  # table
        ctypes.c_void_p,  # accepts
        ctypes.c_longlong,  # start offset
        ctypes.c_void_p,  # flat groups
        ctypes.c_void_p,  # word bounds
        ctypes.c_longlong,  # word count
        ctypes.c_void_p,  # verdict bytes out
    ]
    scan.restype = None
    return lib


def invalidate_native() -> None:
    """Forget the probe result so the next :func:`native_library` re-loads."""
    global _NATIVE
    with _NATIVE_LOCK:
        _NATIVE = None


def build_native(verbose: bool = False) -> str | None:
    """Best-effort compile of ``_kernel.c`` into the loadable shared object.

    Uses the system C compiler (``$CC`` or ``cc``); any failure — no
    compiler, no permissions, bad flags — returns ``None`` and leaves the
    pure path in charge.  ``setup.py`` calls this during installs, and
    ``python -m repro.matching.kernel --build-native`` exposes it to CI.
    """
    source = os.path.join(os.path.dirname(__file__), "_kernel.c")
    target = _native_path()
    if not os.path.exists(source):
        return None
    compiler = os.environ.get("CC", "cc")
    command = [compiler, "-O2", "-shared", "-fPIC", "-o", target, source]
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        if verbose:
            print(result.stderr)
        return None
    invalidate_native()
    return target if native_library() is not None else None


# -- programs ----------------------------------------------------------------------------


class Corpus:
    """One batch, deduplicated: its distinct ``words`` plus every word's slot.

    Words are keyed as they arrive (a ``str`` as it is, any other sequence
    as a tuple), so *normalise* — ``parse_word`` at the facade — runs once
    per distinct spelling; spellings that normalise alike share a slot.

    >>> from repro.regex.parser import parse_word
    >>> corpus = Corpus(["ab", ["b"], "ab", ("a", "b")], parse_word)
    >>> corpus.words, list(corpus.index), len(corpus)
    ([['a', 'b'], ['b']], [0, 1, 0, 0], 4)
    >>> corpus.fan_out([True, False])
    [True, False, True, True]
    """

    __slots__ = ("words", "index")

    def __init__(self, batch: Iterable, normalise=None):
        slots: dict = {}
        words: list = []
        index = array("i")
        for word in batch:
            try:
                key = word if isinstance(word, str) else tuple(word)
                slot = slots.get(key)
            except TypeError:  # not a sequence, or an unhashable symbol
                key = slot = None
            if slot is None:
                if normalise is not None:
                    word = normalise(word if key is None else key)
                symbols = tuple(word)
                slot = slots.get(symbols)
                if slot is None:
                    slot = slots[symbols] = len(words)
                    words.append(word)
                # A raw tuple is a safe key only when normalising keeps it:
                # (1,) and (True,) are equal keys but parse to "1" and "True".
                if isinstance(key, str) or key == symbols:
                    slots[key] = slot
            index.append(slot)
        self.words = words
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def fan_out(self, values: Sequence) -> list:
        """One value per batch word, from one value per distinct word."""
        return [values[slot] for slot in self.index]


class KernelCorpus(Corpus):
    """A :class:`Corpus` encoded for one program shape (encode once, scan many).

    ``distinct`` holds each distinct word group-encoded for the program's
    stride; ``raw`` keeps the distinct words' plain symbol codes so
    kernel-miss words can replay through the runtime.  Instances are
    immutable after construction and safe to scan concurrently.
    """

    __slots__ = ("distinct", "raw", "span", "_packed")

    def __init__(self, corpus: Corpus, distinct: list, raw: list, span: int):
        self.words = corpus.words
        self.index = corpus.index
        self.distinct = distinct
        self.raw = raw
        self.span = span
        #: lazily built (flat ``array('i')``, bounds ``array('q')``) pair
        #: for the native backend; built at most once, races benign.
        self._packed: tuple | None = None

    def packed(self) -> tuple:
        """Flat ``int32`` group buffer plus ``int64`` word bounds (native scan)."""
        packed = self._packed
        if packed is None:
            flat = array("i")
            bounds = array("q", [0])
            for groups in self.distinct:
                # array.extend refuses arrays of another typecode ('H'/'i'
                # encodings differ per corpus); go through a plain list.
                flat.extend(groups.tolist() if isinstance(groups, array) else groups)
                bounds.append(len(flat))
            packed = self._packed = (flat, bounds)
        return packed


class KernelProgram:
    """One pattern's flat scan table (see the module docstring for layout)."""

    __slots__ = (
        "table",
        "accepts",
        "codes",
        "width",
        "wp",
        "stride",
        "span",
        "states",
        "start_offset",
        "dead_offset",
        "_c_table",
        "_c_accepts",
        "_encode_cache",
    )

    def __init__(
        self,
        table: "array[int]",
        accepts: bytearray,
        codes: dict,
        width: int,
        stride: int,
        states: int,
        start_state: int,
    ):
        self.table = table
        self.accepts = accepts
        self.codes = codes
        self.width = width
        self.wp = width + 2
        self.stride = stride
        self.span = self.wp**stride
        self.states = states
        self.start_offset = start_state * self.span
        self.dead_offset = states * self.span
        self._c_table = None
        self._c_accepts = None
        #: word tuple → (group encoding, raw codes); shape-compatible
        #: rebuilds inherit it (see ``CompiledRuntime.export_kernel_program``)
        #: so repeated corpora skip re-encoding across generations.  Under
        #: the GIL concurrent fills at worst duplicate work.
        self._encode_cache: dict = {}

    # -- corpus encoding -----------------------------------------------------------------
    def encode_corpus(self, words: "Corpus | Iterable[Sequence[str]]") -> KernelCorpus:
        """Group-encode the distinct words of *words* (a :class:`Corpus`).

        Each distinct word is encoded exactly once: symbols intern through
        the frozen alphabet (unknown symbols take the dead column), the
        code list is padded to a stride multiple with the identity ``PAD``
        column and packed ``stride`` symbols per group in base ``WP``.
        The returned corpus stays valid across program *rebuilds* of the
        same runtime — stride and width are functions of the machine
        shape, not of how much of it is materialized.  Distinct-word
        encodings are additionally memoized on the program itself, so a
        word an earlier batch brought costs one dict probe.
        """
        corpus = words if isinstance(words, Corpus) else Corpus(words)
        get = self.codes.get
        width = self.width
        wp = self.wp
        stride = self.stride
        span = self.span
        pad = width + 1
        cache = self._encode_cache
        distinct: list = []
        raw: list = []
        small = span <= 256
        medium = span <= 65536
        for word in corpus.words:
            key = tuple(word)
            entry = cache.get(key)
            if entry is None:
                codes = [get(symbol, -1) for symbol in word]
                padded = [width if code < 0 else code for code in codes]
                while len(padded) % stride:
                    padded.append(pad)
                groups = []
                for at in range(0, len(padded), stride):
                    group = 0
                    for offset in range(at, at + stride):
                        group = group * wp + padded[offset]
                    groups.append(group)
                if small:
                    encoded = bytes(groups)
                elif medium:
                    encoded = array("H", groups)
                else:
                    encoded = array("i", groups)
                if len(cache) >= ENCODE_CACHE_LIMIT:
                    cache.clear()
                entry = cache[key] = (encoded, codes)
            distinct.append(entry[0])
            raw.append(entry[1])
        _bump(corpora_encoded=1)
        return KernelCorpus(corpus, distinct, raw, span)

    # -- scanning ------------------------------------------------------------------------
    def scan(self, corpus: KernelCorpus, backend: str | None = None) -> bytearray:
        """Verdict bytes (0/1/2) for each *distinct* word of *corpus*.

        *backend* overrides the ``REPRO_KERNEL`` selection for this call
        (the equivalence tests diff ``pure`` against ``native`` directly).
        """
        if corpus.span != self.span:
            raise ValueError("corpus was encoded for a different program shape")
        if _effective_backend(backend) == "native":
            library = native_library()
            if library is not None:
                return self._scan_native(library, corpus)
        return self._scan_pure(corpus)

    def _scan_pure(self, corpus: KernelCorpus) -> bytearray:
        table = self.table
        accepts = self.accepts
        start = self.start_offset
        verdicts = bytearray(len(corpus.distinct))
        slot = 0
        for groups in corpus.distinct:
            off = start
            for group in groups:
                off = table[off + group]
            verdicts[slot] = accepts[off]
            slot += 1
        return verdicts

    def _scan_native(self, library: ctypes.CDLL, corpus: KernelCorpus) -> bytearray:
        if self._c_table is None:
            # buffer_info addresses stay valid for the arrays' lifetime;
            # the program owns both buffers, and from_buffer pins the
            # bytearray, so the pointers cannot dangle mid-scan.
            self._c_table = ctypes.c_void_p(self.table.buffer_info()[0])
            self._c_accepts = (ctypes.c_ubyte * len(self.accepts)).from_buffer(self.accepts)
        flat, bounds = corpus.packed()
        count = len(corpus.distinct)
        verdicts = bytearray(count)
        out = (ctypes.c_ubyte * count).from_buffer(verdicts) if count else None
        library.repro_kernel_scan(
            self._c_table,
            self._c_accepts,
            self.start_offset,
            ctypes.c_void_p(flat.buffer_info()[0]),
            ctypes.c_void_p(bounds.buffer_info()[0]),
            count,
            out,
        )
        return verdicts


def stride_for(
    states: int,
    width: int,
    max_entries: int | None = None,
    max_stride: int | None = None,
) -> int:
    """The deepest stride whose composed table fits, or 0 when none does.

    A machine of *states* states over an alphabet of *width* symbols has
    a stride-``k`` table of ``(states + 2) · (width + 2)^k`` entries.  The
    limits default to :data:`TABLE_LIMIT` and :data:`MAX_STRIDE`, read at
    call time.

    >>> stride_for(4, 2), stride_for(202, 200), stride_for(10**6, 10)
    (3, 1, 0)
    """
    if max_entries is None:
        max_entries = TABLE_LIMIT
    if max_stride is None:
        max_stride = MAX_STRIDE
    stride = 0
    while stride < max_stride and (states + 2) * (width + 2) ** (stride + 1) <= max_entries:
        stride += 1
    return stride


def eligible(tree) -> bool:
    """Cheap pre-check: can *tree*'s machine fit a kernel table at all?"""
    return stride_for(len(tree.positions), len(tree.alphabet)) > 0


def build_program(
    runtime,
    max_entries: int | None = None,
    max_stride: int | None = None,
) -> KernelProgram | None:
    """Flatten *runtime*'s current rows into a :class:`KernelProgram`.

    Never mutates the runtime: unmaterialized transitions become edges
    into the absorbing ``MISS`` state and unresolved acceptance verdicts
    become fallback bytes, so a program built over a half-warm machine is
    still verdict-exact — it just sends more words to the fallback path.
    Adopted (snapshot) rows are read exactly like locally densified ones,
    which is what hands snapshot-preloaded processes a complete kernel
    program without a single matcher delegation.  The stride is
    :func:`stride_for` of the machine's shape; returns ``None`` when even
    the stride-1 table would exceed *max_entries*.
    """
    width = runtime._width
    states = len(runtime._positions)
    stride = stride_for(states, width, max_entries, max_stride)
    if not stride:
        return None
    wp = width + 2
    dead = states
    miss = states + 1
    synthetic = states + 2

    rows = runtime._rows
    base: list[list[int]] = []
    for state in range(states):
        row = rows[state]
        if row is None:
            entries = [miss] * width
        elif type(row) is dict:
            entries = []
            get = row.get
            for code in range(width):
                target = get(code)
                if target is None:
                    entries.append(miss)
                elif target < 0:
                    entries.append(dead)
                else:
                    entries.append(target)
        else:  # dense array or adopted memoryview: complete by construction
            entries = [dead if target < 0 else target for target in row]
        entries.append(dead)  # unknown-symbol column
        entries.append(state)  # PAD column: identity self-loop
        base.append(entries)
    base.append([dead] * wp)  # DEAD: absorbing, PAD included
    base.append([miss] * wp)  # MISS: absorbing, PAD included

    # Compose T^k rows by concatenation: T²[s] is, for each first symbol c,
    # the whole T¹ row of T¹[s][c] — extend() copies at C speed, so deeper
    # strides cost WP list-appends per state, not WP^k Python iterations.
    composed = base
    for _ in range(stride - 1):
        previous = composed
        composed = []
        for state in range(synthetic):
            row_entries: list[int] = []
            first_row = base[state]
            for code in range(wp):
                row_entries.extend(previous[first_row[code]])
            composed.append(row_entries)

    span = wp**stride
    table = array("i", [target * span for entries in composed for target in entries])
    accepts = bytearray(synthetic * span)
    known = runtime._accepts
    for state in range(states):
        verdict = known[state]
        accepts[state * span] = VERDICT_FALLBACK if verdict < 0 else verdict
    accepts[miss * span] = VERDICT_FALLBACK
    # the DEAD offset keeps its zero byte: a dead scan is a certain reject

    program = KernelProgram(
        table,
        accepts,
        runtime._codes,
        width,
        stride,
        states,
        runtime._start_state,
    )
    _bump(programs_built=1)
    return program


# -- batch driver ------------------------------------------------------------------------


def match_corpus(runtime, program: KernelProgram, corpus: KernelCorpus, replay=None):
    """Run *corpus* through *program*; returns ``(verdicts, kernel, fallback)``.

    ``verdicts`` is one bool per corpus word (original order and
    multiplicity).  Words whose scan crossed unmaterialized state replay
    through ``runtime.accepts_encoded`` — filling the missing rows, so
    repeated corpora converge to the all-kernel path — and are counted in
    ``fallback`` (by corpus multiplicity; ``kernel`` counts the rest).

    *replay* substitutes the fallback driver: any callable taking an
    encoded word and returning the boolean verdict.  The diagnostics
    layer passes a :class:`repro.diagnostics.TraceRecorder` here so
    byte-2 words route through the tracing path and their witnesses come
    out of the replay they were paying for anyway; the default (and the
    kernel verdict path) is unchanged.
    """
    raw_verdicts = program.scan(corpus)
    resolved: list[bool] = []
    accepts_encoded = runtime.accepts_encoded if replay is None else replay
    for slot, verdict in enumerate(raw_verdicts):
        if verdict == VERDICT_FALLBACK:
            resolved.append(accepts_encoded(corpus.raw[slot]))
        else:
            resolved.append(verdict == VERDICT_ACCEPT)
    verdicts = corpus.fan_out(resolved)
    fallback = 0
    if VERDICT_FALLBACK in raw_verdicts:
        fallback = corpus.fan_out(raw_verdicts).count(VERDICT_FALLBACK)
    kernel_count = len(corpus) - fallback
    _bump(kernel_words=kernel_count, fallback_words=fallback)
    return verdicts, kernel_count, fallback


def replay_words(runtime, corpus: Corpus, replay=None) -> list[bool]:
    """Answer a batch by per-word replay alone, each distinct word once.

    The batch path for a cold runtime (see ``CompiledRuntime.cold``): a
    table built before any row exists would send every word to fallback,
    so the words go straight to the fallback driver — *replay*, as in
    :func:`match_corpus` — and are all counted as fallback words.
    """
    accepts_encoded = runtime.accepts_encoded if replay is None else replay
    encode = runtime.encode
    verdicts = corpus.fan_out([accepts_encoded(encode(word)) for word in corpus.words])
    _bump(fallback_words=len(corpus))
    return verdicts


def match_words(runtime, words: "Corpus | Sequence[Sequence[str]]", replay=None):
    """One-call batch driver: program export, corpus encode, scan, fallback.

    Returns ``(verdicts, kernel_words, fallback_words)`` or ``None`` when
    the runtime's machine exceeds :data:`TABLE_LIMIT` (callers keep their
    per-word driver for that case).  *replay* is forwarded to
    :func:`match_corpus`.
    """
    program = runtime.export_kernel_program()
    if program is None:
        return None
    corpus = program.encode_corpus(words)
    return match_corpus(runtime, program, corpus, replay=replay)


# -- tagged longest-match scanning (the Lexer workload) ----------------------------------


def longest_match(
    program: KernelProgram,
    tags: bytearray,
    encoded: Sequence[int],
    start: int,
) -> tuple[int, int]:
    """Maximal munch from ``encoded[start:]``; returns ``(end, tag)``.

    *tags* is an offset-indexed byte table (``tag + 1`` at accepting
    offsets, 0 elsewhere) built by :class:`repro.lexer.Lexer` over a
    stride-1 program whose reachable rows are fully materialized, so the
    scan needs no miss handling: it strides the same premultiplied table
    as the batch path, remembers the last accepting boundary, and stops
    at the absorbing DEAD offset.  ``end`` is the exclusive end of the
    longest token (``-1`` when no rule accepts any prefix) and ``tag``
    the winning rule's ``tag + 1``.
    """
    table = program.table
    dead = program.dead_offset
    off = program.start_offset
    best_end = -1
    best_tag = 0
    at = start
    length = len(encoded)
    while at < length:
        off = table[off + encoded[at]]
        at += 1
        if off == dead:
            break
        tag = tags[off]
        if tag:
            best_end = at
            best_tag = tag
    return best_end, best_tag


def _main(argv: Sequence[str]) -> int:  # pragma: no cover - CLI plumbing
    if "--build-native" in argv:
        built = build_native(verbose=True)
        if built is None:
            print("native kernel build failed; the pure path stays in charge")
            return 1
        print(f"native kernel built: {built}")
        return 0
    print(__doc__)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    raise SystemExit(_main(sys.argv[1:]))
