"""Batch matching kernel: whole corpora over flat tables, no per-symbol Python.

The compiled runtime (:mod:`repro.matching.runtime`) answers single words
over lazily filled integer rows, but its drivers re-enter the interpreter
once per symbol.  This module gives a pattern one flat *kernel program* —
its whole transition table, read off the parse tree — that an entire
encoded corpus runs through in chunks:

**Table layout.**  A program over the ``S`` positions of the parse tree
(the states) and alphabet width ``W`` adds one absorbing synthetic state,
``DEAD`` (``S``, every rejection sink), and two synthetic columns: ``W``
(symbols outside the alphabet, which can never advance any state) and
``W + 1`` (``PAD``, an identity self-loop used to round words up to the
stride).  With ``WP = W + 2`` columns per state the table is conceptually
``(S + 1) × WP``; to remove even the multiply from the inner loop it is
stored *premultiplied*: entry values are ``target_state * span`` where
``span = WP ** stride``, so the whole scan of a word is::

    off = start_offset            # start_state * span
    for g in groups:              # g encodes `stride` symbols in base WP
        off = table[off + g]
    verdict = accepts[off]        # 0 reject, 1 accept

**Programs from the follow relation.**  :func:`build_program` reads
every row off the parse tree, so each program is complete by
construction: it needs neither the runtime's rows nor a Section-4
matcher.  By Lemma 2.3, ``p ∈ Last(n)`` exactly for the nodes ``n`` on
``p``'s *Last chain*, from ``p`` up to ``pSupLast(p)``; by Lemma 2.2,
``Follow(p)`` is then the union of ``C(n)`` over that chain, where
``C(n)`` is First of the right sibling when ``n`` is the left child of a
concatenation, plus ``First(n)`` when ``n`` is a star or a plus.  So one
pre-order pass computes ``F(n) = C(n) ∪ F(parent(n))`` (``F(n) = C(n)``
at a SupLast node, where the chain stops), one ``|Σ|``-wide row per node
that adds anything, and ``Follow(p) = F(p)``: ``O(|e|·|Σ|)`` in all,
linear in the stride-1 table.  ``$ ∈ Follow(p)`` iff ``pSupLast(p)`` is
the left child of the root, which gives the accept bytes.

**Striding.**  Because ``PAD`` is an identity column, tables compose:
``T²[s][c₁·WP + c₂] = T[T[s][c₁]][c₂]`` handles two symbols per Python-level
loop iteration, ``T³`` three.  The builder picks the largest stride whose
composed table stays within :data:`TABLE_LIMIT` entries, and corpora are
group-encoded once to match (``bytes`` when a group fits a byte,
``array('H')``/``array('i')`` otherwise).  ``DEAD`` survives composition,
so the loop body has **no branch at all** — a dead path simply keeps
striding through its absorbing row, and the verdict byte at the final
offset says whether the word is in the language.

**Repeated-match corpora.**  A batch arrives as a :class:`Corpus`, built
once by ``Pattern.match_all``: each distinct word is encoded and scanned
once and the verdicts fan back out through the corpus's index.  Real
schema corpora re-match the same few child sequences millions of times
(the Li et al. observation the benchmarks model), which a per-word driver
cannot exploit but a corpus-level kernel gets for free.  A pattern's
language never changes, so a word's verdict never does either: a warm
batch's corpus probes the runtime's verdict memo
(:class:`~repro.matching.memo.AcceptanceMemo`, ``runtime.memo``, shared
with the validators) on the raw word before it parses it, and a word an
earlier batch brought costs one dict probe — no ``parse_word``, no
encoding and no scan.

**Cold batches.**  A batch over a runtime that has answered nothing yet
(``CompiledRuntime.cold``) builds no table: :func:`replay_words` answers
it word by word through the runtime, so a pattern compiled to match one
batch never pays for a program.  That batch warms the runtime, whatever
its words, so the next one runs on the program.  Cold-batch words are the
only ones the ``fallback_words`` counter books.  Kernel scans never touch
the runtime, so ``transitions_memoized == misses`` (the invariant the
runtime tests pin) is untouched.

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

from ..regex.parse_tree import NodeKind
from ..regex.parser import parse_word
from .memo import AcceptanceMemo

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
#: cached: building a composed table costs milliseconds, which only a
#: real corpus amortizes.
MIN_BATCH = 8

#: Verdict bytes produced by a scan.
VERDICT_REJECT = 0
VERDICT_ACCEPT = 1

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

    ``programs_built`` counts flat-table compilations, ``kernel_words`` /
    ``fallback_words`` split batch traffic between words answered by a
    program (its memo or a scan) and words of cold batches, which replayed
    through the runtime (:func:`replay_words`), and ``backend`` names the
    loop actually in use right now (``requested`` preserves the
    ``REPRO_KERNEL`` ask even when the native library is unavailable).
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
    as a tuple), so *normalise* (``parse_word``) runs once per distinct
    spelling; spellings that normalise alike share a slot.  Given the
    runtime's verdict *memo*, a key it holds is answered before it is
    normalised: the word takes slot ``-2`` (accept) or ``-1`` (reject)
    and adds no distinct word.  ``keys`` pairs every other key whose
    verdict may be memoized with its slot, and ``memo`` keeps the memo
    probed, which :func:`match_corpus` stores the scanned verdicts in.

    >>> corpus = Corpus(["ab", ["b"], "ab", ("a", "b")])
    >>> corpus.words, list(corpus.index), len(corpus)
    ([['a', 'b'], ['b']], [0, 1, 0, 0], 4)
    >>> corpus.fan_out([True, False])
    [True, False, True, True]
    >>> memo = AcceptanceMemo()
    >>> memo.put("ab", True)
    >>> corpus = Corpus(["ab", ["b"], "ab"], memo=memo)
    >>> corpus.words, list(corpus.index), corpus.fan_out([False])
    ([['b']], [-2, 0, -2], [True, False, True])
    """

    __slots__ = ("words", "index", "keys", "memo")

    def __init__(self, batch: Iterable, normalise=parse_word, memo: AcceptanceMemo | None = None):
        slots: dict = {}  # raw key → slot
        shared: dict = {}  # normalised word → slot
        words: list = []
        keys: list = []
        index = array("i")
        for word in batch:
            try:
                key = word if isinstance(word, str) else tuple(word)
                slot = slots.get(key)
            except TypeError:  # not a sequence, or an unhashable symbol
                key = slot = None
            if slot is None:
                if memo is not None:
                    verdict = memo.get(key)
                    if verdict is not None:
                        slots[key] = slot = -2 if verdict else -1
                        index.append(slot)
                        continue
                word = normalise(word if key is None else key)
                symbols = tuple(word)
                slot = shared.get(symbols)
                if slot is None:
                    slot = shared[symbols] = len(words)
                    words.append(word)
                # A raw tuple is a safe key only when normalising keeps it:
                # (1,) and (True,) are equal keys but parse to "1" and "True".
                if isinstance(key, str) or key == symbols:
                    slots[key] = slot
                    keys.append((key, slot))
            index.append(slot)
        self.words = words
        self.index = index
        self.keys = keys
        self.memo = memo

    def __len__(self) -> int:
        return len(self.index)

    def fan_out(self, values: Sequence) -> list:
        """One value per batch word, from one value per distinct word.

        Words the memo answered read slot ``-2`` (``True``) or ``-1``
        (``False``) of the values extended by those two verdicts.
        """
        values = [*values, True, False]
        return [values[slot] for slot in self.index]


class KernelCorpus(Corpus):
    """A :class:`Corpus` encoded for one program shape (encode once, scan many).

    ``distinct`` holds each distinct word group-encoded for the program's
    stride.  Instances are immutable after construction and safe to scan
    concurrently.
    """

    __slots__ = ("distinct", "span", "_packed")

    def __init__(self, corpus: Corpus, distinct: list, span: int):
        self.words = corpus.words
        self.index = corpus.index
        self.keys = corpus.keys
        self.memo = corpus.memo
        self.distinct = distinct
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

    # -- corpus encoding -----------------------------------------------------------------
    def encode_corpus(self, words: "Corpus | Iterable[Sequence[str]]") -> KernelCorpus:
        """Group-encode the distinct words of *words* (a :class:`Corpus`).

        Each distinct word is encoded exactly once: symbols intern through
        the frozen alphabet (unknown symbols take the dead column), the
        code list is padded to a stride multiple with the identity ``PAD``
        column and packed ``stride`` symbols per group in base ``WP``.
        Raw words are read as ``Pattern.match_all`` reads them
        (``parse_word``), so a word keeps one reading whoever brings it.
        """
        corpus = words if isinstance(words, Corpus) else Corpus(words)
        get = self.codes.get
        width = self.width
        wp = self.wp
        stride = self.stride
        span = self.span
        pad = [width + 1] * (stride - 1)
        distinct: list = []
        small = span <= 256
        medium = span <= 65536
        for word in corpus.words:
            padded = [get(symbol, width) for symbol in word]
            padded += pad[: -len(padded) % stride]  # up to a stride multiple
            groups = padded[0::stride]
            for at in range(1, stride):
                groups = [group * wp + code for group, code in zip(groups, padded[at::stride])]
            if small:
                distinct.append(bytes(groups))
            elif medium:
                distinct.append(array("H", groups))
            else:
                distinct.append(array("i", groups))
        _bump(corpora_encoded=1)
        return KernelCorpus(corpus, distinct, span)

    # -- scanning ------------------------------------------------------------------------
    def scan(self, corpus: KernelCorpus, backend: str | None = None) -> bytearray:
        """Verdict bytes (0 reject, 1 accept) for each *distinct* word of *corpus*.

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
    a stride-``k`` table of ``(states + 1) · (width + 2)^k`` entries.  The
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
    while stride < max_stride and (states + 1) * (width + 2) ** (stride + 1) <= max_entries:
        stride += 1
    return stride


def eligible(tree) -> bool:
    """Cheap pre-check: can *tree*'s machine fit a kernel table at all?"""
    return stride_for(len(tree.positions), len(tree.alphabet)) > 0


def _follow_rows(tree, scale: int = 1) -> list[list[int]]:
    """One ``|Σ|``-wide row per position: ``row[c]`` follows on symbol ``c``.

    Entries are position indices times *scale*, or ``S · scale`` (``S``
    the number of positions) where no position follows; a stride-1
    program passes its span, so its rows are its table.  First(n) comes
    bottom-up as a tuple of position indices; in a deterministic tree it
    holds at most one position per symbol, because it lies inside some
    Follow(p).  Rows then go top-down along the Last chains (see the
    module docstring): a node's row is its parent's, or an empty one at a
    SupLast node, overwritten with the positions the node adds, and a
    node that adds none shares its parent's row.  Where a row meets two
    copies of one symbol (the rewritten tree of a ``+``/counter model)
    the lowest position index wins, which is the copy
    ``KOccurrenceMatcher.next_position`` returns; since ``S`` exceeds
    every index, one ``<`` test both fills an empty entry and keeps the
    lower copy.
    """
    nodes = tree.nodes
    positions = tree.positions
    none = len(positions)
    codes = tree.alphabet.codes
    code_of = [codes.get(position.symbol, -1) for position in positions]  # sentinels: -1
    first: list[tuple[int, ...]] = [()] * len(nodes)
    for node in reversed(nodes):  # children before parents
        kind = node.kind
        if kind is NodeKind.SYMBOL:
            first[node.index] = (node.position_index,)
        elif kind is NodeKind.CONCAT:
            left = first[node.left.index]
            first[node.index] = left + first[node.right.index] if node.left.nullable else left
        elif kind is NodeKind.UNION:
            first[node.index] = first[node.left.index] + first[node.right.index]
        else:  # star, plus, optional: the child's First
            first[node.index] = first[node.left.index]

    empty = [none * scale] * len(codes)
    rows: list[list[int]] = [empty] * none
    stack = [(tree.root, empty)]
    while stack:
        node, row = stack.pop()
        added = first[node.index] if node.is_iteration else ()
        parent = node.parent
        if parent is not None and parent.kind is NodeKind.CONCAT and node is parent.left:
            added += first[parent.right.index]
        if node.sup_last:
            row = empty
        if added:
            row = row[:]
            for position in added:
                code = code_of[position]
                target = position * scale
                if code >= 0 and target < row[code]:
                    row[code] = target
        if node.left is None:
            rows[node.position_index] = row
        else:
            stack.append((node.left, row))
            if node.right is not None:
                stack.append((node.right, row))
    return rows


def build_program(
    tree,
    max_entries: int | None = None,
    max_stride: int | None = None,
) -> KernelProgram | None:
    """The complete :class:`KernelProgram` of *tree*'s position automaton.

    Rows come from :func:`_follow_rows` and accept bytes from the
    ``pSupLast`` pointers, so the program reads nothing but the tree: no
    runtime row and no Section-4 matcher.  The stride is
    :func:`stride_for` of the machine's shape; returns ``None`` when even
    the stride-1 table would exceed *max_entries*.
    """
    positions = tree.positions
    states = len(positions)
    width = len(tree.alphabet)
    stride = stride_for(states, width, max_entries, max_stride)
    if not stride:
        return None
    wp = width + 2
    span = wp**stride
    # A stride-1 table is its rows, premultiplied as they are written.
    scale = span if stride == 1 else 1
    dead = states * scale

    # The unknown-symbol column, then the PAD column: an identity self-loop.
    base = [row + [dead, state * scale] for state, row in enumerate(_follow_rows(tree, scale))]
    base.append([dead] * wp)  # DEAD: absorbing, PAD included

    # Compose T^k rows by concatenation: T²[s] is, for each first symbol c,
    # the whole T¹ row of T¹[s][c] — extend() copies at C speed, so deeper
    # strides cost WP list-appends per state, not WP^k Python iterations.
    # The rows copied hold T¹'s targets premultiplied by the final span,
    # so (S + 1)·WP products premultiply the whole composed table.
    rows = base if stride == 1 else [[target * span for target in row] for row in base]
    for _ in range(stride - 1):
        previous = rows
        rows = []
        for first_row in base:
            entries: list[int] = []
            for target in first_row:
                entries.extend(previous[target])
            rows.append(entries)
    table = array("i")
    for entries in rows:
        table.fromlist(entries)
    accepts = bytearray((states + 1) * span)
    final = tree.root.left  # $ follows p iff pSupLast(p) is the root's left child
    for position in positions:
        if position.p_sup_last is final:
            accepts[position.position_index * span] = VERDICT_ACCEPT

    program = KernelProgram(
        table,
        accepts,
        tree.alphabet.codes,
        width,
        stride,
        states,
        tree.start.position_index,
    )
    _bump(programs_built=1)
    return program


# -- batch driver ------------------------------------------------------------------------


def match_corpus(program: KernelProgram, corpus: KernelCorpus) -> list[bool]:
    """Run *corpus* through *program*: one verdict per corpus word.

    Each scanned verdict is memoized under its word's key in the memo the
    corpus probed, if any.  Verdicts come in the corpus's original order
    and multiplicity, and every word is booked as a kernel word, whether
    the memo or the scan answered it.
    """
    scanned = [verdict == VERDICT_ACCEPT for verdict in program.scan(corpus)]
    memo = corpus.memo
    if memo is not None:
        put = memo.put
        for key, slot in corpus.keys:
            put(key, scanned[slot])
    _bump(kernel_words=len(corpus))
    return corpus.fan_out(scanned)


def replay_words(runtime, corpus: Corpus, replay=None) -> list[bool]:
    """Answer a batch by per-word replay alone, each distinct word once.

    The batch path for a cold runtime (see ``CompiledRuntime.cold``): the
    words replay through *replay* — any callable taking an encoded word
    and returning the boolean verdict, ``runtime.accepts_encoded`` by
    default — and are all counted as fallback words.  The diagnostics
    layer passes a :class:`repro.diagnostics.TraceRecorder` here, so a
    cold ``detail="full"`` batch keeps the traces its replays walk.
    """
    accepts_encoded = runtime.accepts_encoded if replay is None else replay
    encode = runtime.encode
    verdicts = corpus.fan_out([accepts_encoded(encode(word)) for word in corpus.words])
    _bump(fallback_words=len(corpus))
    return verdicts


def match_words(runtime, words: "Corpus | Sequence[Sequence[str]]") -> list[bool] | None:
    """One-call batch driver: program export, corpus encode, scan.

    Raw *words* are read by ``parse_word`` against the runtime's verdict
    memo (``runtime.memo``), which keeps every scanned verdict; a
    :class:`Corpus` brings its own memo, or none.  Returns one verdict
    per word, or ``None`` when the runtime's machine exceeds
    :data:`TABLE_LIMIT` (callers keep their per-word driver for that
    case).
    """
    program = runtime.export_kernel_program()
    if program is None:
        return None
    corpus = words if isinstance(words, Corpus) else Corpus(words, memo=runtime.memo)
    return match_corpus(program, program.encode_corpus(corpus))


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
    stride-1 program: it strides the same premultiplied table as the
    batch path, remembers the last accepting boundary, and stops at the
    absorbing DEAD offset.  ``end`` is the exclusive end of the
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
