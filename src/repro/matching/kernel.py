"""Batch matching kernel: whole corpora over flat tables, no per-symbol Python.

The compiled runtime (:mod:`repro.matching.runtime`) answers single words
over lazily filled integer rows, but its drivers re-enter the interpreter
once per symbol.  This module gives a pattern one flat *kernel program* —
its whole transition table, read off the parse tree — that an entire
encoded corpus runs through:

**Table layout.**  A program over the ``S`` positions of the parse tree
(the states) and alphabet width ``W`` adds one absorbing synthetic state,
``DEAD`` (``S``, every rejection sink), and one synthetic column, ``W``,
for symbols outside the alphabet, which can never advance any state.
With ``WP = W + 1`` columns per state the table is ``(S + 1) × WP``; to
remove even the multiply from the inner loop it is stored
*premultiplied*: entry values are ``target_state * WP``, so the whole
scan of a word is::

    off = start_offset            # start_state * WP
    for code in codes:            # one code per symbol
        off = table[off + code]
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
at a SupLast node, where the chain stops), one row per node that adds
anything, and ``Follow(p) = F(p)``: ``O(|e|·|Σ|)`` in all, linear in the
table.  ``$ ∈ Follow(p)`` iff ``pSupLast(p)`` is the left child of the
root, which gives the accept bytes.

**One loop.**  ``DEAD`` is absorbing, so the loop body has **no branch
at all**: a dead path keeps stepping through its absorbing row, and the
verdict byte at the final offset says whether the word is in the
language.  Each distinct word is encoded once, as one list of codes,
and :meth:`KernelProgram.scan` runs this one pure-Python loop over the
lists.  The verdict memo, not the scan, is the fast path of repeated
traffic, so the loop stays one table step per symbol (``docs/kernel.md``,
"One loop").

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
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable, Sequence

from ..regex.parse_tree import NodeKind
from ..regex.parser import parse_word
from .memo import AcceptanceMemo

#: Hard ceiling on flat-table entries (``int32``) per program.  A machine
#: whose ``(S + 1) · (W + 1)`` table exceeds it gets no program at all
#: (``build_program`` returns ``None``) and batch calls stay on the
#: per-word driver.  2²¹ entries is 8 MiB — far beyond any content model
#: in the Grijzenhout/Li corpora, yet small enough that a burst of
#: distinct patterns cannot blow up a serving process.
TABLE_LIMIT = 1 << 21

#: Batches smaller than this skip the kernel unless a program is already
#: built: building a table costs up to milliseconds, which only a real
#: corpus amortizes.
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
    scan loop, the pure-Python one.
    """
    with _STATS_LOCK:
        snapshot: dict = dict(_STATS)
    snapshot["backend"] = "pure"
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
    """A :class:`Corpus` encoded for one program (encode once, scan many).

    ``distinct`` holds each distinct word as its list of codes, and
    ``width`` the alphabet width it was encoded against.  Instances are
    immutable after construction and safe to scan concurrently.
    """

    __slots__ = ("distinct", "width")

    def __init__(self, corpus: Corpus, distinct: list, width: int):
        self.words = corpus.words
        self.index = corpus.index
        self.keys = corpus.keys
        self.memo = corpus.memo
        self.distinct = distinct
        self.width = width


class KernelProgram:
    """One pattern's flat scan table (see the module docstring for layout)."""

    __slots__ = (
        "table",
        "accepts",
        "codes",
        "width",
        "wp",
        "states",
        "start_offset",
        "dead_offset",
    )

    def __init__(
        self,
        table: "array[int]",
        accepts: bytearray,
        codes: dict,
        width: int,
        states: int,
        start_state: int,
    ):
        self.table = table
        self.accepts = accepts
        self.codes = codes
        self.width = width
        self.wp = width + 1
        self.states = states
        self.start_offset = start_state * self.wp
        self.dead_offset = states * self.wp

    # -- corpus encoding -----------------------------------------------------------------
    def encode_corpus(self, words: "Corpus | Iterable[Sequence[str]]") -> KernelCorpus:
        """Encode the distinct words of *words* (a :class:`Corpus`).

        Each distinct word becomes one list of codes, exactly once:
        symbols intern through the frozen alphabet, and unknown symbols
        take the unknown-symbol column, which leads to ``DEAD``.  Raw
        words are read as ``Pattern.match_all`` reads them
        (``parse_word``), so a word keeps one reading whoever brings it.
        """
        corpus = words if isinstance(words, Corpus) else Corpus(words)
        get = self.codes.get
        width = self.width
        distinct = [[get(symbol, width) for symbol in word] for word in corpus.words]
        _bump(corpora_encoded=1)
        return KernelCorpus(corpus, distinct, width)

    # -- scanning ------------------------------------------------------------------------
    def scan(self, corpus: KernelCorpus) -> bytearray:
        """Verdict bytes (0 reject, 1 accept) for each *distinct* word of *corpus*."""
        if corpus.width != self.width:
            raise ValueError("corpus was encoded for a different program")
        table = self.table
        accepts = self.accepts
        start = self.start_offset
        verdicts = bytearray(len(corpus.distinct))
        slot = 0
        for codes in corpus.distinct:
            off = start
            for code in codes:
                off = table[off + code]
            verdicts[slot] = accepts[off]
            slot += 1
        return verdicts


def eligible(tree) -> bool:
    """Cheap pre-check: does *tree*'s ``(S + 1) · (W + 1)`` table fit :data:`TABLE_LIMIT`?"""
    return (len(tree.positions) + 1) * (len(tree.alphabet) + 1) <= TABLE_LIMIT


def _follow_table(tree) -> "array[int]":
    """The premultiplied table of *tree*: one row per position, then ``DEAD``.

    Rows are ``WP = |Σ| + 1`` wide, ``row[c]`` following on symbol ``c``
    and the last entry being the unknown-symbol column.  Entries are
    position indices times ``WP``, or ``S · WP`` (``DEAD``, ``S`` the
    number of positions) where no position follows; the absorbing
    ``DEAD`` row closes the table.  First(n) comes bottom-up as a tuple
    of ``(code, position · WP)`` pairs, the sentinels left out; in a
    deterministic tree it holds at most one position per symbol, because
    it lies inside some Follow(p).  Rows then go top-down along the Last
    chains (see the module docstring): a node's row is its parent's, or
    an empty one at a SupLast node, overwritten with the positions the
    node adds, and a node that adds none shares its parent's row.  Where
    a row meets two copies of one symbol (the rewritten tree of a
    ``+``/counter model) the lowest position index wins, which is the
    copy ``KOccurrenceMatcher.next_position`` returns; since ``S``
    exceeds every index, one ``<`` test both fills an empty entry and
    keeps the lower copy.
    """
    nodes = tree.nodes
    codes = tree.alphabet.codes
    wp = len(codes) + 1
    first: list[tuple[tuple[int, int], ...]] = [()] * len(nodes)
    for node in reversed(nodes):  # children before parents
        kind = node.kind
        if kind is NodeKind.SYMBOL:
            code = codes.get(node.symbol)
            if code is not None:  # not a sentinel
                first[node.index] = ((code, node.position_index * wp),)
        elif kind is NodeKind.CONCAT:
            left = first[node.left.index]
            first[node.index] = left + first[node.right.index] if node.left.nullable else left
        elif kind is NodeKind.UNION:
            first[node.index] = first[node.left.index] + first[node.right.index]
        else:  # star, plus, optional: the child's First
            first[node.index] = first[node.left.index]

    states = len(tree.positions)
    empty = [states * wp] * wp  # every entry DEAD
    rows: list[list[int]] = [empty] * states
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
            for code, target in added:
                if target < row[code]:
                    row[code] = target
        if node.left is None:
            rows[node.position_index] = row
        else:
            stack.append((node.left, row))
            if node.right is not None:
                stack.append((node.right, row))
    table = array("i")
    for row in rows:
        table.fromlist(row)
    table.fromlist(empty)  # DEAD: absorbing
    return table


def build_program(tree) -> KernelProgram | None:
    """The complete :class:`KernelProgram` of *tree*'s position automaton.

    The table comes from :func:`_follow_table` and the accept bytes from
    the ``pSupLast`` pointers, so the program reads nothing but the tree:
    no runtime row and no Section-4 matcher.  Returns ``None`` when the
    table would exceed :data:`TABLE_LIMIT` (see :func:`eligible`).
    """
    if not eligible(tree):
        return None
    table = _follow_table(tree)
    positions = tree.positions
    program = KernelProgram(
        table,
        bytearray(len(table)),
        tree.alphabet.codes,
        len(tree.alphabet),
        len(positions),
        tree.start.position_index,
    )
    final = tree.root.left  # $ follows p iff pSupLast(p) is the root's left child
    for position in positions:
        if position.p_sup_last is final:
            program.accepts[position.position_index * program.wp] = VERDICT_ACCEPT
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


def replay_words(runtime, corpus: Corpus) -> list[bool]:
    """Answer a batch by per-word replay alone, each distinct word once.

    The batch path for a cold runtime (see ``CompiledRuntime.cold``): the
    words replay through ``runtime.accepts_encoded`` and are all counted
    as fallback words.
    """
    accepts_encoded = runtime.accepts_encoded
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
    offsets, 0 elsewhere) built by :class:`repro.lexer.Lexer` over the
    pattern's program: it steps through the same premultiplied table as
    the batch path, remembers the last accepting boundary, and stops at
    the absorbing DEAD offset.  ``end`` is the exclusive end of the
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
