"""A lazily compiled integer runtime over any Section-4 matcher.

The paper's matchers answer *"which a-labelled position follows p?"* with
clever O(1)-ish structure queries, but each query is still a handful of
Python-level calls (LCA probe, ancestor tests, candidate scans).  For a
*deterministic* expression the answer is a pure function of the pair
``(p, a)`` — there is at most one a-labelled follower of ``p`` — so the
whole matcher can be lowered on the fly into integer transition rows:
the lazy-DFA idiom.  :class:`CompiledRuntime` does exactly that:

* **states** are position indices (``TreeNode.position_index``), dense
  integers assigned by the parse tree;
* **symbols** are interned through the tree's :class:`~repro.regex.alphabet.Alphabet`
  into dense integer codes, and words are encoded once per call/batch
  instead of being re-split per symbol;
* **transitions** ``(state, symbol_code) → state`` are memoized per state
  in a dict row that is created on first visit and filled by one
  delegation to the wrapped matcher per exercised pair.  Misses (no
  follower) are memoized too, as :data:`DEAD`;
* **acceptance** needs no memo: ``$`` follows a position ``p`` iff
  ``pSupLast(p)`` is the root's left child (Lemma 2.3), one pointer
  comparison — the rule the kernel programs read their accept bytes by.

Memory therefore stays proportional to the transitions actually
exercised — never the O(|e|·|Σ|) Glushkov table — while steady-state
matching is a list index plus a dict probe per symbol.  Because the
expression is deterministic, memoization can never change a verdict: the
runtime and the wrapped matcher agree on every word by construction (the
property tests check this against every registered strategy).  Rows
adopted from a snapshot (:meth:`CompiledRuntime.adopt_rows`) are
complete, alphabet-wide arrays — zero-copy views of the snapshot's mmap —
probed by bare index.

The runtime is the engine for single words, streams, validator child
sequences and a pattern's first (cold) batch.  Warm batches run on a
kernel program (:meth:`CompiledRuntime.export_kernel_program`), the whole
table read off the parse tree's follow relation, so batch traffic writes
no row here.  The runtime also owns the pattern's one word → verdict
memo, :attr:`CompiledRuntime.memo` (:mod:`repro.matching.memo`): the
validators' child sequences, warm batches and snapshots all read it.

**Concurrency contract** (the ``repro.service`` thread pool relies on it):
warm reads are lock-free — stepping through an already-memoized transition
touches only a list index plus a dict/array probe, with no lock in the
path — while every *write* (first-time delegation to the wrapped matcher,
snapshot adoption, the row completion of :meth:`CompiledRuntime.export_rows`)
happens under a per-runtime mutex with a double-check after acquisition.
Rows are only ever published in valid states: a new dict row is stored
with its first transition already in it, a dict row only grows, and an
adopted row lands in a state nobody has visited, each with one atomic
list-slot store, so a reader racing a writer sees either no row (and
takes the lock) or a correct one.  Since the expression is deterministic,
two threads racing to fill the same ``(state, symbol)`` pair would
compute the same target anyway — the lock exists to keep the *wrapped
matcher's* lazy structures single-threaded and ``transitions_memoized ==
misses`` exact, not to protect the verdict.

>>> from repro.matching import build_matcher
>>> from repro.regex.parse_tree import build_parse_tree
>>> runtime = CompiledRuntime(build_matcher(build_parse_tree("(ab)*"), verify=False))
>>> runtime.accepts("abab")
True
>>> runtime.accepts("aba")
False
>>> sorted(runtime.stats())  # doctest: +NORMALIZE_WHITESPACE
['adopted_rows', 'kernel_programs', 'misses', 'states_visited',
 'transitions_memoized']

The runtime preserves the streaming contract of the direct path:
:meth:`CompiledRuntime.start` returns a :class:`CompiledRun` with the same
``feed`` / ``feed_all`` / ``is_accepting`` / ``consumed`` surface as
:class:`~repro.matching.base.MatchRun`, so the XML streaming checker and
``Pattern.stream`` work unchanged on top of it.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable, Mapping, Sequence

from ..regex.alphabet import UNKNOWN_CODE
from ..regex.parse_tree import ParseTree, TreeNode
from .base import DeterministicMatcher
from .memo import AcceptanceMemo
from .snapshot import SnapshotError

#: Memoized "no transition" marker.  Any negative value works (valid states
#: are non-negative position indices); sharing the encoder's UNKNOWN_CODE
#: keeps the hot loop to a single ``< 0`` test for both kinds of rejection.
DEAD = UNKNOWN_CODE


def aggregate_stats(named_runtimes: Iterable[tuple[str, "CompiledRuntime"]]) -> dict[str, dict]:
    """Fold per-runtime :meth:`CompiledRuntime.stats` into telemetry.

    Shared by ``DTDValidator.stats`` and ``XSDSchema.stats``: returns
    ``{"elements": {name: stats}, "totals": summed-per-key, "memos":
    {name: memo stats}}`` so a new counter added to
    :meth:`CompiledRuntime.stats` shows up in every surface at once, and
    ``memos`` lists a name exactly when ``elements`` does.  Structurally
    equal content models share one runtime (and its memo) through the
    compile cache; each such runtime is listed under every name using it
    but counted into ``totals`` only once, so the totals reflect real
    materialization, not the sharing factor.
    """
    per_element: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    memos: dict[str, dict[str, int]] = {}
    seen: set[int] = set()
    for name, runtime in named_runtimes:
        stats = runtime.stats()
        per_element[name] = stats
        memos[name] = runtime.memo.stats()
        if id(runtime) in seen:
            continue
        seen.add(id(runtime))
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return {"elements": per_element, "totals": totals, "memos": memos}


class CompiledRuntime:
    """Lazy-DFA execution of a wrapped :class:`DeterministicMatcher`.

    The wrapped matcher is consulted only on the *first* lookup of each
    ``(state, symbol)`` pair; after that the transition is a dict probe
    (an array index for a snapshot-adopted row).  ``stats()`` exposes how
    much of the machine has been materialized, which the cache-reuse
    tests, the telemetry surfaces (``Pattern.stats``, ``XSDSchema.stats``)
    and the benchmarks inspect.
    """

    __slots__ = (
        "_matcher_obj",
        "_matcher_factory",
        "tree",
        "alphabet",
        "_codes",
        "_symbols",
        "_positions",
        "_final",
        "_rows",
        "_start_state",
        "_width",
        "_lock",
        "misses",
        "_adopted_rows",
        "_kernel_program",
        "batched",
        "memo",
    )

    def __init__(
        self,
        matcher: DeterministicMatcher | None = None,
        *,
        tree: ParseTree | None = None,
        matcher_factory: Callable[[], DeterministicMatcher] | None = None,
    ):
        if matcher is not None:
            tree = matcher.tree
        elif tree is None or matcher_factory is None:
            raise TypeError("CompiledRuntime needs a matcher, or a tree plus a matcher_factory")
        self._matcher_obj = matcher
        self._matcher_factory = matcher_factory
        self.tree = tree
        self.alphabet = self.tree.alphabet
        self._codes: dict[str, int] = self.alphabet.codes
        self._symbols: list[str] = self.alphabet.as_list()
        self._positions: list[TreeNode] = self.tree.positions
        #: a state accepts iff its position's pSupLast is this node
        self._final: TreeNode = self.tree.root.left
        #: per-state transition rows: None until first visit, then a dict
        #: (or a complete array-like row adopted from a snapshot)
        self._rows: list[dict[int, int] | Sequence[int] | None] = [None] * len(self._positions)
        self._start_state: int = self.tree.start.position_index
        #: alphabet width; adopted and exported rows have exactly this many entries
        self._width: int = len(self.alphabet)
        #: single writer lock: first-time transitions, adoption and export
        #: serialize here (warm reads never do)
        self._lock = threading.Lock()
        #: number of delegations to the wrapped matcher so far (cache misses)
        self.misses = 0
        #: rows installed from a persisted snapshot (mmap-backed views)
        self._adopted_rows = 0
        #: the kernel program, once built (see :meth:`export_kernel_program`)
        self._kernel_program = None
        #: set once a batch has replayed on this runtime (see :attr:`cold`)
        self.batched = False
        #: the pattern's word → verdict memo: validators, warm batches and
        #: snapshots read it (:mod:`repro.matching.memo`)
        self.memo = AcceptanceMemo()

    @property
    def matcher(self) -> DeterministicMatcher:
        """The wrapped Section-4 matcher, built on first *miss* if deferred.

        Snapshot-preloaded runtimes start without a matcher: as long as
        every transition is answered by adopted rows, the (expensive)
        matcher preprocessing never runs — acceptance comes off the
        tree's own ``pSupLast`` pointers.  The first genuine miss invokes
        the factory — a factory must be idempotent under races
        (``Pattern.matcher`` is: it double-checks under the pattern's init
        lock).
        """
        matcher = self._matcher_obj
        if matcher is None:
            matcher = self._matcher_factory()
            self._matcher_obj = matcher
        return matcher

    # -- encoding ----------------------------------------------------------------
    def encode(self, word: Iterable[str]) -> list[int]:
        """Intern *word* into symbol codes (unknown symbols become negative)."""
        return self.alphabet.encode(word)

    # -- the lazy transition function ---------------------------------------------
    def _miss(self, state: int, code: int) -> int:
        """First lookup of ``(state, code)``: delegate to the wrapped matcher.

        Callers hold :attr:`_lock`; the wrapped matcher may lazily grow its
        own structures (skeleton indexes, candidate tables), so delegation
        is never allowed to race.
        """
        self.misses += 1
        following = self.matcher.next_position(self._positions[state], self._symbols[code])
        return DEAD if following is None else following.position_index

    def _fill(self, state: int, code: int) -> int:
        """Slow path: memoize one transition under the writer lock.

        Double-checks after acquisition — another thread may have filled
        the same ``(state, code)`` pair, or adopted a snapshot row for the
        state, between the reader's lock-free probe and this call.  A new
        row is published only once it holds its first transition.
        """
        with self._lock:
            row = self._rows[state]
            if row is None:
                row = {}
            elif type(row) is not dict:  # adopted while we waited
                return row[code]
            target = row.get(code)
            if target is None:
                target = row[code] = self._miss(state, code)
                self._rows[state] = row
            return target

    def step(self, state: int, code: int) -> int:
        """One memoized transition; returns :data:`DEAD` (< 0) on rejection."""
        if code < 0:
            return DEAD
        row = self._rows[state]
        if type(row) is dict:
            target = row.get(code)
            if target is None:
                target = self._fill(state, code)
            return target
        if row is None:
            return self._fill(state, code)
        return row[code]

    def state_accepts(self, state: int) -> bool:
        """``$ ∈ Follow(state)`` — may the word end in this state?

        Lemma 2.3: ``$`` follows position ``p`` iff ``pSupLast(p)`` is the
        root's left child, so acceptance is one pointer comparison and
        needs neither a memo nor the follow index.
        """
        return self._positions[state].p_sup_last is self._final

    # -- whole-word drivers ----------------------------------------------------------
    def accepts_encoded(self, codes: Iterable[int]) -> bool:
        """Membership test over an already-encoded word (the hot loop).

        Everything the loop touches is hoisted into locals; per symbol the
        steady state is one list index plus one dict probe (or a bare
        array index on an adopted row).
        """
        state = self._start_state
        rows = self._rows
        for code in codes:
            if code < 0:
                return False
            row = rows[state]
            if type(row) is dict:
                target = row.get(code)
                if target is None:
                    target = self._fill(state, code)
            elif row is None:
                target = self._fill(state, code)
            else:
                target = row[code]
            if target < 0:
                return False
            state = target
        return self.state_accepts(state)

    def accepts(self, word: Iterable[str]) -> bool:
        """Membership test over a word of symbols (encodes, then runs)."""
        return self.accepts_encoded(self.encode(word))

    def match_many(self, words: Iterable[Sequence[str]]) -> list[bool]:
        """Batch membership: encode each word once, share all memoized rows."""
        accepts_encoded = self.accepts_encoded
        encode = self.encode
        return [accepts_encoded(encode(word)) for word in words]

    # -- streaming ---------------------------------------------------------------------
    def start(self) -> "CompiledRun":
        """Begin a streaming run (mirrors :meth:`DeterministicMatcher.start`)."""
        return CompiledRun(self)

    # -- snapshot export / adoption ------------------------------------------------------
    def export_rows(self) -> dict:
        """Exportable view of the visited machine (for snapshots).

        Returns ``{"rows": {state: array('i')}, "width": int,
        "positions": int}``.  Every visited row is completed first: each
        symbol its traffic has not exercised costs one delegation,
        memoized into the row itself, so a process adopting the snapshot
        answers every transition out of those states without a matcher.
        This forces the wrapped matcher only when some row is incomplete,
        which a runtime holding nothing but adopted rows never is.
        Acceptance is not exported: an adopter reads it off its own parse
        tree (:meth:`state_accepts`).
        """
        width = self._width
        rows: dict[int, array] = {}
        with self._lock:
            for state, row in enumerate(self._rows):
                if type(row) is dict:
                    for code in range(width):
                        if code not in row:
                            row[code] = self._miss(state, code)
                    rows[state] = array("i", [row[code] for code in range(width)])
                elif row is not None:
                    rows[state] = array("i", row)
        return {
            "rows": rows,
            "width": width,
            "positions": len(self._positions),
        }

    def adopt_rows(self, rows: Mapping[int, Sequence[int]]) -> int:
        """Install snapshot rows into this runtime; returns rows adopted.

        Validation is strict and happens *before* any mutation, so a
        rejected snapshot leaves the runtime exactly as it was (normal
        lazy fill): every state index must be a real position, every row
        exactly alphabet-width and every target :data:`DEAD` or a real
        position.  A violation raises
        :class:`~repro.matching.snapshot.SnapshotError` — the API layer
        counts it as ``snapshot_rejected`` and carries on cold.

        Rows are installed as-is (typically mmap-backed memoryviews, so
        forked workers share the pages) but only into states this runtime
        has never visited; locally exercised rows always win.  Kernel
        programs never read them (they come off the tree), so adoption
        leaves cached programs alone.
        """
        position_count = len(self._positions)
        width = self._width
        for state, row in rows.items():
            if not 0 <= state < position_count:
                raise SnapshotError(
                    "row-bounds", f"snapshot row for state {state} outside {position_count} states"
                )
            if len(row) != width:
                raise SnapshotError(
                    "alphabet-width",
                    f"snapshot row has {len(row)} entries for alphabet width {width}",
                )
            # min/max run the scan at C speed; a snapshot-preloaded boot
            # validates every adopted target, so this loop is hot.
            if width and (min(row) < DEAD or max(row) >= position_count):
                raise SnapshotError(
                    "row-bounds", "snapshot transition target out of range"
                )
        adopted = 0
        with self._lock:
            for state, row in rows.items():
                if self._rows[state] is None:
                    self._rows[state] = row
                    adopted += 1
            self._adopted_rows += adopted
        return adopted

    # -- kernel export -------------------------------------------------------------------
    def export_kernel_program(self):
        """This pattern's flat scan table, built once and shared.

        The program (see :mod:`repro.matching.kernel`) comes off the parse
        tree's follow relation, complete by construction, so it reads
        none of this runtime's rows and never delegates to the wrapped
        matcher: a snapshot-preloaded runtime gets its program while its
        matcher stays deferred.  Batches and the lexer scan the same
        program.

        Returns ``None`` when the machine cannot fit
        :data:`~repro.matching.kernel.TABLE_LIMIT` table entries (callers
        then keep the per-word driver).  Two threads racing on a cold
        runtime may both build; both programs are equal and the last
        store wins.
        """
        program = self._kernel_program
        if program is None:
            from . import kernel

            program = kernel.build_program(self.tree)
            if program is None:
                return None
            self._kernel_program = program
        return program

    @property
    def cold(self) -> bool:
        """True while nothing has run on this runtime.

        No batch has replayed on it (:attr:`batched`), its start row is
        unmaterialized and no kernel program is built.  Batch callers
        replay a cold runtime's batch instead of building a table for a
        pattern that may never see a second batch, and neither read nor
        fill :attr:`memo` for it; that batch warms it, whatever its words.
        """
        return not (self.batched or self._kernel_program) and self._rows[self._start_state] is None

    def materialized(self) -> int:
        """Single-number gauge of how much state this runtime holds.

        Counts every memoized transition — adopted rows *included*, since
        re-persisting them still costs bytes.  The snapshot auto-refresh
        policy (:class:`repro.service.prefork.SnapshotRefresher`) compares
        this level across time to decide when the on-disk snapshot is
        stale.
        """
        return sum(len(row) for row in self._rows if row is not None)

    # -- introspection -------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """How much of the lazy DFA has been materialized so far.

        ``adopted_rows`` counts rows that came from a persisted snapshot
        (the only array-backed rows).  Every *locally* memoized transition
        corresponds to exactly one delegation to the wrapped matcher —
        adopted rows were exercised by some earlier process, so they are
        excluded and ``transitions_memoized == misses`` remains the
        invariant the tests pin down.  ``kernel_programs`` reads 1 once the
        flat batch-scan table is built for this pattern
        (:meth:`export_kernel_program`), 0 before; it comes off the parse
        tree and kernel scans touch no row, so batches on the kernel never
        perturb the other counters.
        """
        visited = 0
        transitions = 0
        for row in self._rows:
            if row is not None:
                visited += 1
                transitions += len(row)
        adopted = self._adopted_rows
        return {
            "states_visited": visited,
            "transitions_memoized": transitions - adopted * self._width,
            "misses": self.misses,
            "adopted_rows": adopted,
            "kernel_programs": int(self._kernel_program is not None),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        matcher = self._matcher_obj
        name = matcher.name if matcher is not None else "<deferred>"
        return (
            f"CompiledRuntime({name}, "
            f"states={stats['states_visited']}/{len(self._positions)}, "
            f"transitions={stats['transitions_memoized']})"
        )


class CompiledRun:
    """A streaming run over the compiled runtime.

    Drop-in replacement for :class:`~repro.matching.base.MatchRun`: ``feed``
    returns False once the run is dead and stays dead, ``is_accepting`` can
    be consulted at any point, ``consumed`` counts accepted symbols.  The
    ``position`` property maps the integer state back to its tree node so
    diagnostic code written against the direct path keeps working.
    """

    __slots__ = ("runtime", "state", "alive", "consumed")

    def __init__(self, runtime: CompiledRuntime):
        self.runtime = runtime
        self.state: int = runtime._start_state
        self.alive = True
        self.consumed = 0

    @property
    def position(self) -> TreeNode:
        """The parse-tree position corresponding to the current state."""
        return self.runtime._positions[self.state]

    def feed(self, symbol: str) -> bool:
        """Consume one symbol; return True while the run is still alive."""
        if not self.alive:
            return False
        runtime = self.runtime
        code = runtime._codes.get(symbol, UNKNOWN_CODE)
        target = runtime.step(self.state, code)
        if target < 0:
            self.alive = False
            return False
        self.state = target
        self.consumed += 1
        return True

    def feed_all(self, word: Iterable[str]) -> bool:
        """Consume a whole word with the hoisted-locals loop."""
        if not self.alive:
            return False
        runtime = self.runtime
        step = runtime.step
        get = runtime._codes.get
        state = self.state
        consumed = self.consumed
        for symbol in word:
            target = step(state, get(symbol, UNKNOWN_CODE))
            if target < 0:
                self.state = state
                self.consumed = consumed
                self.alive = False
                return False
            state = target
            consumed += 1
        self.state = state
        self.consumed = consumed
        return True

    def is_accepting(self) -> bool:
        """True when the symbols consumed so far form a member of the language."""
        return self.alive and self.runtime.state_accepts(self.state)

