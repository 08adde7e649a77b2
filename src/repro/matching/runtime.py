"""A lazily compiled integer runtime over any Section-4 matcher.

The paper's matchers answer *"which a-labelled position follows p?"* with
clever O(1)-ish structure queries, but each query is still a handful of
Python-level calls (LCA probe, ancestor tests, candidate scans).  For a
*deterministic* expression the answer is a pure function of the pair
``(p, a)`` — there is at most one a-labelled follower of ``p`` — so the
whole matcher can be lowered on the fly into flat integer transition rows:
the lazy-DFA idiom.  :class:`CompiledRuntime` does exactly that:

* **states** are position indices (``TreeNode.position_index``), dense
  integers assigned by the parse tree;
* **symbols** are interned through the tree's :class:`~repro.regex.alphabet.Alphabet`
  into dense integer codes, and words are encoded once per call/batch
  instead of being re-split per symbol;
* **transitions** ``(state, symbol_code) → state`` are memoized per state
  in a dict row that is created on first visit and filled on first lookup
  by delegating to the wrapped matcher's transition simulation.  Misses
  (no follower) are memoized too, as :data:`DEAD`;
* **hot rows densify**: once a state's dict row has collected
  transitions for a threshold fraction of the alphabet (see
  :func:`densify_threshold`), the remaining entries are completed eagerly
  and the whole row is promoted to an ``array('i')``-backed *dense row* —
  steady-state stepping through a hot state is then a C-level array index
  instead of a dict probe;
* **dense rows are shared**: completed rows are interned in a
  module-level registry keyed by their contents, so structurally equal
  sub-expressions — within one runtime or across runtimes — end up
  pointing at the *same* array object (pure memory dedup; the contents,
  being equal, behave identically wherever they are consulted).

Memory therefore stays proportional to the transitions actually
exercised — never the O(|e|·|Σ|) Glushkov table — while steady-state
matching is two array/dict probes per symbol.  Because the expression is
deterministic, memoization can never change a verdict: the runtime and the
wrapped matcher agree on every word by construction (the property tests
check this against every registered strategy).

**Concurrency contract** (the ``repro.service`` thread pool relies on it):
warm reads are lock-free — stepping through an already-memoized transition
touches only a list index plus a dict/array probe, with no lock in the
path — while every *write* (first-time delegation to the wrapped matcher,
row densification, acceptance memoization) happens under a per-runtime
mutex with a double-check after acquisition.  Rows are only ever published
in valid states: a dict row grows monotonically, and densification swaps
the complete array in with one atomic list-slot store, so a reader racing
a writer either sees the old (still correct) row or the new one.  Since
the expression is deterministic, two threads racing to fill the same
``(state, symbol)`` pair would compute the same target anyway — the lock
exists to keep the *wrapped matcher's* lazy structures single-threaded,
not to protect the verdict.  The shared dense-row registry has its own
module-level lock.

>>> from repro.matching import build_matcher
>>> from repro.regex.parse_tree import build_parse_tree
>>> runtime = CompiledRuntime(build_matcher(build_parse_tree("(ab)*"), verify=False))
>>> runtime.accepts("abab")
True
>>> runtime.accepts("aba")
False
>>> sorted(runtime.stats())  # doctest: +NORMALIZE_WHITESPACE
['adopted_rows', 'dense_rows', 'kernel_programs', 'misses', 'shared_rows',
 'states_visited', 'transitions_memoized']

The runtime preserves the streaming contract of the direct path:
:meth:`CompiledRuntime.start` returns a :class:`CompiledRun` with the same
``feed`` / ``feed_all`` / ``is_accepting`` / ``consumed`` surface as
:class:`~repro.matching.base.MatchRun`, so the XML streaming checker and
``Pattern.stream`` work unchanged on top of it.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import Callable, Iterable, Mapping, Sequence

from ..regex.alphabet import UNKNOWN_CODE
from ..regex.parse_tree import ParseTree, TreeNode
from .base import DeterministicMatcher
from .snapshot import SnapshotError

#: Memoized "no transition" marker.  Any negative value works (valid states
#: are non-negative position indices); sharing the encoder's UNKNOWN_CODE
#: keeps the hot loop to a single ``< 0`` test for both kinds of rejection.
DEAD = UNKNOWN_CODE

#: A dict row densifies only after collecting at least this many entries …
DENSIFY_MIN = 4

#: … and at least this fraction of the alphabet (numerator/denominator).
#: Half the alphabet means a dense row at most doubles the row's memory
#: while removing the per-symbol dict probe for the state entirely.
DENSIFY_LOAD = (1, 2)


def densify_threshold(width: int) -> int:
    """Entry count at which a dict row of alphabet *width* turns dense.

    Small alphabets (the common XML case: a handful of element names)
    densify only once fully exercised; larger ones at half coverage but
    never before :data:`DENSIFY_MIN` entries.

    >>> [densify_threshold(width) for width in (1, 2, 4, 8, 20)]
    [1, 2, 4, 4, 10]
    """
    num, den = DENSIFY_LOAD
    return min(width, max(DENSIFY_MIN, (width * num + den - 1) // den))


#: Interning registry for completed dense rows, keyed by row contents.
#: Structurally equal sub-expressions produce identical rows; interning
#: makes every consumer point at one shared array object.  Contents are
#: plain target integers, so sharing across runtimes (each interpreting
#: targets against its own position list) is pure memory dedup and can
#: never change a verdict.  Values are held *weakly*: the runtimes using
#: a row keep it alive, and once the last one is gone (e.g. its pattern
#: was evicted from the compile cache) the entry drops out, so a churning
#: stream of distinct patterns cannot grow the registry without bound.
_SHARED_ROWS: "weakref.WeakValueDictionary[tuple[int, ...], array[int]]" = (
    weakref.WeakValueDictionary()
)

#: Guards the registry: densifications can run concurrently on different
#: runtimes (each holding only its own per-runtime lock), and a WeakValue
#: dictionary additionally mutates itself from garbage-collection
#: callbacks, so every get/insert/clear goes through this mutex.
_ROWS_LOCK = threading.Lock()

#: Guards first-time runtime attachment in :func:`compile_runtime` so two
#: threads racing on a cold matcher share one runtime instead of each
#: memoizing into a private copy.
_ATTACH_LOCK = threading.Lock()


def shared_row_count() -> int:
    """Number of distinct dense rows currently interned (telemetry)."""
    with _ROWS_LOCK:
        return len(_SHARED_ROWS)


def aggregate_stats(named_runtimes: Iterable[tuple[str, "CompiledRuntime"]]) -> dict[str, dict]:
    """Fold per-runtime :meth:`CompiledRuntime.stats` into telemetry.

    Shared by ``DTDValidator.stats`` and ``XSDSchema.stats``: returns
    ``{"elements": {name: stats}, "totals": summed-per-key}`` so a new
    counter added to :meth:`CompiledRuntime.stats` shows up in every
    surface at once.  Structurally equal content models share one runtime
    through the compile cache; each such runtime is listed under every
    name using it but counted into ``totals`` only once, so the totals
    reflect real materialization, not the sharing factor.
    """
    per_element: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    seen: set[int] = set()
    for name, runtime in named_runtimes:
        stats = runtime.stats()
        per_element[name] = stats
        if id(runtime) in seen:
            continue
        seen.add(id(runtime))
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return {"elements": per_element, "totals": totals}


def clear_shared_rows() -> None:
    """Drop the dense-row interning registry (``repro.purge`` calls this).

    Existing runtimes keep the array objects they already reference;
    clearing only stops future densifications from aliasing them.  Safe
    against in-flight matches: a match replaying a dense row holds a
    direct reference to the array, never the registry entry.
    """
    with _ROWS_LOCK:
        _SHARED_ROWS.clear()


class CompiledRuntime:
    """Lazy-DFA execution of a wrapped :class:`DeterministicMatcher`.

    The wrapped matcher is consulted only on the *first* lookup of each
    ``(state, symbol)`` pair; after that the transition is a dict probe —
    or, once the state's row has densified (see :func:`densify_threshold`),
    a C-level array index.  ``stats()`` exposes how much of the machine has
    been materialized, which the cache-reuse tests, the telemetry surfaces
    (``Pattern.stats``, ``XSDSchema.stats``) and the benchmarks
    inspect.
    """

    __slots__ = (
        "_matcher_obj",
        "_matcher_factory",
        "tree",
        "alphabet",
        "_codes",
        "_symbols",
        "_positions",
        "_rows",
        "_accepts",
        "_start_state",
        "_width",
        "_densify_at",
        "_lock",
        "misses",
        "row_dedups",
        "_adopted_rows",
        "_generation",
        "_kernel_programs",
        "kernel_programs_built",
        "_reachable_accepting",
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
        state_count = len(self._positions)
        #: per-state transition rows: None until first visit, then a dict,
        #: then (past the densify threshold) a completed array('i') row
        self._rows: list[dict[int, int] | "array[int]" | None] = [None] * state_count
        #: per-state acceptance verdict: -1 unknown, 0 reject, 1 accept
        self._accepts: list[int] = [-1] * state_count
        self._start_state: int = self.tree.start.position_index
        #: alphabet width; dense rows have exactly this many entries
        self._width: int = len(self.alphabet)
        self._densify_at: int = densify_threshold(self._width)
        #: single writer lock: first-time transitions, densification and
        #: acceptance memoization serialize here (warm reads never do)
        self._lock = threading.Lock()
        #: number of delegations to the wrapped matcher so far (cache misses)
        self.misses = 0
        #: densified rows that aliased an already-interned equal row
        self.row_dedups = 0
        #: rows installed from a persisted snapshot (mmap-backed views)
        self._adopted_rows = 0
        #: bumped on every mutation of rows or acceptance verdicts; kernel
        #: programs are cached against it so a stale flat table is rebuilt
        #: on the next batch call (see :meth:`export_kernel_program`)
        self._generation = 0
        #: per-stride cache of ``(generation, KernelProgram)`` pairs
        self._kernel_programs: dict[int, tuple[int, object]] = {}
        #: kernel programs compiled for this runtime (telemetry)
        self.kernel_programs_built = 0
        #: accepting states of the reachable machine once :meth:`complete`
        #: has materialized it; ``None`` while the machine is still lazy
        self._reachable_accepting: list[int] | None = None

    @property
    def matcher(self) -> DeterministicMatcher:
        """The wrapped Section-4 matcher, built on first *miss* if deferred.

        Snapshot-preloaded runtimes start without a matcher: as long as
        every transition is answered by adopted rows, the (expensive)
        matcher preprocessing never runs — acceptance verdicts come off
        the tree's own follow index.  The first genuine miss invokes the
        factory — a factory must be idempotent under races
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
        the same ``(state, code)`` pair, or densified the whole row, between
        the reader's lock-free probe and this call.
        """
        with self._lock:
            row = self._rows[state]
            if row is None:
                row = self._rows[state] = {}
            elif type(row) is not dict:  # densified while we waited
                return row[code]
            target = row.get(code)
            if target is None:
                target = row[code] = self._miss(state, code)
                if len(row) >= self._densify_at:
                    self._densify(state, row)
                self._generation += 1
            return target

    def _densify(self, state: int, row: dict[int, int]) -> None:
        """Promote a hot dict row to a completed, interned dense array row.

        Entries the traffic has not exercised yet are filled eagerly (at
        most ``|Σ|`` extra delegations, paid once per hot state), so the
        dense row is total and can be probed with a bare index.  The
        completed row is interned in :data:`_SHARED_ROWS`: structurally
        equal rows collapse to one array object.  Runs under :attr:`_lock`;
        the swap into ``_rows`` is a single atomic list-slot store, and the
        superseded dict row stays valid for any reader still probing it.
        """
        get = row.get
        miss = self._miss
        entries = [get(code) for code in range(self._width)]
        for code, target in enumerate(entries):
            if target is None:
                entries[code] = miss(state, code)
        key = tuple(entries)
        with _ROWS_LOCK:
            dense = _SHARED_ROWS.get(key)
            if dense is None:
                dense = _SHARED_ROWS[key] = array("i", entries)
            else:
                self.row_dedups += 1
        self._rows[state] = dense
        self._generation += 1

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
        """Memoized ``$ ∈ Follow(state)`` — may the word end in this state?"""
        verdict = self._accepts[state]
        if verdict < 0:
            with self._lock:
                verdict = self._accepts[state]
                if verdict < 0:
                    accepted = self.tree.follow.accepts_at(self._positions[state])
                    verdict = self._accepts[state] = 1 if accepted else 0
                    self._generation += 1
        return verdict == 1

    def complete(self) -> list[int]:
        """Materialize the whole reachable machine once; returns its accepting states.

        Walks every symbol code from every state reachable from the start
        state through :meth:`step`, so each missing transition is filled
        (and counted) exactly as a word would fill it, and resolves the
        acceptance verdict of every state it reaches.  Afterwards no word
        can miss: a kernel program built over the rows never falls back
        and the generation stops moving.  The walk runs once; later calls
        return the same list.  Unreachable states stay unmaterialized.
        """
        accepting = self._reachable_accepting
        if accepting is None:
            width = self._width
            step = self.step
            accepting = []
            seen = {self._start_state}
            queue = [self._start_state]
            while queue:
                state = queue.pop()
                if self.state_accepts(state):
                    accepting.append(state)
                for code in range(width):
                    target = step(state, code)
                    if target >= 0 and target not in seen:
                        seen.add(target)
                        queue.append(target)
            self._reachable_accepting = accepting
        return accepting

    # -- whole-word drivers ----------------------------------------------------------
    def accepts_encoded(self, codes: Iterable[int]) -> bool:
        """Membership test over an already-encoded word (the hot loop).

        Everything the loop touches is hoisted into locals; per symbol the
        steady state is one list index plus one dict probe — or a bare
        array index once the state's row has densified.
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
    def start(self, trace: bool = False) -> "CompiledRun":
        """Begin a streaming run (mirrors :meth:`DeterministicMatcher.start`).

        With ``trace=True`` the run is a :class:`TracedRun` recording the
        state sequence it visits — the match witness consumed by
        :mod:`repro.diagnostics`.  Tracing is opt-in per run; the plain
        run type and its feed loops are untouched.
        """
        if trace:
            return TracedRun(self)
        return CompiledRun(self)

    # -- snapshot export / adoption ------------------------------------------------------
    def export_rows(self, complete: bool = True) -> dict:
        """Exportable view of the materialized machine (for snapshots).

        Returns ``{"accepts": bytes, "rows": {state: array('i')},
        "width": int, "positions": int}``.  With *complete* (the default
        for saving) every visited dict row is promoted to a completed
        dense row first and the acceptance verdict of every state is
        resolved — both force the wrapped matcher, which a process warm
        enough to be worth snapshotting has already built.  With
        ``complete=False`` only what is already dense/known is exported.
        Acceptance bytes are 1 (accept), 0 (reject) or 0xFF (unknown).
        """
        with self._lock:
            if complete:
                for state, row in enumerate(self._rows):
                    if type(row) is dict and row:
                        self._densify(state, row)
            rows: dict[int, array] = {}
            for state, row in enumerate(self._rows):
                if row is not None and type(row) is not dict:
                    rows[state] = array("i", row)
            accepts = bytearray(b"\xff" * len(self._positions))
            for state, verdict in enumerate(self._accepts):
                if verdict >= 0:
                    accepts[state] = verdict
            if complete and 0xFF in accepts:
                # Verdicts come off the tree's own follow index, as in
                # state_accepts: re-exporting a snapshot-adopted runtime
                # must keep its matcher deferred.
                accepts_at = self.tree.follow.accepts_at
                for state in range(len(self._positions)):
                    if accepts[state] == 0xFF:
                        verdict = 1 if accepts_at(self._positions[state]) else 0
                        self._accepts[state] = verdict
                        accepts[state] = verdict
                        self._generation += 1
        return {
            "accepts": bytes(accepts),
            "rows": rows,
            "width": self._width,
            "positions": len(self._positions),
        }

    def adopt_rows(self, accepts: bytes | None, rows: Mapping[int, Sequence[int]]) -> int:
        """Install snapshot rows into this runtime; returns rows adopted.

        Validation is strict and happens *before* any mutation, so a
        rejected snapshot leaves the runtime exactly as it was (normal
        lazy fill): every state index must be a real position, every row
        exactly alphabet-width, every target :data:`DEAD` or a real
        position, and acceptance bytes must cover every state with
        0/1/0xFF values.  A violation raises
        :class:`~repro.matching.snapshot.SnapshotError` — the API layer
        counts it as ``snapshot_rejected`` and carries on cold.

        Rows are installed as-is (typically mmap-backed memoryviews, so
        forked workers share the pages) but only into states this runtime
        has never visited; locally exercised rows always win.  The
        generation moves only when a row or an acceptance verdict was
        installed, so re-adopting rows the runtime already holds keeps its
        cached kernel programs.
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
        if accepts is not None:
            if len(accepts) != position_count:
                raise SnapshotError(
                    "accepts-length",
                    f"snapshot acceptance table covers {len(accepts)} of "
                    f"{position_count} states",
                )
            if not set(accepts) <= {0, 1, 0xFF}:
                bad = sorted(set(accepts) - {0, 1, 0xFF})[0]
                raise SnapshotError("malformed", f"invalid acceptance byte {bad}")
        adopted = 0
        resolved = 0
        with self._lock:
            for state, row in rows.items():
                if self._rows[state] is None:
                    self._rows[state] = row
                    adopted += 1
            self._adopted_rows += adopted
            if accepts is not None:
                for state, value in enumerate(accepts):
                    if value != 0xFF and self._accepts[state] < 0:
                        self._accepts[state] = value
                        resolved += 1
            if adopted or resolved:
                self._generation += 1
        return adopted

    # -- kernel export -------------------------------------------------------------------
    def export_kernel_program(self, max_entries: int | None = None, max_stride: int | None = None):
        """The flat batch-scan table over this runtime's current rows.

        Programs (see :mod:`repro.matching.kernel`) are cached per
        requested stride against :attr:`_generation`, which every row
        fill, densification, acceptance resolution and installing
        snapshot adoption bumps — so a cached program is exactly as warm
        as the machine, and a call after new row fills rebuilds it over
        the larger row set.  After :meth:`complete` no word fills a row,
        so one program serves every later call.  Building only *reads*
        rows (missing transitions become fallback edges), so exporting
        never delegates to the wrapped matcher: a snapshot-preloaded
        runtime with adopted rows yields a complete kernel program while
        its matcher stays deferred.

        Returns ``None`` when the machine cannot fit *max_entries* table
        slots (callers then keep the per-word driver).  Two threads
        racing on a cold cache may both build; both programs are correct
        and the last store wins — the cache is an optimization, not a
        correctness gate.
        """
        from .kernel import MAX_STRIDE, build_program

        if max_stride is None:
            max_stride = MAX_STRIDE
        generation = self._generation
        cached = self._kernel_programs.get(max_stride)
        if cached is not None and cached[0] == generation:
            return cached[1]
        program = build_program(self, max_entries, max_stride)
        if program is None:
            return None
        if cached is not None and cached[1].stride == program.stride:
            # group encoding depends only on the machine shape, which a
            # generation bump never changes: the rebuilt program inherits
            # the superseded program's memoized word encodings
            program._encode_cache = cached[1]._encode_cache
        self._kernel_programs[max_stride] = (generation, program)
        self.kernel_programs_built += 1
        return program

    @property
    def cold(self) -> bool:
        """True while the start row is unmaterialized and no kernel program is cached.

        A kernel table built now would send every word whose first symbol
        is in the alphabet to fallback; batch callers replay instead.
        """
        return self._rows[self._start_state] is None and not self._kernel_programs

    def materialized(self) -> int:
        """Single-number gauge of how much state this runtime holds.

        Counts every memoized transition — adopted rows *included*, since
        re-persisting them still costs bytes — plus every resolved
        acceptance verdict.  The snapshot auto-refresh policy
        (:class:`repro.service.prefork.SnapshotRefresher`) compares this
        level across time to decide when the on-disk snapshot is stale.
        """
        total = 0
        for row in self._rows:
            if row is not None:
                total += len(row)
        for verdict in self._accepts:
            if verdict >= 0:
                total += 1
        return total

    # -- introspection -------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """How much of the lazy DFA has been materialized so far.

        ``dense_rows`` counts states promoted to array-backed rows,
        ``shared_rows`` how many of those aliased an already-interned equal
        row instead of allocating a new array, ``adopted_rows`` how many
        came from a persisted snapshot.  Every *locally* memoized
        transition corresponds to exactly one delegation to the wrapped
        matcher — adopted rows were exercised by some earlier process, so
        they are excluded and ``transitions_memoized == misses`` remains
        the invariant the unit tests pin down.  ``kernel_programs`` counts
        flat batch-scan tables compiled from these rows
        (:meth:`export_kernel_program`); kernel scans only read rows, so
        they never perturb the other counters.
        """
        visited = 0
        transitions = 0
        dense_rows = 0
        for row in self._rows:
            if row is None:
                continue
            visited += 1
            transitions += len(row)
            if type(row) is not dict:
                dense_rows += 1
        return {
            "states_visited": visited,
            "transitions_memoized": transitions - self._adopted_rows * self._width,
            "misses": self.misses,
            "dense_rows": dense_rows,
            "shared_rows": self.row_dedups,
            "adopted_rows": self._adopted_rows,
            "kernel_programs": self.kernel_programs_built,
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


class TracedRun(CompiledRun):
    """A streaming run that records the state trace it visits.

    ``trace[i]`` is the state (position index) after consuming ``i``
    symbols; ``trace[0]`` is the start sentinel.  Determinism makes the
    trace the *unique* parse of the consumed prefix — the match witness.
    The recording costs one list append per symbol, which is why it lives
    in a subclass: ``start()`` without ``trace=True`` never pays it.
    """

    __slots__ = ("trace",)

    def __init__(self, runtime: CompiledRuntime):
        super().__init__(runtime)
        self.trace: list[int] = [self.state]

    def feed(self, symbol: str) -> bool:
        if CompiledRun.feed(self, symbol):
            self.trace.append(self.state)
            return True
        return False

    def feed_all(self, word: Iterable[str]) -> bool:
        if not self.alive:
            return False
        append = self.trace.append
        for symbol in word:
            if not CompiledRun.feed(self, symbol):
                return False
            append(self.state)
        return True


def compile_runtime(matcher: DeterministicMatcher) -> CompiledRuntime:
    """Build (or reuse) the compiled runtime attached to *matcher*.

    The runtime is cached on the matcher so repeated calls — e.g. one per
    validated element of a large document — share every memoized row.
    First-time attachment is serialized so two worker threads hitting a
    cold matcher share one runtime (and its memoized rows) instead of
    each building a private copy.
    """
    runtime = getattr(matcher, "_compiled_runtime", None)
    if runtime is None:
        with _ATTACH_LOCK:
            runtime = getattr(matcher, "_compiled_runtime", None)
            if runtime is None:
                runtime = CompiledRuntime(matcher)
                matcher._compiled_runtime = runtime
    return runtime
