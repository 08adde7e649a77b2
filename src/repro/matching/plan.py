"""Execution planning: one object per pattern that owns its matching strategy.

Historically every surface of the library re-derived "which engine should
this pattern run on?" for itself: ``Pattern.match``/``match_all`` had one
if/elif ladder, ``describe()`` reconstructed the same decision a second
time for its ``batch_path`` field, the diagnostics replay picked its
adapter from ``pattern._compiled``, the lexer rebuilt the kernel-program
export, and the DTD/XSD validators each kept their own
runtime-vs-matcher-vs-memo dispatch.  Adding a new scenario class (a
Section-4 matcher family, the kernel programs —
or the planned back-reference dialects) meant one cross-cutting edit per
surface.

This module gives the decision exactly one owner:

* :class:`ExecutionPlan` — the per-pattern strategy object.  A plan knows
  its stable ``route`` name (the string ``describe()["batch_path"]``
  reports), answers single matches (:meth:`~ExecutionPlan.match`), batch
  matches (:meth:`~ExecutionPlan.match_all`), streaming runs
  (:meth:`~ExecutionPlan.stream`), validator child-sequence checks
  (:meth:`~ExecutionPlan.accepts_children`), lexer scan programs
  (:meth:`~ExecutionPlan.scan_program` / :meth:`~ExecutionPlan.longest_match`)
  and hands the diagnostics layer its replay adapter
  (:meth:`~ExecutionPlan.replay_for_diagnostics`).
* :class:`Planner` — ``plan(pattern)`` returns a :class:`DirectPlan`
  for an uncompiled pattern and a :class:`CompiledPlan` otherwise, whose
  route name is read off the parse tree.  A future dialect engine
  (deterministic regex with back-references, memoization-based matching)
  is one more plan class and one more branch in :meth:`Planner.plan`,
  not five surface edits.

The four routes (and their unchanged wire names):

``"per-word"``
    The uncompiled path: one direct Section-4 matcher call per word.
    Selected when the pattern (or the calling validator) asked for
    ``compiled=False`` — the per-symbol structure queries stay observable,
    which is what the benchmarks compare against.
``"star-free-multi"``
    Star-free deterministic patterns.  They batch exactly as
    ``"compiled-kernel"`` does; the route keeps its own wire name so
    ``describe()["batch_path"]`` is unchanged.  The Theorem 4.12
    multi-word matcher (:mod:`repro.matching.star_free`) answers the same
    verdicts in one scan of the positions, but a kernel table answers a
    warm batch with one table step per symbol group, so the
    multi-matcher stays a reproduction of the theorem, not a serving
    engine.
``"compiled-kernel"``
    The parse tree's follow relation becomes one complete, premultiplied
    kernel table (:mod:`repro.matching.kernel`); batches stride over it
    branch-free.  Only a batch over a cold runtime replays per word.
    Single words, streams and child sequences run on the runtime's
    memoized rows.
``"compiled-runtime"``
    Per-word replay over the memoized lazy-DFA rows — the terminal
    compiled fallback for machines too large for a kernel table.

The three compiled routes run the same :class:`CompiledPlan`; only the
name differs, and it depends on the tree alone, so no amount of traffic
changes a pattern's route.  Plans are deliberately thin: the pattern
keeps owning the lazily built matcher, runtime and acceptance memo (and
their locks), so a plan never duplicates engine state — it only decides
*which* engine runs and keeps the telemetry accessors
(:meth:`built_runtime`, :meth:`built_memo`) that snapshot persistence
reads without forcing construction.

>>> import repro
>>> repro.compile("ab(a+b)").plan.route      # star-free and deterministic
'star-free-multi'
>>> repro.compile("(ab)*").plan.route
'compiled-kernel'
>>> repro.compile("a", compiled=False).plan.route
'per-word'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..errors import NotDeterministicError
from . import kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import Pattern


class ExecutionPlan:
    """Base class of all per-pattern strategy objects.

    Subclasses set :attr:`route` (the stable wire name) and implement the
    matching surface; the base class provides the telemetry accessors
    that report "nothing built" so persistence walks need no
    ``isinstance`` checks.
    """

    #: Stable route name — the value ``Pattern.describe()["batch_path"]``
    #: reports and the serving front puts on the wire.
    route = "abstract"

    __slots__ = ("pattern",)

    def __init__(self, pattern: "Pattern"):
        self.pattern = pattern

    # -- matching surface ---------------------------------------------------------------
    def match(self, symbols: Sequence[str]) -> bool:
        """Verdict for one parsed word."""
        raise NotImplementedError

    def match_all(self, corpus: "kernel.Corpus", detail: str = "verdict"):
        """One verdict (or full result) per batch word, each distinct word answered once."""
        raise NotImplementedError

    def verdict_memo(self, detail: str = "verdict"):
        """The memo a batch's :class:`~repro.matching.kernel.Corpus` may read, or ``None``."""
        return None

    def stream(self):
        """Begin a streaming run (``feed`` / ``is_accepting`` / ``consumed``)."""
        raise NotImplementedError

    # ``start()`` aliases ``stream()`` so a plan can stand in anywhere a
    # matcher/runtime was handed out for streaming (StreamingContentChecker).
    def start(self):
        return self.stream()

    def accepts_children(self, children: Sequence[str]) -> bool:
        """Whole-sequence verdict for one validator child sequence."""
        raise NotImplementedError

    def replay_for_diagnostics(self):
        """The :mod:`repro.diagnostics` replay adapter for this strategy."""
        raise NotImplementedError

    # -- lexer surface ------------------------------------------------------------------
    def scan_program(self):
        """The stride-1 kernel program for longest-match scanning.

        Exports (and caches) the flat table and reads its accepting
        states off the accept bytes.  Returns ``(program,
        accepting_states)``; ``program`` is ``None`` when the machine
        exceeds the kernel table ceiling.  Only compiled plans support
        scanning.
        """
        raise NotImplementedError(f"route {self.route!r} does not support scan programs")

    def longest_match(self, tags, encoded, start: int):
        """Maximal-munch step over the cached scan program (see the lexer)."""
        raise NotImplementedError(f"route {self.route!r} does not support scanning")

    # -- telemetry accessors (never force construction) ---------------------------------
    def built_runtime(self):
        """The compiled runtime if this plan uses one and it exists, else ``None``."""
        return None

    def built_memo(self):
        """The acceptance memo if already built, else ``None``."""
        return None

    def prime(self) -> "ExecutionPlan":
        """Force the engines this plan runs on (validator construction path)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} route={self.route!r}>"


class DirectPlan(ExecutionPlan):
    """The uncompiled route: every word runs on the direct Section-4 matcher."""

    route = "per-word"

    __slots__ = ()

    def match(self, symbols: Sequence[str]) -> bool:
        return self.pattern.matcher.accepts(symbols)

    def match_all(self, corpus: "kernel.Corpus", detail: str = "verdict"):
        accepts = self.pattern.matcher.accepts
        if detail != "full":
            return corpus.fan_out([bool(accepts(word)) for word in corpus.words])
        from ..diagnostics import MatchResult

        results = [MatchResult(accepts(word), word, pattern=self.pattern) for word in corpus.words]
        return corpus.fan_out(results)

    def stream(self):
        return self.pattern.matcher.start()

    def accepts_children(self, children: Sequence[str]) -> bool:
        return self.pattern.matcher.accepts(list(children))

    def replay_for_diagnostics(self):
        from ..diagnostics import _DirectEngine

        return _DirectEngine(self.pattern.matcher, self.pattern.tree_report.deterministic)

    def prime(self) -> "DirectPlan":
        self.pattern.matcher
        return self


class CompiledPlan(ExecutionPlan):
    """Every compiled route (runtime-backed); *route* is its wire name.

    Single matches replay the memoized lazy-DFA rows; batches attempt the
    kernel scan (building a composed table costs milliseconds, so tiny
    batches only take it when a program is already cached, and a cold
    runtime's batch replays per word); child sequences go through the
    pattern's acceptance memo.  A machine too large for any kernel table
    (route ``"compiled-runtime"``) replays every batch per word:
    :func:`kernel.match_words` answers ``None`` before building anything.
    """

    __slots__ = ("route", "_memo", "_runtime", "_scan")

    def __init__(self, pattern: "Pattern", route: str):
        super().__init__(pattern)
        self.route = route
        self._memo = None
        self._runtime = None
        #: lazily exported ``(program, accepting_states)`` for the lexer
        self._scan = None

    @property
    def runtime(self):
        runtime = self._runtime
        if runtime is None:
            runtime = self._runtime = self.pattern.runtime
        return runtime

    def match(self, symbols: Sequence[str]) -> bool:
        return self.runtime.accepts(symbols)

    def stream(self):
        return self.runtime.start()

    def match_all(self, corpus: "kernel.Corpus", detail: str = "verdict"):
        if detail == "full":
            return self._match_all_full(corpus)
        return self._verdicts(corpus)

    def verdict_memo(self, detail: str = "verdict"):
        """The batch program's verdict memo, once that program is built.

        A ``detail="full"`` batch gets none, so it diagnoses every word; a
        plan whose runtime is unbuilt or cold has no program to ask.
        """
        runtime = self._runtime
        if detail == "full" or runtime is None:
            return None
        return runtime.verdict_memo()

    def _verdicts(self, corpus: "kernel.Corpus", replay=None) -> list[bool]:
        """One verdict per batch word: a kernel pass, else per-word replay.

        Kernel passes book the pattern's kernel traffic split.  Building a
        composed table costs milliseconds; tiny batches only route through
        the kernel when a program is already cached.  A batch over a
        *cold* runtime builds no table either: a pattern compiled for one
        batch (every schema-compile op) would pay for a table it uses
        once.  Its distinct words replay through *replay*, every batch
        word is booked as a fallback word, and the runtime is warm from
        then on, whatever the words were.  Any other batch runs on the
        pattern's one program, which is complete, so no word falls back;
        a machine too large for any table (stride 0) replays per word.
        """
        runtime = self.runtime
        if len(corpus) >= kernel.MIN_BATCH or runtime._kernel_programs:
            if runtime.cold and kernel.eligible(runtime.tree):
                verdicts = kernel.replay_words(runtime, corpus, replay=replay)
                runtime.batched = True
                self.pattern._record_kernel_traffic(0, len(corpus))
                return verdicts
            verdicts = kernel.match_words(runtime, corpus)
            if verdicts is not None:
                self.pattern._record_kernel_traffic(len(corpus), 0)
                return verdicts
        return corpus.fan_out(runtime.match_many(corpus.words))

    def _match_all_full(self, corpus: "kernel.Corpus"):
        """The ``detail="full"`` batch path: one lazy MatchResult per distinct word.

        A cold batch replays its words through a
        :class:`~repro.diagnostics.TraceRecorder`, so the traces those
        replays walk anyway seed the results and no prefix is walked
        twice; kernel verdicts diagnose lazily on field access.  Repeats
        of a word share its result, as on the direct plan.  Every
        compiled route, star-free included, takes this path.
        """
        from .. import diagnostics

        runtime = self.runtime
        recorder = diagnostics.TraceRecorder(runtime)
        # The verdicts come batch-shaped; scatter them back to one per slot.
        verdicts = dict(zip(corpus.index, self._verdicts(corpus, replay=recorder)))
        results = []
        for slot, word in enumerate(corpus.words):
            seed = recorder.traces.get(tuple(runtime.encode(word)))
            diagnosis = None
            if seed is not None:
                diagnosis = diagnostics.complete_from_trace(self.pattern, word, seed[0], seed[1])
            results.append(
                diagnostics.MatchResult(
                    verdicts[slot], word, pattern=self.pattern, diagnosis=diagnosis
                )
            )
        return corpus.fan_out(results)

    def accepts_children(self, children: Sequence[str]) -> bool:
        memo = self._memo
        if memo is None:
            memo = self._memo = self.pattern.acceptance_memo()
        # Whole-sequence fast path: repeated child sequences (the Li et
        # al. workload) are answered by one dict probe.
        return memo.accepts(self.runtime, children)

    def replay_for_diagnostics(self):
        from ..diagnostics import _CompiledEngine

        return _CompiledEngine(self.runtime, self.pattern.tree_report.deterministic)

    # -- lexer surface ------------------------------------------------------------------
    def scan_program(self):
        scan = self._scan
        if scan is None:
            program = self.runtime.export_kernel_program(max_stride=1)
            accepting = []
            if program is not None:
                accepts = program.accepts
                accepting = [
                    state for state in range(program.states) if accepts[state * program.span]
                ]
            scan = self._scan = (program, accepting)
        return scan

    def longest_match(self, tags, encoded, start: int):
        program, _accepting = self.scan_program()
        return kernel.longest_match(program, tags, encoded, start)

    # -- telemetry ----------------------------------------------------------------------
    def built_runtime(self):
        return self.pattern._built_runtime()

    def built_memo(self):
        return self.pattern._acceptance_memo

    def prime(self) -> "CompiledPlan":
        self.pattern.matcher
        self._runtime = self.pattern.runtime
        self._memo = self.pattern.acceptance_memo()
        return self


class Planner:
    """Picks each pattern's :class:`ExecutionPlan`.

    :meth:`plan` is the one decision point every surface consults; a new
    engine adds a branch there.  A plain object on purpose (no
    ``__slots__``): a tracer may rebind its ``plan`` attribute to time
    planning.  Plans already attached to patterns are never re-routed.
    """

    def plan(self, pattern: "Pattern", compiled: bool | None = None) -> ExecutionPlan:
        """The execution plan for *pattern* (raises on non-determinism).

        *compiled* overrides the pattern's own execution mode without
        touching its cache identity — how a ``compiled=False`` validator
        runs the direct route over a pattern other surfaces share in
        compiled form.
        """
        if not pattern.report.deterministic:
            raise NotDeterministicError(
                f"cannot match against a non-deterministic expression: {pattern.explain()}",
                report=pattern.report,
            )
        if not (pattern._compiled if compiled is None else compiled):
            return DirectPlan(pattern)
        return CompiledPlan(pattern, _compiled_route(pattern))


def _compiled_route(pattern: "Pattern") -> str:
    """The wire name of a compiled pattern's route, read off its tree."""
    tree = pattern.tree
    # The class Theorem 4.12 covers: the rewritten tree must be star-free
    # *and* deterministic under the tree semantics — the +/counter
    # fallback cases run on the k-occurrence matcher.
    if pattern.tree_report.deterministic and not any(node.is_iteration for node in tree.nodes):
        return "star-free-multi"
    if kernel.eligible(tree):
        return "compiled-kernel"
    return "compiled-runtime"


#: The process-wide planner every surface consults: ``Pattern.match``/
#: ``match_all``, diagnostics replay, the lexer, both XML validators and
#: the HTTP service.
PLANNER = Planner()


__all__ = [
    "CompiledPlan",
    "DirectPlan",
    "ExecutionPlan",
    "PLANNER",
    "Planner",
]
