"""High-level, user-facing API.

Most downstream users only need three things: *is this content model
deterministic?*, *does this word match it?*, and *validate this document
against this schema*.  :class:`Pattern` bundles the whole pipeline —
parsing, normalisation, the linear-time determinism test and the
automatically dispatched matcher — behind an interface shaped like the
standard library's ``re`` module:

>>> import repro
>>> pattern = repro.compile("(ab+b(b?)a)*")
>>> pattern.is_deterministic
True
>>> bool(pattern.match("abba"))
True
>>> bool(pattern.match(["a", "b"]))  # words may be symbol lists (XML names)
True
>>> repro.is_deterministic("(a*ba+bb)*")
False

``match`` returns a :class:`~repro.diagnostics.MatchResult` — truthy or
falsy exactly like the old ``bool``, but on failure it knows *where* and
*why* (the expected-next set is read off the paper's follow sets at the
stuck position, see :mod:`repro.diagnostics`):

>>> result = pattern.match("abb")
>>> bool(result)
False
>>> result.error_index, result.expected
(3, ('a', 'b'))

Matching runs on the *compiled runtime* by default: the selected Section-4
matcher is lowered on the fly into integer transition rows
(:class:`~repro.matching.runtime.CompiledRuntime`), so repeated matching
against one pattern costs a list index and a dict probe per symbol
instead of a structure query.
``Pattern.match_all`` runs whole corpora through the batch kernel
(:mod:`repro.matching.kernel`: one flat premultiplied scan table read
off the parse tree, dedup-encoded words, several symbols per table
probe), and
:func:`compile` keeps an ``re``-style LRU cache so schema workloads that
re-compile the same few content models millions of times (the Li et al.
observation) hit a warm pattern:

>>> pattern = repro.compile("(ab+b(b?)a)*")     # cached by (expr, dialect, ...)
>>> pattern.match_all(["abba", "bba", "bb"])
[True, True, False]
>>> stats = pattern.stats()                     # runtime telemetry, see below
>>> stats["transitions_memoized"] == stats["misses"]
True
>>> sorted(repro.stats()["pattern_cache"])      # process-wide namespace
['evictions', 'hits', 'max_size', 'misses', 'size']
>>> repro.purge()                               # drop the caches

How a match picks its engine: every pattern owns one
:class:`~repro.matching.plan.ExecutionPlan`, chosen by
:data:`repro.matching.plan.PLANNER` — the *same* plan serves
``match``, ``match_all``, streaming, diagnostics replay, the lexer and
the XML validators, and :meth:`Pattern.describe` reports its stable
route name under ``"batch_path"``:

>>> repro.compile("(ab)*").plan.route
'compiled-kernel'
>>> repro.compile("(ab)*").describe()["batch_path"]
'compiled-kernel'

Pass ``compiled=False`` to keep matching on the direct (uncompiled)
matcher path — useful when instrumenting the paper's algorithms, whose
per-symbol work is exactly what the benchmarks measure.

The lower-level building blocks (parse trees, follow indexes, skeletons,
individual matchers) remain available from their subpackages for users
who want to instrument or extend the algorithms.  Process-wide state
(the compile cache, snapshot persistence) lives in :mod:`repro.cache`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from . import cache as _cache
from .cache import (
    COMPILE_CACHE_SIZE,
    SNAPSHOT_FETCH_TIMEOUT as SNAPSHOT_FETCH_TIMEOUT,  # noqa: PLC0414 - public re-export
    load_snapshot,
    save_snapshot,
)
from .core.determinism import DeterminismReport, check_deterministic
from .core.numeric import NumericDeterminismReport, check_deterministic_numeric
from .diagnostics import MatchResult
from .errors import NotDeterministicError
from .matching.base import DeterministicMatcher, MatchRun
from .matching.dispatch import build_matcher
from .matching.kernel import Corpus
from .matching.plan import PLANNER, ExecutionPlan
from .matching.runtime import CompiledRun, CompiledRuntime
from .regex.ast import Regex
from .regex.parse_tree import ParseTree, build_parse_tree
from .regex.parser import parse, parse_word
from .regex.properties import classify


class Pattern:
    """A compiled deterministic regular expression.

    Construction parses (if needed), normalises, builds the parse tree and
    runs the determinism test; the matcher itself is built lazily on first
    use so that callers who only want the determinism verdict never pay
    for matcher preprocessing.

    Determinism semantics: for expressions written in the paper's grammar
    (symbols, concatenation, union, ``?``, ``*``) the verdict comes from
    the linear-time test of Theorem 3.5.  Expressions using the DTD
    one-or-more operator ``+`` or XML-Schema numeric bounds ``{i,j}`` are
    judged with the counter-aware analysis of Section 3.3 instead, because
    that is the semantics DTD/XSD validators require: rewriting ``E+`` as
    ``E E*`` preserves the language but can lose determinism when the
    ``+`` sits under an outer iteration (both copies of a position become
    reachable), so the rewritten tree — which is what the matchers run on —
    may be Glushkov-ambiguous even though the content model is fine.  In
    that case matching falls back to the k-occurrence matcher, whose
    transition simulation stays correct because the ambiguous candidates
    are copies of one position with identical continuations.

    *How* a word (or a batch, or a validator child sequence) actually
    runs is decided exactly once, by
    :data:`repro.matching.plan.PLANNER`; the resulting
    :class:`~repro.matching.plan.ExecutionPlan` is reachable as
    :attr:`plan` and its stable route name is what :meth:`describe`
    reports under ``"batch_path"``.
    """

    def __init__(
        self,
        expr: Regex | str,
        dialect: str = "paper",
        strategy: str = "auto",
        compiled: bool = True,
    ):
        if isinstance(expr, str):
            expr = parse(expr, dialect=dialect)
        self.expression: Regex = expr
        self.tree: ParseTree = build_parse_tree(expr)
        #: verdict of the paper's linear-time test on the normalised (star-only) tree
        self.tree_report: DeterminismReport = check_deterministic(self.tree)
        self._needs_native_semantics = _uses_extended_operators(expr)
        if self._needs_native_semantics:
            self.report: DeterminismReport | NumericDeterminismReport = (
                check_deterministic_numeric(expr)
            )
        else:
            self.report = self.tree_report
        self._strategy = strategy
        self._compiled = compiled
        self._matcher: DeterministicMatcher | None = None
        self._runtime: CompiledRuntime | None = None
        #: the execution plan (strategy object), planned lazily on first use
        self._plan: ExecutionPlan | None = None
        #: lazily built whole-sequence acceptance memo (the XML
        #: validators' per-element cache; see :meth:`acceptance_memo`)
        self._acceptance_memo = None
        #: batch-kernel traffic split for this pattern (see :meth:`stats`)
        self._kernel_words = 0
        self._kernel_fallback_words = 0
        #: guards lazy construction (matcher, runtime, plan) so worker
        #: threads sharing one cached pattern build each exactly once
        self._init_lock = threading.Lock()

    # -- determinism -----------------------------------------------------------------
    @property
    def is_deterministic(self) -> bool:
        """True when the expression is deterministic (one-unambiguous)."""
        return self.report.deterministic

    def explain(self) -> str:
        """One-line explanation of the determinism verdict."""
        return self.report.describe()

    # -- matching ---------------------------------------------------------------------
    @property
    def matcher(self) -> DeterministicMatcher:
        """The (lazily built) matcher; raises if the expression is not deterministic.

        Construction is locked (double-checked) so worker threads sharing a
        cached pattern agree on one matcher, the one :attr:`runtime`
        delegates its first-time transitions to.
        """
        matcher = self._matcher
        if matcher is None:
            if not self.report.deterministic:
                raise NotDeterministicError(
                    f"cannot match against a non-deterministic expression: {self.explain()}",
                    report=self.report,
                )
            with self._init_lock:
                matcher = self._matcher
                if matcher is None:
                    if self.tree_report.deterministic:
                        matcher = build_matcher(self.tree, strategy=self._strategy, verify=False)
                    else:
                        # Deterministic under the native +/counter semantics but not
                        # after the language-preserving rewriting: fall back to the
                        # k-occurrence matcher (see the class docstring).
                        from .matching.kore import KOccurrenceMatcher

                        matcher = KOccurrenceMatcher(self.tree, verify=False)
                    self._matcher = matcher
        return matcher

    @property
    def runtime(self) -> CompiledRuntime:
        """The lazy-DFA runtime for this pattern (built on first use).

        The pattern's only runtime: every compiled entry point (single
        words, streams, batches, validators, diagnostics) replays the same
        memoized rows.  The wrapped matcher (:attr:`matcher`) is
        *deferred*: a runtime whose rows were adopted from a persisted
        snapshot (:func:`load_snapshot`) answers warm traffic without ever
        paying matcher preprocessing — the Section-4 matcher is only built
        on the first transition the adopted rows cannot answer.
        """
        runtime = self._runtime
        if runtime is None:
            if not self.report.deterministic:
                raise NotDeterministicError(
                    f"cannot match against a non-deterministic expression: {self.explain()}",
                    report=self.report,
                )
            with self._init_lock:
                runtime = self._runtime
                if runtime is None:
                    runtime = CompiledRuntime(tree=self.tree, matcher_factory=lambda: self.matcher)
                    self._runtime = runtime
        return runtime

    @property
    def plan(self) -> ExecutionPlan:
        """The pattern's execution plan (planned once, on first use).

        The single object that owns *which engine runs this pattern* —
        for single matches, batches, streaming, diagnostics replay, the
        lexer and the XML validators alike.  Chosen by
        :data:`repro.matching.plan.PLANNER`; raises
        :class:`~repro.errors.NotDeterministicError` when the expression
        is not deterministic.
        """
        plan = self._plan
        if plan is None:
            with self._init_lock:
                plan = self._plan
                if plan is None:
                    plan = PLANNER.plan(self)
                    self._plan = plan
        return plan

    def match(self, word: str | Sequence[str]) -> MatchResult:
        """Match *word* (a string or a sequence of symbols) against the language.

        Returns a :class:`~repro.diagnostics.MatchResult`: truthy/falsy
        like the old ``bool`` (and ``== True`` / ``== False`` still
        hold), with lazy diagnostics — ``error_index``, ``expected``,
        ``repairs``, the witness ``trace`` — computed by replaying the
        word only when first accessed.  The verdict itself runs the same
        hot path as before; a word that is neither a string nor a
        sequence raises :class:`~repro.errors.InvalidWordError`.
        """
        symbols = parse_word(word)
        return MatchResult(self.plan.match(symbols), symbols, pattern=self)

    def match_all(
        self, words: Iterable[str | Sequence[str]], detail: str = "verdict"
    ) -> list[bool] | list[MatchResult]:
        """Match several words in one batch.

        The batch is deduplicated once, into a
        :class:`~repro.matching.kernel.Corpus` keyed on the raw words, so
        each distinct word is parsed, encoded and answered once; the batch
        then runs whatever route the pattern's :attr:`plan` owns.
        Every compiled pattern, star-free ones included, runs through the
        batch kernel (:mod:`repro.matching.kernel`): the parse tree's
        follow relation becomes one complete, premultiplied scan table,
        and each distinct word is a branch-free stride over that table.
        A batch over a runtime that has matched nothing yet replays per
        word instead of building a table for a pattern that may never see
        a second batch.  From the next batch on, the pattern's one
        program answers every word, and batches write no runtime row;
        a snapshot-adopted pattern gets its program without building its
        matcher.  The program memoizes its verdicts by raw word, and the
        corpus probes that memo first, so a word an earlier batch brought
        costs one dict probe and no ``parse_word``.  Tiny batches (and
        machines too large for a kernel table) keep the per-word replay
        driver.  :meth:`describe`
        reports which path a pattern takes under ``"batch_path"``.  With
        ``compiled=False`` this falls back to the direct path — the
        uncompiled matcher per word — which keeps the per-symbol structure
        queries observable (that is what the benchmarks compare against).

        *detail* selects the result shape: ``"verdict"`` (default) keeps
        the historical ``list[bool]`` and the untraced kernel hot path;
        ``"full"`` returns one :class:`~repro.diagnostics.MatchResult`
        per word and reads no verdict memo — the words of a cold batch
        route their replay through
        a :class:`~repro.diagnostics.TraceRecorder`, so the witness they
        were paying for anyway is kept, and every other word diagnoses
        lazily on field access.  A word that is neither a
        string nor a sequence raises :class:`~repro.errors.InvalidWordError`.
        """
        if detail not in ("verdict", "full"):
            raise ValueError(f"unknown detail level {detail!r}: expected 'verdict' or 'full'")
        plan = self.plan
        return plan.match_all(Corpus(words, parse_word, plan.verdict_memo(detail)), detail=detail)

    def acceptance_memo(self):
        """The pattern's whole-sequence acceptance memo (built on first use).

        A bounded :class:`~repro.xml.memo.AcceptanceMemo` caching
        ``symbol-sequence → verdict`` answers.  The DTD/XSD validators
        consult it per element occurrence, so repeated child sequences —
        the dominant real-schema workload — cost one dict probe.  Living
        on the (cached) pattern, one memo is shared by every validator
        compiling a structurally equal content model, and
        :func:`save_snapshot` persists it keyed by the pattern's
        fingerprint (the ``MEMO`` section of snapshot format v2).
        """
        memo = self._acceptance_memo
        if memo is None:
            with self._init_lock:
                memo = self._acceptance_memo
                if memo is None:
                    from .xml.memo import AcceptanceMemo

                    memo = AcceptanceMemo()
                    self._acceptance_memo = memo
        return memo

    def stream(self) -> MatchRun | CompiledRun:
        """Begin a streaming match (feed symbols one at a time).

        Compiled patterns stream through the runtime (memoizing transitions
        as they go); both run types expose the same ``feed`` / ``feed_all``
        / ``is_accepting`` / ``consumed`` surface.
        """
        return self.plan.stream()

    # -- introspection -----------------------------------------------------------------
    @property
    def strategy(self) -> str:
        """Name of the matching algorithm in use (triggers matcher construction)."""
        return self.matcher.name

    def describe(self) -> dict[str, object]:
        """Structural summary of the expression (size, classes, determinism).

        ``"batch_path"`` is the :attr:`plan`'s stable route name — the
        route :meth:`match_all` actually takes, not a reconstruction:
        ``"compiled-kernel"`` (dedup-encoded corpus strided over the flat
        kernel table, per-word replay for a cold runtime's batch),
        ``"star-free-multi"`` (the same kernel batches, named for the
        star-free class Theorem 4.12 covers), ``"compiled-runtime"``
        (per-word replay only — the machine is too large for a kernel
        table) or ``"per-word"`` (the uncompiled fallback).
        """
        summary = classify(self.expression)
        summary["deterministic"] = self.is_deterministic
        if self.is_deterministic:
            summary["strategy"] = self.strategy
            summary["batch_path"] = self.plan.route
        else:
            summary["conflict"] = self.explain()
        return summary

    def _built_runtime(self) -> CompiledRuntime | None:
        """The compiled runtime if it already exists, without forcing it.

        Telemetry collection must not change what it measures, so unlike
        :attr:`runtime` this never triggers matcher or runtime
        construction; it returns ``None`` until some match has been run
        on the compiled path.
        """
        return self._runtime

    def _record_kernel_traffic(self, kernel_words: int, fallback_words: int) -> None:
        """Book one kernel batch's traffic split (called by the plan)."""
        with self._init_lock:
            self._kernel_words += kernel_words
            self._kernel_fallback_words += fallback_words

    def stats(self) -> dict[str, int] | None:
        """Lazy-DFA materialization stats, or ``None`` before any matching.

        On top of :meth:`CompiledRuntime.stats` (which includes
        ``kernel_programs``, the flat tables built for the pattern), the
        pattern adds its own batch-kernel traffic split:
        ``kernel_words`` answered by table scans versus
        ``kernel_fallback_words``, the words of cold batches, which
        replayed per word.  Process-wide telemetry (compile cache,
        snapshots, kernel counters) lives in the module-level
        :func:`stats` namespace.
        """
        runtime = self._built_runtime()
        if runtime is None:
            return None
        stats = runtime.stats()
        stats["kernel_words"] = self._kernel_words
        stats["kernel_fallback_words"] = self._kernel_fallback_words
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "deterministic" if self.is_deterministic else "non-deterministic"
        return f"Pattern({str(self.expression)!r}, {verdict})"


def _uses_extended_operators(expr: Regex) -> bool:
    """True when the AST contains one-or-more or numeric repetition nodes."""
    from .regex.ast import Plus, Repeat

    return any(isinstance(node, (Plus, Repeat)) for node in expr.iter_nodes())


def _compile_cached(expr: Regex | str, dialect: str, strategy: str, compiled: bool) -> Pattern:
    """The memoized constructor behind :func:`compile` (``re._compile`` idiom).

    Both textual expressions and AST nodes are valid keys: the AST classes
    are frozen dataclasses, hence hashable, and a :class:`Pattern` never
    mutates its inputs — its lazily built matcher and runtime are exactly
    the state the cache exists to retain across calls.
    """
    return _cache.PATTERN_CACHE.get_or_build(
        (expr, dialect, strategy, compiled),
        lambda: Pattern(expr, dialect=dialect, strategy=strategy, compiled=compiled),
    )


def compile(  # noqa: A001 - mirrors re.compile
    expr: Regex | str,
    dialect: str = "paper",
    strategy: str = "auto",
    compiled: bool = True,
) -> Pattern:
    """Compile *expr* into a :class:`Pattern` (mirrors ``re.compile``).

    Results are cached (LRU, :data:`COMPILE_CACHE_SIZE` entries) keyed on
    ``(expr, dialect, strategy, compiled)``, so validators that re-compile
    the same content models over and over get back the same warm pattern —
    including its memoized lazy-DFA rows.  Use :func:`purge` to drop the
    cache, or call :class:`Pattern` directly for a private instance.
    """
    return _compile_cached(expr, dialect, strategy, compiled)


def purge() -> None:
    """Clear the compile cache (mirrors ``re.purge``).

    Atomic with respect to concurrent compiles: the clear happens under
    the cache lock, so a racing miss lands either entirely before the
    purge (and is dropped with everything else) or entirely after it (a
    fresh post-purge entry) — never a half-cleared state.  Safe against
    in-flight matches too: live patterns and runtimes keep the rows they
    already reference.
    """
    _cache.PATTERN_CACHE.purge()


def resize_compile_cache(maxsize: int) -> int:
    """Re-bound the compile cache at runtime; returns the previous bound.

    :data:`COMPILE_CACHE_SIZE` stays the *boot* default — this call is
    the telemetry-driven override behind it
    (:class:`repro.service.autosize.Autosizer` grows the bound when
    ``stats()["pattern_cache"]["evictions"]`` keeps climbing under live
    traffic and shrinks it back when the working set contracts).
    Shrinking evicts LRU overflow immediately; verdicts are unaffected
    either way — eviction only costs the next compile of that pattern.

    >>> import repro
    >>> previous = repro.resize_compile_cache(1024)
    >>> repro.stats()["pattern_cache"]["max_size"]
    1024
    >>> _ = repro.resize_compile_cache(previous)
    """
    return _cache.PATTERN_CACHE.resize(maxsize)


def iter_cached_patterns() -> list[tuple[tuple, "Pattern"]]:
    """A consistent ``(cache key, pattern)`` snapshot of the compile cache.

    The telemetry walk behind the ``stats()["snapshot"]["materialized"]``
    gauge and the autosizer's per-pattern memo policy: every live cached
    pattern, without forcing any lazy construction.  Cache keys are
    ``(expr, dialect, strategy, compiled)`` tuples.
    """
    return _cache.PATTERN_CACHE.items()


def stats() -> dict:
    """The consolidated process-wide telemetry namespace.

    One call, one dict, three sections:

    * ``"pattern_cache"`` — compile-cache hit/miss/eviction counters;
    * ``"snapshot"`` — snapshot save/load/adoption telemetry plus the
      ``materialized`` gauge;
    * ``"kernel"`` — batch-kernel counters and backend selection
      (:func:`repro.matching.kernel.stats`).

    Per-object telemetry keeps living on the objects themselves with the
    same spelling: ``Pattern.stats()``, ``CompiledRuntime.stats()``,
    ``DTDValidator.stats()``, ``XSDSchema.stats()``,
    ``ValidationService.stats()``.
    """
    from .matching import kernel

    return {
        "pattern_cache": _cache.PATTERN_CACHE.stats(),
        "snapshot": _cache.snapshot_stats(),
        "kernel": kernel.stats(),
    }


def match(
    expr: Regex | str, word: str | Sequence[str], dialect: str = "paper"
) -> MatchResult:
    """One-shot matching: compile *expr* (through the cache) and match *word*.

    Returns the same :class:`~repro.diagnostics.MatchResult` as
    :meth:`Pattern.match` — truthy/falsy like the old ``bool``, with lazy
    witness/diagnosis fields.
    """
    return compile(expr, dialect=dialect).match(word)


def is_deterministic(expr: Regex | str, dialect: str = "paper") -> bool:
    """Determinism test on an expression or text.

    Paper-grammar expressions use the linear-time test (Theorem 3.5);
    expressions with ``+`` or ``{i,j}`` use the counter-aware analysis of
    Section 3.3 (see :class:`Pattern` for the rationale).
    """
    if isinstance(expr, str):
        expr = parse(expr, dialect=dialect)
    if _uses_extended_operators(expr):
        return check_deterministic_numeric(expr).deterministic
    return check_deterministic(expr).deterministic


def is_deterministic_numeric(expr: Regex | str) -> bool:
    """Counter-aware determinism test for numeric occurrence indicators (Section 3.3)."""
    return check_deterministic_numeric(expr).deterministic


__all__ = [
    "COMPILE_CACHE_SIZE",
    "CompiledRuntime",
    "DeterminismReport",
    "MatchResult",
    "NumericDeterminismReport",
    "Pattern",
    "check_deterministic",
    "check_deterministic_numeric",
    "compile",
    "is_deterministic",
    "is_deterministic_numeric",
    "iter_cached_patterns",
    "load_snapshot",
    "match",
    "purge",
    "resize_compile_cache",
    "save_snapshot",
    "stats",
]
