"""Match witnesses and precise failure diagnosis.

Determinism makes diagnosis nearly free: each consumed symbol fixes a
*unique* marked position of the expression (PAPER.md Section 4), so the
run itself is a witness — the sequence of positions visited is the one
and only parse of the consumed prefix.  This module turns that
observation into a result API:

* :class:`MatchResult` — the truthy/falsy object returned by
  ``Pattern.match`` and ``repro.match``.  Construction is O(1); the
  witness and the failure analysis are computed lazily, by replaying the
  word through the same memoized transitions, only when a diagnostic
  field is first accessed.  The verdict path never pays for them.
* :class:`ValidationResult` — the shared validator result: truthy/falsy
  like a bool, list-like over its violations (so existing code that
  iterated the old violation lists keeps working).
* :class:`Diagnosis` / :class:`Repair` — the failure record: stuck
  symbol index, the expected-next set derived from the Section 4
  first/follow sets at the stuck position, and ranked repair hints.
* :func:`diagnose` — the replay engine shared by patterns, validators
  and the lexer.
* :class:`TraceRecorder` — a drop-in replacement for
  ``CompiledRuntime.accepts_encoded`` used as the batch kernel's byte-2
  replay hook: the fallback replay records the state trace it walks
  anyway, so ``match_all(detail="full")`` reuses it as the witness.

Expected-next exactness.  For a deterministic tree the set is read
straight off the follow relation (:meth:`FollowIndex.next_symbols`):
every Glushkov position is accessible *and* co-accessible — the
normalised trees contain no empty-language construct — so
``{symbol(q) : q follows p}`` is exactly the set of symbols extending a
viable prefix.  The k-occurrence fallback runs on a rewritten tree whose
matcher may sit on any one of several copy-equivalent positions; there
the set is obtained by probing the runtime's own transition function
over the alphabet, which is exact by construction of the matcher.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DiagnosticsError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Pattern
    from .matching.runtime import CompiledRuntime
    from .regex.parse_tree import ParseTree, TreeNode

#: Cap on insert/replace candidates per repair kind — the hints are a
#: short ranked list for error messages, not an enumeration.
MAX_REPAIR_CANDIDATES = 3


# -- repair hints --------------------------------------------------------------------------


class Repair:
    """One ranked repair candidate for a failed match.

    ``action`` is ``"insert"``, ``"replace"`` or ``"truncate"``;
    ``index`` the word offset the action applies at; ``symbol`` the
    symbol to insert/replace with (``None`` for truncate).
    """

    __slots__ = ("action", "index", "symbol", "description")

    def __init__(self, action: str, index: int, symbol: str | None, description: str):
        self.action = action
        self.index = index
        self.symbol = symbol
        self.description = description

    def to_dict(self) -> dict:
        return {"action": self.action, "index": self.index, "symbol": self.symbol}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Repair):
            return NotImplemented
        return (
            self.action == other.action
            and self.index == other.index
            and self.symbol == other.symbol
        )

    def __hash__(self) -> int:
        return hash((self.action, self.index, self.symbol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Repair {self.description}>"


class Diagnosis:
    """The full record of one diagnostic replay.

    ``trace`` is the witness: ``trace[i]`` is the position index (into
    ``tree.positions``) after consuming ``word[:i]``; ``trace[0]`` is the
    ``#`` start sentinel.  On failure ``error_index`` is the offset of
    the stuck symbol (``len(word)`` when the word ended too early),
    ``expected`` the sorted expected-next symbols at the stuck position,
    ``can_end`` whether the word could have ended there, and ``reason``
    one of ``"mismatch"``, ``"unknown-symbol"``, ``"unexpected-end"``.
    ``last_accepting`` is the length of the longest accepting prefix
    (``-1`` when not even the empty prefix is accepted).
    """

    __slots__ = (
        "matched",
        "word",
        "tree",
        "trace",
        "error_index",
        "reason",
        "expected",
        "can_end",
        "last_accepting",
        "repairs",
    )

    def __init__(
        self,
        matched: bool,
        word: tuple[str, ...],
        tree: "ParseTree",
        trace: tuple[int, ...],
        error_index: int | None,
        reason: str | None,
        expected: tuple[str, ...],
        can_end: bool,
        last_accepting: int,
        repairs: tuple[Repair, ...],
    ):
        self.matched = matched
        self.word = word
        self.tree = tree
        self.trace = trace
        self.error_index = error_index
        self.reason = reason
        self.expected = expected
        self.can_end = can_end
        self.last_accepting = last_accepting
        self.repairs = repairs

    def positions(self) -> list["TreeNode"]:
        """The witness as parse-tree nodes (``positions[0]`` is ``#``)."""
        nodes = self.tree.positions
        return [nodes[index] for index in self.trace]

    def describe(self) -> str:
        """One-line human-readable account of the replay."""
        if self.matched:
            return f"match ({len(self.word)} symbols)"
        if self.reason == "unexpected-end":
            head = f"unexpected end of input after {len(self.word)} symbols"
        else:
            symbol = self.word[self.error_index]
            kind = "unknown symbol" if self.reason == "unknown-symbol" else "unexpected symbol"
            head = f"{kind} {symbol!r} at index {self.error_index}"
        wanted = " | ".join(repr(symbol) for symbol in self.expected) or "nothing"
        tail = f"; expected {wanted}"
        if self.can_end:
            tail += " or end of input"
        return head + tail


# -- replay engines ------------------------------------------------------------------------


class _CompiledEngine:
    """Replay adapter over :class:`CompiledRuntime` (states are ints)."""

    __slots__ = ("runtime", "exact")

    def __init__(self, runtime: "CompiledRuntime", exact: bool):
        self.runtime = runtime
        self.exact = exact

    @property
    def tree(self):
        return self.runtime.tree

    def start(self) -> int:
        return self.runtime._start_state

    def step(self, state: int, symbol: str) -> int | None:
        runtime = self.runtime
        code = runtime._codes.get(symbol, -1)
        target = runtime.step(state, code)
        return None if target < 0 else target

    def accepts(self, state: int) -> bool:
        return self.runtime.state_accepts(state)

    def index(self, state: int) -> int:
        return state

    def known(self, symbol: str) -> bool:
        return symbol in self.runtime._codes

    def expected(self, state: int) -> tuple[str, ...]:
        runtime = self.runtime
        if self.exact:
            return runtime.tree.follow.next_symbols(runtime._positions[state])
        # k-occurrence fallback: probe the transition function itself —
        # the stuck state may be one of several copy-equivalent positions
        # of the rewritten tree, and only the matcher resolves that.
        step = runtime.step
        symbols = runtime._symbols
        return tuple(
            sorted(symbols[code] for code in range(runtime._width) if step(state, code) >= 0)
        )


class _DirectEngine:
    """Replay adapter over a direct matcher (states are tree positions)."""

    __slots__ = ("matcher", "exact", "_alphabet")

    def __init__(self, matcher, exact: bool):
        self.matcher = matcher
        self.exact = exact
        self._alphabet = matcher.tree.alphabet

    @property
    def tree(self):
        return self.matcher.tree

    def start(self):
        return self.matcher.tree.start

    def step(self, state, symbol: str):
        following = self.matcher.next_position(state, symbol)
        if following is None or following is self.matcher.tree.end:
            return None
        return following

    def accepts(self, state) -> bool:
        return self.matcher.follow.accepts_at(state)

    def index(self, state) -> int:
        return state.position_index

    def known(self, symbol: str) -> bool:
        return symbol in self._alphabet.codes

    def expected(self, state) -> tuple[str, ...]:
        if self.exact:
            return self.matcher.follow.next_symbols(state)
        step = self.step
        return tuple(sorted(symbol for symbol in self._alphabet.codes if step(state, symbol)))


def _engine_for(pattern: "Pattern"):
    """The replay adapter for *pattern*'s execution plan.

    The plan — not this module — owns the strategy decision: compiled
    routes hand back a :class:`_CompiledEngine` over their runtime,
    the direct route a :class:`_DirectEngine` over the matcher.
    """
    return pattern.plan.replay_for_diagnostics()


def _repair_hints(
    engine,
    state,
    word: tuple[str, ...],
    index: int,
    expected: tuple[str, ...],
    last_accepting: int,
) -> tuple[Repair, ...]:
    """Ranked insert/replace/truncate candidates at the stuck position.

    Replace candidates are the expected-next symbols themselves.  Insert
    candidates are ranked by whether the stuck symbol (or, at end of
    input, acceptance) becomes viable right after the insertion — one
    extra probe of the transition function per candidate.  Truncation is
    offered when some proper prefix was accepting.
    """
    hints: list[Repair] = []
    stuck_symbol = word[index] if index < len(word) else None
    if stuck_symbol is not None:
        for symbol in expected[:MAX_REPAIR_CANDIDATES]:
            hints.append(
                Repair(
                    "replace",
                    index,
                    symbol,
                    f"replace {stuck_symbol!r} at index {index} with {symbol!r}",
                )
            )
    scored: list[tuple[int, str]] = []
    for symbol in expected:
        following = engine.step(state, symbol)
        if following is None:  # pragma: no cover - expected symbols always step
            continue
        if stuck_symbol is None:
            viable = engine.accepts(following)
        else:
            viable = engine.step(following, stuck_symbol) is not None
        scored.append((0 if viable else 1, symbol))
    scored.sort()
    for _rank, symbol in scored[:MAX_REPAIR_CANDIDATES]:
        hints.append(Repair("insert", index, symbol, f"insert {symbol!r} at index {index}"))
    if 0 <= last_accepting < len(word):
        hints.append(
            Repair(
                "truncate",
                last_accepting,
                None,
                f"truncate to the first {last_accepting} symbol(s)",
            )
        )
    return tuple(hints)


def _failure(
    engine,
    state,
    word: tuple[str, ...],
    trace: list[int],
    index: int,
    reason: str,
    last_accepting: int,
) -> Diagnosis:
    expected = engine.expected(state)
    can_end = engine.accepts(state)
    repairs = _repair_hints(engine, state, word, index, expected, last_accepting)
    return Diagnosis(
        matched=False,
        word=word,
        tree=engine.tree,
        trace=tuple(trace),
        error_index=index,
        reason=reason,
        expected=expected,
        can_end=can_end,
        last_accepting=last_accepting,
        repairs=repairs,
    )


def diagnose(pattern: "Pattern", word: Sequence[str], expect: bool | None = None) -> Diagnosis:
    """Replay *word* (already parsed into symbols) and explain the outcome.

    With *expect* set, the replay verdict is checked against it and a
    :class:`~repro.errors.DiagnosticsError` is raised on disagreement —
    the replay walks the very same memoized transitions as the verdict
    path, so a mismatch means an internal invariant broke.
    """
    symbols = tuple(word)
    engine = _engine_for(pattern)
    state = engine.start()
    trace = [engine.index(state)]
    last_accepting = 0 if engine.accepts(state) else -1
    diag: Diagnosis | None = None
    for i, symbol in enumerate(symbols):
        following = engine.step(state, symbol)
        if following is None:
            reason = "mismatch" if engine.known(symbol) else "unknown-symbol"
            diag = _failure(engine, state, symbols, trace, i, reason, last_accepting)
            break
        state = following
        trace.append(engine.index(state))
        if engine.accepts(state):
            last_accepting = i + 1
    if diag is None:
        if engine.accepts(state):
            diag = Diagnosis(
                matched=True,
                word=symbols,
                tree=engine.tree,
                trace=tuple(trace),
                error_index=None,
                reason=None,
                expected=(),
                can_end=True,
                last_accepting=last_accepting,
                repairs=(),
            )
        else:
            diag = _failure(
                engine, state, symbols, trace, len(symbols), "unexpected-end", last_accepting
            )
    if expect is not None and diag.matched is not expect:
        raise DiagnosticsError(
            f"diagnostic replay disagrees with the recorded verdict: "
            f"replay={diag.matched}, recorded={expect} — please report this as a bug"
        )
    return diag


def complete_from_trace(
    pattern: "Pattern", word: Sequence[str], matched: bool, trace: Sequence[int]
) -> Diagnosis:
    """Finish a :class:`Diagnosis` from a trace recorded during matching.

    *trace* is the state-index sequence a :class:`TraceRecorder` walked
    (``trace[0]`` the start state); only the acceptance flags and — on
    failure — the expected-next analysis at the final state remain to be
    computed, so no prefix is replayed twice.
    """
    symbols = tuple(word)
    engine = _engine_for(pattern)
    states = list(trace)
    last_accepting = -1
    for length, state in enumerate(states):
        if engine.accepts(state):
            last_accepting = length
    if matched:
        return Diagnosis(
            matched=True,
            word=symbols,
            tree=engine.tree,
            trace=tuple(states),
            error_index=None,
            reason=None,
            expected=(),
            can_end=True,
            last_accepting=last_accepting,
            repairs=(),
        )
    index = len(states) - 1
    if index >= len(symbols):
        reason = "unexpected-end"
    elif engine.known(symbols[index]):
        reason = "mismatch"
    else:
        reason = "unknown-symbol"
    return _failure(engine, states[-1], symbols, states, index, reason, last_accepting)


# -- kernel byte-2 replay hook -------------------------------------------------------------


class TraceRecorder:
    """Replay hook for the batch kernel's fallback (verdict byte 2) path.

    Callable exactly like ``CompiledRuntime.accepts_encoded`` — takes an
    encoded word, fills missing rows as it steps, returns the boolean
    verdict — but also records the state trace it walked, keyed by the
    word's code tuple.  ``match_all(detail="full")`` passes an instance
    as :func:`repro.matching.kernel.match_corpus`'s ``replay`` hook so
    fallback words get their witness for free; the kernel verdict path
    itself is untouched.
    """

    __slots__ = ("runtime", "traces")

    def __init__(self, runtime: "CompiledRuntime"):
        self.runtime = runtime
        #: code-tuple → (verdict, state-index trace)
        self.traces: dict[tuple[int, ...], tuple[bool, tuple[int, ...]]] = {}

    def __call__(self, codes: Iterable[int]) -> bool:
        runtime = self.runtime
        step = runtime.step
        state = runtime._start_state
        trace = [state]
        verdict = True
        key = tuple(codes)
        for code in key:
            target = step(state, code)
            if target < 0:
                verdict = False
                break
            state = target
            trace.append(state)
        else:
            verdict = runtime.state_accepts(state)
        self.traces[key] = (verdict, tuple(trace))
        return verdict


# -- result objects ------------------------------------------------------------------------


class MatchResult:
    """Truthy/falsy result of a match, with lazy witness and diagnosis.

    Back-compatible with the old ``bool`` return: ``bool(result)`` is the
    verdict, ``result == True`` / ``result == False`` compare the
    verdict, and the hash equals the verdict's hash.  The diagnostic
    fields (:attr:`error_index`, :attr:`expected`, :attr:`can_end`,
    :attr:`reason`, :attr:`trace`, :attr:`repairs`) replay the word on
    first access; the plain verdict never pays for them.
    """

    __slots__ = ("matched", "word", "_pattern", "_diagnosis")

    def __init__(
        self,
        matched: bool,
        word: Sequence[str],
        pattern: "Pattern | None" = None,
        diagnosis: Diagnosis | None = None,
    ):
        self.matched = bool(matched)
        self.word = tuple(word)
        self._pattern = pattern
        self._diagnosis = diagnosis

    # -- bool back-compat ------------------------------------------------------------
    def __bool__(self) -> bool:
        return self.matched

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):
            return self.matched == other
        if isinstance(other, MatchResult):
            return self.matched == other.matched and self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.matched)

    # -- diagnosis -------------------------------------------------------------------
    @property
    def diagnosis(self) -> Diagnosis:
        """The full replay record (computed on first access)."""
        diag = self._diagnosis
        if diag is None:
            if self._pattern is None:
                raise DiagnosticsError("this MatchResult carries no pattern to diagnose against")
            diag = self._diagnosis = diagnose(self._pattern, self.word, expect=self.matched)
        return diag

    @property
    def error_index(self) -> int | None:
        """Offset of the stuck symbol (``len(word)`` for early end), or ``None``."""
        return self.diagnosis.error_index

    @property
    def expected(self) -> tuple[str, ...]:
        """Sorted expected-next symbols at the stuck position (empty on success)."""
        return self.diagnosis.expected

    @property
    def can_end(self) -> bool:
        """Whether the word could have ended at the stuck position."""
        return self.diagnosis.can_end

    @property
    def reason(self) -> str | None:
        """``"mismatch"``, ``"unknown-symbol"``, ``"unexpected-end"`` or ``None``."""
        return self.diagnosis.reason

    @property
    def trace(self) -> tuple[int, ...]:
        """The witness: position index after each consumed symbol."""
        return self.diagnosis.trace

    @property
    def repairs(self) -> tuple[Repair, ...]:
        """Ranked insert/replace/truncate candidates (empty on success)."""
        return self.diagnosis.repairs

    def positions(self) -> list["TreeNode"]:
        """The witness as parse-tree nodes."""
        return self.diagnosis.positions()

    def describe(self) -> str:
        """One-line human-readable account of the match."""
        return self.diagnosis.describe()

    def to_dict(self) -> dict:
        """Wire-ready rendering (the ``detail=full`` shape)."""
        payload: dict = {"matched": self.matched}
        if not self.matched:
            diag = self.diagnosis
            payload["error_index"] = diag.error_index
            payload["reason"] = diag.reason
            payload["expected"] = list(diag.expected)
            payload["can_end"] = diag.can_end
            payload["repairs"] = [repair.to_dict() for repair in diag.repairs]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.matched:
            return f"<MatchResult match of {len(self.word)} symbols>"
        return f"<MatchResult no match: {self.describe()}>"


class ValidationResult:
    """Shared validator result: truthy like a bool, list-like over violations.

    ``bool(result)`` is the verdict (valid = truthy); iteration, ``len``
    and indexing expose the violation objects, preserving the shape of
    the old ``list[Violation]`` returns for callers that looped over
    them.
    """

    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: Sequence = ()):
        self.valid = bool(valid)
        self.violations = tuple(violations)

    def __bool__(self) -> bool:
        return self.valid

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    def __getitem__(self, item):
        return self.violations[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):
            return self.valid == other
        if isinstance(other, ValidationResult):
            return self.valid == other.valid and self.violations == other.violations
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.valid)

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(violation.describe() for violation in self.violations)

    def to_dict(self) -> dict:
        """Wire-ready rendering (the ``detail=full`` shape)."""
        return {
            "valid": self.valid,
            "violations": [
                violation.to_dict() if hasattr(violation, "to_dict") else str(violation)
                for violation in self.violations
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.valid:
            return "<ValidationResult valid>"
        return f"<ValidationResult {len(self.violations)} violation(s)>"
