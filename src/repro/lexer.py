"""Longest-match tokenization on top of the batch matching kernel.

A :class:`Lexer` is a list of named rules, each a deterministic regular
expression.  The rules are joined into one union expression — determinism
of the *union* is exactly the classical "no two rules fight over a
prefix-extension" requirement, checked by the paper's linear-time test —
and compiled down to a stride-1 kernel program
(:meth:`repro.matching.runtime.CompiledRuntime.export_kernel_program`)
whose reachable rows are materialized up front.  Scanning is then the
maximal-munch loop of :func:`repro.matching.kernel.longest_match`: one
premultiplied table index per character, a byte probe for "does a rule
accept here", no per-symbol Python beyond the loop itself.

Tagging uses a property of the Glushkov construction: every DFA state of
the compiled runtime *is* a position of the marked expression, and every
position of the union ``r₁ + (r₂ + (...))`` lies in exactly one rule's
subtree.  An accepting state therefore names its rule directly — the tag
table is a bytearray over table offsets holding ``tag + 1`` at accepting
offsets, and a deterministic union guarantees the mapping is
single-valued (two rules accepting the same word in the same state would
already have failed the determinism test).

Rules must not be nullable (a rule matching ``ε`` could never advance the
scanner); overlapping rule sets raise
:class:`~repro.errors.NotDeterministicError` at construction, and input
with no matching prefix raises :class:`~repro.errors.LexError` with the
stuck position.

>>> from repro.lexer import Lexer
>>> lexer = Lexer([
...     ("AB", "ab(ab)*"),
...     ("C", "cc*"),
... ])
>>> [(t.tag, t.text) for t in lexer.tokens("ababcc")]
[('AB', 'abab'), ('C', 'cc')]
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .api import Pattern
from .errors import LexError, NotDeterministicError
from .regex.ast import Regex, union
from .regex.parse_tree import NodeKind
from .regex.parser import parse

#: Tags are stored as ``tag + 1`` in a byte table; 0 marks "not accepting".
MAX_RULES = 254


class Token(NamedTuple):
    """One lexeme: the winning rule's *tag*, the matched *text* and its span."""

    tag: str
    text: str
    start: int
    end: int


class Lexer:
    """A maximal-munch scanner compiled from named expression rules.

    *rules* is a sequence of ``(tag, expression)`` pairs; expressions are
    strings in *dialect* (default: the paper's grammar, where ``+`` is
    union) or pre-built :class:`~repro.regex.ast.Regex` ASTs.  *skip*
    names rules whose tokens are matched but not yielded (whitespace,
    comments).  Construction validates the rules, materializes the whole
    reachable machine and builds the flat scan tables; :meth:`tokens` and
    :meth:`tokenize` only ever touch those tables.
    """

    def __init__(
        self,
        rules: Sequence[tuple[str, str | Regex]],
        dialect: str = "paper",
        skip: Iterable[str] = (),
    ):
        if not rules:
            raise LexError("a lexer needs at least one rule")
        if len(rules) > MAX_RULES:
            raise LexError(f"at most {MAX_RULES} rules are supported, got {len(rules)}")
        self.tags: list[str] = []
        parsed: list[Regex] = []
        for tag, expression in rules:
            expr = parse(expression, dialect=dialect) if isinstance(expression, str) else expression
            if expr.nullable():
                raise LexError(
                    f"rule {tag!r} matches the empty word; "
                    "nullable rules would never advance the scanner"
                )
            self.tags.append(tag)
            parsed.append(expr)
        self.skip = frozenset(skip)
        unknown_skips = self.skip - set(self.tags)
        if unknown_skips:
            raise LexError(f"skip names no rule: {sorted(unknown_skips)}")

        self.pattern = Pattern(union(*parsed))
        if not self.pattern.is_deterministic:
            raise NotDeterministicError(
                "lexer rules overlap (their union is not deterministic): "
                + self.pattern.explain(),
                report=self.pattern.report,
            )
        self._tag_by_state = self._assign_tags(len(parsed))
        #: the pattern's execution plan owns the engine: it materializes
        #: the reachable machine, exports the stride-1 scan program and
        #: drives the maximal-munch loop (see ``repro.matching.plan``)
        self._plan = self.pattern.plan
        self._program, self._accept_tags = self._compile()
        runtime = self.pattern.runtime
        self._codes = runtime.alphabet.codes
        self._unknown = self._program.width  # the dead column

    # -- construction -------------------------------------------------------------------
    def _assign_tags(self, rule_count: int) -> dict[int, int]:
        """Map each position index of the union tree to its rule's tag index.

        The union constructor right-nests, so the inner root is a spine of
        ``rule_count - 1`` union nodes whose left subtrees are the rules in
        order (the last rule is the final right child).  Normalisation
        rewrites iteration/optional nodes *inside* a rule but never the
        union spine above non-nullable operands, so the descent is exact.
        """
        tree = self.pattern.tree
        spine = tree.inner_root
        subtrees = []
        for _ in range(rule_count - 1):
            if spine is None or spine.kind is not NodeKind.UNION:
                raise LexError("internal error: the rule union spine was rewritten")
            subtrees.append(spine.left)
            spine = spine.right
        subtrees.append(spine)
        tag_by_state: dict[int, int] = {}
        for tag_index, subtree in enumerate(subtrees):
            for node in subtree.subtree():
                if node.is_position:
                    tag_by_state[node.position_index] = tag_index
        return tag_by_state

    def _compile(self):
        """Build the tag table over the plan's stride-1 scan program.

        :meth:`ExecutionPlan.scan_program` materializes every transition
        and acceptance verdict the scanner can reach (a breadth-first
        sweep), so the exported program contains no ``MISS`` edges on
        live paths and longest-match scanning needs no fallback handling
        at all.
        """
        program, accepting = self._plan.scan_program()
        if program is None:
            raise LexError("the rule set's machine is too large for a kernel table")
        tags = bytearray(len(program.accepts))
        for state in accepting:
            tag_index = self._tag_by_state.get(state)
            if tag_index is None:  # pragma: no cover - determinism forbids this
                raise LexError("internal error: accepting state outside every rule")
            tags[state * program.span] = tag_index + 1
        return program, tags

    # -- scanning -----------------------------------------------------------------------
    def tokens(self, text: str) -> Iterator[Token]:
        """Yield maximal-munch :class:`Token` objects over *text*.

        Characters are the symbols.  Raises :class:`LexError` (with the
        offset) as soon as no rule matches any prefix of the rest — the
        tokens before the stuck position have already been yielded.
        """
        codes = self._codes
        unknown = self._unknown
        encoded = bytearray(len(text)) if self._program.wp <= 256 else None
        if encoded is not None:
            for at, char in enumerate(text):
                encoded[at] = codes.get(char, unknown)
        else:  # pragma: no cover - needs a >254-symbol alphabet
            encoded = [codes.get(char, unknown) for char in text]
        longest_match = self._plan.longest_match
        tags = self._accept_tags
        skip = self.skip
        names = self.tags
        at = 0
        length = len(encoded)
        while at < length:
            end, tag = longest_match(tags, encoded, at)
            if end < 0:
                raise self._stuck_error(text, encoded, at)
            name = names[tag - 1]
            if name not in skip:
                yield Token(name, text[at:end], at, end)
            at = end

    def _stuck_error(self, text: str, encoded, at: int) -> LexError:
        """Diagnose a stuck scan into a :class:`LexError` with expectations.

        Replays from the stuck position to the exact offset where the
        machine died, then reads the expected-next set off the Section 4
        follow sets at that state (the union is deterministic, so the
        follow-based set is exact — the same machinery
        :mod:`repro.diagnostics` uses) and maps the viable next positions
        back to their rules for the candidate token tags.
        """
        runtime = self.pattern.runtime
        state = runtime._start_state
        offset, length = at, len(encoded)
        while offset < length:
            code = encoded[offset]
            if code >= self._program.width:
                break
            target = runtime.step(state, code)
            if target < 0:
                break
            state = target
            offset += 1
        viable = self.pattern.tree.follow.next_positions(runtime._positions[state])
        expected = tuple(sorted({node.symbol for node in viable}))
        tag_indices = {
            self._tag_by_state[node.position_index]
            for node in viable
            if node.position_index in self._tag_by_state
        }
        rule_tags = tuple(self.tags[index] for index in sorted(tag_indices))
        detail = ""
        if expected:
            shown = ", ".join(repr(symbol) for symbol in expected[:8])
            detail = f"; expected one of [{shown}]"
            if rule_tags:
                detail += f" (rules: {', '.join(rule_tags)})"
            if offset > at:
                detail += f" after {offset - at} matched symbol(s)"
        return LexError(
            f"no rule matches at position {at}: {text[at:at + 12]!r}{detail}",
            position=at,
            expected=expected,
            tags=rule_tags,
        )

    def tokenize(self, text: str) -> list[Token]:
        """:meth:`tokens`, collected into a list."""
        return list(self.tokens(text))

    def stats(self) -> dict:
        """Size gauges of the compiled scanner (rule count, states, table)."""
        return {
            "rules": len(self.tags),
            "states": self._program.states,
            "alphabet": self._program.width,
            "table_entries": len(self._program.table),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Lexer(rules={len(self.tags)}, states={self._program.states})"
