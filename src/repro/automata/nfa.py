"""Thompson construction and epsilon-NFA simulation.

A second, structurally different baseline used by the test-suite as an
independent membership oracle (it never looks at Follow sets, so a bug in
the Glushkov machinery cannot hide behind an identical bug here) and by
the benchmarks as the "textbook" matcher for arbitrary expressions.

States are integers; transitions are either labelled by a symbol or by
``None`` (epsilon).  Construction is linear in the size of the AST;
matching costs ``O(|e|)`` per input symbol through epsilon-closure /
step alternation.
"""

from __future__ import annotations

from ..regex.ast import (
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
)
from ..regex.normalize import normalize
from ..regex.parser import parse


class ThompsonNFA:
    """Epsilon-NFA built with Thompson's construction."""

    def __init__(self, expr: Regex | str):
        if isinstance(expr, str):
            expr = parse(expr)
        # Normalising first keeps the state count linear in the number of
        # positions (numeric repetitions are expanded like everywhere else).
        # The pass also raises the recursion limit that _build relies on.
        self.expr = normalize(expr, expand_numeric=True)
        self._symbol_edges: list[dict[str, list[int]]] = []
        self._epsilon_edges: list[list[int]] = []
        self.start, self.accept = self._build(self.expr)
        self._closure_cache: dict[frozenset[int], frozenset[int]] = {}

    # -- construction ------------------------------------------------------------
    def _new_state(self) -> int:
        self._symbol_edges.append({})
        self._epsilon_edges.append([])
        return len(self._symbol_edges) - 1

    def _add_symbol_edge(self, source: int, symbol: str, target: int) -> None:
        self._symbol_edges[source].setdefault(symbol, []).append(target)

    def _add_epsilon_edge(self, source: int, target: int) -> None:
        self._epsilon_edges[source].append(target)

    def _build(self, expr: Regex) -> tuple[int, int]:
        if isinstance(expr, Epsilon):
            start = self._new_state()
            accept = self._new_state()
            self._add_epsilon_edge(start, accept)
            return start, accept
        if isinstance(expr, Sym):
            start = self._new_state()
            accept = self._new_state()
            self._add_symbol_edge(start, expr.symbol, accept)
            return start, accept
        if isinstance(expr, Concat):
            left_start, left_accept = self._build(expr.left)
            right_start, right_accept = self._build(expr.right)
            self._add_epsilon_edge(left_accept, right_start)
            return left_start, right_accept
        if isinstance(expr, Union):
            start = self._new_state()
            accept = self._new_state()
            for branch in (expr.left, expr.right):
                branch_start, branch_accept = self._build(branch)
                self._add_epsilon_edge(start, branch_start)
                self._add_epsilon_edge(branch_accept, accept)
            return start, accept
        if isinstance(expr, (Star, Plus)):
            start = self._new_state()
            accept = self._new_state()
            body_start, body_accept = self._build(expr.child)
            self._add_epsilon_edge(start, body_start)
            self._add_epsilon_edge(body_accept, body_start)
            self._add_epsilon_edge(body_accept, accept)
            if isinstance(expr, Star):
                self._add_epsilon_edge(start, accept)
            return start, accept
        if isinstance(expr, Optional):
            start = self._new_state()
            accept = self._new_state()
            body_start, body_accept = self._build(expr.child)
            self._add_epsilon_edge(start, body_start)
            self._add_epsilon_edge(body_accept, accept)
            self._add_epsilon_edge(start, accept)
            return start, accept
        if isinstance(expr, Repeat):  # pragma: no cover - removed by normalisation
            raise AssertionError("Repeat nodes are expanded during normalisation")
        raise TypeError(f"unknown AST node: {expr!r}")

    # -- simulation ----------------------------------------------------------------
    @property
    def state_count(self) -> int:
        """Number of NFA states."""
        return len(self._symbol_edges)

    def epsilon_closure(self, states: frozenset[int]) -> frozenset[int]:
        """All states reachable from *states* through epsilon edges."""
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for target in self._epsilon_edges[state]:
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        frozen = frozenset(closure)
        self._closure_cache[states] = frozen
        return frozen

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        """One symbol-consuming step followed by epsilon closure."""
        moved: set[int] = set()
        for state in states:
            moved.update(self._symbol_edges[state].get(symbol, ()))
        if not moved:
            return frozenset()
        return self.epsilon_closure(frozenset(moved))

    def accepts(self, word) -> bool:
        """Membership test by subset simulation."""
        current = self.epsilon_closure(frozenset((self.start,)))
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return self.accept in current
