"""Determinism of expressions with numeric occurrence indicators (Section 3.3).

XML Schema particles carry ``minOccurs``/``maxOccurs`` counters, written
``e{i..j}`` in the paper.  Determinism must then account for the counter
semantics: ``(ab){2,2} a (b+d)`` is deterministic (after ``ab`` the counter
forces a loop, after ``abab`` it forces an exit, so the two ``a`` positions
never compete), while ``(ab){1,2} a`` is not, and nested counters can
interact — the paper quotes ``((a{2..3}+b){2}){2} b`` as non-deterministic
because the number of inner iterations consumed by ``a⁸`` is ambiguous.

The paper reduces this to Kilpeläinen & Tuhkanen's notion of *flexible*
iterators and states that the same skeleton machinery then yields an
O(|e|) test, but it defers the exact characterisation to [19] (not part of
the text).  This module reconstructs the analysis:

* an iterator ``f{i..j}`` is **flexible** when looping and exiting can be
  simultaneously possible — we use ``j > i``, ``f`` nullable, or the
  number of iterations of ``f`` not being determined by the word.  The
  last point is approximated soundly by a *constant-multiplicity* check:
  if some symbol occurs the same number of times (≥ 1) in every word of
  ``L(f)``, the iteration count is determined (count-rigid);
* the follow relation is computed syntax-directed with the counter-aware
  rule: a flexible iterator contributes its loop followers to the ordinary
  follow sets (like a star), a rigid one (``i = j ≥ 2``) only requires its
  loop followers to be label-disjoint from the followers *inside* the
  iterator body — loop and exit are mutually exclusive for rigid counters
  and are therefore never compared.

The test is exact on every example discussed in the paper and in [19]'s
abstract; because the count-rigidity test is sufficient but not necessary,
it may flag as non-deterministic some exotic rigid nestings that a full
implementation of [19, Theorem 5.5] would accept.  The approximation errs
in that direction only: it never accepts a truly ambiguous expression.
The constant-multiplicity maps cost O(σ|e|), above the linear bound of the
star-only test; experiment E7 (``benchmarks/bench_numeric.py``) measures
the whole test.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidExpressionError
from ..regex.ast import (
    Concat,
    Epsilon,
    Optional as OptionalNode,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
    UNBOUNDED,
)
from ..regex.parser import parse

#: Marker for "unbounded" in occurrence-count intervals.
_INF = float("inf")


@dataclass(frozen=True, slots=True)
class NumericPosition:
    """A position (leaf) of a numeric expression."""

    index: int
    symbol: str


@dataclass(frozen=True, slots=True)
class NumericConflict:
    """Two equally-labelled positions reachable after the same prefix."""

    symbol: str
    first: NumericPosition
    second: NumericPosition
    via: str  # "follow", "loop", or "first"

    def describe(self) -> str:
        return (
            f"positions {self.first.index} and {self.second.index} "
            f"({self.symbol!r}) compete ({self.via})"
        )


@dataclass(frozen=True, slots=True)
class NumericDeterminismReport:
    """Outcome of the counter-aware determinism check."""

    deterministic: bool
    conflict: NumericConflict | None = None

    def __bool__(self) -> bool:
        return self.deterministic

    def describe(self) -> str:
        if self.deterministic:
            return "deterministic (with numeric occurrence indicators)"
        assert self.conflict is not None
        return f"non-deterministic: {self.conflict.describe()}"


class _Node:
    """Internal mutable node used by the analysis (the AST itself is immutable)."""

    __slots__ = (
        "kind", "symbol", "low", "high", "children",
        "nullable", "first", "last", "counts", "flexible", "position",
    )

    def __init__(self, kind: str, symbol: str | None = None,
                 low: int = 0, high: int | None = None):
        self.kind = kind
        self.symbol = symbol
        self.low = low
        self.high = high
        self.children: list[_Node] = []
        self.nullable = False
        self.first: list[int] = []
        self.last: list[int] = []
        #: per-symbol (min, max) multiplicities over L(subexpression)
        self.counts: dict[str, tuple[float, float]] = {}
        self.flexible = False
        self.position: int | None = None


class NumericDeterminismChecker:
    """Counter-aware determinism analysis of one expression."""

    def __init__(self, expr: Regex | str):
        if isinstance(expr, str):
            expr = parse(expr)
        # The analysis works directly on the user's AST: epsilon, ``+`` and
        # ``{i,j}`` nodes are all handled natively (normalising here would
        # rewrite ``E+`` into ``E E*`` and judge the wrong semantics).
        self.expr = expr
        self.positions: list[NumericPosition] = []
        self._nodes: list[_Node] = []
        self._root = self._convert(self.expr)
        self._analyse()

    # -- construction ---------------------------------------------------------------
    def _convert(self, expr: Regex) -> _Node:
        """Iteratively convert the AST into analysis nodes (fresh node per leaf)."""
        # (ast node, parent analysis node) work list; children are appended in
        # order because the stack processes a node's children immediately.
        root_holder = _Node("root")
        stack: list[tuple[Regex, _Node]] = [(expr, root_holder)]
        while stack:
            ast_node, parent = stack.pop()
            node = self._make_node(ast_node)
            parent.children.append(node)
            # Push the right child first so the left child is popped (and
            # therefore appended to its parent) before it; children of one
            # parent always end up in document order.
            for child in reversed(ast_node.children()):
                stack.append((child, node))
        if len(root_holder.children) != 1:  # pragma: no cover - defensive
            raise InvalidExpressionError("internal conversion error")
        return root_holder.children[0]

    def _make_node(self, ast_node: Regex) -> _Node:
        if isinstance(ast_node, Sym):
            node = _Node("symbol", symbol=ast_node.symbol)
            node.position = len(self.positions)
            self.positions.append(NumericPosition(node.position, ast_node.symbol))
        elif isinstance(ast_node, Epsilon):
            node = _Node("epsilon")
        elif isinstance(ast_node, Concat):
            node = _Node("concat")
        elif isinstance(ast_node, Union):
            node = _Node("union")
        elif isinstance(ast_node, Star):
            node = _Node("repeat", low=0, high=None)
        elif isinstance(ast_node, Plus):
            node = _Node("repeat", low=1, high=None)
        elif isinstance(ast_node, OptionalNode):
            node = _Node("repeat", low=0, high=1)
        elif isinstance(ast_node, Repeat):
            node = _Node("repeat", low=ast_node.low, high=ast_node.high)
        else:  # pragma: no cover - exhaustive
            raise InvalidExpressionError(f"unknown AST node {ast_node!r}")
        self._nodes.append(node)
        return node

    # -- the analysis -----------------------------------------------------------------
    def _analyse(self) -> None:
        order = self._postorder(self._root)
        for node in order:
            self._compute_sets(node)
        self._follow: list[set[int]] = [set() for _ in self.positions]
        #: which contribution installed each follow edge: ``None`` for
        #: ordinary (concat) follow, else ``(loop-node id, counting?)``.
        #: A *duplicate* contribution of one edge from a different source
        #: is invisible to the label checks (same position, same label)
        #: but is a real ambiguity whenever a counter is involved: the
        #: two routes perform different counter updates, so the counter
        #: automaton has two distinct transitions on one symbol.
        self._edge_source: dict[tuple[int, int], tuple[int, bool] | None] = {}
        self._conflict: NumericConflict | None = None
        for node in order:  # children strictly before parents
            if self._conflict is not None:
                break
            self._add_follow_contributions(node)
        if self._conflict is None:
            self._check_follow_sets()
        if self._conflict is None:
            self._check_label_distinct(self._root.first, "first")

    @staticmethod
    def _postorder(root: _Node) -> list[_Node]:
        order: list[_Node] = []
        stack: list[tuple[_Node, bool]] = [(root, True)]
        while stack:
            node, entering = stack.pop()
            if entering:
                stack.append((node, False))
                for child in reversed(node.children):
                    stack.append((child, True))
            else:
                order.append(node)
        return order

    def _compute_sets(self, node: _Node) -> None:
        """Nullability, First/Last sets and per-symbol multiplicity intervals."""
        kind = node.kind
        if kind == "symbol":
            node.nullable = False
            node.first = [node.position]
            node.last = [node.position]
            node.counts = {node.symbol: (1, 1)}
            return
        if kind == "epsilon":
            node.nullable = True
            return
        if kind == "concat":
            left, right = node.children
            node.nullable = left.nullable and right.nullable
            node.first = list(left.first) + (list(right.first) if left.nullable else [])
            node.last = list(right.last) + (list(left.last) if right.nullable else [])
            node.counts = _sum_counts(left.counts, right.counts)
            return
        if kind == "union":
            left, right = node.children
            node.nullable = left.nullable or right.nullable
            node.first = list(left.first) + list(right.first)
            node.last = list(left.last) + list(right.last)
            node.counts = _union_counts(left.counts, right.counts)
            return
        if kind == "repeat":
            (child,) = node.children
            low, high = node.low, node.high
            node.nullable = low == 0 or child.nullable
            node.first = list(child.first)
            node.last = list(child.last)
            node.counts = _scale_counts(child.counts, low, high)
            node.flexible = self._is_flexible(child, low, high)
            return
        raise InvalidExpressionError(f"unexpected node kind {kind}")  # pragma: no cover

    @staticmethod
    def _is_flexible(child: _Node, low: int, high: int | None) -> bool:
        """Flexibility of ``child{low, high}`` (see the module docstring)."""
        if high is UNBOUNDED:
            return True
        if high <= 1:
            # At most one iteration: there is no loop transition at all.
            return False
        if high > low:
            return True
        if child.nullable:
            return True
        return not _count_rigid(child.counts)

    # -- follow contributions ---------------------------------------------------------------
    def _add_follow_contributions(self, node: _Node) -> None:
        if node.kind == "concat":
            left, right = node.children
            for p in left.last:
                self._extend_follow(p, right.first, "follow")
        elif node.kind == "repeat":
            low, high = node.low, node.high
            loops = high is UNBOUNDED or high >= 2
            if not loops:
                return
            (child,) = node.children
            if node.flexible:
                # A loop whose iteration count is *constrained* carries a
                # real counter: looping and exiting perform different
                # counter updates, so even re-contributing an existing
                # edge (same positions, same label) is an ambiguity.
                # Plain Kleene loops (low <= 1, unbounded high) need no
                # counter — duplicated edges from nested stars collapse
                # into one transition, exactly like the plain Glushkov
                # construction.
                counting = low >= 2 or (high is not UNBOUNDED and high >= 2)
                for p in node.last:
                    self._extend_follow(p, child.first, "loop", owner=(id(node), counting))
            else:
                # Rigid counter: looping and exiting are mutually exclusive, so
                # the loop followers only have to be label-disjoint from the
                # followers already reachable *inside* the body.
                for p in node.last:
                    self._check_disjoint(p, child.first)

    def _extend_follow(
        self,
        position: int,
        targets: list[int],
        via: str,
        owner: tuple[int, bool] | None = None,
    ) -> None:
        if self._conflict is not None:
            return
        follow = self._follow[position]
        labels = {self.positions[q].symbol: q for q in follow}
        counting = owner is not None and owner[1]
        for q in targets:
            if q in follow:
                # The edge exists already.  From the same source that is a
                # no-op; from a *different* source it means two distinct
                # transitions share (position, symbol, target) — harmless
                # between counterless loops, ambiguous once a counter is
                # involved (the updates differ, e.g. ``(a{2,3})+`` where
                # the inner loop and the outer restart compete on ``a``).
                previous = self._edge_source.get((position, q))
                if previous != owner and (counting or (previous is not None and previous[1])):
                    self._conflict = NumericConflict(
                        self.positions[q].symbol, self.positions[q], self.positions[q], via
                    )
                    return
                continue
            label = self.positions[q].symbol
            other = labels.get(label)
            if other is not None and other != q:
                self._conflict = NumericConflict(
                    label, self.positions[other], self.positions[q], via
                )
                return
            labels[label] = q
            follow.add(q)
            self._edge_source[(position, q)] = owner

    def _check_disjoint(self, position: int, loop_targets: list[int]) -> None:
        if self._conflict is not None:
            return
        labels = {self.positions[q].symbol: q for q in self._follow[position]}
        for q in loop_targets:
            other = labels.get(self.positions[q].symbol)
            if other is not None and other != q:
                self._conflict = NumericConflict(
                    self.positions[q].symbol, self.positions[other], self.positions[q], "loop"
                )
                return

    def _check_follow_sets(self) -> None:
        for position_index, follow in enumerate(self._follow):
            seen: dict[str, int] = {}
            for q in sorted(follow):
                label = self.positions[q].symbol
                other = seen.get(label)
                if other is not None:
                    self._conflict = NumericConflict(
                        label, self.positions[other], self.positions[q], "follow"
                    )
                    return
                seen[label] = q
            del position_index

    def _check_label_distinct(self, positions: list[int], via: str) -> None:
        seen: dict[str, int] = {}
        for q in sorted(set(positions)):
            label = self.positions[q].symbol
            other = seen.get(label)
            if other is not None:
                self._conflict = NumericConflict(
                    label, self.positions[other], self.positions[q], via
                )
                return
            seen[label] = q

    # -- public API -------------------------------------------------------------------------
    def report(self) -> NumericDeterminismReport:
        """The outcome of the analysis."""
        return NumericDeterminismReport(self._conflict is None, self._conflict)

    def flexibility(self) -> list[tuple[int, int | None, bool]]:
        """(low, high, flexible) for every iterator node, in document order."""
        return [
            (node.low, node.high, node.flexible)
            for node in self._nodes
            if node.kind == "repeat"
        ]


# ---------------------------------------------------------------------------
# Occurrence-count interval arithmetic
# ---------------------------------------------------------------------------

def _sum_counts(left: dict, right: dict) -> dict:
    result = dict(left)
    for symbol, (lo, hi) in right.items():
        old_lo, old_hi = result.get(symbol, (0, 0))
        result[symbol] = (old_lo + lo, old_hi + hi)
    return result


def _union_counts(left: dict, right: dict) -> dict:
    result: dict[str, tuple[float, float]] = {}
    for symbol in set(left) | set(right):
        left_lo, left_hi = left.get(symbol, (0, 0))
        right_lo, right_hi = right.get(symbol, (0, 0))
        result[symbol] = (min(left_lo, right_lo), max(left_hi, right_hi))
    return result


def _scale_counts(counts: dict, low: int, high: int | None) -> dict:
    result: dict[str, tuple[float, float]] = {}
    factor_hi = _INF if high is UNBOUNDED else high
    for symbol, (lo, hi) in counts.items():
        result[symbol] = (low * lo, factor_hi * hi if hi else 0)
    return result


def _count_rigid(counts: dict) -> bool:
    """True when some symbol occurs a fixed number (>= 1) of times in every word."""
    return any(lo == hi and lo >= 1 for lo, hi in counts.values())


# ---------------------------------------------------------------------------
# Convenience functions
# ---------------------------------------------------------------------------

def check_deterministic_numeric(expr: Regex | str) -> NumericDeterminismReport:
    """Counter-aware determinism check (Section 3.3)."""
    return NumericDeterminismChecker(expr).report()


def is_deterministic_numeric(expr: Regex | str) -> bool:
    """True when *expr* is deterministic under the numeric-occurrence semantics."""
    return check_deterministic_numeric(expr).deterministic
