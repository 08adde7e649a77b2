"""The linear-time determinism test (Section 3.2, Theorem 3.5).

An expression ``e`` is deterministic iff no position has two distinct,
equally-labelled followers.  After (P1) and (P2) have been established by
the skeleton construction, Lemma 3.4 reduces the remaining conflicts to a
constant number of candidate pairs per colored node: for every node ``n``
of color ``a`` only ``Witness(n,a)``, ``FirstPos(n,a)`` and ``Next(n,a)``
can clash, and Theorem 3.5 characterises exactly when they do:

(i)  ``Witness`` / ``Next`` clash  ⇔  the right child of ``n`` is nullable
     and ``Next(n,a)`` exists;
(ii) ``Witness`` / ``FirstPos`` clash  ⇔  the right child of ``n`` is
     nullable, ``FirstPos(n,a)`` and ``pStar(n)`` exist,
     ``FirstPos(pStar(n), a) = FirstPos(n,a)`` and
     ``pSupLast(n) ≼ pStar(n)``.

(The ``FirstPos`` / ``Next`` combination reduces to the previous two and
does not need to be tested — Section 3.2.)

The public entry points return a :class:`DeterminismReport` carrying a
machine-checkable witness of non-determinism: a position ``p`` and two
equally-labelled positions that both follow ``p``.  Witness positions are
double-checked against :class:`~repro.core.follow.FollowIndex` so the
report is trustworthy even if a diagnostic were produced by the wrong
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..regex.ast import Regex
from ..regex.parse_tree import ParseTree, TreeNode, build_parse_tree
from .skeleton import SkeletonIndex


@dataclass(frozen=True, slots=True)
class DeterminismConflict:
    """Proof of non-determinism: two equally-labelled followers of one position.

    ``source`` is ``None`` for conflicts reported without an explicit
    common predecessor (this does not happen for the linear test, which
    always reconstructs one, but keeps the type usable by other checkers).
    """

    symbol: str
    first: TreeNode
    second: TreeNode
    source: TreeNode | None = None

    def describe(self) -> str:
        """Human-readable one-line description of the conflict."""
        location = (
            f"both follow position {self.source.position_index}"
            if self.source is not None
            else "can be reached by the same word"
        )
        return (
            f"positions {self.first.position_index} and {self.second.position_index} "
            f"are both labelled {self.symbol!r} and {location}"
        )


@dataclass(frozen=True, slots=True)
class DeterminismReport:
    """Outcome of a determinism check."""

    deterministic: bool
    #: which rule fired: "P1", "P2", "overflow", "witness-next", "witness-first"
    reason: str | None = None
    conflict: DeterminismConflict | None = None

    def __bool__(self) -> bool:
        return self.deterministic

    def describe(self) -> str:
        """Human-readable summary (used by the schema-linting example)."""
        if self.deterministic:
            return "deterministic"
        assert self.conflict is not None
        return f"non-deterministic ({self.reason}): {self.conflict.describe()}"


class DeterminismChecker:
    """Linear-time determinism test bound to one parse tree.

    The checker exposes the intermediate structures (follow index and
    skeleton index) because the matchers reuse them; constructing this
    object once is the whole O(|e|) preprocessing of Theorems 3.5 and 4.2.
    The follow index is the tree's own (:attr:`ParseTree.follow`), so the
    matchers built over the same tree never rebuild it.
    """

    def __init__(self, tree: ParseTree):
        self.tree = tree
        self.follow = tree.follow
        self.skeletons = SkeletonIndex(tree)
        self._report: DeterminismReport | None = None

    # -- public API ------------------------------------------------------------------
    def report(self) -> DeterminismReport:
        """Run (or return the cached) determinism check."""
        if self._report is None:
            self._report = self._check()
        return self._report

    def is_deterministic(self) -> bool:
        """True when the expression is deterministic."""
        return self.report().deterministic

    # -- the test ---------------------------------------------------------------------
    def _check(self) -> DeterminismReport:
        diagnostics = self.skeletons.diagnostics

        if diagnostics.p1_violations:
            violation = diagnostics.p1_violations[0]
            source = self._common_predecessor(violation.first, violation.second)
            conflict = DeterminismConflict(
                violation.symbol, violation.first, violation.second, source
            )
            return DeterminismReport(False, "P1", conflict)

        if diagnostics.p2_violations:
            violation = diagnostics.p2_violations[0]
            first, second = violation.candidates[0], violation.candidates[1]
            source = self._common_predecessor(first, second)
            conflict = DeterminismConflict(violation.symbol, first, second, source)
            return DeterminismReport(False, "P2", conflict)

        if diagnostics.next_overflows:
            violation = diagnostics.next_overflows[0]
            first, second = self._pick_conflicting_pair(violation.candidates)
            source = self._common_predecessor(first, second)
            conflict = DeterminismConflict(violation.symbol, first, second, source)
            return DeterminismReport(False, "overflow", conflict)

        # CheckNode (Algorithm 2) on every colored node.
        for node, symbol in self.skeletons.color_assignments():
            outcome = self._check_node(node, symbol)
            if outcome is not None:
                return outcome
        return DeterminismReport(True)

    def _check_node(self, node: TreeNode, symbol: str) -> DeterminismReport | None:
        """Theorem 3.5 statements (i)/(ii) for one colored node."""
        right = node.right
        if right is None or not right.nullable:
            return None

        witness = self.skeletons.witness(node, symbol)
        if witness is None:  # pragma: no cover - colored nodes always have witnesses
            return None

        # (i) Witness and Next both follow any position in Last(Lchild(n)).
        next_position = self.skeletons.next_position(node, symbol)
        if next_position is not None and next_position is not witness:
            source = self._last_position_of(node.left)
            conflict = DeterminismConflict(symbol, witness, next_position, source)
            return DeterminismReport(False, "witness-next", conflict)

        # (ii) Witness and FirstPos both follow such a position when the loop
        # through pStar(n) can come back to FirstPos without leaving the star.
        first_pos = self.skeletons.first_pos(node, symbol)
        loop = node.p_star
        if (
            first_pos is not None
            and first_pos is not witness
            and loop is not None
            and self.skeletons.first_pos(loop, symbol) is first_pos
            and (node.p_sup_last is None or node.p_sup_last.is_ancestor_of(loop))
        ):
            source = self._last_position_of(node.left)
            conflict = DeterminismConflict(symbol, witness, first_pos, source)
            return DeterminismReport(False, "witness-first", conflict)
        return None

    # -- conflict reconstruction helpers -------------------------------------------------
    def _last_position_of(self, node: TreeNode | None) -> TreeNode | None:
        """Some position in ``Last(node)`` (used as the conflict's common predecessor).

        The rightmost position of a subtree always belongs to its Last set
        (for a concatenation Last always contains Last of the right child,
        for a union both children contribute, and unary nodes inherit the
        child's Last set), so a simple rightmost descent suffices.
        """
        if node is None:
            return None
        current = node
        while not current.is_position:
            current = current.right if current.right is not None else current.left
        return current

    def _pick_conflicting_pair(self, candidates: Sequence[TreeNode]) -> tuple[TreeNode, TreeNode]:
        """Pick two candidates that genuinely share a predecessor, if possible."""
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                if self._common_predecessor(candidates[i], candidates[j]) is not None:
                    return candidates[i], candidates[j]
        return candidates[0], candidates[1]

    def _common_predecessor(self, first: TreeNode, second: TreeNode) -> TreeNode | None:
        """Find a position followed by both *first* and *second* (brute force).

        Only used to decorate error reports, so the linear-time bound of the
        yes/no answer is unaffected.
        """
        for position in self.tree.positions:
            if self.follow.follows(position, first) and self.follow.follows(position, second):
                return position
        return None


# ---------------------------------------------------------------------------
# Convenience functions
# ---------------------------------------------------------------------------

def check_deterministic(expr: Regex | ParseTree | str) -> DeterminismReport:
    """Run the linear-time determinism test on *expr* and return the report."""
    tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
    return DeterminismChecker(tree).report()


def is_deterministic(expr: Regex | ParseTree | str) -> bool:
    """True when *expr* is a deterministic (one-unambiguous) expression."""
    return check_deterministic(expr).deterministic
