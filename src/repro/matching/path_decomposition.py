"""The path-decomposition matcher (Section 4.3, Theorem 4.10).

Matching costs ``O(|e| + c_e |w|)`` where ``c_e`` is the alternation depth
of union and concatenation operators (at most 4 in real-world DTDs).  The
algorithm follows the paper closely:

* the parse tree is partitioned into vertical paths; a node heads a path
  when it is the root, a SupLast or SupFirst node, a nullable right child,
  or the right child of a union (Section 4.3, "Path decomposition");
* ``top(p)`` is the head of the path containing the left sibling of
  ``pSupFirst(p)``; the map ``h(top(p), lab(p)) = p`` aggregates, per path
  head, the positions reachable "from around the path" (Lemma 4.5
  guarantees the aggregation is collision-free for deterministic
  expressions);
* ``nexttop`` pointers let the transition simulation jump from path head
  to path head instead of climbing node by node; Lemma 4.7 shows the jump
  sequence visits every head that can announce a follower, and Lemma 4.9's
  potential argument bounds the amortised number of jumps by ``c_e + O(1)``
  per consumed symbol;
* ``FindNext`` (Algorithm 3) walks the jump sequence up to ``pSupLast(p)``,
  then performs the final First-set lookup of lines 8-14.

The paper stores ``h`` in lazy arrays; we use per-head hash maps, the
practical choice the paper itself names: ``h`` is filled once per
expression and never reset, so the lazy array's constant-time reset buys
nothing here.  :class:`~repro.structures.lazy_array.LazyArray` implements
the paper's structure, but no matcher uses it; only its own tests and
``benchmarks/bench_structures.py`` do.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..regex.parse_tree import NodeKind, TreeNode
from .base import DeterministicMatcher


@dataclass(slots=True)
class _PathRecord:
    """Bookkeeping for one decomposition path during the nexttop DFS."""

    head: TreeNode
    qualifies_statically: bool
    has_concat: bool = False
    in_qualifying_stack: bool = False


class PathDecompositionMatcher(DeterministicMatcher):
    """Theorem 4.10: matching in O(|e| + c_e |w|)."""

    name = "path-decomposition"

    # -- preprocessing --------------------------------------------------------------
    def _prepare(self) -> None:
        self._compute_topmost()
        self._compute_h()
        self._compute_nexttop()
        #: total number of nexttop jumps performed (instrumentation for E4)
        self.jump_count = 0

    def _compute_topmost(self) -> None:
        """Mark path heads and record, for every node, the head of its path."""
        tree = self.tree
        self._is_head = [False] * len(tree.nodes)
        self._path_head = [None] * len(tree.nodes)  # type: list[TreeNode | None]
        for node in tree.nodes:  # pre-order: parents before children
            parent = node.parent
            is_head = (
                parent is None
                or node.sup_last
                or node.sup_first
                or (node is parent.right and node.nullable)
                or (node is parent.right and parent.kind is NodeKind.UNION)
            )
            self._is_head[node.index] = is_head
            self._path_head[node.index] = node if is_head else self._path_head[parent.index]

    def top(self, position: TreeNode) -> TreeNode | None:
        """``top(p)``: head of the path of the left sibling of ``pSupFirst(p)``."""
        sup_first = position.p_sup_first
        if sup_first is None or sup_first.parent is None:
            return None
        left_sibling = sup_first.parent.left
        if left_sibling is None:
            return None
        return self._path_head[left_sibling.index]

    def _compute_h(self) -> None:
        """``h(top(p), lab(p)) = p`` for every position (Lemma 4.5 makes this collision-free)."""
        self._h: dict[int, dict[str, TreeNode]] = {}
        for position in self.tree.positions:
            head = self.top(position)
            if head is None:
                continue
            self._h.setdefault(head.index, {})[position.symbol] = position

    def _compute_nexttop(self) -> None:
        """One DFS computing ``nexttop`` for every node in O(|e|).

        ``nexttop(n)`` is the lowest path head above ``parent(n)`` that is
        the root, a SupLast or SupFirst node, or whose path contains a
        non-nullable concatenation node that is an ancestor of ``n``.  The
        DFS keeps one record per path currently open; a record becomes
        *qualifying* either statically (root/SupLast/SupFirst head) or as
        soon as a non-nullable concatenation of its path is entered —
        which can only happen while the record is the innermost one, so the
        stack of qualifying records stays ordered by depth and its top is
        exactly the pointer we need.
        """
        tree = self.tree
        self._nexttop: list[TreeNode | None] = [None] * len(tree.nodes)
        record_stack: list[_PathRecord] = []
        qualifying: list[_PathRecord] = []

        stack: list[tuple[TreeNode, bool]] = [(tree.root, True)]
        while stack:
            node, entering = stack.pop()
            if not entering:
                if self._is_head[node.index]:
                    record = record_stack.pop()
                    if record.in_qualifying_stack:
                        qualifying.pop()
                continue

            self._nexttop[node.index] = qualifying[-1].head if qualifying else None

            if self._is_head[node.index]:
                parent = node.parent
                statically = (
                    parent is None or node.sup_last or node.sup_first
                )
                record = _PathRecord(node, statically)
                record_stack.append(record)
                if statically:
                    record.in_qualifying_stack = True
                    qualifying.append(record)
            record = record_stack[-1]
            if node.kind is NodeKind.CONCAT and not node.nullable and not record.has_concat:
                record.has_concat = True
                if not record.in_qualifying_stack:
                    record.in_qualifying_stack = True
                    qualifying.append(record)

            stack.append((node, False))
            if node.right is not None:
                stack.append((node.right, True))
            if node.left is not None:
                stack.append((node.left, True))

    def nexttop(self, node: TreeNode) -> TreeNode | None:
        """The precomputed ``nexttop`` pointer of *node*."""
        return self._nexttop[node.index]

    # -- transition simulation (Algorithm 3) ---------------------------------------------
    def next_position(self, position: TreeNode, symbol: str) -> TreeNode | None:
        """``FindNext(p, a)``: follow nexttop jumps, then the final First lookup."""
        follows = self.follow.follows
        h = self._h
        nexttop = self._nexttop
        target = position.p_sup_last

        current: TreeNode | None = position
        while current is not None and current is not target:
            self.jump_count += 1
            candidate = h.get(current.index, {}).get(symbol)
            if candidate is not None and follows(position, candidate):
                return candidate
            current = nexttop[current.index]
        if current is None:
            # The jump sequence ran past the root without meeting pSupLast(p);
            # this cannot happen on R1-wrapped trees but is kept as a guard.
            return None

        candidate = h.get(current.index, {}).get(symbol)
        if candidate is not None and follows(position, candidate):
            return candidate

        # Lines 8-14: look for the follower inside First(parent(pSupLast(p))).
        parent = current.parent
        if parent is None:
            return None
        sup_first = parent.p_sup_first
        if sup_first is None:
            return None
        if sup_first.nullable:
            hop = nexttop[sup_first.index]
            candidate = h.get(hop.index, {}).get(symbol) if hop is not None else None
        else:
            grand = sup_first.parent
            left_sibling = grand.left if grand is not None else None
            candidate = (
                h.get(left_sibling.index, {}).get(symbol) if left_sibling is not None else None
            )
        if candidate is not None and follows(position, candidate):
            return candidate
        return None

    # -- instrumentation --------------------------------------------------------------------
    def reset_jump_count(self) -> None:
        """Reset the jump counter (benchmarks measure jumps per symbol)."""
        self.jump_count = 0

    def head_count(self) -> int:
        """Number of paths in the decomposition."""
        return sum(1 for flag in self._is_head if flag)
