"""Constant-time lowest common ancestor queries.

Theorem 2.4 of the paper needs LCA queries in O(1) after linear-time
preprocessing of the parse tree (citing Harel & Tarjan / Bender &
Farach-Colton).  This module implements the RMQ reduction over the
pre-order instead of the Euler tour:

* walk the tree once in pre-order, recording each node's depth and
  parent;
* for ``u`` before ``v`` in pre-order, every node after ``u`` and up to
  ``v`` lies below ``LCA(u, v)``, and the shallowest of them are children
  of it, so ``LCA(u, v)`` is the parent of a range-minimum of depth over
  that range (``u`` itself when ``u`` is an ancestor of ``v``).

The depth array has n entries where the Euler tour has 2n − 1, so the
sparse table is half the size and the walk visits each node once.

The structure is generic over any tree exposing ``children()`` and an
integer ``index`` attribute (as :class:`repro.regex.parse_tree.TreeNode`
does), so it is reused by the skeleton builder and by test trees.
"""

from __future__ import annotations

from typing import Generic, Protocol, Sequence, TypeVar

from .rmq import SparseTableRMQ


class _TreeLike(Protocol):
    index: int

    def children(self) -> Sequence["_TreeLike"]:  # pragma: no cover - protocol
        ...


N = TypeVar("N", bound=_TreeLike)


class LCAIndex(Generic[N]):
    """Pre-order depths + sparse-table RMQ giving O(1) LCA on a fixed tree.

    ``nodes`` must contain every node of the tree and ``nodes[i].index``
    must equal ``i`` (the convention used by :class:`ParseTree`); the tree
    is rooted at ``root``.
    """

    __slots__ = ("root", "_nodes", "_rank", "_parent", "_rmq")

    def __init__(self, root: N, nodes: Sequence[N]):
        self.root = root
        self._nodes = nodes
        #: pre-order rank per node index, and depth and parent index per rank
        rank: list[int] = [-1] * len(nodes)
        depths: list[int] = []
        parents: list[int] = []

        stack: list[tuple[N, int, int]] = [(root, 0, -1)]
        while stack:
            node, depth, parent = stack.pop()
            rank[node.index] = len(depths)
            depths.append(depth)
            parents.append(parent)
            for child in reversed(node.children()):
                stack.append((child, depth + 1, node.index))

        self._rank = rank
        self._parent = parents
        self._rmq = SparseTableRMQ(depths)

    def lca(self, a: N, b: N) -> N:
        """Return the lowest common ancestor of *a* and *b*."""
        ia = self._rank[a.index]
        ib = self._rank[b.index]
        if ia < 0 or ib < 0:
            raise KeyError("node does not belong to the indexed tree")
        if ia == ib:
            return a
        lo, hi = (ia, ib) if ia < ib else (ib, ia)
        return self._nodes[self._parent[self._rmq.argmin(lo + 1, hi + 1)]]

    def is_ancestor(self, ancestor: N, node: N) -> bool:
        """Reflexive ancestor test expressed through LCA (used in tests)."""
        return self.lca(ancestor, node) is ancestor

    def depth_of(self, node: N) -> int:
        """Depth of *node* (root has depth 0)."""
        return self._rmq.values[self._rank[node.index]]

    def __len__(self) -> int:
        return len(self._nodes)
