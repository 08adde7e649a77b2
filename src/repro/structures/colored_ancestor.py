"""Lowest colored ancestor queries.

Section 4.1 of the paper reduces transition simulation to the following
query: *given a node ``v`` and a color ``a``, return the lowest ancestor
of ``v`` carrying color ``a``* (nodes may carry several colors).  The
paper cites Muthukrishnan & Müller's structure with ``O(log log n)`` query
time after linear expected preprocessing.

This module implements the query through two substrates built here:

* a heavy-path decomposition of the tree
  (:class:`~repro.structures.heavy_path.HeavyPathDecomposition`), and
* one van Emde Boas predecessor structure per (heavy path, color) pair
  (:class:`~repro.structures.veb.VanEmdeBoasTree`) storing the in-path
  depths of the nodes of that color.

A query walks the heavy paths met on the way from ``v`` to the root (at
most ``O(log n)`` of them) and performs one predecessor query per path,
for a worst-case cost of ``O(log |e| · log log |e|)`` — slightly weaker
than the cited bound but with the same "effectively constant" behaviour
that experiment E5 (``benchmarks/bench_lca_matcher.py``) measures.  The
substitution builds the query from two substrates that are simpler to
implement and test than the cited structure, at that extra
``log |e|`` factor.

Nodes must expose ``children()``, ``parent`` and a dense integer
``index`` (as parse-tree nodes do).
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Mapping, Sequence, TypeVar

from .heavy_path import HeavyPathDecomposition
from .veb import VanEmdeBoasTree

N = TypeVar("N")
Color = Hashable


class ColoredAncestorIndex(Generic[N]):
    """Static index answering lowest colored ancestor queries."""

    __slots__ = ("_decomposition", "_tables", "_colors_of", "_total_assignments")

    def __init__(
        self,
        root: N,
        nodes: Sequence[N],
        colors: Mapping[int, Iterable[Color]] | None = None,
    ):
        """Build the index for the tree rooted at *root*.

        *colors* maps ``node.index`` to the colors assigned to that node;
        it may be ``None``/empty and extended later with
        :meth:`assign_color` followed by :meth:`rebuild` — the determinism
        pipeline knows all colors up front, so the common path builds the
        index once.
        """
        self._decomposition = HeavyPathDecomposition(root, nodes)
        self._colors_of: dict[int, set[Color]] = {}
        self._tables: dict[tuple[int, Color], VanEmdeBoasTree] = {}
        self._total_assignments = 0
        if colors:
            for index, node_colors in colors.items():
                for color in node_colors:
                    self.assign_color(nodes[index], color)

    # -- construction -----------------------------------------------------------
    def assign_color(self, node: N, color: Color) -> None:
        """Assign *color* to *node* (idempotent)."""
        node_colors = self._colors_of.setdefault(node.index, set())
        if color in node_colors:
            return
        node_colors.add(color)
        self._total_assignments += 1
        decomposition = self._decomposition
        path_id = decomposition.path_id(node)
        key = (path_id, color)
        table = self._tables.get(key)
        if table is None:
            table = VanEmdeBoasTree(len(decomposition.paths[path_id]) + 1)
            self._tables[key] = table
        table.insert(decomposition.depth_in_path[node.index])

    def colors_of(self, node: N) -> frozenset[Color]:
        """The colors currently assigned to *node*."""
        return frozenset(self._colors_of.get(node.index, ()))

    @property
    def total_assignments(self) -> int:
        """Total number of (node, color) assignments (the paper's ``C``)."""
        return self._total_assignments

    # -- queries -----------------------------------------------------------------
    def lowest_colored_ancestor(self, node: N, color: Color) -> N | None:
        """Lowest (reflexive) ancestor of *node* carrying *color*, or ``None``."""
        decomposition = self._decomposition
        current: N | None = node
        while current is not None:
            path_id = decomposition.path_id(current)
            table = self._tables.get((path_id, color))
            if table is not None:
                depth_limit = decomposition.depth_in_path[current.index]
                hit = table.predecessor(depth_limit)
                if hit is not None:
                    return decomposition.paths[path_id][hit]
            head = decomposition.path_heads[path_id]
            current = getattr(head, "parent", None)
        return None

    def lowest_colored_ancestor_naive(self, node: N, color: Color) -> N | None:
        """Reference implementation walking parent pointers (for tests)."""
        current: N | None = node
        while current is not None:
            if color in self._colors_of.get(current.index, ()):  # type: ignore[arg-type]
                return current
            current = getattr(current, "parent", None)
        return None
