"""Colors, witnesses and per-symbol skeleta (Section 3.1, Algorithm 1).

The linear-time determinism test and the lowest-colored-ancestor matcher
share a decomposition of the parse tree built here:

* **Colors / witnesses** — for every position ``p`` (labelled ``a``), the
  node ``parent(pSupFirst(p))`` receives color ``a`` with witness ``p``
  (Lemma 2.5 guarantees that the a-labelled followers of any position are
  witnesses at its ancestors).  Property (P1) — positions sharing their
  ``pSupFirst`` node have distinct labels — makes witnesses unique per
  (node, color); its violation is itself a proof of non-determinism.

* **a-skeleta** — for each symbol ``a``, the tree induced by the class-a
  nodes (a-positions, a-colored nodes and their iterated LCAs) plus their
  ``pSupLast``/``pStar`` nodes.  The total size of all skeleta is O(|e|)
  (Lemma 3.1).

* **FirstPos / Next** — each skeleton node ``n`` carries the unique
  a-position in ``First(n)`` (if any) and the set ``Next(n, a)`` of
  a-positions in ``FollowAfter(n)``, computed by ``BuildNext``
  (Algorithm 1).  ``BuildNext`` aborts with an overflow when it can prove
  non-determinism on the fly, and property (P2) — every ``Next`` set has
  at most one element — is checked as the sets are produced.

Positions come bucketed by symbol from the parse tree, and the a-colored
nodes are read off the a-positions (each witness colors the parent of its
``pSupFirst`` node), so building the a-skeleton only touches class-a nodes
and all skeleta together cost O(|e|) (up to sorting each skeleton's nodes in
pre-order).

**Eager and on-demand skeleta.**  Every rule that proves non-determinism
compares two distinct a-positions: (P1), (P2) and both CheckNode clashes
of Theorem 3.5 (a ``BuildNext`` overflow always comes with a (P1) or
(P2) violation; see ``DeterminismChecker._check``).  A symbol with a single position
can fire none of them, so :class:`SkeletonIndex` builds the skeleton of a
symbol eagerly only when the symbol has two or more positions.  The
skeleton of every other symbol (the ``$`` sentinel included) is built on its
first lookup, under a lock, because the matchers of Section 4 still walk the
full structure.  On SOREs, the bulk of real content models, the determinism
test thus builds no skeleton, and so never asks for the tree's follow index,
whose LCA structure only the skeleta and conflict reports need.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from ..regex.parse_tree import NodeKind, ParseTree, TreeNode

#: sort key putting parse-tree nodes in pre-order
_pre = attrgetter("pre")


class SkeletonNode:
    """A node of one a-skeleton: a parse-tree node plus skeleton links and data."""

    __slots__ = ("enode", "parent", "left", "right", "witness", "first_pos", "next_positions")

    def __init__(self, enode: TreeNode):
        self.enode = enode
        self.parent: SkeletonNode | None = None
        self.left: SkeletonNode | None = None
        self.right: SkeletonNode | None = None
        #: witness for the color at this node (a position), if the node is colored
        self.witness: TreeNode | None = None
        #: the unique a-labelled position in First(enode), if any
        self.first_pos: TreeNode | None = None
        #: the a-labelled positions in FollowAfter(enode) — at most one if (P2) holds
        self.next_positions: tuple[TreeNode, ...] = ()

    @property
    def next_position(self) -> TreeNode | None:
        """The single element of ``Next(n, a)`` (``None`` when empty or ambiguous)."""
        if len(self.next_positions) == 1:
            return self.next_positions[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<skeleton {self.enode!r}>"


class SymbolSkeleton:
    """The a-skeleton of one symbol with lookup by parse-tree node."""

    __slots__ = ("symbol", "root", "nodes", "by_enode")

    def __init__(self, symbol: str, root: SkeletonNode, nodes: list[SkeletonNode]):
        self.symbol = symbol
        self.root = root
        self.nodes = nodes
        self.by_enode: dict[int, SkeletonNode] = {node.enode.index: node for node in nodes}

    def __len__(self) -> int:
        return len(self.nodes)

    def node_for(self, enode: TreeNode) -> SkeletonNode | None:
        """The skeleton node wrapping *enode*, or ``None`` if absent."""
        return self.by_enode.get(enode.index)

    def positions(self) -> list[TreeNode]:
        """The positions labelled with this skeleton's symbol."""
        return [node.enode for node in self.nodes if node.enode.is_position]


@dataclass(frozen=True, slots=True)
class P1Violation:
    """Two equally-labelled positions sharing their ``pSupFirst`` node."""

    symbol: str
    first: TreeNode
    second: TreeNode
    sup_first: TreeNode


@dataclass(frozen=True, slots=True)
class NextOverflow:
    """``BuildNext`` accumulated more than two candidate follow positions."""

    symbol: str
    node: TreeNode
    candidates: tuple[TreeNode, ...]


@dataclass(frozen=True, slots=True)
class P2Violation:
    """A ``Next(n, a)`` set with two or more positions."""

    symbol: str
    node: TreeNode
    candidates: tuple[TreeNode, ...]


@dataclass(slots=True)
class SkeletonDiagnostics:
    """Violations discovered while building the skeleta.

    Any non-empty field proves the expression non-deterministic; the
    determinism checker turns these into user-facing reports.
    """

    p1_violations: list[P1Violation] = field(default_factory=list)
    next_overflows: list[NextOverflow] = field(default_factory=list)
    p2_violations: list[P2Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no violation was recorded."""
        return not (self.p1_violations or self.next_overflows or self.p2_violations)


class SkeletonIndex:
    """Colors, witnesses, a-skeleta and the Next structure for a parse tree.

    Colors, witnesses and (P1) cover every symbol at construction; the
    skeleta of single-position symbols are built on first lookup (see the
    module docstring).
    """

    def __init__(self, tree: ParseTree):
        self.tree = tree
        self.diagnostics = SkeletonDiagnostics()
        #: colors per node: ``colors[node.index][symbol] -> witness position``
        self.colors: dict[int, dict[str, TreeNode]] = {}
        #: the skeleta built so far, per symbol (only symbols that actually occur)
        self._skeletons: dict[str, SymbolSkeleton] = {}
        # The table lists the symbols in alphabet order between the two
        # sentinels.  The $ sentinel participates like an ordinary symbol:
        # its skeleton is what lets matchers decide acceptance with the same
        # machinery; the # sentinel follows nothing and gets no skeleton.
        table = tree.symbol_positions
        repeated = [symbol for symbol, positions in table.items() if len(positions) >= 2]
        #: symbols with two or more positions, whose skeleta are built here
        self.repeated = frozenset(repeated)
        #: symbols whose skeleton is built on first lookup.  One position
        #: cannot break (P1), (P2) or the overflow rule, so building these
        #: skeleta later records no diagnostic.
        self._pending = {symbol for symbol, positions in table.items() if len(positions) == 1}
        self._pending.discard(tree.start.symbol)
        #: serialises on-demand builds among matcher threads sharing this index
        self._lock = threading.Lock()
        self._assign_colors()
        for symbol in repeated:
            self._build_symbol(symbol)

    # ------------------------------------------------------------------------------
    # Colors, witnesses and property (P1)
    # ------------------------------------------------------------------------------
    def _assign_colors(self) -> None:
        # A pSupFirst node is always the right child of a concatenation with
        # a non-nullable left child (every other parent passes its children's
        # First sets up whole), so the colored node determines the pSupFirst
        # node and two positions share (pSupFirst, label) exactly when they
        # share (colored node, label): (P1) is a collision in ``colors``.
        colors = self.colors
        for position in self.tree.positions:
            sup_first = position.p_sup_first
            if sup_first is None:
                # Only the # sentinel: it never follows anything.
                continue
            colored = sup_first.parent
            if colored is None:  # pragma: no cover - SupFirst nodes have parents
                continue
            symbol = position.symbol
            by_symbol = colors.get(colored.index)
            if by_symbol is None:
                colors[colored.index] = {symbol: position}
            elif symbol in by_symbol:
                self.diagnostics.p1_violations.append(
                    P1Violation(symbol, by_symbol[symbol], position, sup_first)
                )
            else:
                by_symbol[symbol] = position

    def colored_nodes(self, symbol: str) -> list[TreeNode]:
        """The nodes carrying color *symbol*, in pre-order.

        Read off the symbol's own positions (each witness colors the parent
        of its ``pSupFirst`` node), so the cost is that of the symbol's
        class, not of the tree.
        """
        colors = self.colors
        nodes = []
        for position in self.tree.positions_by_symbol(symbol):
            sup_first = position.p_sup_first
            if sup_first is not None and sup_first.parent is not None:
                node = sup_first.parent
                if colors[node.index].get(symbol) is position:
                    nodes.append(node)
        nodes.sort(key=_pre)
        return nodes

    def witness(self, node: TreeNode, symbol: str) -> TreeNode | None:
        """``Witness(node, symbol)`` — the witness position, if the node has the color."""
        return self.colors.get(node.index, {}).get(symbol)

    def color_assignments(self) -> Iterable[tuple[TreeNode, str]]:
        """Iterate over all (node, color) assignments (used by the matchers)."""
        for index, by_symbol in self.colors.items():
            node = self.tree.nodes[index]
            for symbol in by_symbol:
                yield node, symbol

    # ------------------------------------------------------------------------------
    # Skeleton construction (Lemma 3.1)
    # ------------------------------------------------------------------------------
    def _build_symbol(self, symbol: str) -> None:
        """Build, decorate and publish the a-skeleton of *symbol*."""
        skeleton = self._build_one_skeleton(symbol)
        if skeleton is not None:
            self._compute_first_pos(skeleton)
            self._attach_witnesses(skeleton)
            self._build_next(skeleton)
            # Published last, so a lock-free reader never sees a half-built one.
            self._skeletons[symbol] = skeleton

    def _build_one_skeleton(self, symbol: str) -> SymbolSkeleton | None:
        # Positions are leaves and colored nodes are internal, so the two
        # pre-order runs are disjoint; sorting their concatenation merges them.
        base = sorted(
            self.tree.positions_by_symbol(symbol) + self.colored_nodes(symbol),
            key=_pre,
        )
        if not base:
            return None

        # Close under LCA: with the nodes sorted in pre-order it suffices to
        # add the LCA of every consecutive pair (Proposition 4.4 of [7]).
        members: dict[int, TreeNode] = {node.index: node for node in base}
        lca = self.tree.follow.lca
        for left, right in zip(base, base[1:]):
            ancestor = lca(left, right)
            members[ancestor.index] = ancestor
        # Add the pSupLast and pStar nodes of every class-a node; the set
        # stays closed under LCA because only ancestors are added.
        for node in list(members.values()):
            for extra in (node.p_sup_last, node.p_star):
                if extra is not None:
                    members[extra.index] = extra

        ordered = sorted(members.values(), key=_pre)
        skeleton_nodes = [SkeletonNode(node) for node in ordered]
        self._link_skeleton(skeleton_nodes)
        return SymbolSkeleton(symbol, skeleton_nodes[0], skeleton_nodes)

    @staticmethod
    def _link_skeleton(nodes: list[SkeletonNode]) -> None:
        """Attach parent/left/right pointers among pre-order sorted skeleton nodes."""
        stack: list[SkeletonNode] = []
        for node in nodes:
            while stack and not stack[-1].enode.is_ancestor_of(node.enode):
                stack.pop()
            if stack:
                parent = stack[-1]
                node.parent = parent
                # Left or right child according to which parse-tree subtree of
                # the parent contains the node.
                if parent.enode.left is not None and parent.enode.left.is_ancestor_of(node.enode):
                    parent.left = node
                else:
                    parent.right = node
            stack.append(node)

    # ------------------------------------------------------------------------------
    # FirstPos and witnesses
    # ------------------------------------------------------------------------------
    def _compute_first_pos(self, skeleton: SymbolSkeleton) -> None:
        """Bottom-up computation of ``FirstPos(n, a)`` on one skeleton."""
        in_first = self.tree.follow.in_first
        symbol = skeleton.symbol
        for node in reversed(skeleton.nodes):  # children before parents (pre-order list)
            candidates: list[TreeNode] = []
            if node.enode.is_position and node.enode.symbol == symbol:
                candidates.append(node.enode)
            for child in (node.left, node.right):
                if child is not None and child.first_pos is not None:
                    candidates.append(child.first_pos)
            for candidate in candidates:
                if in_first(node.enode, candidate):
                    node.first_pos = candidate
                    break

    def _attach_witnesses(self, skeleton: SymbolSkeleton) -> None:
        for node in skeleton.nodes:
            node.witness = self.witness(node.enode, skeleton.symbol)

    # ------------------------------------------------------------------------------
    # BuildNext (Algorithm 1) and property (P2)
    # ------------------------------------------------------------------------------
    def _build_next(self, skeleton: SymbolSkeleton) -> None:
        """Iterative version of Algorithm 1 (the recursion is a plain DFS)."""
        symbol = skeleton.symbol
        stack: list[tuple[SkeletonNode, tuple[TreeNode, ...]]] = [(skeleton.root, ())]
        while stack:
            node, inherited = stack.pop()
            enode = node.enode
            candidates = () if enode.sup_last else inherited

            parent = node.parent
            if (
                parent is not None
                and parent.enode.kind is NodeKind.CONCAT
                and parent.left is node
                and parent.right is not None
                and (not enode.sup_last or parent.enode is enode.parent)
            ):
                sibling_first = parent.right.first_pos
                if sibling_first is not None:
                    candidates = _add(candidates, sibling_first)

            node.next_positions = tuple(
                p for p in candidates if not enode.is_ancestor_of(p)
            )
            if len(node.next_positions) > 1:
                self.diagnostics.p2_violations.append(
                    P2Violation(symbol, enode, node.next_positions)
                )

            if enode.is_iteration and node.first_pos is not None:
                candidates = _add(candidates, node.first_pos)

            if len(candidates) > 2:
                self.diagnostics.next_overflows.append(
                    NextOverflow(symbol, enode, candidates)
                )
                # The expression is already known to be non-deterministic;
                # keep only two candidates so the traversal stays linear.
                candidates = candidates[:2]

            if node.left is not None:
                stack.append((node.left, candidates))
            if node.right is not None:
                stack.append((node.right, candidates))

    # ------------------------------------------------------------------------------
    # Lookups used by the determinism checker and the matchers
    # ------------------------------------------------------------------------------
    def skeleton_for(self, symbol: str) -> SymbolSkeleton | None:
        """The a-skeleton for *symbol*, or ``None`` when the symbol does not occur.

        A pending skeleton is built here, once, however many threads ask.
        """
        skeleton = self._skeletons.get(symbol)
        if skeleton is None and symbol in self._pending:
            with self._lock:
                if symbol in self._pending:
                    self._build_symbol(symbol)
                    self._pending.discard(symbol)
            skeleton = self._skeletons.get(symbol)
        return skeleton

    @property
    def skeletons(self) -> Mapping[str, SymbolSkeleton]:
        """Every a-skeleton by symbol (read-only); builds the pending ones first."""
        for symbol in list(self._pending):
            self.skeleton_for(symbol)
        return MappingProxyType(self._skeletons)

    def first_pos(self, node: TreeNode, symbol: str) -> TreeNode | None:
        """``FirstPos(node, symbol)`` if *node* belongs to the symbol's skeleton."""
        skeleton = self.skeleton_for(symbol)
        if skeleton is None:
            return None
        skeleton_node = skeleton.node_for(node)
        return skeleton_node.first_pos if skeleton_node is not None else None

    def next_position(self, node: TreeNode, symbol: str) -> TreeNode | None:
        """``Next(node, symbol)`` (None when empty, absent or ambiguous)."""
        skeleton = self.skeleton_for(symbol)
        if skeleton is None:
            return None
        skeleton_node = skeleton.node_for(node)
        return skeleton_node.next_position if skeleton_node is not None else None

    def total_skeleton_size(self) -> int:
        """Total number of skeleton nodes over all symbols (O(|e|), Lemma 3.1)."""
        return sum(len(skeleton) for skeleton in self.skeletons.values())


def _add(candidates: tuple[TreeNode, ...], position: TreeNode) -> tuple[TreeNode, ...]:
    """Add *position* to the small candidate tuple, keeping it duplicate-free."""
    if position in candidates:
        return candidates
    return candidates + (position,)
