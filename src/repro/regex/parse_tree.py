"""The pointer-based parse tree on which all paper algorithms operate.

Section 2 of the paper identifies an expression with its parse tree and
requires three restrictions:

(R1) ``e = (# e') $`` where the sentinels ``#`` and ``$`` do not occur in
     ``e'``;
(R2) no directly nested unbounded iterations;
(R3) ``(f)?`` only for non-nullable ``f``.

:func:`build_parse_tree` takes an AST, normalises it
(:mod:`repro.regex.normalize`), wraps it per (R1) and produces a
:class:`ParseTree` of :class:`TreeNode` objects carrying every derived
annotation the paper's algorithms need:

* ``nullable`` per node (syntax-directed, Section 2),
* ``sup_first`` / ``sup_last`` flags and the ``p_sup_first`` /
  ``p_sup_last`` pointers (lowest reflexive ancestor with the flag),
* ``p_star`` — the lowest reflexive ancestor labelled with an unbounded
  iteration (star or plus),
* pre/post order numbers giving O(1) (reflexive) ancestor tests,
* ``depth`` and a left-to-right numbering of the positions (leaves).

All annotations are computed in O(|e|).  The marked expression of the
paper (positions subscripted left to right) corresponds to
``ParseTree.positions``: position ``i`` is ``positions[i]``.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterator

from ..errors import InvalidExpressionError
from .alphabet import Alphabet, END_SENTINEL, START_SENTINEL
from .ast import Concat, Epsilon, Optional as OptionalNode, Regex, Star, Sym, Union
from .normalize import normalize_for_tree
from .parser import parse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.follow import FollowIndex


class NodeKind(str, Enum):
    """Label of a parse-tree node (the ``lab`` function of the paper)."""

    SYMBOL = "symbol"
    CONCAT = "concat"
    UNION = "union"
    STAR = "star"
    PLUS = "plus"
    OPTIONAL = "optional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that denote an unbounded iteration; the paper only has ``*`` but a
#: ``+`` node follows the same Lemma 2.2 case (2) semantics.
ITERATION_KINDS = (NodeKind.STAR, NodeKind.PLUS)


class TreeNode:
    """A single node of the parse tree with all derived annotations.

    Instances are created by :func:`build_parse_tree`; user code treats
    them as read-only.  ``symbol`` is only meaningful for ``SYMBOL``
    leaves, ``position_index`` is the left-to-right index of a leaf and
    ``-1`` for internal nodes.
    """

    __slots__ = (
        "kind",
        "symbol",
        "parent",
        "left",
        "right",
        "index",
        "position_index",
        "depth",
        "pre",
        "post",
        "nullable",
        "sup_first",
        "sup_last",
        "p_sup_first",
        "p_sup_last",
        "p_star",
    )

    def __init__(self, kind: NodeKind, symbol: str | None = None):
        self.kind = kind
        self.symbol = symbol
        self.parent: TreeNode | None = None
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.index = -1
        self.position_index = -1
        self.depth = 0
        self.pre = -1
        self.post = -1
        self.nullable = False
        self.sup_first = False
        self.sup_last = False
        self.p_sup_first: TreeNode | None = None
        self.p_sup_last: TreeNode | None = None
        self.p_star: TreeNode | None = None

    # -- structure ----------------------------------------------------------
    @property
    def is_position(self) -> bool:
        """True for leaves (positions of the expression, sentinels included)."""
        return self.kind is NodeKind.SYMBOL

    @property
    def is_iteration(self) -> bool:
        """True for star/plus nodes (the ``*``-labelled nodes of the paper)."""
        return self.kind in ITERATION_KINDS

    def children(self) -> tuple["TreeNode", ...]:
        if self.left is None:
            return ()
        if self.right is None:
            return (self.left,)
        return (self.left, self.right)

    def is_ancestor_of(self, other: "TreeNode") -> bool:
        """Reflexive ancestor test (the paper's ``n ≼ m``), O(1)."""
        return self.pre <= other.pre and other.post <= self.post

    def is_strict_ancestor_of(self, other: "TreeNode") -> bool:
        """Strict ancestor test, O(1)."""
        return self is not other and self.is_ancestor_of(other)

    def subtree(self) -> Iterator["TreeNode"]:
        """Yield the nodes of this subtree in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_position:
            return f"<pos {self.position_index} {self.symbol!r}>"
        return f"<{self.kind.value} #{self.index}>"


class ParseTree:
    """A fully annotated, R1-wrapped parse tree.

    Attributes
    ----------
    root:
        The outermost concatenation node ``((# e') $)``.
    inner_root:
        The root of the user expression ``e'`` (``None`` when the user
        expression denotes only the empty word).
    nodes:
        All nodes in pre-order; ``nodes[i].index == i``.
    positions:
        All leaves in left-to-right order (sentinels included);
        ``positions[i].position_index == i``.
    start / end:
        The ``#`` and ``$`` sentinel positions.
    alphabet:
        The user symbols (sentinels excluded) with dense integer codes.
    source:
        The normalised AST the tree was built from (without sentinels).
    extended_operators:
        True when the expression the tree was built from used ``+`` or
        ``{i,j}``, whose native semantics the rewriting to ``E E*`` and
        copies does not keep (see :class:`repro.api.Pattern`).
    follow:
        The tree's :class:`~repro.core.follow.FollowIndex`, built on first
        use and shared by the determinism test and every matcher.
    """

    __slots__ = (
        "root",
        "inner_root",
        "nodes",
        "positions",
        "start",
        "end",
        "alphabet",
        "source",
        "extended_operators",
        "_positions_by_symbol",
        "_follow",
    )

    def __init__(
        self,
        root: TreeNode,
        inner_root: TreeNode | None,
        nodes: list[TreeNode],
        positions: list[TreeNode],
        alphabet: Alphabet,
        source: Regex,
        extended_operators: bool,
    ):
        self.root = root
        self.inner_root = inner_root
        self.nodes = nodes
        self.positions = positions
        self.start = positions[0]
        self.end = positions[-1]
        self.alphabet = alphabet
        self.source = source
        self.extended_operators = extended_operators
        self._positions_by_symbol: dict[str, list[TreeNode]] | None = None
        self._follow: FollowIndex | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    @property
    def size(self) -> int:
        """Number of nodes, the ``|e|`` of the complexity statements."""
        return len(self.nodes)

    @property
    def num_positions(self) -> int:
        """Number of positions including the two sentinels."""
        return len(self.positions)

    @property
    def symbol_positions(self) -> dict[str, list[TreeNode]]:
        """The positions grouped by label (sentinels included), each left to right.

        Built in one pass on first use and shared by every caller, which
        must treat it as read-only.
        """
        table = self._positions_by_symbol
        if table is None:
            table = {}
            for position in self.positions:
                table.setdefault(position.symbol, []).append(position)
            self._positions_by_symbol = table
        return table

    def positions_by_symbol(self, symbol: str) -> list[TreeNode]:
        """Return the positions labelled *symbol*, in left-to-right order."""
        return self.symbol_positions.get(symbol, [])

    @property
    def follow(self) -> FollowIndex:
        """The O(1) follow/LCA index of Theorem 2.4, built once per tree.

        This is the preprocessing the determinism test and every
        Section-4 matcher share.  Two threads racing on a fresh tree may
        both build an index; both are correct and the last store wins.
        """
        follow = self._follow
        if follow is None:
            from ..core.follow import FollowIndex

            follow = self._follow = FollowIndex(self)
        return follow

    def occurrence_count(self) -> int:
        """Maximum occurrences of any user symbol (the ``k`` of k-ORE)."""
        best = 0
        for symbol in self.alphabet:
            best = max(best, len(self.positions_by_symbol(symbol)))
        return best

    def subexpression_positions(self, node: TreeNode) -> list[TreeNode]:
        """Return the positions below *node* in left-to-right order."""
        return [n for n in node.subtree() if n.is_position]

    def depth(self) -> int:
        """Length of the longest root-to-node path."""
        return max(node.depth for node in self.nodes)

    def lca_naive(self, a: TreeNode, b: TreeNode) -> TreeNode:
        """Lowest common ancestor by pointer chasing (O(depth)); used by
        tests and by code paths that only need a handful of queries.  The
        constant-time version lives in :mod:`repro.structures.lca`."""
        if a.is_ancestor_of(b):
            return a
        node = a
        while node is not None and not node.is_ancestor_of(b):
            node = node.parent
        if node is None:  # pragma: no cover - both nodes share the root
            raise InvalidExpressionError("nodes do not belong to the same tree")
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParseTree(size={self.size}, positions={self.num_positions})"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_parse_tree(expr: Regex | str, dialect: str = "paper") -> ParseTree:
    """Normalise *expr*, wrap it per (R1) and return the annotated tree.

    *expr* may be an AST or a textual expression (parsed with *dialect*).
    Numeric repetitions are expanded (see :mod:`repro.regex.normalize`);
    use :mod:`repro.core.numeric` for counter-aware determinism checking.

    One pre-order pass with an explicit stack makes every node and sets
    all of its annotations at once: the normalising pass already knows
    each subexpression's nullability and size, so a node's post number
    (``pre + 2 * size - 1``) and its SupFirst/SupLast flags need nothing
    below it, and its pointers need only its parent's.
    """
    if isinstance(expr, str):
        expr = parse(expr, dialect=dialect)
    normalised, facts, extended = normalize_for_tree(expr)

    start, end = Sym(START_SENTINEL), Sym(END_SENTINEL)
    if isinstance(normalised, Epsilon):
        head: Regex = start
        size = 3
    else:
        head = Concat(start, normalised)
        size = 4 + (1 if type(normalised) is Sym else facts[id(normalised)][1])
        facts[id(head)] = (False, size - 2)
    wrapped = Concat(head, end)
    facts[id(wrapped)] = (False, size)

    nodes: list[TreeNode] = []
    positions: list[TreeNode] = []
    new_node = TreeNode.__new__
    symbol_kind, concat_kind, optional_kind = NodeKind.SYMBOL, NodeKind.CONCAT, NodeKind.OPTIONAL
    # (AST node, parent tree node, SupFirst, SupLast); the left child is
    # pushed last so that nodes are made, and numbered, in pre-order.
    stack: list[tuple[Regex, TreeNode | None, bool, bool]] = [(wrapped, None, False, False)]
    while stack:
        ast, parent, sup_first, sup_last = stack.pop()
        node = new_node(TreeNode)
        index = len(nodes)
        nodes.append(node)
        node.parent = parent
        node.left = node.right = None
        node.index = index
        if parent is None:
            depth = 0
            p_sup_first = p_sup_last = p_star = None
        else:
            depth = parent.depth + 1
            p_sup_first, p_sup_last, p_star = parent.p_sup_first, parent.p_sup_last, parent.p_star
            if parent.left is None:
                parent.left = node
            else:
                parent.right = node
        node.depth = depth
        # The walk entered `index` nodes before this one and left all but
        # its `depth` ancestors; pre/post count entries and exits together.
        node.pre = pre = 2 * index - depth
        node.sup_first = sup_first
        node.sup_last = sup_last
        node.p_sup_first = node if sup_first else p_sup_first
        node.p_sup_last = node if sup_last else p_sup_last
        cls = type(ast)
        if cls is Sym:
            node.kind = symbol_kind
            node.symbol = ast.symbol
            node.position_index = len(positions)
            positions.append(node)
            node.post = pre + 1
            node.nullable = False
            node.p_star = p_star
            continue
        node.kind = kind = _KINDS[cls]
        node.symbol = None
        node.position_index = -1
        node.nullable, size = facts[id(ast)]
        node.post = pre + 2 * size - 1
        if kind is concat_kind:
            node.p_star = p_star
            left, right = ast.left, ast.right
            stack.append((right, node, type(left) is Sym or not facts[id(left)][0], False))
            stack.append((left, node, False, type(right) is Sym or not facts[id(right)][0]))
        elif cls is Union:
            node.p_star = p_star
            stack.append((ast.right, node, False, False))
            stack.append((ast.left, node, False, False))
        else:
            node.p_star = p_star if kind is optional_kind else node
            stack.append((ast.child, node, False, False))

    inner = None if isinstance(normalised, Epsilon) else nodes[3]
    alphabet = Alphabet(dict.fromkeys(position.symbol for position in positions[1:-1])).freeze()
    return ParseTree(nodes[0], inner, nodes, positions, alphabet, normalised, extended)


#: Tree label of each internal node class of a normalised AST.
_KINDS = {
    Concat: NodeKind.CONCAT,
    Union: NodeKind.UNION,
    Star: NodeKind.STAR,
    OptionalNode: NodeKind.OPTIONAL,
}


def tree_from_text(text: str, dialect: str = "paper") -> ParseTree:
    """Convenience wrapper: parse *text* and build its parse tree."""
    return build_parse_tree(parse(text, dialect=dialect))
