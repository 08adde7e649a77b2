"""The alternative determinism characterisation behind Theorem 3.6.

Section 3.4 shows determinism is expressible by a fixed Regular-XPath
formula with data-value comparisons, evaluated over the parse tree with
position labels stored as data values:

    ``ϕ_det = ¬( ϕ_P1 ∨ ϕ·· ∨ ϕ·∗ ∨ ϕ∗· ∨ ϕ∗∗ )``

where ``ϕ_P1`` detects violations of property (P1) and each ``ϕ_ℓℓ'``
detects two distinct, equally-labelled positions ``p1, p2`` such that some
position ``p`` reaches ``p1`` through a Follow edge of kind ``ℓ``
(concatenation or star) and ``p2`` through a Follow edge of kind ``ℓ'``.

This module implements that characterisation *directly* as a reference
check: every disjunct is evaluated with the constant-time Follow
primitives of :class:`~repro.core.follow.FollowIndex` by explicit
enumeration, so its cost is quadratic-to-cubic in the number of positions.
It deliberately does **not** implement Bojańczyk & Parys' linear-time
Regular-XPath evaluator — the point of keeping it in the library is to
have a third, structurally different determinism decision procedure for
cross-validation (oracle vs. linear test vs. this characterisation), and
to document precisely which disjunct fires for a non-deterministic
expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..regex.ast import Regex
from ..regex.parse_tree import ParseTree, TreeNode, build_parse_tree


@dataclass(frozen=True, slots=True)
class XPathCheckResult:
    """Which disjunct of ``ϕ_det``'s negation (if any) is satisfied."""

    deterministic: bool
    #: one of None, "P1", "concat-concat", "concat-star", "star-concat", "star-star"
    violated_disjunct: str | None = None
    witnesses: tuple[TreeNode, ...] = ()

    def __bool__(self) -> bool:
        return self.deterministic


def xpath_determinism_check(expr: Regex | ParseTree | str) -> XPathCheckResult:
    """Evaluate the Theorem 3.6 characterisation on *expr* (reference check)."""
    tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
    follow = tree.follow

    p1 = _phi_p1(tree)
    if p1 is not None:
        return XPathCheckResult(False, "P1", p1)

    positions = tree.positions

    checks = (
        ("concat-concat", follow.follows_via_concat, follow.follows_via_concat),
        ("concat-star", follow.follows_via_concat, follow.follows_via_star),
        ("star-concat", follow.follows_via_star, follow.follows_via_concat),
        ("star-star", follow.follows_via_star, follow.follows_via_star),
    )
    # Only same-labelled pairs are enumerated.
    for group in tree.symbol_positions.values():
        for i, first in enumerate(group):
            for second in group[i + 1:]:
                for name, via_first, via_second in checks:
                    witness = _common_source(positions, first, second, via_first, via_second)
                    if witness is not None:
                        return XPathCheckResult(False, name, (witness, first, second))
    return XPathCheckResult(True)


def _phi_p1(tree: ParseTree) -> tuple[TreeNode, TreeNode] | None:
    """The ``ϕ_P1`` disjunct: two same-labelled positions sharing their pSupFirst node."""
    seen: dict[tuple[int, str], TreeNode] = {}
    for position in tree.positions:
        sup_first = position.p_sup_first
        if sup_first is None:
            continue
        key = (sup_first.index, position.symbol)
        other = seen.get(key)
        if other is not None:
            return (other, position)
        seen[key] = position
    return None


def _common_source(positions, first, second, via_first, via_second) -> TreeNode | None:
    """A position reaching *first* via one Follow kind and *second* via the other."""
    for source in positions:
        if via_first(source, first) and via_second(source, second):
            return source
        if via_first(source, second) and via_second(source, first):
            return source
    return None
