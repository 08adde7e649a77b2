"""Choosing a matcher for an expression.

The paper provides four matching algorithms whose sweet spots are
structural classes of expressions; :func:`select_strategy` encodes the
obvious dispatch rule (the one a validator such as Xerces would apply):

* small occurrence bound (k ≤ 4, which covers the overwhelming majority of
  real-world content models) → the k-occurrence matcher of Theorem 4.3;
* small union/concatenation alternation depth (c_e ≤ 6, true of every
  content model in Grijzenhout's corpus) → the path-decomposition matcher
  of Theorem 4.10;
* anything else → the lowest-colored-ancestor matcher of Theorem 4.2.

Star-free expressions additionally support the batch matcher of
Theorem 4.12 (:class:`~repro.matching.star_free.StarFreeMultiMatcher`).
It is not a strategy here, because its interface (many words at once)
differs from the streaming one, and ``Pattern.match_all`` does not use it
either: star-free batches run on the completed kernel table
(:mod:`repro.matching.plan`).  It is built explicitly, as its tests and
``benchmarks/bench_star_free.py`` do.
"""

from __future__ import annotations

from ..core.determinism import DeterminismChecker
from ..regex.ast import Regex
from ..regex.parse_tree import ParseTree, build_parse_tree
from ..regex.properties import alternation_depth, occurrence_bound
from .automaton import GlushkovMatcher
from .base import DeterministicMatcher
from .climbing import ClimbingMatcher
from .kore import KOccurrenceMatcher
from .lca_matcher import LowestColoredAncestorMatcher
from .path_decomposition import PathDecompositionMatcher

#: occurrence bound below which the k-occurrence matcher is preferred
SMALL_OCCURRENCE_BOUND = 4
#: alternation depth below which the path-decomposition matcher is preferred
SMALL_ALTERNATION_DEPTH = 6

STRATEGIES: dict[str, type[DeterministicMatcher]] = {
    KOccurrenceMatcher.name: KOccurrenceMatcher,
    PathDecompositionMatcher.name: PathDecompositionMatcher,
    LowestColoredAncestorMatcher.name: LowestColoredAncestorMatcher,
    ClimbingMatcher.name: ClimbingMatcher,
    GlushkovMatcher.name: GlushkovMatcher,
}


def select_strategy(tree: ParseTree) -> str:
    """Pick the matcher name the dispatch rule prefers for *tree*."""
    if occurrence_bound(tree) <= SMALL_OCCURRENCE_BOUND:
        return KOccurrenceMatcher.name
    if alternation_depth(tree) <= SMALL_ALTERNATION_DEPTH:
        return PathDecompositionMatcher.name
    return LowestColoredAncestorMatcher.name


def build_matcher(
    expr: Regex | ParseTree | str,
    strategy: str = "auto",
    verify: bool = True,
    checker: DeterminismChecker | None = None,
) -> DeterministicMatcher:
    """Build a matcher for *expr* using *strategy* (or the automatic rule).

    *strategy* is ``"auto"`` or one of the names in :data:`STRATEGIES`.
    """
    tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
    name = select_strategy(tree) if strategy == "auto" else strategy
    matcher_class = STRATEGIES.get(name)
    if matcher_class is None:
        raise ValueError(
            f"unknown matching strategy {strategy!r}; expected 'auto' or one of "
            f"{sorted(STRATEGIES)}"
        )
    return matcher_class(tree, verify=verify, checker=checker)
