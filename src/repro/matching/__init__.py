"""Matching algorithms for deterministic regular expressions (Section 4).

Every matcher implements the same transition-simulation interface
(:class:`~repro.matching.base.DeterministicMatcher`) and is therefore
streamable; :func:`~repro.matching.dispatch.build_matcher` picks the
appropriate algorithm for an expression automatically.  Any matcher can be
lowered on the fly into the lazy-DFA integer runtime
(:class:`~repro.matching.runtime.CompiledRuntime`), which memoizes
``(state, symbol) → state`` transitions as they are exercised.
"""

from .automaton import GlushkovMatcher
from .base import DeterministicMatcher, MatchRun
from .climbing import ClimbingMatcher
from .dispatch import STRATEGIES, build_matcher, select_strategy
from .kore import KOccurrenceMatcher, SubsetKOccurrenceMatcher
from .lca_matcher import LowestColoredAncestorMatcher
from .path_decomposition import PathDecompositionMatcher
from .runtime import CompiledRun, CompiledRuntime
from .star_free import StarFreeMultiMatcher

__all__ = [
    "ClimbingMatcher",
    "CompiledRun",
    "CompiledRuntime",
    "DeterministicMatcher",
    "GlushkovMatcher",
    "KOccurrenceMatcher",
    "LowestColoredAncestorMatcher",
    "MatchRun",
    "PathDecompositionMatcher",
    "STRATEGIES",
    "StarFreeMultiMatcher",
    "SubsetKOccurrenceMatcher",
    "build_matcher",
    "select_strategy",
]
