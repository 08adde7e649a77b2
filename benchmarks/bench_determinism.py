"""Experiment E1 — determinism testing: skeleton test vs Glushkov baseline.

Paper claim (Theorem 3.5 vs. Brüggemann-Klein's test): the skeleton-based
test is O(|e|) while building and checking the Glushkov automaton is
O(σ|e|), i.e. quadratic on the mixed-content family ``(a1+...+am)*``.
Expected shape: the ``linear`` rows grow proportionally to ``m`` while the
``glushkov`` rows grow roughly with ``m²``, so the ratio between the two
widens as the alphabet grows.  The DTD-like corpus rows show the same
comparison on realistic content models.

The skeleton test is only linear if each a-skeleton is built from its own
class-a nodes.  Scanning every position or colored node once per symbol
keeps the verdicts right but makes the test O(|Σ|·|e|), a log-log slope
of about 1.7-1.9 on the large-alphabet families.  The complexity gate
(``test_determinism_slope_in_alphabet_size``) fits that slope over
|Σ| ∈ {1k, ..., 16k} and fails above :data:`MAX_SLOPE`.  Its families
are a flat sequence, ``(a1+...+an)*`` and ``((x_i a_i) y_i?) a_i``
blocks.  The first two are SOREs: every symbol has one position, so the
test builds no skeleton and no follow index on them, and they time the
colors, (P1) and the CheckNode pass.  In the third every ``a_i`` has two
positions, so each block builds its a-skeleton, closes it under LCA on
the tree's follow index and runs ``BuildNext`` inside the timed call.
The gate takes the minimum CPU time of seven runs with the garbage
collector off, on a fresh parse tree each run; it runs with timings
disabled too.
"""

import gc
import math
import statistics
import time

import pytest

from repro.automata.glushkov import GlushkovAutomaton
from repro.core.determinism import DeterminismChecker, check_deterministic
from repro.regex.ast import concat, optional, sym
from repro.regex.generators import mixed_content
from repro.regex.parse_tree import build_parse_tree

from .workloads import dtd_like_trees, mixed_content_tree

MIXED_SIZES = [64, 256, 1024]

#: Alphabet sizes the complexity gate fits its slope over.
SLOPE_SIZES = [1000, 2000, 4000, 8000, 16000]
#: Largest accepted log-log slope of determinism time against |Σ|.
MAX_SLOPE = 1.15


def _repeated(count: int):
    """``((x_i a_i) y_i?) a_i`` blocks over about *count* names: every ``a_i`` repeats."""
    blocks = []
    for index in range(count // 3):
        head = concat(sym(f"x{index}"), sym(f"a{index}"))
        blocks.append(concat(concat(head, optional(sym(f"y{index}"))), sym(f"a{index}")))
    return concat(*blocks)


#: Large-alphabet families of the gate, by name.
SLOPE_FAMILIES = {
    "flat": lambda count: concat(*[sym(f"a{index}") for index in range(count)]),
    "mixed": mixed_content,
    "repeated": _repeated,
}


def _fastest_checks(exprs, repeats: int = 7) -> list[float]:
    """Minimum ``check_deterministic`` CPU time per expression, GC off while timing.

    Each run gets a fresh parse tree, and the repeats go round-robin over
    the expressions, so a burst of load on a shared box slows one run of
    several sizes instead of every run of one size.
    """
    best = [math.inf] * len(exprs)
    for _ in range(repeats):
        for slot, expr in enumerate(exprs):
            tree = build_parse_tree(expr)
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.process_time()
                check_deterministic(tree)
                best[slot] = min(best[slot], time.process_time() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
    return best


@pytest.mark.parametrize("family", sorted(SLOPE_FAMILIES))
def test_determinism_slope_in_alphabet_size(family):
    build = SLOPE_FAMILIES[family]
    times = _fastest_checks([build(count) for count in SLOPE_SIZES])
    fit = statistics.linear_regression(
        [math.log(count) for count in SLOPE_SIZES], [math.log(t) for t in times]
    )
    timings = ", ".join(f"{count}: {t * 1000:.1f}ms" for count, t in zip(SLOPE_SIZES, times))
    assert fit.slope <= MAX_SLOPE, (
        f"determinism time grows as |Σ|^{fit.slope:.2f} on the {family} family ({timings})"
    )


@pytest.mark.parametrize("symbols", MIXED_SIZES)
def test_linear_determinism_mixed_content(benchmark, symbols):
    tree = mixed_content_tree(symbols)
    result = benchmark(lambda: DeterminismChecker(tree).is_deterministic())
    assert result is True


@pytest.mark.parametrize("symbols", MIXED_SIZES)
def test_glushkov_determinism_mixed_content(benchmark, symbols):
    tree = mixed_content_tree(symbols)
    result = benchmark(lambda: GlushkovAutomaton(tree).is_deterministic())
    assert result is True


@pytest.mark.parametrize("models", [200])
def test_linear_determinism_dtd_corpus(benchmark, models):
    trees = dtd_like_trees(models)

    def run():
        return sum(1 for tree in trees if DeterminismChecker(tree).is_deterministic())

    deterministic = benchmark(run)
    assert deterministic > 0


@pytest.mark.parametrize("models", [200])
def test_glushkov_determinism_dtd_corpus(benchmark, models):
    trees = dtd_like_trees(models)

    def run():
        return sum(1 for tree in trees if GlushkovAutomaton(tree).is_deterministic())

    deterministic = benchmark(run)
    assert deterministic > 0
