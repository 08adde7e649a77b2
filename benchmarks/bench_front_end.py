"""Section 2 — the compile front end in O(|e|).

Paper claim: every parse-tree annotation Section 2 needs (nullability,
the SupFirst/SupLast flags, the pSupFirst/pSupLast/pStar pointers and the
pre/post numbers) is computed in time linear in the size of the
expression.  Here the claim covers the whole front end: parsing the text,
the (R2)/(R3) normalisation with counter expansion, and the tree pass.

The gate (``test_front_end_slope_in_expression_size``) fits the log-log
slope of ``build_parse_tree(parse(text))`` CPU time over expressions of
n = 1k to 16k symbols and fails above :data:`MAX_SLOPE`.  Its families:

* ``sequence`` — a flat named sequence ``n0 n1 ... n(n-1)``;
* ``union`` — a flat named union under a star ``(n0 | ... | n(n-1))*``;
* ``nested`` — ``(a(a(...)?)?)?`` nested n deep, which a recursive front
  end cannot parse at the default recursion limit;
* ``counter`` — ``(a?){0,n}``, whose expansion nests n copies of ``a?``.
  A normaliser that asks a subtree for its nullability again at every
  copy is quadratic here (a slope of about 2).

Each size is timed five times, round-robin over the sizes, with the
garbage collector paused inside the timed call, and the fastest run
counts.  The gate runs with timings disabled too.
"""

import gc
import math
import statistics
import time

import pytest

from repro.regex.parse_tree import build_parse_tree
from repro.regex.parser import parse

#: Expression sizes (symbols) the gate fits its slope over.
SLOPE_SIZES = [1000, 2000, 4000, 8000, 16000]
#: Largest accepted log-log slope of front-end time against expression size.
MAX_SLOPE = 1.3

#: The gate's families: size -> (text, dialect).
SLOPE_FAMILIES = {
    "sequence": lambda n: (" ".join(f"n{index}" for index in range(n)), "named"),
    "union": lambda n: ("(" + " | ".join(f"n{index}" for index in range(n)) + ")*", "named"),
    "nested": lambda n: ("(a" * n + ")?" * n, "paper"),
    "counter": lambda n: (f"(a?){{0,{n}}}", "paper"),
}


def _fastest_builds(texts, repeats: int = 5) -> list[float]:
    """Minimum ``build_parse_tree(parse(text))`` CPU time per text, GC paused while timing."""
    best = [math.inf] * len(texts)
    for _ in range(repeats):
        for slot, (text, dialect) in enumerate(texts):
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.process_time()
                build_parse_tree(parse(text, dialect=dialect))
                best[slot] = min(best[slot], time.process_time() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
    return best


@pytest.mark.parametrize("family", sorted(SLOPE_FAMILIES))
def test_front_end_slope_in_expression_size(family):
    build = SLOPE_FAMILIES[family]
    times = _fastest_builds([build(size) for size in SLOPE_SIZES])
    fit = statistics.linear_regression(
        [math.log(size) for size in SLOPE_SIZES], [math.log(t) for t in times]
    )
    timings = ", ".join(f"{size}: {t * 1000:.1f}ms" for size, t in zip(SLOPE_SIZES, times))
    assert fit.slope <= MAX_SLOPE, (
        f"front-end time grows as n^{fit.slope:.2f} on the {family} family ({timings})"
    )


@pytest.mark.parametrize("family", sorted(SLOPE_FAMILIES))
def test_front_end_builds(benchmark, family):
    text, dialect = SLOPE_FAMILIES[family](4000)
    tree = benchmark(lambda: build_parse_tree(parse(text, dialect=dialect)))
    assert tree.num_positions >= 4000
