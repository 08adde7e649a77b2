"""XSD validation through the compiled runtime vs. the direct matcher path.

PR 1 measured the raw matching gap (``bench_runtime``); this module measures
it end to end on the workload the Li et al. schema study singles out:
the *same few content models* validated against *many documents*.  The
XSD validator routes every declared particle through the module-level
``repro.compile`` cache and replays child sequences over the memoized
transition rows:

* pytest-benchmark timings of repeated whole-document validation through
  the compiled and the direct path (``BENCH_xsd.json`` in CI);
* a verdict-equivalence check: both paths — and a per-call
  freshly-compiled control — must agree on every element of the corpus;
* a throughput smoke gate — compiled ≥ 3× direct on repeated validation —
  so hot-path regressions fail loudly even without timing collection.
"""

from __future__ import annotations

import time

import repro
from repro.xml.xsd import XSDSchema

from .workloads import xsd_workload

#: Whole-document validation passes per timed section; the first pass
#: materializes rows, the rest replay them.
REPEATS = 5

#: Orders per generated document.
ORDER_COUNT = 150


def _schemas():
    declare, document = xsd_workload(ORDER_COUNT)
    compiled = declare(XSDSchema(root="orders"))
    direct = declare(XSDSchema(root="orders", compiled=False))
    return compiled, direct, _sequences(document)


def _sequences(document) -> list[tuple[str, list[str]]]:
    """Extract every element's (name, child sequence) pair once.

    Re-validating documents means re-matching these words; extracting them
    outside the timed region keeps the benchmark about the validator, not
    the element-tree walk both paths share.
    """
    return [(node.name, node.child_sequence()) for node in document.iter_elements()]


def _validate_all(schema: XSDSchema, sequences) -> list[bool]:
    """Per-element verdicts over the whole corpus (no short-circuiting).

    ``validate_children`` returns a :class:`~repro.diagnostics.ValidationResult`
    whose truth value is the verdict; the booleans are what the compiled
    and direct paths must agree on.
    """
    validate = schema.validate_children
    return [bool(validate(name, children)) for name, children in sequences]


# ---------------------------------------------------------------------------
# pytest-benchmark timings (enabled with --benchmark-enable)
# ---------------------------------------------------------------------------

def test_direct_validation(benchmark):
    _, direct, sequences = _schemas()
    verdicts = benchmark(lambda: [_validate_all(direct, sequences) for _ in range(REPEATS)])
    assert len(verdicts[0]) > ORDER_COUNT


def test_compiled_validation(benchmark):
    compiled, _, sequences = _schemas()
    _validate_all(compiled, sequences)  # warm the rows: steady state is what we time
    verdicts = benchmark(lambda: [_validate_all(compiled, sequences) for _ in range(REPEATS)])
    assert verdicts[0]


# ---------------------------------------------------------------------------
# Correctness and throughput gates (run even with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_verdicts_identical_compiled_vs_direct():
    """Compiled, direct and per-call-recompiled validation must agree."""
    compiled, direct, sequences = _schemas()
    fast = _validate_all(compiled, sequences)
    slow = _validate_all(direct, sequences)
    assert fast == slow
    assert not all(fast)  # the corpus contains violations on purpose
    assert any(fast)
    # Control: a fresh uncached Pattern per content model, direct matching.
    for (name, children), verdict in zip(sequences, fast):
        particle = compiled.particle(name)
        if particle is None:
            assert verdict
            continue
        control = repro.Pattern(particle.to_regex(), compiled=False)
        assert control.match(children) == verdict, name

    assert compiled.is_valid_schema() and direct.is_valid_schema()


def test_compiled_schema_reports_telemetry():
    """The stats surface reflects real materialization after validation."""
    compiled, _, sequences = _schemas()
    _validate_all(compiled, sequences)
    stats = compiled.stats()
    assert set(stats["elements"]) == {"orders", "order"}
    totals = stats["totals"]
    assert totals["transitions_memoized"] == totals["misses"] > 0
    # Rows fill one exercised pair at a time; only snapshot-adopted rows
    # are array-backed, and none were adopted here.
    assert totals["adopted_rows"] == 0


def _best_of(rounds: int, work) -> float:
    """Minimum wall-clock over *rounds* runs (robust against CI descheduling)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def test_xsd_compiled_speedup_at_least_3x():
    """Repeated schema validation must be ≥ 3× faster on the compiled path.

    Locally the gap is 4–9×; best-of-3 timing keeps the gate from tripping
    on a descheduled shared CI runner rather than on a real regression.
    """
    compiled, direct, sequences = _schemas()
    assert _validate_all(compiled, sequences) == _validate_all(direct, sequences)  # warm + verify

    def run_direct():
        for _ in range(REPEATS):
            _validate_all(direct, sequences)

    def run_compiled():
        for _ in range(REPEATS):
            _validate_all(compiled, sequences)

    direct_total = _best_of(3, run_direct)
    compiled_total = _best_of(3, run_compiled)
    speedup = direct_total / compiled_total
    assert speedup >= 3.0, f"compiled XSD validation only {speedup:.2f}x over the direct path"
