"""Cost of the diagnostics layer vs. the boolean verdict paths.

The PR-9 contract is asymmetric: the untraced verdict path must stay
exactly as fast as before (``Pattern.match_all`` still rides the batch
kernel and returns plain booleans — ``bench_kernel.py`` gates that), and
the *opt-in* diagnostic paths should cost only what they use:

* ``MatchResult`` construction is O(1) — diagnosis is lazy, so a
  ``detail="full"`` batch over mostly-accepting traffic pays one object
  per word, not one replay per word;
* a failure pays one replay of the failing word (plus the repair probes)
  the first time a diagnostic field is read.

This module times the verdict batch, the ``detail="full"`` batch, and
eager failure diagnosis, and pins the laziness/agreement contracts with
always-on gates.  CI exports the timings as ``BENCH_diagnostics.json``
into the perf trajectory.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.diagnostics import MatchResult, diagnose

from .workloads import SEED, bounded_occurrence, chare, deep_alternation, mixed_content

#: Times the stream is re-matched per timed round (first pass warms rows).
REPEATS = 5

_EXPRESSIONS = {
    "mixed-content": lambda: mixed_content(12),
    "chare": lambda: chare(6),
    "kore": lambda: bounded_occurrence(2, blocks=4),
    "deep-alternation": lambda: deep_alternation(5),
}

CORPUS_NAMES = tuple(_EXPRESSIONS)


def _workload(name: str, pool_size: int = 80, stream_length: int = 3200):
    """A warm pattern plus a repeated-match stream (members and mutants)."""
    from repro.regex.words import mutate_word, sample_member

    expr = _EXPRESSIONS[name]()
    pattern = repro.Pattern(expr)
    alphabet = pattern.tree.alphabet.as_list()
    generator = random.Random(SEED)
    pool: list[tuple[str, ...]] = []
    while len(pool) < pool_size:
        member = sample_member(expr, generator)
        pool.append(tuple(member))
        pool.append(tuple(mutate_word(member, alphabet, generator)))
        # mixed-content style families accept every in-alphabet word, so
        # mutation alone never rejects; a foreign symbol always does
        pool.append(tuple(member) + ("§",))
    stream = [generator.choice(pool) for _ in range(stream_length)]
    pattern.match_all(stream)  # warm rows, kernel program and memos
    return pattern, stream


# ---------------------------------------------------------------------------
# pytest-benchmark timings (enabled with --benchmark-enable)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verdict_batch(benchmark, name):
    """The unchanged boolean path: the baseline the others are read against."""
    pattern, stream = _workload(name)
    verdicts = benchmark(lambda: [pattern.match_all(stream) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(stream)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_full_detail_batch(benchmark, name):
    """``detail="full"``: one lazy MatchResult per word, no eager replays."""
    pattern, stream = _workload(name)
    results = benchmark(
        lambda: [pattern.match_all(stream, detail="full") for _ in range(REPEATS)]
    )
    assert len(results[0]) == len(stream)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_diagnose_failures(benchmark, name):
    """Eagerly diagnosing every rejected word of the stream (worst case)."""
    pattern, stream = _workload(name)
    verdicts = pattern.match_all(stream)
    failures = [word for word, ok in zip(stream, verdicts) if not ok]
    assert failures, f"{name}: the stream needs rejected words to diagnose"

    def run():
        return [diagnose(pattern, word).expected for word in failures]

    expected = benchmark(run)
    assert len(expected) == len(failures)


# ---------------------------------------------------------------------------
# Contract gates (run even with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_verdict_path_stays_boolean():
    """The default batch path must keep returning bare booleans."""
    pattern, stream = _workload("mixed-content", pool_size=20, stream_length=200)
    verdicts = pattern.match_all(stream)
    assert all(type(verdict) is bool for verdict in verdicts)


def test_full_detail_agrees_and_stays_lazy():
    """``detail="full"`` flips no verdict and replays nothing up front."""
    for name in CORPUS_NAMES:
        pattern, stream = _workload(name, pool_size=20, stream_length=200)
        plain = pattern.match_all(stream)
        rich = pattern.match_all(stream, detail="full")
        assert [bool(result) for result in rich] == plain, name
        assert all(isinstance(result, MatchResult) for result in rich), name
        # laziness: a cold batch (replayed for its verdicts) and a warm one
        # (answered by the kernel) both construct results without a replay
        cold = repro.Pattern(pattern.expression).match_all(stream, detail="full")
        assert [bool(result) for result in cold] == plain, name
        for results in (rich, cold):
            assert all(result._diagnosis is None for result in results), name
        # first diagnostic read replays exactly that word, coherently
        miss = next((r for r in rich if not r), None)
        assert miss is not None, f"{name}: stream needs a rejected word"
        assert miss.error_index is not None
        assert miss.diagnosis.matched is False
