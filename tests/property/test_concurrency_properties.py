"""Property tests: concurrency must be invisible in every verdict.

The compiled runtime's contract under threads (see
:mod:`repro.matching.runtime`) is that memoization and row completion are
pure caching — so any interleaving of worker threads, including ones that
complete rows for a snapshot export while other threads are mid-word,
must produce exactly the verdicts of a single-threaded language oracle.
These properties drive real threads through randomly generated
deterministic expressions.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.matching import CompiledRuntime, build_matcher
from repro.regex.generators import random_deterministic_expression
from repro.regex.language import LanguageOracle
from repro.regex.parse_tree import build_parse_tree
from repro.regex.words import mutate_word, sample_member


def _workload(seed: int, leaf_count: int):
    """A deterministic expression plus member/near-member/random words."""
    rng = random.Random(seed)
    expr = random_deterministic_expression(rng, leaf_count)
    tree = build_parse_tree(expr)
    alphabet = tree.alphabet.as_list() or ["a"]
    words: list[list[str]] = [[]]
    for _ in range(6):
        member = sample_member(expr, rng)
        words.append(list(member))
        words.append(list(mutate_word(member, alphabet, rng)))
        words.append([rng.choice(alphabet) for _ in range(rng.randint(1, 8))])
    words.append([alphabet[0], "not-in-alphabet"])
    return tree, words


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a worker thread hung"


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_interleaved_fills_and_exports_never_change_verdicts(
    seed: int, leaf_count: int, thread_count: int
):
    """Threads racing first fills and row-completing exports agree with the oracle.

    Every thread replays the corpus (rotated, so threads disagree about
    which states they touch first) three times on one shared runtime, and
    exports its rows between passes; an export completes every visited row
    while the other threads read.  Any torn row, half-published row or
    double delegation would surface as a wrong verdict or as the
    ``transitions_memoized == misses`` invariant breaking.
    """
    tree, words = _workload(seed, leaf_count)
    oracle = LanguageOracle(tree)
    expected = [oracle.accepts(word) for word in words]
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    barrier = threading.Barrier(thread_count)
    failures: list[tuple] = []

    def make_worker(offset: int):
        rotated = words[offset:] + words[:offset]
        rotated_expected = expected[offset:] + expected[:offset]

        def worker():
            barrier.wait()  # maximise overlap of the first-fill storm
            for _ in range(3):
                verdicts = runtime.match_many(rotated)
                if verdicts != rotated_expected:
                    failures.append((offset, verdicts, rotated_expected))
                runtime.export_rows()

        return worker

    # A short switch interval interleaves readers with the exporting writer.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(make_worker(index % len(words)) for index in range(thread_count))
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    stats = runtime.stats()
    # One delegation per memoized transition even under contention: the
    # double-checked writer lock admits no duplicate fills.
    assert stats["transitions_memoized"] == stats["misses"]
    # the last export completed every row the corpus visits
    assert stats["transitions_memoized"] == stats["states_visited"] * len(tree.alphabet)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_concurrent_cold_runtime_matches_sequential_verdicts(seed: int, leaf_count: int):
    """A cold runtime hammered by 4 threads ends up verdict-identical.

    Unlike the export property, rows here only ever hold the pairs the
    threads exercise; the final verdict set and the sequential-oracle
    verdict set must agree.
    """
    tree, words = _workload(seed, leaf_count)
    oracle = LanguageOracle(tree)
    expected = [oracle.accepts(word) for word in words]
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    barrier = threading.Barrier(4)
    failures: list[tuple] = []

    def worker():
        barrier.wait()
        verdicts = runtime.match_many(words)
        if verdicts != expected:
            failures.append(verdicts)

    _run_threads(worker for _ in range(4))
    assert not failures
    stats = runtime.stats()
    assert stats["transitions_memoized"] == stats["misses"]
