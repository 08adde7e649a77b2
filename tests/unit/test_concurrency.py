"""Thread-stress tests for the shared caches (the PR-3 satellite).

Eight-plus threads hammer ``repro.compile`` / ``match`` / ``match_all`` /
``purge`` / ``repro.stats()`` simultaneously; every verdict is checked
against a single-threaded oracle computed up front from fresh, uncached,
uncompiled patterns, and every stats snapshot is checked against the cache
invariants (no negative eviction counts, size bounded by max_size —
exactly the numbers the old ``lru_cache``+global-counter implementation
could corrupt when a purge raced a miss).  The CI ``service`` job runs
this module under ``PYTHONDEVMODE=1``.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro

#: Deterministic expressions spanning the dispatch classes: star-free
#: (multi-matcher batch path), starred (compiled-runtime path), and a
#: DTD-'+' fallback (k-occurrence semantics).
EXPRESSIONS = [
    "(ab+b(b?)a)*",
    "(a+b)(c?)d",
    "((a+b)c)*",
    "a(b+c)(d?)",
    "(ab)*",
]

THREADS = 8
ITERATIONS = 150


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.purge()
    yield
    repro.purge()


def _corpus():
    """(expr, words) pairs plus a single-threaded oracle of every verdict.

    The oracle uses private, uncompiled patterns so it shares no state —
    no cache entry, no runtime row — with the threads under test.
    """
    rng = random.Random(20120521)
    corpus: dict[str, list[tuple[str, ...]]] = {}
    oracle: dict[tuple[str, tuple[str, ...]], bool] = {}
    for expr in EXPRESSIONS:
        reference = repro.Pattern(expr, compiled=False)
        alphabet = reference.tree.alphabet.as_list()
        words = {(), ("z",)}
        for _ in range(12):
            words.add(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10))))
        words.update({("a", "b"), ("a", "b", "b", "a"), ("a", "c", "d"), ("b", "d")})
        corpus[expr] = sorted(words)
        for word in words:
            oracle[expr, word] = reference.match(list(word))
    return corpus, oracle


def _run_threads(worker, count: int = THREADS) -> list:
    failures: list = []
    barrier = threading.Barrier(count)

    def body(seed: int):
        try:
            barrier.wait()
            worker(random.Random(seed))
        except Exception as error:  # noqa: BLE001 - surfaced via the assertion below
            failures.append(error)

    threads = [threading.Thread(target=body, args=(seed,)) for seed in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return failures


def test_stress_compile_match_purge_stats_agree_with_oracle():
    corpus, oracle = _corpus()
    expressions = list(corpus)

    def worker(rng: random.Random):
        for _ in range(ITERATIONS):
            expr = rng.choice(expressions)
            roll = rng.random()
            if roll < 0.02:
                repro.purge()
            elif roll < 0.08:
                stats = repro.stats()["pattern_cache"]
                assert stats["evictions"] >= 0
                assert 0 <= stats["size"] <= stats["max_size"]
            elif roll < 0.25:
                batch = rng.sample(corpus[expr], k=min(6, len(corpus[expr])))
                verdicts = repro.compile(expr).match_all([list(word) for word in batch])
                assert verdicts == [oracle[expr, word] for word in batch]
            else:
                word = rng.choice(corpus[expr])
                assert repro.compile(expr).match(list(word)) == oracle[expr, word]

    failures = _run_threads(worker)
    assert not failures, failures[0]


def test_stress_single_shared_pattern():
    """All 8 threads share one cached pattern object and its runtime."""
    corpus, oracle = _corpus()
    expr = "(ab+b(b?)a)*"
    pattern = repro.compile(expr)

    def worker(rng: random.Random):
        for _ in range(ITERATIONS):
            word = rng.choice(corpus[expr])
            assert pattern.match(list(word)) == oracle[expr, word]

    failures = _run_threads(worker)
    assert not failures, failures[0]
    stats = pattern.stats()
    assert stats is not None
    assert stats["transitions_memoized"] == stats["misses"]


def test_purge_racing_misses_keeps_cache_consistent():
    """The satellite bug: purge concurrent with misses must stay atomic.

    Half the threads compile an endless stream of *distinct* patterns
    (all misses, forcing evictions), the other half purge in a loop.
    Afterwards the counters must satisfy the cache invariants — with the
    pre-fix implementation this reliably produced negative eviction
    counts and resurrected entries.
    """
    from repro.regex.ast import Sym

    stop = threading.Event()

    def compiler(rng: random.Random):
        base = rng.randrange(10**9)
        for index in range(ITERATIONS * 4):
            repro.compile(Sym(f"s{base}-{index}"))
            if stop.is_set():
                break

    def purger(rng: random.Random):
        for _ in range(40):
            repro.purge()
            stats = repro.stats()["pattern_cache"]
            assert stats["evictions"] >= 0
            assert 0 <= stats["size"] <= stats["max_size"]

    def worker(rng: random.Random):
        if rng.random() < 0.5:
            compiler(rng)
        else:
            purger(rng)

    try:
        failures = _run_threads(worker)
    finally:
        stop.set()
    assert not failures, failures[0]
    stats = repro.stats()["pattern_cache"]
    assert stats["evictions"] >= 0
    assert 0 <= stats["size"] <= stats["max_size"]


def test_concurrent_misses_for_one_key_build_one_pattern():
    """Racing compiles of the same expression converge on a single object."""
    results: list[repro.Pattern] = []
    barrier = threading.Barrier(THREADS)

    def worker():
        barrier.wait()
        results.append(repro.compile("(concurrent+cold)(start?)"))

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == THREADS
    assert len({id(pattern) for pattern in results}) == 1
    assert repro.stats()["pattern_cache"]["misses"] == 1
