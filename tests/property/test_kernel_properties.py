"""Property tests: the batch kernel agrees with the compiled runtime.

The kernel (:mod:`repro.matching.kernel`) may never change an accept/reject
verdict: for any deterministic expression and any corpus — member words,
mutated near-members, random noise, words with out-of-alphabet symbols —
``match_words`` must agree with per-word ``accepts_encoded`` replay, at any
warmth level (cold all-fallback programs, mid-corpus densification, rows
adopted from a snapshot export) and through either scan backend.  One level
up, ``Pattern.match_all`` — which dedups each batch once into a
:class:`~repro.matching.kernel.Corpus` — must agree with per-word
``Pattern.match`` on every planner route.  Star-free batches run on the
kernel too, so the Theorem 4.12 multi-matcher, which no route reaches,
is pinned to the language oracle on the same star-free expressions.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import pytest

import repro
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import kernel
from repro.matching.kernel import VERDICT_FALLBACK, match_words
from repro.matching.star_free import StarFreeMultiMatcher
from repro.regex.ast import Concat, Star, Sym
from repro.regex.generators import (
    random_deterministic_expression,
    random_expression,
    star_free_chain,
)
from repro.regex.language import LanguageOracle
from repro.regex.parse_tree import build_parse_tree
from repro.regex.words import mutate_word, sample_member


def _workload(seed: int, leaf_count: int):
    """A deterministic expression plus a repeated-match style corpus."""
    rng = random.Random(seed)
    expr = random_deterministic_expression(rng, leaf_count)
    tree = build_parse_tree(expr)
    alphabet = tree.alphabet.as_list() or ["a"]
    pool: list[tuple[str, ...]] = [()]
    for _ in range(5):
        member = sample_member(expr, rng)
        pool.append(tuple(member))
        pool.append(tuple(mutate_word(member, alphabet, rng)))
        pool.append(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
    pool.append((alphabet[0], "not-in-alphabet"))
    pool.append(("$",))  # sentinel characters must die on every path
    pool.append((alphabet[0], "#"))
    # draw with replacement so the dedup fan-out is actually exercised
    words = [rng.choice(pool) for _ in range(40)]
    return tree, words


def _per_word(runtime: CompiledRuntime, words) -> list[bool]:
    return [runtime.accepts_encoded(runtime.encode(word)) for word in words]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=60, deadline=None)
def test_kernel_agrees_cold_and_warm(seed: int, leaf_count: int):
    tree, words = _workload(seed, leaf_count)
    oracle_runtime = CompiledRuntime(build_matcher(tree, verify=False))
    expected = _per_word(oracle_runtime, words)

    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    cold = match_words(runtime, words)
    assert cold is not None, "workload machines must fit a kernel table"
    assert cold[0] == expected, "cold kernel diverged"

    # The cold pass replayed (and thereby filled) every missed row; the
    # rebuilt program must answer the same corpus without any fallback.
    warm_verdicts, _, warm_fallback = match_words(runtime, words)
    assert warm_verdicts == expected, "warm kernel diverged"
    assert warm_fallback == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_kernel_survives_mid_corpus_densification(seed: int, leaf_count: int):
    """Verdicts hold when rows densify (and the generation bumps) mid-run.

    Forcing the densify threshold to 1 promotes every visited state to a
    dense row on its first transition, so each fallback replay flips row
    representations under the cached program's feet; every subsequent
    ``match_words`` call must rebuild and still agree.
    """
    tree, words = _workload(seed, leaf_count)
    oracle_runtime = CompiledRuntime(build_matcher(tree, verify=False))
    expected = _per_word(oracle_runtime, words)

    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    runtime._densify_at = 1
    for split in (5, len(words)):
        verdicts, _, _ = match_words(runtime, words[:split])
        assert verdicts == expected[:split], f"diverged after densify split {split}"


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_kernel_over_adopted_rows(seed: int, leaf_count: int):
    """Snapshot-adopted rows must scan exactly like locally filled ones."""
    tree, words = _workload(seed, leaf_count)
    donor = CompiledRuntime(build_matcher(tree, verify=False))
    expected = _per_word(donor, words)
    export = donor.export_rows(complete=True)

    def explode():
        raise AssertionError("adopted rows must answer without a matcher")

    adopter = CompiledRuntime(tree=tree, matcher_factory=explode)
    adopter.adopt_rows(export["accepts"], export["rows"])
    verdicts, _, fallback = match_words(adopter, words)
    assert verdicts == expected
    assert fallback == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_pure_and_native_scans_are_byte_identical(seed: int, leaf_count: int):
    """Both backends walk the same buffers and must emit the same bytes."""
    if kernel.native_library() is None:
        pytest.skip("native kernel library not built")
    tree, words = _workload(seed, leaf_count)
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    _per_word(runtime, words[: len(words) // 2])  # half-warm: some rows miss
    program = runtime.export_kernel_program()
    corpus = program.encode_corpus(words)
    pure = program.scan(corpus, backend="pure")
    native = program.scan(corpus, backend="native")
    assert bytes(pure) == bytes(native)
    assert set(pure) <= {0, 1, VERDICT_FALLBACK}


def _star_free_expression(rng: random.Random, leaf_count: int):
    """A random star-free deterministic expression (a fixed chain if none is drawn)."""
    for _ in range(100):
        candidate = random_expression(rng, leaf_count, star_probability=0.0)
        if repro.is_deterministic(candidate):
            return candidate
    return star_free_chain(2)


def _route_workload(seed: int, leaf_count: int):
    """A star-free and a starred deterministic expression plus two batches.

    The batch draws with replacement from a small pool and spells each
    word at random as a ``str`` or a ``list``, so the facade's dedup sees
    repeats under both spellings.  The fresh batch holds only words the
    pool never drew — new members, their mutations and noise with
    out-of-alphabet symbols — so it reaches rows the first batch left
    unfilled.
    """
    rng = random.Random(seed)
    star_free = _star_free_expression(rng, leaf_count)
    # A trailing z* over a fresh symbol keeps the expression deterministic
    # and guarantees an iteration, hence a compiled (kernel) route.
    starred = Concat(random_deterministic_expression(rng, leaf_count), Star(Sym("z")))
    alphabet = {"q"}  # plus a symbol neither expression uses
    for expr in (star_free, starred):
        alphabet.update(build_parse_tree(expr).alphabet.as_list())
    symbols = sorted(alphabet)
    pool: list[list[str]] = [[]]
    for expr in (star_free, starred):
        for _ in range(3):
            member = sample_member(expr, rng)
            pool.append(list(member))
            pool.append(list(mutate_word(member, symbols, rng)))
    pool.append([rng.choice(symbols) for _ in range(rng.randint(1, 6))])

    def spell(word):
        if rng.random() < 0.5:
            return list(word)
        joiner = "" if all(len(symbol) == 1 for symbol in word) else " "
        return joiner.join(word)

    batch = [spell(rng.choice(pool)) for _ in range(30)]
    drawn = {tuple(word) for word in pool}
    fresh_pool: list[list[str]] = []
    for expr in (star_free, starred):
        for _ in range(4):
            member = list(sample_member(expr, rng))
            fresh_pool.append(member)
            fresh_pool.append(list(mutate_word(member, symbols, rng)))
    fresh_pool.append([rng.choice(symbols) for _ in range(rng.randint(1, 6))] + ["#"])
    fresh_pool = [word for word in fresh_pool if tuple(word) not in drawn]
    fresh = [spell(rng.choice(fresh_pool)) for _ in range(20)]
    return star_free, starred, batch, fresh


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
def test_match_all_agrees_with_per_word_match_on_every_route(seed: int, leaf_count: int):
    star_free, starred, batch, fresh = _route_workload(seed, leaf_count)
    cases = [
        (star_free, False, "per-word"),
        (star_free, True, "star-free-multi"),
        (starred, True, "compiled-kernel"),
        (starred, True, "compiled-runtime"),
    ]
    for expr, compiled, route in cases:
        limit = 1 if route == "compiled-runtime" else kernel.TABLE_LIMIT
        with mock.patch.object(kernel, "TABLE_LIMIT", limit):
            pattern = repro.Pattern(expr, compiled=compiled)
            assert pattern.plan.route == route
            batches = [pattern.match_all(batch) for _ in range(2)]  # cold, then warm
            fresh_verdicts = pattern.match_all(fresh)  # after any completion
            full = pattern.match_all(batch, detail="full")
            singles = [pattern.match(word) for word in batch]
            expected = [bool(single) for single in singles]
            for verdicts in batches:
                assert verdicts == expected, route
            assert fresh_verdicts == [bool(pattern.match(word)) for word in fresh], route
            for result, single in zip(full, singles):
                assert bool(result) == bool(single), route
                assert result.error_index == single.error_index, route
                assert result.expected == single.expected, route


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_star_free_multi_matcher_agrees_with_the_oracle(seed: int, leaf_count: int):
    """Theorem 4.12: one scan answers every word, in linearly many examinations."""
    rng = random.Random(seed)
    expr = _star_free_expression(rng, leaf_count)
    tree = build_parse_tree(expr)
    symbols = tree.alphabet.as_list() + ["q"]  # plus a symbol outside the alphabet
    words = [[], ["#"], ["q"]]
    for _ in range(6):
        member = list(sample_member(expr, rng))
        words.append(member)
        words.append(list(mutate_word(member, symbols, rng)))
        words.append([rng.choice(symbols) for _ in range(rng.randint(1, 8))])
    words += [rng.choice(words) for _ in range(5)]  # a batch repeats words
    matcher = StarFreeMultiMatcher(tree)
    oracle = LanguageOracle(tree)
    assert matcher.match_all(words) == [oracle.accepts(word) for word in words]
    assert matcher.examined_entries <= 3 * (sum(len(word) for word in words) + len(words))
