"""Property tests: the compiled runtime agrees with every matching strategy.

The lazy-DFA runtime (:mod:`repro.matching.runtime`) may never change an
accept/reject verdict: for any deterministic expression, any registered
strategy and any word, ``CompiledRuntime(matcher)`` and the matcher itself
must answer identically — including through the streaming interface, and
including after the rows have been warmed by earlier words (cache reuse
must be invisible except in the miss counters).  Acceptance is read off
the tree's ``pSupLast`` pointers, so it must equal the follow index's
``accepts_at`` at every position, ``+``/counter models on the
k-occurrence fallback included; and whatever mix of words, streams and
exports a runtime has served, each memoized transition cost exactly one
delegation.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

import repro
from repro.matching import STRATEGIES, CompiledRuntime, build_matcher
from repro.matching.kernel import match_words
from repro.regex.ast import Repeat
from repro.regex.generators import random_deterministic_expression, random_expression
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
    words.append(["$"])  # sentinel characters must die on every path
    words.append([alphabet[0], "#"])
    return tree, words


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=60, deadline=None)
def test_runtime_agrees_with_every_strategy(seed: int, leaf_count: int):
    tree, words = _workload(seed, leaf_count)
    oracle = LanguageOracle(tree)
    for strategy, matcher_class in STRATEGIES.items():
        matcher = matcher_class(tree, verify=False)
        runtime = CompiledRuntime(matcher)
        for word in words:
            expected = oracle.accepts(word)
            assert matcher.accepts(word) == expected, (strategy, word)
            assert runtime.accepts(word) == expected, (strategy, word)
        # batch path shares the now-warm rows and must not diverge
        assert runtime.match_many(words) == [oracle.accepts(word) for word in words]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_runtime_streaming_equivalence(seed: int, leaf_count: int):
    tree, words = _workload(seed, leaf_count)
    matcher = build_matcher(tree, verify=False)
    runtime = CompiledRuntime(matcher)
    for word in words:
        direct = matcher.start()
        compiled = runtime.start()
        for symbol in word:
            assert compiled.feed(symbol) == direct.feed(symbol), (word, symbol)
            assert compiled.is_accepting() == direct.is_accepting(), (word, symbol)
        assert compiled.consumed == direct.consumed, word


def _adopted(tree, words) -> CompiledRuntime:
    """A fresh runtime holding the completed rows a donor visited on *words*."""
    donor = CompiledRuntime(build_matcher(tree, verify=False))
    donor.match_many(words)
    adopter = CompiledRuntime(build_matcher(tree, verify=False))
    adopter.adopt_rows(donor.export_rows()["rows"])
    return adopter


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=60, deadline=None)
def test_dense_rows_preserve_verdicts(seed: int, leaf_count: int):
    """Adopted (array-backed) rows may never change a verdict.

    A donor replays the corpus and exports its completed rows; a fresh
    runtime adopting them runs the whole corpus on the array path, and its
    verdicts must still match the direct matcher and the language oracle.
    """
    tree, words = _workload(seed, leaf_count)
    oracle = LanguageOracle(tree)
    matcher = build_matcher(tree, verify=False)
    adopter = _adopted(tree, words)
    for word in words:
        expected = oracle.accepts(word)
        assert matcher.accepts(word) == expected, word
        assert adopter.accepts(word) == expected, word
    stats = adopter.stats()
    assert stats["adopted_rows"] == stats["states_visited"]
    # completed rows are total: the corpus never reaches the matcher
    assert stats["misses"] == stats["transitions_memoized"] == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_dense_streaming_equivalence(seed: int, leaf_count: int):
    """The streaming run must agree symbol-by-symbol on adopted rows too."""
    tree, words = _workload(seed, leaf_count)
    matcher = build_matcher(tree, verify=False)
    adopter = _adopted(tree, words)
    for word in words:
        direct = matcher.start()
        compiled = adopter.start()
        for symbol in word:
            assert compiled.feed(symbol) == direct.feed(symbol), (word, symbol)
            assert compiled.is_accepting() == direct.is_accepting(), (word, symbol)
        assert compiled.consumed == direct.consumed, word


def _native_pattern(rng: random.Random, leaf_count: int) -> repro.Pattern:
    """A random deterministic pattern with ``+`` and counters.

    Some are deterministic under the native semantics while their
    rewritten tree is not, so they match on the k-occurrence fallback.
    """
    for _ in range(100):
        expr = random_expression(rng, leaf_count)
        if rng.random() < 0.5:
            low = rng.randint(0, 2)
            expr = Repeat(expr, low, low + rng.randint(1, 2))
        pattern = repro.Pattern(expr)
        if pattern.is_deterministic:
            return pattern
    return repro.Pattern("(a | b+)+", dialect="named")


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@example(seed=3, leaf_count=6)  # ((b+(ddc)cd)?){1,3}: the k-occurrence fallback
@example(seed=12, leaf_count=4)  # ((((b | a)+ | c) | d)?)*: likewise
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_acceptance_verdicts_and_fills_agree_on_native_models(seed: int, leaf_count: int):
    """Tree acceptance, runtime, matcher and kernel agree; one miss per memoized pair.

    The runtime serves a random mix of single words, streams, batches and
    row exports (an export completes every visited row); after each step
    ``transitions_memoized == misses`` must hold.
    """
    rng = random.Random(seed)
    pattern = _native_pattern(rng, leaf_count)
    tree = pattern.tree
    runtime = CompiledRuntime(tree=tree, matcher_factory=lambda: pattern.matcher)
    follow = tree.follow
    for state, position in enumerate(tree.positions):
        assert runtime.state_accepts(state) == follow.accepts_at(position), state

    alphabet = tree.alphabet.as_list() or ["a"]
    words = [[]]
    for _ in range(5):
        member = sample_member(pattern.expression, rng)
        words.append(list(member))
        words.append(list(mutate_word(member, alphabet, rng)))
        words.append([rng.choice(alphabet) for _ in range(rng.randint(1, 8))])
    words.append([alphabet[0], "not-in-alphabet"])
    expected = [pattern.matcher.accepts(word) for word in words]
    assert match_words(runtime, [tuple(word) for word in words]) == expected

    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["accepts", "stream", "batch", "export"])
        index = rng.randrange(len(words))
        word = words[index]
        if kind == "accepts":
            assert runtime.accepts(word) == expected[index], word
        elif kind == "stream":
            run = runtime.start()
            run.feed_all(word)
            assert run.is_accepting() == expected[index], word
        elif kind == "batch":
            assert runtime.match_many(words[index:]) == expected[index:]
        else:
            rows = runtime.export_rows()["rows"]
            assert all(len(row) == len(tree.alphabet) for row in rows.values())
        stats = runtime.stats()
        assert stats["transitions_memoized"] == stats["misses"], (kind, word)
    assert runtime.match_many(words) == expected
    stats = runtime.stats()
    assert stats["transitions_memoized"] == stats["misses"]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_runtime_cache_reuse_is_pure(seed: int, leaf_count: int):
    """Replaying a corpus must not delegate to the matcher again."""
    tree, words = _workload(seed, leaf_count)
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    first = runtime.match_many(words)
    warm = runtime.misses
    assert runtime.match_many(words) == first
    assert runtime.misses == warm
    stats = runtime.stats()
    assert stats["transitions_memoized"] == stats["misses"] == warm
