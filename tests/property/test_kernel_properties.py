"""Property tests: the batch kernel agrees with the compiled runtime.

A kernel program (:mod:`repro.matching.kernel`) is read off the parse
tree's follow relation, so its rows must be exactly the runtime's: for
any deterministic expression, ``+``/counter models on the k-occurrence
fallback included, every (state, symbol) entry and every accept byte of
``build_program(tree)`` equals what the runtime's ``step`` walk gives,
through either scan backend.  The kernel may never change an
accept/reject verdict: for any corpus — member words, mutated
near-members, random noise, words with out-of-alphabet symbols —
``match_words`` must agree with per-word ``accepts_encoded`` replay, on
fresh, warm and snapshot-adopted runtimes alike.  One level up,
``Pattern.match_all`` — which dedups each batch once into a
:class:`~repro.matching.kernel.Corpus` — must agree with per-word
``Pattern.match`` on every planner route, and a batch that spells its
words every way ``parse_word`` reads must get the same verdicts cold,
warm and from the program's verdict memo.  Star-free batches run on the
kernel too, so the Theorem 4.12 multi-matcher, which no route reaches,
is pinned to the language oracle on the same star-free expressions.
"""

from __future__ import annotations

import os
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import kernel
from repro.matching.kernel import match_words
from repro.matching.star_free import StarFreeMultiMatcher
from repro.regex.ast import Concat, Repeat, Star, Sym
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
    return tree, _corpus(expr, tree, rng)


def _corpus(expr, tree, rng: random.Random) -> list[tuple[str, ...]]:
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
    return [rng.choice(pool) for _ in range(40)]


def _per_word(runtime: CompiledRuntime, words) -> list[bool]:
    return [runtime.accepts_encoded(runtime.encode(word)) for word in words]


def _deterministic_pattern(rng: random.Random, leaf_count: int) -> repro.Pattern:
    """A random deterministic pattern, some of them on the k-occurrence fallback.

    ``random_expression`` draws ``+`` nodes, and a counter wrapped around
    the whole expression can be deterministic under the native semantics
    while its rewritten tree is not — the ``tree_report`` / ``report``
    split that sends a pattern to the k-occurrence matcher.
    """
    for _ in range(100):
        expr = random_expression(rng, leaf_count)
        if rng.random() < 0.5:
            low = rng.randint(0, 2)
            expr = Repeat(expr, low, low + rng.randint(1, 2))
        pattern = repro.Pattern(expr)
        if pattern.is_deterministic:
            return pattern
    return repro.Pattern("(a b?){1,3}", dialect="named")


def _step_walk(runtime: CompiledRuntime) -> tuple[list[list[int]], list[int]]:
    """The reference table: ``step`` over every (state, symbol), ``state_accepts`` per state.

    Each entry comes from the pattern's own Section-4 matcher (through
    the runtime's lazy rows) and each verdict from the follow index, so
    the reference shares nothing with the parse-tree walk the kernel
    builds its rows by.
    """
    states = len(runtime.tree.positions)
    width = len(runtime.alphabet)
    rows = []
    for state in range(states):
        row = [runtime.step(state, code) for code in range(width)]
        rows.append([states if target < 0 else target for target in row])
    accepts = [1 if runtime.state_accepts(state) else 0 for state in range(states)]
    return rows, accepts


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=9))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_follow_built_rows_equal_the_step_walk(seed: int, leaf_count: int):
    rng = random.Random(seed)
    pattern = _deterministic_pattern(rng, leaf_count)
    tree = pattern.tree
    program = kernel.build_program(tree, max_stride=1)
    assert program is not None
    states, width, span = program.states, program.width, program.span
    rows, accepts = _step_walk(pattern.runtime)
    table = program.table
    for state in range(states):
        offset = state * span
        assert [target // span for target in table[offset : offset + width]] == rows[state]
        assert table[offset + width] // span == states  # unknown symbol: DEAD
        assert table[offset + width + 1] // span == state  # PAD: identity
        assert program.accepts[offset] == accepts[state], state
    dead = states * span
    assert list(table[dead : dead + program.wp]) == [dead] * program.wp
    assert set(program.accepts) <= {kernel.VERDICT_REJECT, kernel.VERDICT_ACCEPT}

    # The strided program of the same tree, through both backends.
    strided = kernel.build_program(tree)
    corpus = strided.encode_corpus(_corpus(pattern.expression, tree, rng))
    pure = strided.scan(corpus, backend="pure")
    assert set(pure) <= {kernel.VERDICT_REJECT, kernel.VERDICT_ACCEPT}
    assert [bool(verdict) for verdict in pure] == _per_word(pattern.runtime, corpus.words)
    if kernel.native_library() is not None:
        assert bytes(strided.scan(corpus, backend="native")) == bytes(pure)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=60, deadline=None)
def test_kernel_agrees_on_fresh_and_warm_runtimes(seed: int, leaf_count: int):
    """A fresh runtime's program answers everything and fills no row."""
    tree, words = _workload(seed, leaf_count)
    warm = CompiledRuntime(build_matcher(tree, verify=False))
    expected = _per_word(warm, words)
    assert match_words(warm, words) == expected, "warm kernel diverged"

    fresh = CompiledRuntime(build_matcher(tree, verify=False))
    assert match_words(fresh, words) == expected, "fresh kernel diverged"
    stats = fresh.stats()
    assert stats["misses"] == stats["states_visited"] == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_row_fills_leave_the_program_alone(seed: int, leaf_count: int):
    """Per-word replays that fill rows never rebuild or perturb the program.

    The per-word reference fills the runtime's rows between the batches;
    the program, read off the tree, stays the same object and keeps
    agreeing, and the batches themselves fill no row.
    """
    tree, words = _workload(seed, leaf_count)
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    program = runtime.export_kernel_program()
    for split in (5, len(words)):
        expected = _per_word(runtime, words[:split])
        before = runtime.stats()
        assert match_words(runtime, words[:split]) == expected, f"diverged at split {split}"
        assert runtime.stats() == before
        assert runtime.export_kernel_program() is program


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_kernel_needs_no_matcher(seed: int, leaf_count: int):
    """Snapshot-adopted or not, a runtime with a deferred matcher batches on the kernel."""
    tree, words = _workload(seed, leaf_count)
    donor = CompiledRuntime(build_matcher(tree, verify=False))
    expected = _per_word(donor, words)
    export = donor.export_rows()

    def explode():
        raise AssertionError("the kernel must answer without a matcher")

    adopter = CompiledRuntime(tree=tree, matcher_factory=explode)
    adopter.adopt_rows(export["rows"])
    assert match_words(adopter, words) == expected
    bare = CompiledRuntime(tree=tree, matcher_factory=explode)
    assert match_words(bare, words) == expected


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


def _spellings(word: list[str]) -> list:
    """Spellings ``parse_word`` reads back as *word*: list, tuple, spaced and plain ``str``."""
    spellings = [list(word), tuple(word), ",".join(word) + ","]
    if len(word) > 1:
        spellings.append(" ".join(word))
    if all(len(symbol) == 1 for symbol in word):
        spellings.append("".join(word))
    return spellings


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
def test_mixed_spellings_agree_cold_warm_and_from_the_memo(seed: int, leaf_count: int):
    """A batch spelling its words every way gets per-word ``match``'s verdicts.

    On each backend a fresh pattern answers the batch three times: cold
    (per-word replay), warm (the program scans and memoizes each verdict
    under its raw word) and from the memo, which answers every spelling
    before ``parse_word`` runs.
    """
    rng = random.Random(seed)
    expr = random_deterministic_expression(rng, leaf_count)
    symbols = build_parse_tree(expr).alphabet.as_list() + ["q"]
    pool: list[list[str]] = [[]]
    for _ in range(4):
        member = list(sample_member(expr, rng))
        pool.append(member)
        pool.append(list(mutate_word(member, symbols, rng)))
    pool.append([rng.choice(symbols) for _ in range(rng.randint(1, 6))])
    batch = [rng.choice(_spellings(rng.choice(pool))) for _ in range(30)]
    reference = repro.Pattern(expr, compiled=False)
    expected = [bool(reference.match(word)) for word in batch]
    backends = ["pure"] + (["native"] if kernel.native_library() is not None else [])
    for backend in backends:
        with mock.patch.dict(os.environ, {"REPRO_KERNEL": backend}):
            pattern = repro.Pattern(expr)
            assert pattern.match_all(batch) == expected, backend  # cold
            assert pattern.stats()["kernel_programs"] == 0
            assert pattern.match_all(batch) == expected, backend  # warm
            assert pattern.stats()["kernel_programs"] == 1
            unparsed = AssertionError("a memoized word was parsed")
            with mock.patch.object(repro.api, "parse_word", side_effect=unparsed):
                assert pattern.match_all(batch) == expected, backend  # from the memo
            assert pattern.stats()["kernel_words"] == 2 * len(batch)


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
