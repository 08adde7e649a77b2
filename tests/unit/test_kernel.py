"""Unit tests for the batch matching kernel and its wiring.

Covers the program builder (complete tables off the parse tree, one
program per pattern, table limits), the batch drivers (dedup fan-out, cold
batches that replay), the ``Pattern.match_all`` / service routing and the
telemetry surfaces.  The follow-built rows
are diffed against the runtime's step walk here on the generator
families and a row that meets two copies of one symbol, and on random
expressions, with the compiled-vs-pure equivalence, in
``tests/property/test_kernel_properties.py``.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

import repro
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import kernel
from repro.matching.kernel import (
    MIN_BATCH,
    VERDICT_ACCEPT,
    VERDICT_REJECT,
    build_program,
    match_corpus,
    match_words,
    reset_kernel_stats,
)
from repro.matching.memo import MEMO_LIMIT
from repro.regex.ast import Concat, Epsilon, Optional, Plus, Star, Sym
from repro.regex.generators import (
    bounded_occurrence,
    chare,
    deep_alternation,
    mixed_content,
    numeric_particles,
    paper_example_e0,
    paper_example_e1,
    star_free_chain,
)
from repro.regex.parse_tree import build_parse_tree
from repro.regex.words import mutate_word, sample_member


@pytest.fixture(autouse=True)
def _fresh_state():
    repro.purge()
    reset_kernel_stats()
    yield
    repro.purge()
    reset_kernel_stats()


def _runtime(expr: str) -> CompiledRuntime:
    return CompiledRuntime(build_matcher(build_parse_tree(expr), verify=False))


WORDS = ["abba", "ab", "bba", "abab", "", "bb", "a", "abba", "ab", "abba"]


def _oracle(expr: str, words) -> list[bool]:
    pattern = repro.Pattern(expr, compiled=False)
    return [pattern.match(word) for word in words]


class TestBuildProgram:
    def test_program_from_the_tree_is_complete(self):
        tree = build_parse_tree("(ab+b(b?)a)*")
        program = build_program(tree)
        corpus = program.encode_corpus([tuple(word) for word in WORDS])
        verdicts = program.scan(corpus)
        assert set(verdicts) == {VERDICT_REJECT, VERDICT_ACCEPT}
        resolved = [verdicts[slot] == VERDICT_ACCEPT for slot in corpus.index]
        assert resolved == _oracle("(ab+b(b?)a)*", WORDS)

    def test_only_dead_is_synthetic(self):
        tree = build_parse_tree("(ab)*")
        program = build_program(tree)
        states = len(tree.positions)
        assert program.states == states
        assert program.dead_offset == states * program.wp
        assert set(program.accepts) == {0, 1}

    def test_warm_program_answers_without_fallback(self):
        """Rows a runtime filled per word change nothing in its program."""
        runtime = _runtime("(ab+b(b?)a)*")
        words = [tuple(word) for word in WORDS]
        for word in words:
            runtime.accepts_encoded(runtime.encode(word))
        program = runtime.export_kernel_program()
        fresh = build_program(build_parse_tree("(ab+b(b?)a)*"))
        assert program.table == fresh.table
        assert program.accepts == fresh.accepts
        corpus = program.encode_corpus(words)
        verdicts = program.scan(corpus)
        assert set(verdicts) <= {VERDICT_REJECT, VERDICT_ACCEPT}
        resolved = [verdicts[slot] == VERDICT_ACCEPT for slot in corpus.index]
        assert resolved == _oracle("(ab+b(b?)a)*", WORDS)

    def test_unknown_symbols_reject_via_the_dead_column(self):
        program = build_program(build_parse_tree("(ab)*"))
        corpus = program.encode_corpus([tuple("abzab")])
        assert program.scan(corpus)[0] == VERDICT_REJECT

    def test_a_corpus_encoded_for_another_program_is_refused(self):
        """The scan checks the corpus's ``width``: codes index one table only."""
        narrow = build_program(build_parse_tree("(ab)*"))
        wide = build_program(build_parse_tree("(abc)*"))
        corpus = narrow.encode_corpus([tuple("ab")])
        assert corpus.width == narrow.width != wide.width
        with pytest.raises(ValueError, match="different program"):
            wide.scan(corpus)
        assert narrow.scan(corpus)[0] == VERDICT_ACCEPT

    def test_table_limit_returns_none(self, monkeypatch):
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 10)
        runtime = _runtime("(ab+b(b?)a)*")
        assert build_program(runtime.tree) is None
        assert runtime.export_kernel_program() is None

    @pytest.mark.parametrize("spare", [0, -1], ids=["exact-fit", "one-entry-short"])
    def test_table_limit_is_the_real_table_size(self, monkeypatch, spare):
        """A model routes to the kernel exactly when its ``(S + 1) · (W + 1)`` table fits."""
        tree = build_parse_tree("(ab+b(b?)a)*")
        size = (len(tree.positions) + 1) * (len(tree.alphabet) + 1)
        monkeypatch.setattr(kernel, "TABLE_LIMIT", size + spare)
        pattern = repro.Pattern("(ab+b(b?)a)*")
        expected = "compiled-kernel" if spare == 0 else "compiled-runtime"
        assert pattern.describe()["batch_path"] == expected
        for _ in range(2):  # cold, then warm
            assert pattern.match_all(WORDS) == _oracle("(ab+b(b?)a)*", WORDS)
        assert pattern.stats()["kernel_programs"] == (1 if spare == 0 else 0)


def _nested_stars(depth: int):
    """``E_i = (a_i? E_{i-1} b_i?)*``: every Last chain climbs through all enclosing stars."""
    expr = None
    for level in range(1, depth + 1):
        body = Optional(Sym(f"a{level}"))
        if expr is not None:
            body = Concat(body, expr)
        expr = Star(Concat(body, Optional(Sym(f"b{level}"))))
    return expr


FAMILIES = {
    "mixed12": lambda: mixed_content(12),
    "chare6": lambda: chare(6),
    "star-free-chain8": lambda: star_free_chain(8),
    "deep-alternation5": lambda: deep_alternation(5),
    "bounded-occurrence-2x3": lambda: bounded_occurrence(2, 3),
    "numeric-particles3": lambda: numeric_particles(3),
    "nested-stars6": lambda: _nested_stars(6),
    "paper-e0": paper_example_e0,
    "paper-e1": paper_example_e1,
    "plus": lambda: Concat(Plus(Concat(Sym("a"), Optional(Sym("b")))), Sym("c")),
}


class TestFollowRows:
    """Rows and accept bytes off the tree equal the runtime's ``step`` walk."""

    @staticmethod
    def _assert_rows_match_the_step_walk(pattern: repro.Pattern) -> kernel.KernelProgram:
        program = build_program(pattern.tree)
        runtime = pattern.runtime
        states, width, wp = program.states, program.width, program.wp
        assert states == len(pattern.tree.positions)
        for state in range(states):
            offset = state * wp
            row = [target // wp for target in program.table[offset : offset + width]]
            walked = [runtime.step(state, code) for code in range(width)]
            assert row == [states if target < 0 else target for target in walked], state
            assert program.accepts[offset] == int(runtime.state_accepts(state)), state
        return program

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_is_one_row_per_state_and_one_column_per_symbol(self, family):
        """``(S + 1) · (W + 1)`` entries: one DEAD row, one unknown-symbol column."""
        tree = build_parse_tree(FAMILIES[family]())
        states, width = len(tree.positions), len(tree.alphabet)
        program = build_program(tree)
        assert len(program.table) == (states + 1) * (width + 1)
        assert program.dead_offset == states * (width + 1)
        assert len(program.accepts) == len(program.table)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unknown_column_and_dead_row_lead_to_dead(self, family):
        """Entries are premultiplied offsets; the unknown column and DEAD absorb."""
        program = build_program(build_parse_tree(FAMILIES[family]()))
        table, wp, dead = program.table, program.wp, program.dead_offset
        assert all(target % wp == 0 and 0 <= target <= dead for target in table)
        for state in range(program.states + 1):
            assert table[state * wp + program.width] == dead, state
        assert list(table[dead:]) == [dead] * wp
        assert not any(program.accepts[dead:])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_equal_the_step_walk(self, family):
        pattern = repro.Pattern(FAMILIES[family]())
        assert pattern.is_deterministic
        self._assert_rows_match_the_step_walk(pattern)

    def test_lowest_copy_wins_where_a_row_meets_two_copies(self):
        # The rewritten tree of (a?){2,3} is a? a? a?: its start row and
        # the row of the first a both meet several copies of a, and the
        # k-occurrence matcher steps to the lowest-indexed one.
        pattern = repro.Pattern("(a?){2,3}", dialect="named")
        assert not pattern.tree_report.deterministic
        assert pattern.report.deterministic
        program = self._assert_rows_match_the_step_walk(pattern)
        code, wp = pattern.tree.alphabet.codes["a"], program.wp
        steps = [program.table[state * wp + code] // wp for state in range(4)]
        assert steps == [1, 2, 3, program.states]  # the last a dies
        words = ["", "a", "aa", "aaa", "aaaa"]
        assert pattern.match_all(words * 4) == [True, True, True, True, False] * 4


class TestLongestMatch:
    """Maximal munch over the batch program, one tag per accepting offset."""

    @staticmethod
    def _scan(expr: str, text: str, start: int = 0) -> tuple[int, int]:
        program = build_program(build_parse_tree(expr))
        tags = bytearray(program.accepts)  # one rule: tag 0 is stored as 1
        encoded = [program.codes.get(symbol, program.width) for symbol in text]
        return kernel.longest_match(program, tags, encoded, start)

    def test_the_last_accepting_boundary_wins(self):
        assert self._scan("ab(ab)*", "ababa") == (4, 1)
        assert self._scan("ab(ab)*", "xabab", start=1) == (5, 1)

    def test_no_accepting_prefix_reads_minus_one(self):
        assert self._scan("ab(ab)*", "ababa", start=1) == (-1, 0)
        assert self._scan("ab(ab)*", "") == (-1, 0)

    def test_the_scan_stops_at_dead(self):
        """An unknown symbol leads to DEAD and nothing after it is read."""
        program = build_program(build_parse_tree("ab(ab)*"))
        tags = bytearray(program.accepts)
        codes = program.codes
        encoded = [codes["a"], codes["b"], program.width, len(program.table)]
        assert kernel.longest_match(program, tags, encoded, 0) == (2, 1)


class TestDrivers:
    def test_match_words_answers_a_fresh_runtime_on_the_kernel(self):
        runtime = _runtime("(ab+b(b?)a)*")
        words = [tuple(word) for word in WORDS]
        assert match_words(runtime, words) == _oracle("(ab+b(b?)a)*", WORDS)
        stats = runtime.stats()
        assert stats["misses"] == stats["states_visited"] == 0  # no row filled
        assert kernel.stats()["kernel_words"] == len(WORDS)
        assert kernel.stats()["fallback_words"] == 0

    @pytest.mark.parametrize(
        "expr",
        [mixed_content(12), chare(6), mixed_content(200)],
        ids=["mixed12", "chare6", "mixed200"],
    )
    def test_warm_machine_builds_one_program(self, expr):
        """One program serves every warm batch: fresh words build no second one."""
        pattern = repro.compile(expr)
        alphabet = pattern.tree.alphabet.as_list()
        rng = random.Random(7)
        pool = [sample_member(expr, rng) for _ in range(20)]
        pattern.match_all(pool)  # cold: replays, builds the matcher
        cold_fallback = pattern.stats()["kernel_fallback_words"]
        assert cold_fallback == len(pool)
        for _ in range(20):
            batch = [rng.choice(pool) for _ in range(12)]
            batch += [sample_member(expr, rng), mutate_word(rng.choice(pool), alphabet, rng)]
            batch.append([rng.choice(alphabet) for _ in range(rng.randint(1, 9))] + ["zz"])
            assert pattern.match_all(batch) == [bool(pattern.match(word)) for word in batch]
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_fallback_words"] == cold_fallback
        assert stats["transitions_memoized"] == stats["misses"]

    def test_dedup_fans_verdicts_back_out(self):
        runtime = _runtime("(ab)*")
        words = [tuple("ab"), tuple("aa"), tuple("ab"), tuple("ab"), tuple("aa")]
        program = runtime.export_kernel_program()
        corpus = program.encode_corpus(words)
        assert len(corpus.distinct) == 2
        assert list(corpus.index) == [0, 1, 0, 0, 1]
        assert match_corpus(program, corpus) == [True, False, True, True, False]

    def test_scan_never_mutates_the_runtime(self):
        runtime = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            runtime.accepts_encoded(runtime.encode(word))
        stats_before = runtime.stats()
        program = runtime.export_kernel_program()
        corpus = program.encode_corpus([tuple(word) for word in WORDS])
        program.scan(corpus)
        stats_after = runtime.stats()
        assert stats_after.pop("kernel_programs") == stats_before.pop("kernel_programs") + 1
        assert stats_after == stats_before


class TestProgramCache:
    def test_program_is_built_once(self):
        """Row fills leave the program, and the verdicts the runtime memoized, in place."""
        runtime = _runtime("(ab)*")
        first = runtime.export_kernel_program()
        assert match_words(runtime, [tuple("ab")]) == [True]
        assert runtime.export_kernel_program() is first
        runtime.accepts_encoded(runtime.encode("ab"))  # fills rows
        runtime.accepts_encoded(runtime.encode("ba"))
        assert runtime.export_kernel_program() is first
        assert runtime.memo.get(tuple("ab")) is True
        assert runtime.stats()["kernel_programs"] == 1

    def test_verdict_memo_keeps_a_reused_word_among_fresh_ones(self):
        runtime = _runtime("(ab)*")
        program = runtime.export_kernel_program()
        hot = tuple("abab")
        assert match_words(runtime, [hot]) == [True]
        fresh = 3 * MEMO_LIMIT
        for start in range(0, fresh, 100):
            batch = [("a", f"x{index}") for index in range(start, start + 100)]
            corpus = program.encode_corpus(kernel.Corpus(batch + [hot], memo=runtime.memo))
            assert len(corpus.distinct) == len(batch)  # the hot word is answered
            assert corpus.index[-1] == -2
            assert match_corpus(program, corpus) == [False] * len(batch) + [True]
            assert len(runtime.memo) <= MEMO_LIMIT

    def test_adopting_rows_already_held_keeps_the_program(self):
        runtime = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            runtime.accepts_encoded(runtime.encode(word))
        export = runtime.export_rows()
        program = runtime.export_kernel_program()
        assert runtime.adopt_rows(export["rows"]) == 0
        assert runtime.export_kernel_program() is program
        assert runtime.stats()["kernel_programs"] == 1

    def test_adopted_rows_yield_a_program_without_a_matcher(self):
        donor = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            donor.accepts_encoded(donor.encode(word))
        export = donor.export_rows()

        def explode():
            raise AssertionError("matcher must stay deferred")

        adopter = CompiledRuntime(tree=build_parse_tree("(ab+b(b?)a)*"), matcher_factory=explode)
        adopter.adopt_rows(export["rows"])
        words = [tuple(word) for word in WORDS]
        assert match_words(adopter, words) == _oracle("(ab+b(b?)a)*", WORDS)

    def test_re_export_of_adopted_rows_keeps_the_matcher_deferred(self):
        donor = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            donor.accepts_encoded(donor.encode(word))
        export = donor.export_rows()

        def explode():
            raise AssertionError("matcher must stay deferred")

        # The adopter is handed complete rows only, so re-exporting them
        # completes nothing and never reaches the matcher.
        adopter = CompiledRuntime(tree=build_parse_tree("(ab+b(b?)a)*"), matcher_factory=explode)
        adopter.adopt_rows(export["rows"])
        again = adopter.export_rows()["rows"]
        assert {state: list(row) for state, row in again.items()} == {
            state: list(row) for state, row in export["rows"].items()
        }


class TestPatternRouting:
    def test_match_all_routes_through_the_kernel(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        assert pattern.describe()["batch_path"] == "compiled-kernel"
        assert pattern.match_all(WORDS) == _oracle("(ab+b(b?)a)*", WORDS)
        stats = pattern.stats()
        assert stats["kernel_words"] + stats["kernel_fallback_words"] == len(WORDS)
        # The first batch ran cold (no rows to build a table over); the
        # warm one builds the program over the rows it filled.
        pattern.match_all(WORDS)
        assert pattern.stats()["kernel_programs"] >= 1

    def test_small_batches_stay_on_the_per_word_driver(self):
        pattern = repro.compile("(ab)*")
        few = ["ab", "aba"]
        assert len(few) < MIN_BATCH
        assert pattern.match_all(few) == [True, False]
        stats = pattern.stats()
        assert stats["kernel_programs"] == 0
        assert stats["kernel_words"] + stats["kernel_fallback_words"] == 0

    def test_small_batches_use_a_program_once_cached(self):
        pattern = repro.compile("(ab)*")
        warmup = ["ab" * n for n in range(MIN_BATCH)]
        pattern.match_all(warmup)  # cold: replays, fills the rows
        pattern.match_all(warmup)  # warm: builds the program
        built = pattern.stats()["kernel_programs"]
        assert built >= 1
        kernel_words_before = pattern.stats()["kernel_words"]
        assert pattern.match_all(["ab", "aba"]) == [True, False]
        assert pattern.stats()["kernel_words"] > kernel_words_before

    def test_star_free_patterns_batch_on_the_kernel(self):
        pattern = repro.compile("(a+b)(c?)d")
        assert pattern.describe()["batch_path"] == "star-free-multi"
        words = ["acd", "bd", "dd", "", "ad", "bcd", "acdd", "bz", "acd", "bd"]
        expected = _oracle("(a+b)(c?)d", words)
        assert pattern.match_all(words) == expected  # cold: replays
        assert pattern.match_all(words) == expected  # warm: one program
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == len(words)
        assert stats["kernel_fallback_words"] == len(words)

    def test_match_all_agrees_with_match_on_rejecting_traffic(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        words = ["abba", "zz", "ba" * 40, "ab" * 17, "b" * 9]
        assert pattern.match_all(words) == [pattern.match(word) for word in words]


class TestColdBatches:
    """A runtime with no rows gets no table: its first batch replays."""

    def test_cold_first_batch_builds_no_program(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        assert pattern.runtime.cold
        assert pattern.match_all(WORDS) == _oracle("(ab+b(b?)a)*", WORDS)
        stats = pattern.stats()
        assert stats["kernel_programs"] == 0
        assert kernel.stats()["programs_built"] == 0
        assert stats["kernel_words"] == 0
        assert stats["kernel_fallback_words"] == len(WORDS)
        assert kernel.stats()["fallback_words"] == len(WORDS)
        assert not pattern.runtime.cold

    def test_cold_full_detail_batch_stays_lazy(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        results = pattern.match_all(WORDS, detail="full")
        assert [bool(result) for result in results] == _oracle("(ab+b(b?)a)*", WORDS)
        # the cold batch replays for its verdicts only: every result
        # diagnoses on first access, as a warm batch's does
        assert all(result._diagnosis is None for result in results)
        assert pattern.stats()["kernel_fallback_words"] == len(WORDS)

    def test_second_batch_answers_through_the_kernel(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        pattern.match_all(WORDS)
        assert pattern.match_all(WORDS) == _oracle("(ab+b(b?)a)*", WORDS)
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == len(WORDS)
        assert stats["kernel_fallback_words"] == len(WORDS)  # the cold batch's

    def test_snapshot_adopted_runtime_builds_its_program_on_the_first_batch(self, tmp_path):
        warm = repro.compile("(ab+b(b?)a)*")
        for word in WORDS:
            warm.match(word)
        path = str(tmp_path / "rows.snapshot")
        repro.save_snapshot(path)
        repro.purge()
        assert repro.load_snapshot(path)["patterns_loaded"] == 1
        pattern = repro.compile("(ab+b(b?)a)*")
        assert not pattern.runtime.cold
        assert pattern.match_all(WORDS) == _oracle("(ab+b(b?)a)*", WORDS)
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == len(WORDS)
        assert stats["kernel_fallback_words"] == 0

    def test_adopted_pattern_batches_on_the_kernel_with_its_matcher_deferred(self, tmp_path):
        warm = repro.compile("(ab+b(b?)a)*")
        for word in ["ab", "abab"]:  # leaves the b-branch of the machine cold
            warm.match(word)
        path = str(tmp_path / "rows.snapshot")
        repro.save_snapshot(path)
        repro.purge()
        repro.load_snapshot(path)
        pattern = repro.compile("(ab+b(b?)a)*")
        # Words through the b-branch too: no adopted row covers them.
        words = ["", "ab", "abba", "bba", "bb", "abab", "babba", "ba", "ab", "a"]
        assert pattern.match_all(words) == _oracle("(ab+b(b?)a)*", words)
        assert pattern._matcher is None
        assert pattern.runtime._matcher_obj is None
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == len(words)
        assert stats["kernel_fallback_words"] == 0
        assert stats["states_visited"] < len(pattern.tree.positions)

    def test_warm_batch_writes_no_row_and_asks_no_matcher(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        pattern.match_all(WORDS)  # cold: replays, fills rows, builds the matcher
        before = pattern.stats()
        words = ["babba", "bbaab", "abbaab", "aab", "abz", "bab", "ab" * 9, "ba" * 9] + WORDS
        expected = _oracle("(ab+b(b?)a)*", words)
        with mock.patch.object(
            type(pattern.matcher), "next_position", side_effect=AssertionError("matcher asked")
        ) as next_position:
            assert pattern.match_all(words) == expected
        assert next_position.call_count == 0
        after = pattern.stats()
        for key in ("transitions_memoized", "misses", "states_visited"):
            assert after[key] == before[key], key
        assert after["kernel_words"] == len(words)


    @pytest.mark.parametrize(
        "expression", ["(ab)*", Epsilon()], ids=["words-outside-the-alphabet", "epsilon-only"]
    )
    def test_a_batch_warms_the_runtime_whatever_its_words(self, expression):
        """Words that never step out of the start state still end the cold phase."""
        pattern = repro.Pattern(expression)
        words = ["z", "zab", "", "q", "zz", "zq", "", "qab", "zzz", "q"]
        expected = [word == "" for word in words]
        for batch in range(3):
            assert pattern.match_all(words) == expected
            stats = pattern.stats()
            assert stats["states_visited"] == 0
            assert stats["kernel_programs"] == min(batch, 1)
            assert stats["kernel_fallback_words"] == len(words)  # the first batch's
            assert stats["kernel_words"] == batch * len(words)
            assert not pattern.runtime.cold


class TestVerdictMemo:
    """A warm program answers the words it has seen before they are parsed."""

    def test_repeats_skip_parse_word_and_a_new_word_parses_once(self, monkeypatch):
        pattern = repro.compile("(ab+b(b?)a)*")
        expected = _oracle("(ab+b(b?)a)*", WORDS)
        pattern.match_all(WORDS)  # cold: replays
        pattern.match_all(WORDS)  # warm: builds the program, memoizes the verdicts
        parsed = []
        parse_word = repro.api.parse_word

        def counting(word):
            parsed.append(word)
            return parse_word(word)

        monkeypatch.setattr(repro.api, "parse_word", counting)
        assert pattern.match_all(WORDS) == expected
        assert parsed == []
        assert pattern.match_all(WORDS + ["babba", "babba"]) == expected + [True, True]
        assert parsed == ["babba"]
        stats = pattern.stats()
        assert stats["kernel_words"] == 3 * len(WORDS) + 2  # every batch but the cold one
        assert stats["kernel_programs"] == 1

    def test_a_cold_batch_reads_and_writes_no_memo(self):
        """The memo serves warm batches only; a full-detail batch never reads it."""
        pattern = repro.compile("(ab+b(b?)a)*")
        assert pattern.plan.verdict_memo() is None  # cold
        pattern.match_all(WORDS)  # cold: replays
        assert len(pattern.runtime.memo) == 0
        assert pattern.plan.verdict_memo() is pattern.runtime.memo
        assert pattern.plan.verdict_memo("full") is None
        pattern.match_all(WORDS)  # warm: every distinct word is memoized
        assert len(pattern.runtime.memo) == len(set(WORDS))

    def test_direct_kernel_callers_read_words_as_the_facade_does(self):
        """One memo, one reading: "a b" is the word a·b wherever it enters."""
        pattern = repro.compile("ab")
        words = ["a b", ("a", "b"), "ab", "a,b", ["a", "b", "b"], "a  b "]
        expected = [True, True, True, True, False, True]
        assert match_words(pattern.runtime, words) == expected
        for _ in range(2):  # the second batch reads the memo the first one shared
            assert pattern.match_all(words) == expected
        assert pattern.plan.verdict_memo().get("a b") is True


class TestTelemetry:
    def test_kernel_stats_shape(self):
        stats = kernel.stats()
        for key in (
            "programs_built",
            "corpora_encoded",
            "kernel_words",
            "fallback_words",
            "backend",
        ):
            assert key in stats
        assert stats["backend"] == "pure"

    def test_batch_traffic_bumps_the_module_counters(self):
        runtime = _runtime("(ab)*")
        match_words(runtime, [tuple("ab")] * MIN_BATCH)
        stats = kernel.stats()
        assert stats["programs_built"] >= 1
        assert stats["corpora_encoded"] >= 1
        assert stats["kernel_words"] + stats["fallback_words"] == MIN_BATCH

    def test_service_stats_include_the_kernel_block(self):
        from repro.service.core import ValidationService

        with ValidationService(workers=2) as service:
            stats = service.stats()
        assert "kernel" in stats
        assert "backend" in stats["kernel"]
