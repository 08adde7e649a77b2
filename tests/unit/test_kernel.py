"""Unit tests for the batch matching kernel and its wiring.

Covers the program builder (fallback edges for unmaterialized state,
generation-keyed caching, table limits), the batch drivers (dedup fan-out,
cold→warm convergence), the ``Pattern.match_all`` / service routing, the
telemetry surfaces and the backend selection knob.  The compiled-vs-pure
equivalence lives in ``tests/property/test_kernel_properties.py``.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import kernel
from repro.matching.kernel import (
    MIN_BATCH,
    VERDICT_ACCEPT,
    VERDICT_FALLBACK,
    VERDICT_REJECT,
    build_program,
    match_corpus,
    match_words,
    reset_kernel_stats,
)
from repro.regex.generators import chare, mixed_content
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
    def test_cold_program_sends_everything_to_fallback(self):
        runtime = _runtime("(ab+b(b?)a)*")
        program = build_program(runtime)
        corpus = program.encode_corpus([tuple("abba"), tuple("ab")])
        verdicts = program.scan(corpus)
        assert set(verdicts) == {VERDICT_FALLBACK}

    def test_warm_program_answers_without_fallback(self):
        runtime = _runtime("(ab+b(b?)a)*")
        words = [tuple(word) for word in WORDS]
        for word in words:
            runtime.accepts_encoded(runtime.encode(word))
        program = build_program(runtime)
        corpus = program.encode_corpus(words)
        verdicts = program.scan(corpus)
        assert VERDICT_FALLBACK not in verdicts
        resolved = [verdicts[slot] == VERDICT_ACCEPT for slot in corpus.index]
        assert resolved == _oracle("(ab+b(b?)a)*", WORDS)

    def test_unknown_symbols_reject_via_the_dead_column(self):
        runtime = _runtime("(ab)*")
        runtime.accepts_encoded(runtime.encode("abab"))
        runtime.accepts_encoded(runtime.encode("ba"))
        program = build_program(runtime)
        corpus = program.encode_corpus([tuple("abzab")])
        assert program.scan(corpus)[0] == VERDICT_REJECT

    def test_table_limit_returns_none(self):
        runtime = _runtime("(ab+b(b?)a)*")
        assert build_program(runtime, max_entries=10) is None
        assert runtime.export_kernel_program(max_entries=10) is None

    def test_stride_grows_until_the_limit(self):
        runtime = _runtime("(ab)*")
        wide = build_program(runtime)
        assert wide.stride == kernel.MAX_STRIDE
        narrow = build_program(runtime, max_entries=(len(runtime._positions) + 2) * 4)
        assert narrow.stride == 1


class TestConvergence:
    def test_cold_corpus_converges_to_all_kernel(self):
        runtime = _runtime("(ab+b(b?)a)*")
        words = [tuple(word) for word in WORDS]
        verdicts, kernel_words, fallback_words = match_words(runtime, words)
        assert verdicts == _oracle("(ab+b(b?)a)*", WORDS)
        assert fallback_words > 0  # the cold pass replays through the runtime

        # The replays filled rows; the rebuilt program answers everything.
        verdicts, kernel_words, fallback_words = match_words(runtime, words)
        assert verdicts == _oracle("(ab+b(b?)a)*", WORDS)
        assert fallback_words == 0
        assert kernel_words == len(WORDS)

    @pytest.mark.parametrize("expr", [mixed_content(12), chare(6)], ids=["mixed12", "chare6"])
    def test_warm_strided_machine_builds_one_program(self, expr):
        """A strided machine is completed once: one program serves every warm batch."""
        pattern = repro.compile(expr)
        alphabet = pattern.tree.alphabet.as_list()
        assert kernel.stride_for(len(pattern.tree.positions), len(alphabet)) > 1
        rng = random.Random(7)
        pool = [sample_member(expr, rng) for _ in range(20)]
        pattern.match_all(pool)  # cold: replays, builds the matcher
        cold_fallback = pattern.stats()["kernel_fallback_words"]
        for _ in range(20):
            batch = [rng.choice(pool) for _ in range(12)]
            batch += [sample_member(expr, rng), mutate_word(rng.choice(pool), alphabet, rng)]
            batch.append([rng.choice(alphabet) for _ in range(rng.randint(1, 9))] + ["zz"])
            assert pattern.match_all(batch) == [bool(pattern.match(word)) for word in batch]
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_fallback_words"] == cold_fallback
        assert stats["transitions_memoized"] == stats["misses"]

    def test_stride_one_machine_completes_once(self):
        """A warm stride-1 machine is completed too: fresh words build no second program."""
        expr = mixed_content(200)
        pattern = repro.compile(expr)
        states, width = len(pattern.tree.positions), len(pattern.tree.alphabet)
        assert kernel.stride_for(states, width) == 1
        words = [[f"a{i}", f"a{i + 1}"] for i in range(0, 20, 2)]
        for _ in range(3):  # cold, then two warm batches
            assert pattern.match_all(words) == [True] * len(words)
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["transitions_memoized"] == stats["misses"]
        fallback = stats["kernel_fallback_words"]
        assert fallback == len(words)  # the cold batch's only
        fresh = [[f"a{i}", f"a{i + 1}"] for i in range(100, 120, 2)]
        fresh.append(["a3", "zz"])
        for _ in range(2):
            assert pattern.match_all(fresh) == [True] * (len(fresh) - 1) + [False]
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_fallback_words"] == fallback

    def test_dedup_fans_verdicts_back_out(self):
        runtime = _runtime("(ab)*")
        words = [tuple("ab"), tuple("aa"), tuple("ab"), tuple("ab"), tuple("aa")]
        program = runtime.export_kernel_program()
        corpus = program.encode_corpus(words)
        assert len(corpus.distinct) == 2
        assert list(corpus.index) == [0, 1, 0, 0, 1]
        verdicts, _, _ = match_corpus(runtime, program, corpus)
        assert verdicts == [True, False, True, True, False]

    def test_scan_never_mutates_the_runtime(self):
        runtime = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            runtime.accepts_encoded(runtime.encode(word))
        misses_before = runtime.misses
        generation_before = runtime._generation
        program = runtime.export_kernel_program()
        corpus = program.encode_corpus([tuple(word) for word in WORDS])
        program.scan(corpus)
        assert runtime.misses == misses_before
        assert runtime._generation == generation_before


class TestProgramCache:
    def test_program_is_cached_per_generation(self):
        runtime = _runtime("(ab)*")
        first = runtime.export_kernel_program()
        assert runtime.export_kernel_program() is first
        runtime.accepts_encoded(runtime.encode("ab"))  # bumps the generation
        rebuilt = runtime.export_kernel_program()
        assert rebuilt is not first
        assert runtime.kernel_programs_built == 2

    def test_rebuild_inherits_the_encode_cache(self):
        runtime = _runtime("(ab)*")
        first = runtime.export_kernel_program()
        first.encode_corpus([tuple("ab")])
        assert first._encode_cache
        runtime.accepts_encoded(runtime.encode("ab"))
        rebuilt = runtime.export_kernel_program()
        assert rebuilt._encode_cache is first._encode_cache

    def test_adopting_rows_already_held_keeps_the_program(self):
        runtime = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            runtime.accepts_encoded(runtime.encode(word))
        export = runtime.export_rows()
        program = runtime.export_kernel_program()
        assert runtime.adopt_rows(export["accepts"], export["rows"]) == 0
        assert runtime.export_kernel_program() is program
        assert runtime.kernel_programs_built == 1

    def test_strides_cache_independently(self):
        runtime = _runtime("(ab)*")
        wide = runtime.export_kernel_program()
        narrow = runtime.export_kernel_program(max_stride=1)
        assert wide.stride > narrow.stride
        assert runtime.export_kernel_program(max_stride=1) is narrow

    def test_adopted_rows_yield_a_program_without_a_matcher(self):
        donor = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            donor.accepts_encoded(donor.encode(word))
        export = donor.export_rows(complete=True)

        def explode():
            raise AssertionError("matcher must stay deferred")

        adopter = CompiledRuntime(tree=build_parse_tree("(ab+b(b?)a)*"), matcher_factory=explode)
        adopter.adopt_rows(export["accepts"], export["rows"])
        words = [tuple(word) for word in WORDS]
        verdicts, _, fallback_words = match_words(adopter, words)
        assert verdicts == _oracle("(ab+b(b?)a)*", WORDS)
        assert fallback_words == 0

    def test_re_export_with_unresolved_verdicts_keeps_the_matcher_deferred(self):
        donor = _runtime("(ab+b(b?)a)*")
        for word in WORDS:
            donor.accepts_encoded(donor.encode(word))
        export = donor.export_rows(complete=True)
        partial = bytes([0xFF]) + export["accepts"][1:]

        def explode():
            raise AssertionError("matcher must stay deferred")

        adopter = CompiledRuntime(tree=build_parse_tree("(ab+b(b?)a)*"), matcher_factory=explode)
        adopter.adopt_rows(partial, export["rows"])
        assert adopter.export_rows()["accepts"] == export["accepts"]


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
        assert pattern.match_all(words) == expected  # warm: completes, one program
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

    def test_cold_full_detail_batch_keeps_its_seeds(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        results = pattern.match_all(WORDS, detail="full")
        assert [bool(result) for result in results] == _oracle("(ab+b(b?)a)*", WORDS)
        # every word replayed through the trace recorder, so every result
        # arrives with its diagnosis instead of replaying on first access
        assert all(result._diagnosis is not None for result in results)
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

    def test_partial_snapshot_keeps_the_matcher_deferred(self, tmp_path):
        warm = repro.compile("(ab+b(b?)a)*")
        for word in ["ab", "abab"]:  # leaves the b-branch of the machine cold
            warm.match(word)
        path = str(tmp_path / "rows.snapshot")
        repro.save_snapshot(path)
        repro.purge()
        repro.load_snapshot(path)
        pattern = repro.compile("(ab+b(b?)a)*")
        covered = ["", "a", "b", "aa", "ab", "abb", "abab", "ababab", "ab", "a"]
        for _ in range(2):
            assert pattern.match_all(covered) == _oracle("(ab+b(b?)a)*", covered)
        assert pattern._matcher is None
        assert pattern.runtime._matcher_obj is None
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_fallback_words"] == 0
        assert stats["states_visited"] < len(pattern.tree.positions)


class TestTelemetry:
    def test_kernel_stats_shape(self):
        stats = kernel.stats()
        for key in (
            "programs_built",
            "corpora_encoded",
            "kernel_words",
            "fallback_words",
            "requested",
            "native_available",
            "backend",
        ):
            assert key in stats
        assert stats["backend"] in ("pure", "native")

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


class TestBackendSelection:
    def test_env_knob_forces_pure(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        assert kernel.requested_backend() == "pure"
        assert kernel._effective_backend() == "pure"

    def test_invalid_env_value_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        assert kernel.requested_backend() == "auto"

    def test_pure_scan_is_used_when_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        runtime = _runtime("(ab)*")
        words = [tuple("ab"), tuple("ba")] * 4
        verdicts, _, _ = match_words(runtime, words)
        assert verdicts == [True, False] * 4
