"""Unit tests for the compiled lazy-DFA runtime and the compile cache."""

from __future__ import annotations

import pytest

import repro
from repro.matching import CompiledRun, CompiledRuntime, build_matcher
from repro.matching.runtime import DEAD
from repro.regex.ast import Sym
from repro.regex.parse_tree import build_parse_tree
from repro.xml import element, parse_dtd
from repro.xml.dtd import parse_content_model
from repro.xml.validator import DTDValidator


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    """Keep the module-level compile cache from leaking between tests."""
    repro.purge()
    yield
    repro.purge()


def _runtime(expr: str) -> CompiledRuntime:
    return CompiledRuntime(build_matcher(build_parse_tree(expr), verify=False))


class TestCompiledRuntime:
    def test_agrees_on_paper_example(self):
        runtime = _runtime("(ab+b(b?)a)*")
        matcher = runtime.matcher
        for word in ["", "ab", "abba", "bba", "bb", "a", "ba", "abab", "zz"]:
            assert runtime.accepts(word) == matcher.accepts(word), word

    def test_unknown_symbols_reject_via_encoding(self):
        runtime = _runtime("(ab)*")
        codes = runtime.encode(["a", "z", "b"])
        assert codes[0] >= 0 and codes[2] >= 0
        assert codes[1] < 0
        assert not runtime.accepts_encoded(codes)
        assert runtime.alphabet.decode([codes[0], codes[2]]) == ["a", "b"]

    def test_transitions_memoize_and_misses_stop_growing(self):
        runtime = _runtime("(ab+b(b?)a)*")
        assert runtime.stats()["transitions_memoized"] == 0
        first = runtime.accepts("abba")
        warm = runtime.misses
        assert warm > 0
        assert runtime.accepts("abba") is first
        assert runtime.misses == warm  # second pass replays memoized rows
        stats = runtime.stats()
        assert stats["transitions_memoized"] == warm

    def test_kernel_program_comes_off_the_tree_once(self):
        def explode():
            raise AssertionError("the program must not need the matcher")

        runtime = CompiledRuntime(tree=build_parse_tree("(ab+b(b?)a)*"), matcher_factory=explode)
        program = runtime.export_kernel_program()
        assert runtime.export_kernel_program() is program
        stats = runtime.stats()
        assert stats["kernel_programs"] == 1
        assert stats["misses"] == stats["states_visited"] == stats["transitions_memoized"] == 0
        accepts, wp = program.accepts, program.wp
        accepting = [state for state in range(program.states) if accepts[state * wp]]
        follow = runtime.tree.follow
        assert accepting == [
            position.position_index
            for position in runtime.tree.positions
            if follow.accepts_at(position)
        ]

    def test_dead_transitions_are_memoized_too(self):
        runtime = _runtime("(ab)*")
        assert not runtime.accepts("aa")
        warm = runtime.misses
        assert not runtime.accepts("aa")
        assert runtime.misses == warm

    def test_match_many_matches_individual_verdicts(self):
        runtime = _runtime("(ab+b(b?)a)*")
        words = ["abba", "bb", "", "ab", "bba"]
        assert runtime.match_many(words) == [runtime.accepts(word) for word in words]

    def test_step_rejects_negative_codes(self):
        runtime = _runtime("a")
        assert runtime.step(runtime.tree.start.position_index, -1) == DEAD

    def test_acceptance_reads_the_tree_and_delegates_nothing(self):
        def explode():
            raise AssertionError("acceptance must not need the matcher")

        tree = build_parse_tree("(ab+b(b?)a)*")
        runtime = CompiledRuntime(tree=tree, matcher_factory=explode)
        verdicts = [runtime.state_accepts(state) for state in range(len(tree.positions))]
        assert tree._follow is None, "acceptance built the follow index"
        assert verdicts == [tree.follow.accepts_at(position) for position in tree.positions]
        assert runtime.stats()["states_visited"] == 0


class TestDenseRows:
    """Rows fill one exercised pair at a time; only adopted rows are arrays."""

    #: six-symbol mixed content: alphabet width 6
    EXPR = "(a+b+c+d+e+f)*"

    def _adopted(self, expr: str, words) -> CompiledRuntime:
        """A fresh runtime holding the completed rows a donor's *words* visited."""
        donor = _runtime(expr)
        for word in words:
            donor.accepts(word)
        runtime = _runtime(expr)
        assert runtime.adopt_rows(donor.export_rows()["rows"]) > 0
        return runtime

    def test_rows_fill_only_the_exercised_pairs(self):
        runtime = _runtime(self.EXPR)
        for symbol in "abcd":
            runtime.accepts(symbol)
        row = runtime._rows[runtime._start_state]
        assert type(row) is dict
        assert sorted(row) == [runtime.alphabet.code(symbol) for symbol in "abcd"]
        stats = runtime.stats()
        assert stats["adopted_rows"] == 0
        assert stats["transitions_memoized"] == stats["misses"] == 4
        # an unexercised pair costs its one delegation when first looked up
        assert runtime.accepts("e")
        assert runtime.misses == 5

    def test_export_completes_visited_rows_in_place(self):
        runtime = _runtime(self.EXPR)
        runtime.accepts("ab")
        export = runtime.export_rows()
        width = len(runtime.alphabet)
        stats = runtime.stats()
        assert set(export["rows"]) == {
            state for state, row in enumerate(runtime._rows) if row is not None
        }
        assert all(len(row) == width for row in export["rows"].values())
        assert stats["transitions_memoized"] == stats["misses"] == stats["states_visited"] * width
        assert all(type(row) is dict for row in runtime._rows if row is not None)
        assert stats["adopted_rows"] == 0  # completed rows stay dicts
        runtime.export_rows()
        assert runtime.misses == stats["misses"], "a complete row is never filled twice"

    def test_dense_rows_agree_with_matcher(self):
        runtime = self._adopted(self.EXPR, ["abcdef", "fedcba"])
        matcher = build_matcher(build_parse_tree(self.EXPR), verify=False)
        for word in ["", "abc", "fedcba", "az", "aa", "abcdef"]:
            assert runtime.accepts(word) == matcher.accepts(word), word
        stats = runtime.stats()
        assert stats["adopted_rows"] == stats["states_visited"] > 0
        assert stats["misses"] == 0

    def test_dense_step_memoizes_dead_transitions(self):
        runtime = self._adopted("(ab)*", ["ab"])
        start = runtime._start_state
        b_code = runtime.alphabet.code("b")
        assert type(runtime._rows[start]) is not dict
        assert runtime.step(start, b_code) == runtime.step(start, b_code) < 0
        assert runtime.step(start, -1) == DEAD
        assert runtime.misses == 0

    def test_streaming_over_dense_rows(self):
        matcher = build_matcher(build_parse_tree(self.EXPR), verify=False)
        runtime = self._adopted(self.EXPR, ["abc", "cba"])
        for word in ["abc", "az", ""]:
            direct = matcher.start()
            compiled = runtime.start()
            for symbol in word:
                assert compiled.feed(symbol) == direct.feed(symbol), (word, symbol)
                assert compiled.is_accepting() == direct.is_accepting(), (word, symbol)


class TestCompiledRunStreaming:
    def test_streaming_equivalence_with_direct_run(self):
        matcher = build_matcher(build_parse_tree("(ab+b(b?)a)*"), verify=False)
        runtime = CompiledRuntime(matcher)
        for word in ["abba", "abz", "bbab", ""]:
            direct = matcher.start()
            compiled = runtime.start()
            for symbol in word:
                assert compiled.feed(symbol) == direct.feed(symbol), (word, symbol)
                assert compiled.is_accepting() == direct.is_accepting(), (word, symbol)
                assert compiled.consumed == direct.consumed
                assert compiled.position is direct.position

    def test_sentinel_symbols_kill_both_paths_identically(self):
        # The literal '$' labels only the R1 end sentinel, which is outside
        # the user alphabet: neither path may transition into it.
        matcher = build_matcher(build_parse_tree("(ab)*"), verify=False)
        runtime = CompiledRuntime(matcher)
        for sentinel in ("$", "#"):
            direct = matcher.start()
            compiled = runtime.start()
            assert direct.feed("a") and compiled.feed("a")
            assert not direct.feed(sentinel)
            assert not compiled.feed(sentinel)
            assert direct.consumed == compiled.consumed == 1
            assert not matcher.accepts(["a", "b", sentinel])
            assert not runtime.accepts(["a", "b", sentinel])

    def test_decode_rejects_unknown_codes(self):
        runtime = _runtime("(ab)*")
        with pytest.raises(LookupError):
            runtime.alphabet.decode(runtime.encode(["a", "z"]))

    def test_dead_runs_stay_dead(self):
        run = _runtime("(ab)*").start()
        assert run.feed("a")
        assert not run.feed("a")
        assert not run.alive
        assert not run.feed("b")  # still dead even on a symbol that once worked
        assert not run.is_accepting()

    def test_feed_all_stops_at_first_mismatch(self):
        run = _runtime("(ab)*").start()
        assert not run.feed_all("abz")
        assert run.consumed == 2
        assert not run.alive
        assert not run.feed_all("ab")

    def test_feed_all_whole_word(self):
        run = _runtime("(ab)*").start()
        assert run.feed_all("abab")
        assert run.consumed == 4
        assert run.is_accepting()


class TestCompileCache:
    def test_compile_returns_cached_pattern(self):
        first = repro.compile("(ab)*")
        assert repro.compile("(ab)*") is first
        assert repro.stats()["pattern_cache"]["hits"] == 1

    def test_cache_distinguishes_dialect_strategy_and_compiled(self):
        base = repro.compile("(ab)*")
        assert repro.compile("(ab)*", strategy="glushkov-dfa") is not base
        assert repro.compile("(ab)*", compiled=False) is not base

    def test_purge_empties_the_cache(self):
        first = repro.compile("(ab)*")
        repro.purge()
        assert repro.stats()["pattern_cache"]["size"] == 0
        assert repro.compile("(ab)*") is not first

    def test_purge_leaves_live_patterns_warm(self):
        pattern = repro.compile("(a+b+c+d+e+f)*")
        assert pattern.match("abcdef")
        warm = pattern.runtime.stats()
        repro.purge()
        assert repro.compile("(a+b+c+d+e+f)*") is not pattern
        # the evicted pattern keeps its rows: replaying delegates nothing
        assert pattern.match("abcdef") and not pattern.match("abz")
        assert pattern.runtime.stats() == warm

    def test_failed_compiles_do_not_inflate_evictions(self):
        from repro.errors import RegexSyntaxError

        with pytest.raises(RegexSyntaxError):
            repro.compile("((")
        stats = repro.stats()["pattern_cache"]
        assert stats["misses"] == 1  # the attempt is counted ...
        assert stats["evictions"] == 0  # ... but nothing was inserted or evicted

    def test_eviction_counter_tracks_lru_overflow(self):
        assert repro.stats()["pattern_cache"]["evictions"] == 0
        overflow = 5
        for index in range(repro.COMPILE_CACHE_SIZE + overflow):
            repro.compile(Sym(f"s{index}"))
        stats = repro.stats()["pattern_cache"]
        assert stats["size"] == repro.COMPILE_CACHE_SIZE == stats["max_size"]
        assert stats["evictions"] == overflow
        assert stats["misses"] == repro.COMPILE_CACHE_SIZE + overflow

    def test_pattern_stats_reports_runtime_counters(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        assert pattern.stats() is None  # nothing matched yet
        pattern.match("abba")
        runtime = pattern.stats()
        assert runtime["misses"] > 0
        assert runtime["transitions_memoized"] == runtime["misses"]

    def test_pattern_stats_replaces_the_removed_aliases(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        pattern.match("abba")
        for removed in ("runtime_stats", "cache_stats"):
            assert not hasattr(pattern, removed), removed
        # The two blocks the old combined ``cache_stats()`` returned.
        assert pattern.stats().items() >= pattern.runtime.stats().items()
        assert repro.stats()["pattern_cache"]["misses"] >= 1

    def test_uncompiled_pattern_reports_no_runtime(self):
        pattern = repro.compile("(ab)*", compiled=False)
        pattern.match("ab")  # builds the matcher but no runtime
        assert pattern.stats() is None

    def test_cached_pattern_shares_warm_runtime(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        pattern.match("abba")
        warm = pattern.runtime.misses
        again = repro.compile("(ab+b(b?)a)*")
        assert again.runtime is pattern.runtime
        again.match("abba")
        assert again.runtime.misses == warm


class TestPatternRuntimePaths:
    def test_match_all_agrees_with_match(self):
        pattern = repro.Pattern("(ab+b(b?)a)*")
        words = ["abba", "bb", "", "ab", ["a", "b"], "b,b,a"]
        assert pattern.match_all(words) == [pattern.match(word) for word in words]

    def test_uncompiled_fallback_agrees(self):
        compiled = repro.Pattern("(ab+b(b?)a)*")
        direct = repro.Pattern("(ab+b(b?)a)*", compiled=False)
        words = ["abba", "bb", "", "ab", "bba", "zz"]
        assert compiled.match_all(words) == direct.match_all(words)
        assert isinstance(direct.stream(), repro.matching.MatchRun)
        assert isinstance(compiled.stream(), CompiledRun)

    def test_runtime_property_shares_matcher_runtime(self):
        pattern = repro.Pattern("(ab)*")
        runtime = pattern.runtime
        assert runtime._matcher_obj is None  # deferred until the first miss
        assert pattern.match("ab")
        assert runtime.matcher is pattern.matcher
        assert pattern.runtime is runtime

    def test_plus_fallback_semantics_run_compiled(self):
        # b+ under the outer + loses Glushkov-determinism after the
        # E+ -> E E* rewriting; the k-occurrence fallback must behave the
        # same through the runtime.
        pattern = repro.Pattern("(a | b+)+", dialect="named")
        assert pattern.is_deterministic
        assert not pattern.tree_report.deterministic  # rewritten tree is ambiguous
        words = [["a"], ["b", "b"], ["a", "b", "a"], [], ["c"]]
        expected = [True, True, True, False, False]
        assert pattern.match_all(words) == expected
        direct = repro.Pattern("(a | b+)+", dialect="named", compiled=False)
        assert direct.match_all(words) == expected


class TestValidatorFastPath:
    DTD_TEXT = """
    <!ELEMENT catalog (product+)>
    <!ELEMENT product (name, price, (description | summary)?, tag*)>
    <!ELEMENT name (#PCDATA)> <!ELEMENT price (#PCDATA)>
    <!ELEMENT description (#PCDATA)> <!ELEMENT summary (#PCDATA)> <!ELEMENT tag (#PCDATA)>
    """

    def _product(self, valid: bool = True):
        children = [element("name", text="n"), element("price", text="9")]
        if not valid:
            children.reverse()
        return element("product", *children, element("tag"))

    def _document(self, valid: bool = True):
        return element("catalog", self._product(valid), self._product())

    def test_compiled_and_direct_validators_agree(self):
        dtd = parse_dtd(self.DTD_TEXT)
        fast = DTDValidator(dtd)
        slow = DTDValidator(dtd, compiled=False)
        for valid in (True, False):
            document = self._document(valid)
            assert fast.is_valid(document) == slow.is_valid(document) == valid

    def test_streaming_checker_over_runtime(self):
        dtd = parse_dtd(self.DTD_TEXT)
        checker = DTDValidator(dtd).checker_for("product")
        assert checker.feed("name") and checker.feed("price")
        assert checker.complete()
        assert checker.feed("tag") and checker.complete()
        assert not checker.feed("name")  # out of order: run dies
        assert checker.consumed == 3

    def test_content_model_parse_is_memoized(self):
        model = parse_content_model("(name, price, tag*)")
        assert parse_content_model("(name, price, tag*)") is model

    def test_repeated_elements_share_memoized_rows(self):
        dtd = parse_dtd(self.DTD_TEXT)
        validator = DTDValidator(dtd)
        runtime = validator._plans["product"].built_runtime()
        validator.validate(self._document())
        warm = runtime.misses
        validator.validate(self._document())
        assert runtime.misses == warm
