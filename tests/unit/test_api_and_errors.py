"""Unit tests for the high-level API, the XPath reference check and the error types."""

import pytest

import repro
from repro.core.xpath_check import xpath_determinism_check
from repro.errors import InvalidWordError, NotDeterministicError, RegexSyntaxError, ReproError
from repro.regex.parser import parse


class TestPattern:
    def test_compile_and_match(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        assert pattern.is_deterministic
        assert pattern.match("abba")
        assert pattern.match(["a", "b"])
        assert not pattern.match("bb")
        assert pattern.match("")

    def test_match_all(self):
        pattern = repro.compile("(ab)*c")
        assert pattern.match_all(["c", "abc", "ab"]) == [True, True, False]

    def test_match_all_dedups_words_by_their_parsed_form(self):
        # (1,) == (True,) == (1.0,) as raw keys, but they parse to "1",
        # "True" and "1.0"; "1 2" and [1, 2] parse alike.
        pattern = repro.compile("1 2?", dialect="named")
        words = [[1], [True], [1.0], [1, 2], "1 2", (1.0, 2), "1"]
        assert pattern.match_all(words) == [bool(pattern.match(word)) for word in words]
        assert pattern.match_all(words) == [True, False, False, True, True, False, True]

    def test_streaming(self):
        pattern = repro.compile("a?bc*")
        run = pattern.stream()
        assert run.feed("b")
        assert run.is_accepting()
        assert run.feed("c") and run.feed("c")
        assert run.is_accepting()

    def test_named_dialect(self):
        pattern = repro.compile("title author+ note?", dialect="named")
        assert pattern.match(["title", "author", "author"])
        assert not pattern.match(["title"])

    def test_non_deterministic_pattern_reports_and_refuses_to_match(self):
        pattern = repro.compile("(a*ba+bb)*")
        assert not pattern.is_deterministic
        assert "non-deterministic" in pattern.explain()
        with pytest.raises(NotDeterministicError):
            pattern.match("bb")

    def test_describe(self):
        summary = repro.compile("(ab)*").describe()
        assert summary["deterministic"] is True
        assert "strategy" in summary
        non_det = repro.compile("a?a").describe()
        assert non_det["deterministic"] is False
        assert "conflict" in non_det

    def test_explicit_strategy(self):
        pattern = repro.compile("(ab)*", strategy="path-decomposition")
        assert pattern.strategy == "path-decomposition"
        assert pattern.match("abab")

    def test_plus_under_iteration_uses_native_semantics(self):
        """(a+ b?)* is a deterministic content model even though its E E*
        rewriting is Glushkov-ambiguous; the Pattern must accept and match."""
        pattern = repro.compile("item+ note?", dialect="named")
        assert pattern.is_deterministic
        outer = repro.compile("(a+ b?)*", dialect="named")
        assert outer.is_deterministic
        assert not outer.tree_report.deterministic  # the rewritten tree is ambiguous
        assert outer.match(["a", "a", "b", "a"])
        assert outer.match([])
        assert not outer.match(["b"])
        assert outer.strategy == "k-occurrence"  # the sound fallback matcher

    def test_numeric_pattern(self):
        pattern = repro.compile("(ab){2,3}c")
        assert pattern.is_deterministic
        assert pattern.match("ababc")
        assert pattern.match("abababc")
        assert not pattern.match("abc")

    def test_module_level_helpers(self):
        assert repro.match("(ab)*", "abab")
        assert repro.is_deterministic("(ab)*")
        assert not repro.is_deterministic("a?a")
        assert repro.is_deterministic("(ab){2}a(b+d)")
        assert not repro.is_deterministic("(ab){1,2}a")
        assert repro.is_deterministic_numeric("(ab){2}a(b+d)")

    def test_check_deterministic_report_exposed(self):
        report = repro.check_deterministic("ab*b")
        assert not report.deterministic
        assert report.conflict is not None


class TestXPathReferenceCheck:
    def test_agrees_with_linear_test_on_paper_examples(self):
        assert xpath_determinism_check("(ab+b(b?)a)*").deterministic
        assert not xpath_determinism_check("(a*ba+bb)*").deterministic

    def test_reports_which_disjunct_fired(self):
        result = xpath_determinism_check("(a*ba+bb)*")
        assert result.violated_disjunct == "P1"
        assert not bool(result)

    def test_star_star_disjunct(self):
        result = xpath_determinism_check("(a(b?a?))*")
        assert not result.deterministic
        assert result.violated_disjunct is not None
        assert len(result.witnesses) == 3

    def test_agrees_with_linear_test_on_random_expressions(self, rng):
        from repro.core.determinism import is_deterministic
        from repro.regex.generators import random_expression

        for _ in range(120):
            expr = random_expression(rng, rng.randint(1, 8))
            assert xpath_determinism_check(expr).deterministic == is_deterministic(expr), str(expr)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(RegexSyntaxError, ReproError)
        assert issubclass(NotDeterministicError, ReproError)

    def test_syntax_error_str_contains_position(self):
        try:
            parse("a)")
        except RegexSyntaxError as error:
            assert "offset" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")

    def test_not_deterministic_error_carries_report(self):
        pattern = repro.compile("a?a")
        try:
            pattern.match("a")
        except NotDeterministicError as error:
            assert error.report is pattern.report
        else:  # pragma: no cover
            pytest.fail("expected NotDeterministicError")

    def test_xml_error_str(self):
        from repro.errors import XMLSyntaxError

        assert "line 3" in str(XMLSyntaxError("boom", line=3, column=7))

    @pytest.mark.parametrize(
        ("word", "verdict"),
        [
            (None, InvalidWordError),
            (7, InvalidWordError),
            (2.5, InvalidWordError),
            ([["a"]], False),  # symbols are str()-ed, as they always were
            (b"ab", False),
            ([1, 2], False),
            ("abab", True),
        ],
        ids=["none", "int", "float", "nested-list", "bytes", "int-symbols", "word"],
    )
    def test_a_word_that_is_not_a_word_gets_a_taxonomy_error(self, word, verdict):
        pattern = repro.compile("(ab)*")
        if verdict is InvalidWordError:
            for call in (lambda: repro.match("(ab)*", word), lambda: pattern.match_all([word])):
                with pytest.raises(InvalidWordError) as raised:
                    call()
                assert isinstance(raised.value, ReproError)
                assert isinstance(raised.value, TypeError)  # `except TypeError` keeps working
        else:
            assert bool(repro.match("(ab)*", word)) is verdict
            assert pattern.match_all([word, "ab"]) == [verdict, True]
