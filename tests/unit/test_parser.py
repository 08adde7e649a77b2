"""Unit tests for the textual expression parser (both dialects)."""

import pytest

import repro
from repro.errors import RegexSyntaxError, ReproError
from repro.regex.ast import Concat, Epsilon, Optional, Plus, Repeat, Star, Sym, Union
from repro.regex.parser import parse, parse_word


class TestPaperDialect:
    def test_single_symbol(self):
        assert parse("a") == Sym("a")

    def test_concatenation_by_juxtaposition(self):
        assert parse("ab") == Concat(Sym("a"), Sym("b"))

    def test_union_with_plus(self):
        assert parse("a+b") == Union(Sym("a"), Sym("b"))

    def test_union_with_bar(self):
        assert parse("a|b") == Union(Sym("a"), Sym("b"))

    def test_precedence_union_binds_weaker_than_concat(self):
        assert parse("ab+c") == Union(Concat(Sym("a"), Sym("b")), Sym("c"))

    def test_star_and_optional(self):
        assert parse("a*b?") == Concat(Star(Sym("a")), Optional(Sym("b")))

    def test_parentheses(self):
        assert parse("(a+b)c") == Concat(Union(Sym("a"), Sym("b")), Sym("c"))

    def test_paper_example_e1(self):
        expr = parse("(ab+b(b?)a)*")
        assert isinstance(expr, Star)
        assert expr.positions() == ["a", "b", "b", "b", "a"]

    def test_paper_example_e0(self):
        expr = parse("(c?((ab*)(a?c)))*(ba)")
        assert expr.positions() == ["c", "a", "b", "a", "c", "b", "a"]

    def test_numeric_repetition(self):
        assert parse("a{2,3}") == Repeat(Sym("a"), 2, 3)

    def test_numeric_repetition_exact(self):
        assert parse("a{4}") == Repeat(Sym("a"), 4, 4)

    def test_numeric_repetition_unbounded(self):
        assert parse("a{2,}") == Repeat(Sym("a"), 2, None)

    def test_numeric_repetition_multi_digit(self):
        assert parse("a{12,34}") == Repeat(Sym("a"), 12, 34)

    def test_empty_parentheses_are_epsilon(self):
        assert parse("()") == Epsilon()

    def test_whitespace_is_ignored(self):
        assert parse(" a  b ") == Concat(Sym("a"), Sym("b"))

    def test_explicit_dot_concatenation(self):
        assert parse("a.b") == Concat(Sym("a"), Sym("b"))

    def test_concat_folds_to_the_right(self):
        assert parse("abc") == Concat(Sym("a"), Concat(Sym("b"), Sym("c")))

    def test_union_folds_to_the_right(self):
        assert parse("a+b+c") == Union(Sym("a"), Union(Sym("b"), Sym("c")))


class TestNamedDialect:
    def test_identifiers_are_symbols(self):
        assert parse("title", dialect="named") == Sym("title")

    def test_concatenation_by_whitespace(self):
        assert parse("title author", dialect="named") == Concat(Sym("title"), Sym("author"))

    def test_postfix_plus_is_one_or_more(self):
        assert parse("author+", dialect="named") == Plus(Sym("author"))

    def test_union_uses_bar(self):
        assert parse("para | figure", dialect="named") == Union(Sym("para"), Sym("figure"))

    def test_names_may_contain_colons_and_dashes(self):
        assert parse("xs:element", dialect="named") == Sym("xs:element")
        assert parse("foo-bar", dialect="named") == Sym("foo-bar")
        # '.' is the explicit concatenation operator in both dialects.
        assert parse("foo.bar", dialect="named") == Concat(Sym("foo"), Sym("bar"))

    def test_full_content_model(self):
        expr = parse("title (author | editor)+ year?", dialect="named")
        assert expr.positions() == ["title", "author", "editor", "year"]

    def test_numeric_repetition(self):
        assert parse("item{2,5}", dialect="named") == Repeat(Sym("item"), 2, 5)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "(", "a+", "a)", "*a", "a{", "a{2", "a{2,", "a{x}", "(()", "a++b"],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(RegexSyntaxError):
            parse(text)

    def test_reserved_sentinels_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse("a#b")
        with pytest.raises(RegexSyntaxError):
            parse("a$")

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            parse("a", dialect="perl")

    def test_error_carries_position(self):
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("ab)")
        assert excinfo.value.position == 2

    def test_bound_digits_are_decimal(self):
        # '²' is a digit to str.isdigit but not a decimal int() can read
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("a{²}")
        assert str(excinfo.value.args[0]) == "expected an integer inside '{...}'"
        assert excinfo.value.position == 2
        with pytest.raises(ReproError):
            repro.compile("a{²}")
        assert parse("a{1٣}") == Repeat(Sym("a"), 13, 13)

    def test_named_dialect_rejects_stray_characters_first(self):
        # the whole text is scanned before the first token is parsed
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("a ) b -c", dialect="named")
        assert (excinfo.value.args[0], excinfo.value.position) == ("unexpected character '-'", 6)
        assert parse("a-b:c- d", dialect="named") == Concat(Sym("a-b:c-"), Sym("d"))

    def test_deep_nesting_needs_no_stack(self):
        assert parse("(" * 100000 + "a" + ")" * 100000) == Sym("a")
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("(" * 100000 + "a" + ")" * 99999)
        assert (excinfo.value.args[0], excinfo.value.position) == ("expected ')'", 0)


class TestParseWord:
    def test_plain_string_splits_into_characters(self):
        assert parse_word("abab") == ["a", "b", "a", "b"]

    def test_whitespace_separated_names(self):
        assert parse_word("title author author") == ["title", "author", "author"]

    def test_comma_separated_names(self):
        assert parse_word("title,author") == ["title", "author"]

    def test_sequence_passthrough(self):
        assert parse_word(["x", "y"]) == ["x", "y"]

    def test_empty_word(self):
        assert parse_word("") == []
        assert parse_word([]) == []
