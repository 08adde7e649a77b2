"""Unit tests for the kernel-backed longest-match lexer."""

from __future__ import annotations

import pytest

from repro.errors import LexError, NotDeterministicError
from repro.lexer import Lexer, Token
from repro.regex.ast import plus, sym, union

DIGITS = union(*[sym(ch) for ch in "0123456789"])
LETTERS = union(*[sym(ch) for ch in "abcdefghijklmnopqrstuvwxyz"])


def _word_lexer() -> Lexer:
    return Lexer(
        [
            ("NUM", plus(DIGITS)),
            ("WORD", plus(LETTERS)),
            ("SPACE", plus(sym(" "))),
        ]
    )


class TestTokenization:
    def test_basic_token_stream(self):
        tokens = _word_lexer().tokenize("abc 42 de1")
        assert [(t.tag, t.text) for t in tokens] == [
            ("WORD", "abc"),
            ("SPACE", " "),
            ("NUM", "42"),
            ("SPACE", " "),
            ("WORD", "de"),
            ("NUM", "1"),
        ]

    def test_tokens_carry_exact_spans(self):
        tokens = _word_lexer().tokenize("ab 12")
        assert tokens[0] == Token("WORD", "ab", 0, 2)
        assert tokens[2] == Token("NUM", "12", 3, 5)
        assert all(token.text == "ab 12"[token.start:token.end] for token in tokens)

    def test_longest_match_wins(self):
        # "ab" must be one WORD token, never two single-letter ones; a rule
        # accepting a prefix of a longer match must lose to the longer one.
        lexer = Lexer([("AB", "ab(ab)*"), ("C", "cc*")])
        assert [(t.tag, t.text) for t in lexer.tokenize("ababcc")] == [
            ("AB", "abab"),
            ("C", "cc"),
        ]

    def test_skip_rules_are_matched_but_not_yielded(self):
        lexer = Lexer(
            [("NUM", plus(DIGITS)), ("SPACE", plus(sym(" ")))],
            skip=("SPACE",),
        )
        assert [(t.tag, t.text) for t in lexer.tokenize(" 1  23 ")] == [
            ("NUM", "1"),
            ("NUM", "23"),
        ]

    def test_empty_input_yields_nothing(self):
        assert _word_lexer().tokenize("") == []

    def test_rule_expressions_may_be_paper_dialect_strings(self):
        # In the paper dialect + is union, so "a+b" is the class {a, b}.
        lexer = Lexer([("AB", "(a+b)(a+b)*"), ("C", "cc*")])
        assert [t.tag for t in lexer.tokenize("abbac")] == ["AB", "C"]

    def test_tokens_are_reiterable(self):
        lexer = _word_lexer()
        first = lexer.tokenize("ab 12")
        second = lexer.tokenize("ab 12")
        assert first == second


class TestErrors:
    def test_stuck_input_raises_with_the_offset(self):
        lexer = _word_lexer()
        with pytest.raises(LexError) as excinfo:
            lexer.tokenize("ab !")
        assert excinfo.value.position == 3
        assert "position 3" in str(excinfo.value)

    def test_tokens_before_the_stuck_position_are_yielded(self):
        stream = _word_lexer().tokens("ab!")
        assert next(stream).text == "ab"
        with pytest.raises(LexError):
            next(stream)

    def test_nullable_rule_is_rejected(self):
        with pytest.raises(LexError, match="empty word"):
            Lexer([("OPT", "a?")])

    def test_overlapping_rules_are_rejected(self):
        # Both rules can start (and continue) a run of a's: the union is
        # not one-unambiguous, which the constructor must report.
        with pytest.raises(NotDeterministicError):
            Lexer([("A", "aa*"), ("AA", "a(a?)")])

    def test_empty_rule_set_is_rejected(self):
        with pytest.raises(LexError, match="at least one rule"):
            Lexer([])

    def test_unknown_skip_name_is_rejected(self):
        with pytest.raises(LexError, match="skip names no rule"):
            Lexer([("A", "aa*")], skip=("GHOST",))


class TestCompilation:
    def test_stats_shape(self):
        stats = _word_lexer().stats()
        assert stats["rules"] == 3
        assert stats["states"] > 0
        assert stats["table_entries"] > 0

    def test_scanner_agrees_with_the_union_pattern(self):
        # Every token's text must be a member of the union language, and
        # the concatenation must reconstruct the input exactly.
        lexer = _word_lexer()
        text = "abc 123 xyz  7"
        tokens = lexer.tokenize(text)
        assert "".join(token.text for token in tokens) == text
        for token in tokens:
            # pass an explicit symbol list: parse_word would eat the
            # whitespace a SPACE token is made of
            assert lexer.pattern.match(list(token.text)), token

    def test_each_tag_names_the_right_rule(self):
        lexer = _word_lexer()
        for text, tag in (("abc", "WORD"), ("405", "NUM"), ("  ", "SPACE")):
            (token,) = lexer.tokenize(text)
            assert token.tag == tag

    def test_the_lexer_and_warm_batches_share_one_program(self):
        """The union pattern's batches scan the program the lexer tokenizes on."""
        lexer = _word_lexer()
        words = [list("abc"), list("42"), list(" "), list("a1"), list("zz")] * 2
        expected = [True, True, True, False, True] * 2
        for _ in range(3):  # cold, warm, then from the memo
            assert lexer.pattern.match_all(words) == expected
        assert lexer.tokenize("ab 12")[2] == Token("NUM", "12", 3, 5)
        assert lexer.pattern.stats()["kernel_programs"] == 1
        assert lexer.pattern.runtime.export_kernel_program() is lexer._program
