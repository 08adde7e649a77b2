"""Parsing textual regular expressions into ASTs.

Two dialects are supported:

``"paper"`` (default)
    The notation used in the PODS paper.  Every letter or digit is a
    separate single-character symbol, concatenation is juxtaposition,
    ``+`` (or ``|``) is infix union, and the postfix operators are ``*``,
    ``?`` and ``{i,j}``.  Example: ``(ab+b(b?)a)*``.

``"named"``
    Symbols are identifiers (XML element names such as ``title`` or
    ``xs:element``), concatenation is whitespace or ``.``, union is ``|``,
    and the postfix operators are ``*``, ``?``, ``+`` (one or more) and
    ``{i,j}``.  Example: ``title (author | editor)+ year?``.

Both dialects accept ``()`` for the empty word.  The characters ``#`` and
``$`` are rejected as symbols because they are reserved for the sentinel
positions introduced by restriction (R1); see
:mod:`repro.regex.parse_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import InvalidWordError, RegexSyntaxError
from .alphabet import SENTINELS
from .ast import (
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
    UNBOUNDED,
)

_PAPER = "paper"
_NAMED = "named"
_DIALECTS = (_PAPER, _NAMED)

# Characters with syntactic meaning in both dialects.
_SPECIAL = set("()*?+|{},.")

# Characters allowed inside identifiers in the named dialect.  XML names may
# contain dots, dashes and colons after the first character.
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789")
_NAME_CONT = _NAME_START | set(":-")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "symbol", "op", "end"
    text: str
    position: int


def parse(text: str, dialect: str = _PAPER) -> Regex:
    """Parse *text* into a :class:`~repro.regex.ast.Regex`.

    Raises :class:`~repro.errors.RegexSyntaxError` on malformed input and
    when a reserved sentinel symbol (``#`` or ``$``) is used.
    """
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown parser dialect: {dialect!r} (expected one of {_DIALECTS})")
    parser = _Parser(text, dialect)
    expr = parser.parse_expression()
    parser.expect_end()
    return expr


def parse_word(text: str | Sequence[str]) -> list[str]:
    """Turn *text* into a word: a list of symbols.

    Strings without whitespace or commas are split into characters (the
    paper-dialect convention); strings containing whitespace or commas are
    split on those separators; any other sequence is returned as a list of
    its elements, each as a string.  Anything else (``None``, a number)
    raises :class:`~repro.errors.InvalidWordError`.
    """
    if not isinstance(text, str):
        try:
            symbols = iter(text)
        except TypeError:
            raise InvalidWordError(f"not a word (a string or symbol sequence): {text!r}") from None
        return [str(symbol) for symbol in symbols]
    if "," in text:
        return text.replace(",", " ").split()
    # One C-level split covers both the whitespace-separated and the
    # per-character cases without a per-character Python scan — this runs
    # once per word on every matching path, batch APIs included.
    parts = text.split()
    if not parts:
        return []
    if len(parts) > 1:
        return parts
    return list(parts[0])


class _Parser:
    """Recursive-descent parser shared by both dialects."""

    def __init__(self, text: str, dialect: str):
        self.text = text
        self.dialect = dialect
        self.tokens = list(_tokenize(text, dialect))
        self.index = 0

    # -- token helpers ------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def error(self, message: str, token: _Token | None = None) -> RegexSyntaxError:
        token = token or self.peek()
        return RegexSyntaxError(message, text=self.text, position=token.position)

    def expect_end(self) -> None:
        token = self.peek()
        if token.kind != "end":
            raise self.error(f"unexpected {token.text!r}")

    # -- grammar ------------------------------------------------------------
    def parse_expression(self) -> Regex:
        """expr := seq (('+' | '|') seq)*  — folded to the right."""
        left = self.parse_sequence()
        token = self.peek()
        if token.kind == "op" and self._is_union_operator(token.text):
            self.advance()
            right = self.parse_expression()
            return Union(left, right)
        return left

    def _is_union_operator(self, text: str) -> bool:
        if text == "|":
            return True
        return text == "+" and self.dialect == _PAPER

    def parse_sequence(self) -> Regex:
        """seq := item+  — folded to the right (matches the printer)."""
        items = [self.parse_item()]
        while True:
            token = self.peek()
            if token.kind == "symbol" or (token.kind == "op" and token.text == "("):
                items.append(self.parse_item())
                continue
            if token.kind == "op" and token.text == ".":
                self.advance()
                items.append(self.parse_item())
                continue
            break
        result = items[-1]
        for item in reversed(items[:-1]):
            result = Concat(item, result)
        return result

    def parse_item(self) -> Regex:
        """item := atom postfix*"""
        expr = self.parse_atom()
        while True:
            token = self.peek()
            if token.kind != "op":
                break
            if token.text == "*":
                self.advance()
                expr = Star(expr)
            elif token.text == "?":
                self.advance()
                expr = Optional(expr)
            elif token.text == "+" and self.dialect == _NAMED:
                self.advance()
                expr = Plus(expr)
            elif token.text == "{":
                expr = self.parse_repeat(expr)
            else:
                break
        return expr

    def parse_repeat(self, expr: Regex) -> Regex:
        """postfix := '{' int (',' int?)? '}'"""
        opening = self.advance()  # consume '{'
        low = self.parse_integer()
        token = self.peek()
        if token.kind == "op" and token.text == ",":
            self.advance()
            token = self.peek()
            if token.kind == "op" and token.text == "}":
                high: int | None = UNBOUNDED
            else:
                high = self.parse_integer()
        else:
            high = low
        closing = self.peek()
        if closing.kind != "op" or closing.text != "}":
            raise self.error("expected '}' to close numeric repetition", opening)
        self.advance()
        return Repeat(expr, low, high)

    def parse_integer(self) -> int:
        token = self.peek()
        if token.kind != "symbol" or not token.text.isdigit():
            raise self.error("expected an integer inside '{...}'")
        self.advance()
        digits = token.text
        # In the paper dialect every character is its own token, so a
        # multi-digit bound arrives as several consecutive digit tokens.
        while self.dialect == _PAPER:
            nxt = self.peek()
            if nxt.kind == "symbol" and nxt.text.isdigit():
                digits += nxt.text
                self.advance()
            else:
                break
        return int(digits)

    def parse_atom(self) -> Regex:
        token = self.peek()
        if token.kind == "symbol":
            self.advance()
            if token.text in SENTINELS:
                raise self.error(
                    f"symbol {token.text!r} is reserved for the R1 sentinels", token
                )
            return Sym(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.peek()
            if inner.kind == "op" and inner.text == ")":
                self.advance()
                return Epsilon()
            expr = self.parse_expression()
            closing = self.peek()
            if closing.kind != "op" or closing.text != ")":
                raise self.error("expected ')'", token)
            self.advance()
            return expr
        raise self.error(f"unexpected {token.text!r}")


def _tokenize(text: str, dialect: str):
    """Yield tokens for *text*, ending with a synthetic "end" token."""
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _SPECIAL:
            yield _Token("op", char, index)
            index += 1
            continue
        if dialect == _PAPER:
            yield _Token("symbol", char, index)
            index += 1
            continue
        # Named dialect: scan a full identifier.
        if char not in _NAME_START:
            raise RegexSyntaxError(f"unexpected character {char!r}", text=text, position=index)
        start = index
        index += 1
        while index < length and text[index] in _NAME_CONT:
            index += 1
        yield _Token("symbol", text[start:index], start)
    yield _Token("end", "<end of input>", length)
