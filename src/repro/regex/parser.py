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

import re
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

#: One match per token.  In the paper dialect every character that is not
#: whitespace is a token (``\s`` accepts exactly what ``str.isspace`` does);
#: in the named dialect a token is an identifier (XML names may contain
#: colons and dashes after the first character) or one operator character.
_TOKEN = {
    _PAPER: re.compile(r"\S"),
    _NAMED: re.compile(r"[A-Za-z0-9_][A-Za-z0-9_:-]*|\S"),
}
#: The first character a named-dialect token cannot start with: anything
#: that is not whitespace, an operator or a name character, and a colon or
#: dash that does not continue a name.
_NAMED_STRAY = re.compile(r"[^\sA-Za-z0-9_:()*?+|{},.-]|(?<![A-Za-z0-9_:-])[:-]")

#: Ends every token list; no token match is empty.
_END = ""
#: The tokens that are not symbols: the operator characters and the end.
_NOT_SYMBOL = frozenset("()*?+|{},.") | {_END}
_UNION = {_PAPER: frozenset("+|"), _NAMED: frozenset("|")}
_POSTFIX = {_PAPER: frozenset("*?{"), _NAMED: frozenset("*?+{")}


def parse(text: str, dialect: str = _PAPER) -> Regex:
    """Parse *text* into a :class:`~repro.regex.ast.Regex`.

    Raises :class:`~repro.errors.RegexSyntaxError` on malformed input and
    when a reserved sentinel symbol (``#`` or ``$``) is used.

    One regular expression splits the text into tokens, then an LL(1)
    loop reads them with an explicit stack of open groups, so nesting
    depth and expression length cost no interpreter stack.  Sequences
    and unions fold to the right, as the printer writes them.
    """
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown parser dialect: {dialect!r} (expected one of {_DIALECTS})")
    if dialect == _NAMED:
        stray = _NAMED_STRAY.search(text)
        if stray is not None:
            raise RegexSyntaxError(
                f"unexpected character {stray.group()!r}", text=text, position=stray.start()
            )
    tokens = _TOKEN[dialect].findall(text)
    tokens.append(_END)
    union_operators = _UNION[dialect]
    postfix_operators = _POSTFIX[dialect]
    # Per open group: the enclosing group's union operands and sequence
    # items, and the index of the group's '('.
    groups: list[tuple[list[Regex], list[Regex], int]] = []
    alternatives: list[Regex] = []  # finished union operands of the innermost group
    items: list[Regex] = []  # items of the sequence being read
    index = 0
    while True:
        # An atom: a symbol, "()" or the opening of a group.
        token = tokens[index]
        if token not in _NOT_SYMBOL:
            if token in SENTINELS:
                message = f"symbol {token!r} is reserved for the R1 sentinels"
                raise _error(message, text, dialect, index)
            node: Regex = Sym(token)
            index += 1
        elif token == "(":
            if tokens[index + 1] != ")":
                groups.append((alternatives, items, index))
                alternatives = []
                items = []
                index += 1
                continue
            node = Epsilon()
            index += 2
        else:
            raise _error(f"unexpected {_shown(token)!r}", text, dialect, index)
        while True:
            # Postfix operators bind to the atom or the group just closed.
            token = tokens[index]
            while token in postfix_operators:
                if token == "*":
                    node = Star(node)
                elif token == "?":
                    node = Optional(node)
                elif token == "+":
                    node = Plus(node)
                else:
                    low, high, index = _bounds(tokens, index, text, dialect)
                    node = Repeat(node, low, high)
                index += 1
                token = tokens[index]
            items.append(node)
            if token not in _NOT_SYMBOL or token == "(":
                break
            if token == ".":
                index += 1
                break
            sequence = _fold(Concat, items)
            if token in union_operators:
                alternatives.append(sequence)
                index += 1
                break
            alternatives.append(sequence)
            expr = _fold(Union, alternatives)
            if not groups:
                if token == _END:
                    return expr
                raise _error(f"unexpected {token!r}", text, dialect, index)
            if token != ")":
                raise _error("expected ')'", text, dialect, groups[-1][2])
            alternatives, items, _ = groups.pop()
            node = expr
            index += 1


def _fold(node_class: type, parts: list[Regex]) -> Regex:
    """Fold *parts* to the right with *node_class*, emptying the list."""
    result = parts.pop()
    while parts:
        result = node_class(parts.pop(), result)
    return result


def _bounds(tokens: list[str], index: int, text: str, dialect: str) -> tuple[int, int | None, int]:
    """Read ``{i}``, ``{i,}`` or ``{i,j}`` opening at *index*: (low, high, index of '}')."""
    opening = index
    low, index = _integer(tokens, index + 1, text, dialect)
    if tokens[index] != ",":
        high: int | None = low
    elif tokens[index + 1] == "}":
        high = UNBOUNDED
        index += 1
    else:
        high, index = _integer(tokens, index + 1, text, dialect)
    if tokens[index] != "}":
        raise _error("expected '}' to close numeric repetition", text, dialect, opening)
    return low, high, index


def _integer(tokens: list[str], index: int, text: str, dialect: str) -> tuple[int, int]:
    """Read a repetition bound at *index*: (value, index after it).

    ``str.isdecimal`` accepts exactly the digits ``int`` reads.  In the
    paper dialect every character is its own token, so a multi-digit
    bound arrives as several consecutive digit tokens.
    """
    digits = tokens[index]
    if not digits.isdecimal():
        raise _error("expected an integer inside '{...}'", text, dialect, index)
    index += 1
    if dialect == _PAPER:
        while tokens[index].isdecimal():
            digits += tokens[index]
            index += 1
    return int(digits), index


def _shown(token: str) -> str:
    return "<end of input>" if token == _END else token


def _error(message: str, text: str, dialect: str, index: int) -> RegexSyntaxError:
    """The syntax error at token *index*, positioned by scanning the text again."""
    offsets = [match.start() for match in _TOKEN[dialect].finditer(text)]
    offsets.append(len(text))
    return RegexSyntaxError(message, text=text, position=offsets[index])


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
