"""DTD content models and document type definitions.

A DTD declares, for every element name, a *content model*: ``EMPTY``,
``ANY``, mixed content ``(#PCDATA | a | b)*`` or an *element content*
model — a regular expression over element names written with ``,``
(sequence), ``|`` (choice) and the postfix operators ``?``, ``*``, ``+``.
The XML specification requires element content models to be
deterministic; this module parses them into the library's AST so the
determinism checkers and matchers of the paper apply directly.

Mixed content is the ``(a1 + ... + am)*`` shape the paper's introduction
uses to show that the classical Glushkov-based determinism test is
quadratic; it is modelled explicitly (:class:`ContentModel` with kind
``"mixed"``), and its expression form is exactly
:func:`repro.regex.generators.mixed_content`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from ..errors import DTDSyntaxError
from ..regex.ast import Optional, Plus, Regex, Star, Sym, Union, concat, star, sym, union

# The XML 1.0 Name production, NameStartChar NameChar*, as sorted
# half-open code-point bounds: a character is in a set when an odd number
# of its bounds lie at or below it.  Checked per character: compiled into
# a regex class, the large Unicode ranges cost about 5 ms per class.
_NAME_START = (
    0x3A, 0x3B, 0x41, 0x5B, 0x5F, 0x60, 0x61, 0x7B, 0xC0, 0xD7, 0xD8, 0xF7,
    0xF8, 0x300, 0x370, 0x37E, 0x37F, 0x2000, 0x200C, 0x200E, 0x2070, 0x2190,
    0x2C00, 0x2FF0, 0x3001, 0xD800, 0xF900, 0xFDD0, 0xFDF0, 0xFFFE, 0x10000, 0xF0000,
)  # fmt: skip
# NameChar adds "-", ".", the digits, U+00B7, U+0300-036F and U+203F-2040.
_NAME_MORE = (0x2D, 0x2F, 0x30, 0x3A, 0xB7, 0xB8, 0x300, 0x370, 0x203F, 0x2041)
_NAME_TOKEN = re.compile(r"[^\s,|()?*+]+")
_ELEMENT_DECL = re.compile(r"<!ELEMENT\s+([^\s>]+)\s+(.*?)>", re.S)
# Quoted default values may hold ">".
_ATTLIST_DECL = re.compile(r"""<!ATTLIST\s(?:[^>"']|"[^"]*"|'[^']*')*>""")
# The markup a DTD may hold between declarations: whitespace, comments and
# processing instructions (an external DTD may open with ``<?xml …?>``).
_BETWEEN = re.compile(r"(?:\s+|<!--.*?-->|<\?.*?\?>)*", re.S)


def _is_name(text: str) -> bool:
    """True when *text* matches the XML 1.0 ``Name`` production.

    >>> [_is_name(name) for name in ("目录", "a-b.c", "·a", "1a", "")]
    [True, True, False, False, False]
    """
    if not text or not bisect_right(_NAME_START, ord(text[0])) & 1:
        return False
    return all(
        bisect_right(_NAME_START, code) & 1 or bisect_right(_NAME_MORE, code) & 1
        for code in map(ord, text[1:])
    )


@dataclass(frozen=True, slots=True)
class ContentModel:
    """The declared content of one element type.

    ``kind`` is one of ``"empty"``, ``"any"``, ``"mixed"`` or
    ``"children"``; ``expression`` is the regular expression over child
    names (``None`` for EMPTY/ANY), and ``mixed_names`` lists the element
    names allowed in mixed content.
    """

    kind: str
    expression: Regex | None = None
    mixed_names: tuple[str, ...] = ()

    @property
    def allows_text(self) -> bool:
        """True when character data may appear among the children."""
        return self.kind in ("mixed", "any")

    def describe(self) -> str:
        if self.kind == "empty":
            return "EMPTY"
        if self.kind == "any":
            return "ANY"
        if self.kind == "mixed":
            inner = " | ".join(("#PCDATA",) + self.mixed_names)
            return f"({inner})*"
        return str(self.expression)


@dataclass(slots=True)
class DTD:
    """A document type definition: a root name and per-element content models."""

    root: str | None = None
    elements: dict[str, ContentModel] = field(default_factory=dict)

    def declare(self, name: str, model: ContentModel | Regex | str) -> None:
        """Declare (or overwrite) the content model of element *name*."""
        if isinstance(model, str):
            model = parse_content_model(model)
        elif isinstance(model, Regex):
            model = ContentModel("children", model)
        self.elements[name] = model

    def content_model(self, name: str) -> ContentModel | None:
        """The declared content model of *name*, or ``None`` if undeclared."""
        return self.elements.get(name)

    def declared_names(self) -> list[str]:
        """All declared element names."""
        return list(self.elements)

    def content_expressions(self) -> Iterator[tuple[str, Regex]]:
        """Iterate over (element name, content expression) for regex-backed models.

        Mixed content is included in its ``(a1+...+am)*`` expression form so
        callers (the schema linter, the benchmarks) see every expression the
        validator will have to handle.
        """
        for name, model in self.elements.items():
            expression = content_model_expression(model)
            if expression is not None:
                yield name, expression


def content_model_expression(model: ContentModel) -> Regex | None:
    """The regular expression a content model constrains children with."""
    if model.kind == "children":
        return model.expression
    if model.kind == "mixed" and model.mixed_names:
        return star(union(*[sym(name) for name in model.mixed_names]))
    if model.kind == "mixed":
        return None  # (#PCDATA) only: no element children allowed
    return None  # EMPTY and ANY do not constrain children with an expression


def describe_expected(expected: tuple[str, ...], can_end: bool) -> str:
    """Render an expected-next tag set in DTD choice syntax.

    The diagnostics layer hands validators the symbols that may follow a
    stuck child position (see :mod:`repro.diagnostics`); this renders
    them the way a DTD author reads content models — ``(a | b)``, with
    ``#END`` marking that the element could also close here.
    """
    options = [f"<{tag}>" for tag in expected]
    if can_end:
        options.append("#END")
    if not options:
        return "nothing"
    if len(options) == 1:
        return options[0]
    return "(" + " | ".join(options) + ")"


# ---------------------------------------------------------------------------
# Content-model syntax
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def parse_content_model(text: str) -> ContentModel:
    """Parse the right-hand side of an ``<!ELEMENT>`` declaration.

    Memoized: schema corpora repeat the same handful of declarations across
    thousands of DTDs (Li et al.), and :class:`ContentModel` instances are
    frozen — as are the expression ASTs they carry — so sharing one parse
    across every DTD that declares the same model is free.  It also means
    equal declarations hit the same key in the :mod:`repro.api` compile
    cache downstream, reusing the warm matcher and its lazy-DFA rows.
    """
    stripped = text.strip()
    if stripped == "EMPTY":
        return ContentModel("empty")
    if stripped == "ANY":
        return ContentModel("any")
    if "#PCDATA" in stripped:
        return _parse_mixed(stripped)
    expression = _ContentParser(stripped).parse()
    return ContentModel("children", expression)


def _parse_mixed(text: str) -> ContentModel:
    body = text.strip()
    if body.endswith("*"):
        body = body[:-1].strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise DTDSyntaxError(f"malformed mixed content model: {text!r}")
    parts = [part.strip() for part in body[1:-1].split("|")]
    if parts[0] != "#PCDATA":
        raise DTDSyntaxError("mixed content must start with #PCDATA")
    names = tuple(part for part in parts[1:] if part)
    for name in names:
        if not _is_name(name):
            raise DTDSyntaxError(f"invalid element name in mixed content: {name!r}")
    return ContentModel("mixed", mixed_names=names)


class _ContentParser:
    """Recursive-descent parser for element content models (DTD syntax)."""

    def __init__(self, text: str):
        self.text = text
        self.index = 0

    def parse(self) -> Regex:
        expression = self._parse_choice_or_sequence()
        self._skip_whitespace()
        if self.index != len(self.text):
            raise DTDSyntaxError(
                f"unexpected {self.text[self.index]!r} at offset {self.index} in content model"
            )
        return expression

    def _skip_whitespace(self) -> None:
        while self.index < len(self.text) and self.text[self.index].isspace():
            self.index += 1

    def _parse_choice_or_sequence(self) -> Regex:
        items = [self._parse_item()]
        separator: str | None = None
        while True:
            self._skip_whitespace()
            if self.index < len(self.text) and self.text[self.index] in ",|":
                current = self.text[self.index]
                if separator is None:
                    separator = current
                elif separator != current:
                    raise DTDSyntaxError(
                        "cannot mix ',' and '|' at the same level of a content model"
                    )
                self.index += 1
                items.append(self._parse_item())
            else:
                break
        if len(items) == 1:
            return items[0]
        return union(*items) if separator == "|" else concat(*items)

    def _parse_item(self) -> Regex:
        self._skip_whitespace()
        if self.index < len(self.text) and self.text[self.index] == "(":
            self.index += 1
            inner = self._parse_choice_or_sequence()
            self._skip_whitespace()
            if self.index >= len(self.text) or self.text[self.index] != ")":
                raise DTDSyntaxError("expected ')' in content model")
            self.index += 1
            return self._parse_postfix(inner)
        match = _NAME_TOKEN.match(self.text, self.index)
        if match is None or not _is_name(match.group(0)):
            raise DTDSyntaxError(
                f"expected an element name at offset {self.index} in content model"
            )
        self.index = match.end()
        return self._parse_postfix(Sym(match.group(0)))

    def _parse_postfix(self, expression: Regex) -> Regex:
        if self.index < len(self.text) and self.text[self.index] in "?*+":
            operator = self.text[self.index]
            self.index += 1
            if operator == "?":
                return Optional(expression)
            if operator == "*":
                return Star(expression)
            return Plus(expression)
        return expression


# ---------------------------------------------------------------------------
# DTD documents
# ---------------------------------------------------------------------------

def parse_dtd(text: str, root: str | None = None) -> DTD:
    """Parse the ``<!ELEMENT ...>`` declarations of a DTD (internal subset or file).

    Element names follow the XML 1.0 ``Name`` production.  Besides
    ``<!ELEMENT`` the reader consumes whitespace, comments, processing
    instructions and ``<!ATTLIST`` declarations (which it skips).
    Anything else — a declaration it cannot read, a misspelt or
    lower-case keyword, ``<!ENTITY``, ``<!NOTATION``, a ``%pe;``
    reference, stray text — raises :class:`~repro.errors.DTDSyntaxError`
    instead of vanishing.
    """
    dtd = DTD(root=root)
    at = _BETWEEN.match(text).end()
    while at < len(text):
        if text.startswith("<!ELEMENT", at):
            match = _ELEMENT_DECL.match(text, at)
            if match is None or not _is_name(match.group(1)):
                excerpt = text[at : at + 40].split(">")[0]
                raise DTDSyntaxError(f"malformed element declaration: {excerpt!r}")
            dtd.declare(match.group(1), parse_content_model(match.group(2)))
        else:
            match = _ATTLIST_DECL.match(text, at)
            if match is None:
                excerpt = text[at : at + 40].split(">")[0]
                raise DTDSyntaxError(f"unsupported DTD markup or text: {excerpt!r}")
        at = _BETWEEN.match(text, match.end()).end()
    if dtd.root is None and dtd.elements:
        dtd.root = next(iter(dtd.elements))
    return dtd


def dtd_to_text(dtd: DTD) -> str:
    """Serialise a DTD back to ``<!ELEMENT>`` declarations."""
    lines = []
    for name, model in dtd.elements.items():
        if model.kind == "children":
            body = _expression_to_dtd_syntax(model.expression)
        else:
            body = model.describe()
        lines.append(f"<!ELEMENT {name} {body}>")
    return "\n".join(lines)


def _expression_to_dtd_syntax(expression: Regex) -> str:
    from ..regex.ast import Concat as ConcatNode, Epsilon

    if isinstance(expression, Sym):
        return expression.symbol
    if isinstance(expression, Epsilon):
        return "EMPTY"
    if isinstance(expression, ConcatNode):
        return f"({_flatten(expression, ConcatNode, ', ')})"
    if isinstance(expression, Union):
        return f"({_flatten(expression, Union, ' | ')})"
    if isinstance(expression, Star):
        return f"{_wrap_for_postfix(expression.child)}*"
    if isinstance(expression, Plus):
        return f"{_wrap_for_postfix(expression.child)}+"
    if isinstance(expression, Optional):
        return f"{_wrap_for_postfix(expression.child)}?"
    raise DTDSyntaxError(f"cannot express {expression!r} in DTD syntax")


def _flatten(expression: Regex, node_type: type, separator: str) -> str:
    parts: list[str] = []
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(_expression_to_dtd_syntax(node))
    return separator.join(parts)


def _wrap_for_postfix(expression: Regex) -> str:
    rendered = _expression_to_dtd_syntax(expression)
    if rendered.startswith("("):
        return rendered
    return f"({rendered})"
