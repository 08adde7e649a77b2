"""Recursive reference implementations of the regex front end.

The library parses with one regular-expression scan and an explicit-stack
LL(1) loop, normalises in one iterative post-order pass and builds the
parse tree in one iterative pre-order pass.  This module keeps the
straightforward recursive versions those passes replaced, so property
tests can compare the two node for node:

* :func:`reference_parse` — recursive descent over ``_Token`` objects;
* :func:`reference_normalize` — the recursive (R2)/(R3) rewriting, which
  asks :meth:`Regex.nullable` again at every rewrite;
* :func:`reference_build_parse_tree` — the sentinel walk, the rewriting,
  a recursive conversion and one pass per annotation;
* :func:`tree_of` — that tree build on an AST taken as given, without
  normalising it (a native ``Plus`` node stays a ``PLUS`` tree node).

They recurse, so callers keep inputs small or raise the recursion limit.
Repetition bounds are read with ``str.isdecimal``, as in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvalidExpressionError, RegexSyntaxError
from repro.regex.alphabet import END_SENTINEL, SENTINELS, START_SENTINEL, Alphabet
from repro.regex.ast import (
    UNBOUNDED,
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
    concat,
    ensure_recursion_capacity,
)
from repro.regex.parse_tree import NodeKind, ParseTree, TreeNode

_PAPER = "paper"
_NAMED = "named"
_DIALECTS = (_PAPER, _NAMED)
_SPECIAL = set("()*?+|{},.")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789")
_NAME_CONT = _NAME_START | set(":-")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "symbol", "op", "end"
    text: str
    position: int


def reference_parse(text: str, dialect: str = _PAPER) -> Regex:
    """Recursive-descent parse of *text* (same grammar and errors as ``parse``)."""
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown parser dialect: {dialect!r} (expected one of {_DIALECTS})")
    parser = _Parser(text, dialect)
    expr = parser.parse_expression()
    parser.expect_end()
    return expr


class _Parser:
    def __init__(self, text: str, dialect: str):
        self.text = text
        self.dialect = dialect
        self.tokens = list(_tokenize(text, dialect))
        self.index = 0

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

    def parse_expression(self) -> Regex:
        """expr := seq (('+' | '|') seq)*  — folded to the right."""
        left = self.parse_sequence()
        token = self.peek()
        if token.kind == "op" and self._is_union_operator(token.text):
            self.advance()
            return Union(left, self.parse_expression())
        return left

    def _is_union_operator(self, text: str) -> bool:
        return text == "|" or (text == "+" and self.dialect == _PAPER)

    def parse_sequence(self) -> Regex:
        """seq := item+  — folded to the right."""
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
        opening = self.advance()
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
        if token.kind != "symbol" or not token.text.isdecimal():
            raise self.error("expected an integer inside '{...}'")
        self.advance()
        digits = token.text
        while self.dialect == _PAPER:
            nxt = self.peek()
            if nxt.kind == "symbol" and nxt.text.isdecimal():
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
                raise self.error(f"symbol {token.text!r} is reserved for the R1 sentinels", token)
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
        if char not in _NAME_START:
            raise RegexSyntaxError(f"unexpected character {char!r}", text=text, position=index)
        start = index
        index += 1
        while index < length and text[index] in _NAME_CONT:
            index += 1
        yield _Token("symbol", text[start:index], start)
    yield _Token("end", "<end of input>", length)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

def reference_normalize(expr: Regex, expand_numeric: bool = True) -> Regex:
    """The recursive (R2)/(R3) rewriting, with no bound on the copies."""
    ensure_recursion_capacity(expr.size())
    return _normalize(expr, expand_numeric)


def _normalize(expr: Regex, expand_numeric: bool) -> Regex:
    if isinstance(expr, (Sym, Epsilon)):
        return expr
    if isinstance(expr, Concat):
        left = _normalize(expr.left, expand_numeric)
        right = _normalize(expr.right, expand_numeric)
        if isinstance(left, Epsilon):
            return right
        if isinstance(right, Epsilon):
            return left
        return Concat(left, right)
    if isinstance(expr, Union):
        left = _normalize(expr.left, expand_numeric)
        right = _normalize(expr.right, expand_numeric)
        if isinstance(left, Epsilon) and isinstance(right, Epsilon):
            return Epsilon()
        if isinstance(left, Epsilon):
            return _make_optional(right)
        if isinstance(right, Epsilon):
            return _make_optional(left)
        return Union(left, right)
    if isinstance(expr, (Star, Plus, Optional)):
        kind = type(expr)
        child = expr.children()[0]
        while isinstance(child, (Star, Plus, Optional)):
            if isinstance(child, (Star, Optional)) and kind is Plus:
                kind = Star
            if isinstance(child, (Star, Plus)) and kind is Optional:
                kind = Star
            child = child.children()[0]
        body = _normalize(child, expand_numeric)
        if kind is Star:
            return _make_star(body)
        if kind is Plus:
            return _make_plus(body)
        return _make_optional(body)
    if isinstance(expr, Repeat):
        child = _normalize(expr.child, expand_numeric)
        if not expand_numeric:
            if isinstance(child, Epsilon):
                return Epsilon()
            return Repeat(child, expr.low, expr.high)
        return _expand_repeat(child, expr.low, expr.high)
    raise TypeError(f"unknown AST node: {expr!r}")


def _make_star(child: Regex) -> Regex:
    if isinstance(child, Epsilon):
        return Epsilon()
    if isinstance(child, (Star, Plus, Optional)):
        return _make_star(child.children()[0])
    return Star(child)


def _make_plus(child: Regex) -> Regex:
    if isinstance(child, Epsilon):
        return Epsilon()
    if isinstance(child, (Star, Optional)):
        return _make_star(child.children()[0])
    if isinstance(child, Plus):
        return _make_plus(child.child)
    if child.nullable():
        return _make_star(child)
    return Concat(child, Star(child))


def _make_optional(child: Regex) -> Regex:
    if isinstance(child, Epsilon):
        return Epsilon()
    if isinstance(child, Plus):
        return _make_star(child.child)
    if child.nullable():
        return child
    return Optional(child)


def _expand_repeat(child: Regex, low: int, high: int | None) -> Regex:
    if isinstance(child, Epsilon):
        return Epsilon()
    if high is UNBOUNDED:
        if low == 0:
            return _make_star(child)
        if low == 1:
            return _make_plus(child)
        return Concat(concat(*([child] * (low - 1))), _make_plus(child))
    if high == 0:
        return Epsilon()
    tail: Regex | None = None
    for _ in range(high - low):
        tail = _make_optional(child) if tail is None else _make_optional(Concat(child, tail))
    if not low:
        return tail if tail is not None else Epsilon()
    body = concat(*([child] * low))
    return body if tail is None else Concat(body, tail)


# ---------------------------------------------------------------------------
# The parse tree
# ---------------------------------------------------------------------------

def reference_build_parse_tree(expr: Regex | str, dialect: str = _PAPER) -> ParseTree:
    """The tree ``build_parse_tree`` makes, by the recursive passes."""
    if isinstance(expr, str):
        expr = reference_parse(expr, dialect)
    used = expr.symbols() & set(SENTINELS)
    if used:
        raise InvalidExpressionError(f"symbols {sorted(used)!r} are reserved for the R1 sentinels")
    ensure_recursion_capacity(expr.size(), multiplier=3)
    extended = any(isinstance(node, (Plus, Repeat)) for node in expr.iter_nodes())
    return tree_of(reference_normalize(expr), extended)


def tree_of(expr: Regex, extended: bool = False) -> ParseTree:
    """The annotated, R1-wrapped tree of *expr* exactly as given (no rewriting).

    *expr* holds no ``Repeat`` node and no ``Epsilon`` below its root.
    """
    start = TreeNode(NodeKind.SYMBOL, START_SENTINEL)
    end = TreeNode(NodeKind.SYMBOL, END_SENTINEL)
    if isinstance(expr, Epsilon):
        inner: TreeNode | None = None
        left_part = start
    else:
        inner = _convert(expr)
        left_part = _make_internal(NodeKind.CONCAT, start, inner)
    root = _make_internal(NodeKind.CONCAT, left_part, end)
    nodes, positions = _number(root)
    alphabet = Alphabet(p.symbol for p in positions if p.symbol not in SENTINELS).freeze()
    _annotate_nullable(nodes)
    _annotate_pointers(nodes)
    return ParseTree(root, inner, nodes, positions, alphabet, expr, extended)


def _convert(expr: Regex) -> TreeNode:
    if isinstance(expr, Sym):
        return TreeNode(NodeKind.SYMBOL, expr.symbol)
    if isinstance(expr, Concat):
        return _make_internal(NodeKind.CONCAT, _convert(expr.left), _convert(expr.right))
    if isinstance(expr, Union):
        return _make_internal(NodeKind.UNION, _convert(expr.left), _convert(expr.right))
    if isinstance(expr, Star):
        return _make_internal(NodeKind.STAR, _convert(expr.child), None)
    if isinstance(expr, Plus):
        return _make_internal(NodeKind.PLUS, _convert(expr.child), None)
    if isinstance(expr, Optional):
        return _make_internal(NodeKind.OPTIONAL, _convert(expr.child), None)
    raise InvalidExpressionError(f"{type(expr).__name__} nodes must be normalised away first")


def _make_internal(kind: NodeKind, left: TreeNode, right: TreeNode | None) -> TreeNode:
    node = TreeNode(kind)
    node.left = left
    node.right = right
    left.parent = node
    if right is not None:
        right.parent = node
    return node


def _number(root: TreeNode) -> tuple[list[TreeNode], list[TreeNode]]:
    """Pre/post numbers, depths and position indices in one traversal."""
    nodes: list[TreeNode] = []
    positions: list[TreeNode] = []
    counter = 0
    stack: list[tuple[TreeNode, bool]] = [(root, True)]
    while stack:
        node, entering = stack.pop()
        if entering:
            node.index = len(nodes)
            node.pre = counter
            counter += 1
            node.depth = 0 if node.parent is None else node.parent.depth + 1
            nodes.append(node)
            if node.is_position:
                node.position_index = len(positions)
                positions.append(node)
            stack.append((node, False))
            if node.right is not None:
                stack.append((node.right, True))
            if node.left is not None:
                stack.append((node.left, True))
        else:
            node.post = counter
            counter += 1
    return nodes, positions


def _annotate_nullable(nodes: Sequence[TreeNode]) -> None:
    for node in reversed(nodes):
        if node.kind is NodeKind.SYMBOL:
            node.nullable = False
        elif node.kind is NodeKind.CONCAT:
            node.nullable = node.left.nullable and node.right.nullable
        elif node.kind is NodeKind.UNION:
            node.nullable = node.left.nullable or node.right.nullable
        elif node.kind is NodeKind.PLUS:
            node.nullable = node.left.nullable
        else:
            node.nullable = True


def _annotate_pointers(nodes: Sequence[TreeNode]) -> None:
    """SupFirst/SupLast flags and the pSupFirst/pSupLast/pStar pointers, in pre-order."""
    for node in nodes:
        parent = node.parent
        if parent is not None and parent.kind is NodeKind.CONCAT:
            if node is parent.right:
                node.sup_first = not parent.left.nullable
            if node is parent.left:
                node.sup_last = not parent.right.nullable
        node.p_sup_first = node if node.sup_first else (parent.p_sup_first if parent else None)
        node.p_sup_last = node if node.sup_last else (parent.p_sup_last if parent else None)
        node.p_star = node if node.is_iteration else (parent.p_star if parent else None)
