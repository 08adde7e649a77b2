"""Abstract syntax trees for regular expressions.

This is the user-facing representation: an immutable tree of operator
nodes over an alphabet of string symbols.  It supports the operators of
the paper (concatenation, union ``+``, optional ``?``, Kleene star ``*``)
plus two extensions needed by the XML application domain:

* ``Plus`` — one-or-more repetition, as used in DTD content models.  For
  the paper's algorithms an iterated node behaves exactly like a star
  node (Lemma 2.2 case (2) only needs "lowest iterated ancestor"); only
  nullability differs.
* ``Repeat`` — numeric occurrence indicators ``e{i..j}`` of XML Schema
  (Section 3.3 of the paper).

The AST deliberately carries no derived annotations; the algorithms of the
paper run on the pointer-based :class:`repro.regex.parse_tree.ParseTree`
obtained via :func:`repro.regex.parse_tree.build_parse_tree`.

Smart constructors (:func:`concat`, :func:`union`, ...) perform only the
cheap simplifications that keep trees well-formed (flattening of empty
sequences); the semantic rewritings required by restrictions (R2)/(R3)
live in the parse-tree normaliser so that the AST remains a faithful
record of what the user wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional as Opt

from ..errors import InvalidExpressionError

#: Value used for an unbounded upper repetition bound (``e{2,}``).
UNBOUNDED = None


class Regex:
    """Base class of all AST nodes.

    Nodes are immutable, hashable and comparable by structure.  They
    support the Python operators ``|`` (union), ``*`` is not overloaded
    (star is a method) and ``+`` builds concatenation to mirror the
    paper's notation where ``+`` denotes union -- to avoid confusion the
    operator overloads are limited to ``|`` for union and ``>>`` for
    concatenation.
    """

    __slots__ = ()

    # -- structural helpers -------------------------------------------------
    def children(self) -> tuple["Regex", ...]:
        """Return the direct sub-expressions of this node."""
        return ()

    def iter_nodes(self) -> Iterator["Regex"]:
        """Yield this node and all descendants in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def symbols(self) -> set[str]:
        """Return the set of alphabet symbols occurring in the expression."""
        return {node.symbol for node in self.iter_nodes() if isinstance(node, Sym)}

    def positions(self) -> list[str]:
        """Return the symbols of all leaf positions, in left-to-right order."""
        out: list[str] = []

        def walk(node: "Regex") -> None:
            if isinstance(node, Sym):
                out.append(node.symbol)
                return
            for child in node.children():
                walk(child)

        walk(self)
        return out

    def size(self) -> int:
        """Number of AST nodes (operators and symbols)."""
        return sum(1 for _ in self.iter_nodes())

    def occurrence_count(self) -> int:
        """Maximum number of occurrences of any single symbol (the ``k`` of k-ORE)."""
        counts: dict[str, int] = {}
        for node in self.iter_nodes():
            if isinstance(node, Sym):
                counts[node.symbol] = counts.get(node.symbol, 0) + 1
        return max(counts.values(), default=0)

    def nullable(self) -> bool:
        """True when the empty word belongs to the language of the expression."""
        raise NotImplementedError

    def is_star_free(self) -> bool:
        """True when no unbounded iteration (star/plus/{i,}) occurs."""
        for node in self.iter_nodes():
            if isinstance(node, (Star, Plus)):
                return False
            if isinstance(node, Repeat) and node.high is UNBOUNDED:
                return False
        return True

    def has_numeric_occurrences(self) -> bool:
        """True when a numeric ``Repeat`` node occurs anywhere in the tree."""
        return any(isinstance(node, Repeat) for node in self.iter_nodes())

    # -- operator sugar ------------------------------------------------------
    def __or__(self, other: "Regex") -> "Regex":
        return union(self, other)

    def __rshift__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def star(self) -> "Regex":
        """Return ``self*``."""
        return Star(self)

    def plus(self) -> "Regex":
        """Return ``self+`` (one or more)."""
        return Plus(self)

    def optional(self) -> "Regex":
        """Return ``self?``."""
        return Optional(self)

    def repeat(self, low: int, high: Opt[int] = UNBOUNDED) -> "Regex":
        """Return ``self{low,high}`` (``high=None`` means unbounded)."""
        return Repeat(self, low, high)

    def __str__(self) -> str:
        from .printer import to_text

        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Epsilon(Regex):
    """The empty word.  Mostly used for DTD ``EMPTY`` content models."""

    def nullable(self) -> bool:
        return True


@dataclass(frozen=True, slots=True, repr=False)
class Sym(Regex):
    """A single alphabet symbol (one *position* once the tree is marked)."""

    symbol: str

    def __post_init__(self) -> None:
        if not self.symbol:
            raise InvalidExpressionError("symbols must be non-empty strings")

    def nullable(self) -> bool:
        return False


@dataclass(frozen=True, slots=True, repr=False)
class Concat(Regex):
    """Concatenation of two expressions (the paper's ``.`` operator)."""

    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def nullable(self) -> bool:
        return self.left.nullable() and self.right.nullable()


@dataclass(frozen=True, slots=True, repr=False)
class Union(Regex):
    """Union of two expressions (the paper's ``+`` operator, DTD's ``|``)."""

    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def nullable(self) -> bool:
        return self.left.nullable() or self.right.nullable()


@dataclass(frozen=True, slots=True, repr=False)
class Star(Regex):
    """Kleene star: zero or more repetitions."""

    child: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.child,)

    def nullable(self) -> bool:
        return True


@dataclass(frozen=True, slots=True, repr=False)
class Plus(Regex):
    """One or more repetitions (DTD ``+``)."""

    child: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.child,)

    def nullable(self) -> bool:
        return self.child.nullable()


@dataclass(frozen=True, slots=True, repr=False)
class Optional(Regex):
    """Zero or one occurrence (``e?``)."""

    child: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.child,)

    def nullable(self) -> bool:
        return True


@dataclass(frozen=True, slots=True, repr=False)
class Repeat(Regex):
    """Numeric occurrence indicator ``e{low,high}`` (XML Schema min/maxOccurs).

    ``high is None`` encodes an unbounded upper limit.  ``e{0,0}`` denotes
    the empty word, ``e{1,1}`` is equivalent to ``e``.
    """

    child: Regex
    low: int
    high: Opt[int]

    def __post_init__(self) -> None:
        if self.low < 0:
            raise InvalidExpressionError("repetition lower bound must be >= 0")
        if self.high is not UNBOUNDED:
            if self.high < 0:
                raise InvalidExpressionError("repetition upper bound must be >= 0")
            if self.low > self.high:
                raise InvalidExpressionError(
                    f"repetition bounds out of order: {{{self.low},{self.high}}}"
                )

    def children(self) -> tuple[Regex, ...]:
        return (self.child,)

    def nullable(self) -> bool:
        return self.low == 0 or self.child.nullable()


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def sym(symbol: str) -> Sym:
    """Build a symbol node."""
    return Sym(symbol)


def syms(*symbols: str) -> list[Sym]:
    """Build several symbol nodes at once (convenience for tests/examples)."""
    return [Sym(s) for s in symbols]


def concat(*parts: Regex) -> Regex:
    """Left-to-right concatenation of *parts* (right-nested binary tree).

    With no argument this returns :class:`Epsilon`; with a single argument
    it returns the argument unchanged.
    """
    items = [p for p in parts if not isinstance(p, Epsilon)]
    if not items:
        return Epsilon()
    result = items[-1]
    for part in reversed(items[:-1]):
        result = Concat(part, result)
    return result


def union(*parts: Regex) -> Regex:
    """Union of *parts* (right-nested binary tree).

    At least one argument is required: the library has no node for the
    empty language because deterministic content models never need it.
    """
    if not parts:
        raise InvalidExpressionError("union() requires at least one operand")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Union(part, result)
    return result


def literal(word: str) -> Regex:
    """Concatenation of the characters of *word* (each character a symbol)."""
    if not word:
        return Epsilon()
    return concat(*[Sym(ch) for ch in word])


def star(expr: Regex) -> Star:
    """Return ``expr*``."""
    return Star(expr)


def plus(expr: Regex) -> Plus:
    """Return ``expr+``."""
    return Plus(expr)


def optional(expr: Regex) -> Optional:
    """Return ``expr?``."""
    return Optional(expr)


def repeat(expr: Regex, low: int, high: Opt[int] = UNBOUNDED) -> Repeat:
    """Return ``expr{low,high}``."""
    return Repeat(expr, low, high)


def ensure_recursion_capacity(size: int, multiplier: int = 2, slack: int = 200) -> None:
    """Raise the interpreter recursion limit for an expression of *size* nodes.

    The front end (parser, normaliser, parse-tree build) recurses nowhere,
    but the printer, AST equality and hashing, Thompson construction and
    word sampling still recurse over the AST, whose depth is bounded by
    its size.  The normalising pass calls this with the number of nodes it
    visited.  The limit is only ever increased.
    """
    import sys

    needed = size * multiplier + slack
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)
