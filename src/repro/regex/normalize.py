"""Normalisation of ASTs to the form required by the paper.

Section 2 of the paper imposes three restrictions on expressions before
any algorithm runs:

(R1) the expression is wrapped as ``(# e') $`` with fresh sentinels;
(R2) no directly nested unbounded iterations ``((e)*)*``;
(R3) ``(e)?`` only appears when ``e`` is not nullable.

(R1) is applied when the pointer-based parse tree is built
(:mod:`repro.regex.parse_tree`); this module implements the language
preserving rewriting needed for (R2)/(R3), removes ``Epsilon`` nodes and
expands numeric occurrence indicators.  Together these guarantee that the
size of the resulting tree is linear in its number of positions, which is
what the linear-time claims of the paper are measured against.

The rewriting is purely structural and language-preserving.  Note that
expansion of numeric repetitions preserves the *language* but not the
Section 3.3 notion of determinism with counters: ``(ab){2,2}a(b+d)`` is
counter-deterministic yet its expansion has duplicated positions.  The
dedicated analysis in :mod:`repro.core.numeric` works on the unexpanded
AST for exactly this reason.

The pass is one iterative post-order walk that allocates once per output
node.  It carries each subexpression's nullability, size and position
count, so no rewriting rule re-walks a subtree, and it reuses every input
node whose children come back unchanged.  Copying rewrites (``E+ → E E*``
and the copies of a counter) are charged before they build anything: past
:data:`MAX_COPIED_POSITIONS` the expression is refused, because a short
text such as ``a{30000000}`` or eighteen nested ``+`` would otherwise
expand to millions of positions.
"""

from __future__ import annotations

from ..errors import InvalidExpressionError
from .alphabet import SENTINELS
from .ast import (
    Concat,
    ensure_recursion_capacity,
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

#: Most positions the copying rewrites (``E+ → E E*`` and counter
#: expansion) may produce in one expression; past it the expression is
#: refused with :class:`~repro.errors.InvalidExpressionError`.  A copy that
#: is itself copied counts once, at its outermost rewrite.  An expression
#: without a copying rewrite is never refused.
MAX_COPIED_POSITIONS = 1 << 14

#: What the pass knows about a finished subexpression:
#: (node, nullable, size, positions, copied positions).
_Result = tuple[Regex, bool, int, int, int]

_EMPTY: _Result = (Epsilon(), True, 0, 0, 0)
_WRAPPERS = (Star, Plus, Optional)


def normalize(expr: Regex, expand_numeric: bool = True) -> Regex:
    """Return an equivalent AST satisfying (R2) and (R3) with no Epsilon nodes.

    The result may be :class:`Epsilon` itself when ``L(expr) == {ε}``.
    When *expand_numeric* is true, numeric ``Repeat`` nodes are rewritten
    into concatenations of copies (language-preserving); otherwise they are
    normalised but kept in place.  Raises
    :class:`~repro.errors.InvalidExpressionError` when *expr* uses a
    sentinel symbol or its copying rewrites pass
    :data:`MAX_COPIED_POSITIONS`.
    """
    return _Normaliser(expand_numeric).run(expr)


def normalize_for_tree(expr: Regex) -> tuple[Regex, dict[int, tuple[bool, int]], bool]:
    """Normalise *expr* with numeric expansion for the parse-tree build.

    Returns ``(normalised, facts, extended)``: *facts* maps ``id(node)``
    of every non-symbol node of the result to ``(nullable, size)``, and
    *extended* is true when *expr* uses ``+`` or ``{i,j}``.
    """
    normaliser = _Normaliser(True)
    normalised = normaliser.run(expr)
    return normalised, normaliser.facts, normaliser.extended


class _Normaliser:
    """One post-order pass over an AST (see the module docstring)."""

    __slots__ = ("expand_numeric", "facts", "extended", "copied")

    def __init__(self, expand_numeric: bool):
        self.expand_numeric = expand_numeric
        #: id(node) -> (nullable, size) for every non-symbol node built or reused
        self.facts: dict[int, tuple[bool, int]] = {}
        #: the input uses one-or-more or a numeric repetition
        self.extended = False
        #: positions charged to copying rewrites so far
        self.copied = 0

    def run(self, expr: Regex) -> Regex:
        results: list[_Result] = []
        reserved: set[str] = set()
        visited = 0
        # Entries are input nodes to enter, or (node, kind, body) tuples to
        # finish once the results of node's children (or of body) are on
        # ``results``; kind is the wrapper class left after peeling.
        stack: list = [expr]
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                node, kind, body = item
                if kind is Concat or kind is Union:
                    right = results.pop()
                    results.append(self._pair(node, results.pop(), right))
                elif kind is Repeat:
                    results.append(self._repeat(node, results.pop()))
                elif kind is Plus:
                    results.append(self._plus(results.pop()))
                else:
                    reuse = node if type(node) is kind and node.child is body else None
                    rewrite = self._star if kind is Star else self._optional
                    results.append(rewrite(results.pop(), reuse))
                continue
            visited += 1
            kind = type(item)
            if kind is Sym:
                if item.symbol in SENTINELS:
                    reserved.add(item.symbol)
                results.append((item, False, 1, 1, 0))
            elif kind is Concat or kind is Union:
                stack.append((item, kind, None))
                stack.append(item.right)
                stack.append(item.left)
            elif kind is Epsilon:
                results.append((item, True, 0, 0, 0))
            elif kind is Repeat:
                self.extended = True
                stack.append((item, Repeat, None))
                stack.append(item.child)
            elif kind in _WRAPPERS:
                # Peel directly nested iteration/option wrappers *before*
                # normalising the body, so that e.g. (x+)* becomes x* rather
                # than (x x*)*: the one-or-more rewriting would otherwise
                # duplicate positions that an outer star/option makes redundant.
                if kind is Plus:
                    self.extended = True
                body = item.child
                while type(body) in _WRAPPERS:
                    visited += 1
                    inner = type(body)
                    if inner is Plus:
                        self.extended = True
                    elif kind is Plus:
                        kind = Star  # (x*)+ and (x?)+ denote x*
                    if kind is Optional and inner is not Optional:
                        kind = Star  # (x*)? and (x+)? denote x*
                    body = body.child
                stack.append((item, kind, body))
                stack.append(body)
            else:
                raise TypeError(f"unknown AST node: {item!r}")
        if reserved:
            raise InvalidExpressionError(
                f"symbols {sorted(reserved)!r} are reserved for the R1 sentinels"
            )
        ensure_recursion_capacity(visited, multiplier=3)
        return results[0][0]

    # -- (R2)/(R3) rewriting, on finished results ------------------------------------
    def _pair(self, node: Concat | Union, left: _Result, right: _Result) -> _Result:
        """A concatenation or union whose operands are normalised; ε operands drop."""
        left_node, left_nullable, left_size, left_positions, left_copied = left
        right_node, right_nullable, right_size, right_positions, right_copied = right
        kind = type(node)
        if not (left_size and right_size):
            other = left if left_size else right
            return other if kind is Concat else self._optional(other, None)
        if left_node is not node.left or right_node is not node.right:
            node = kind(left_node, right_node)
        if kind is Concat:
            nullable = left_nullable and right_nullable
        else:
            nullable = left_nullable or right_nullable
        size = left_size + right_size + 1
        self.facts[id(node)] = (nullable, size)
        return (node, nullable, size, left_positions + right_positions, left_copied + right_copied)

    def _star(self, body: _Result, reuse: Star | None) -> _Result:
        """``body*`` respecting (R2): (x*)* = (x?)* = x*."""
        node, _nullable, size, positions, copied = body
        if not size:
            return body
        kind = type(node)
        if kind is Star:
            return body
        if kind is Optional:
            node = node.child
            size -= 1
        star = reuse if reuse is not None and reuse.child is node else Star(node)
        self.facts[id(star)] = (True, size + 1)
        return (star, True, size + 1, positions, copied)

    def _optional(self, body: _Result, reuse: Optional | None) -> _Result:
        """``body?`` respecting (R3): a nullable body keeps no ``?``.

        Normalised bodies hold no one-or-more node, so the (x+)? = x* case
        of the rewriting cannot arise here.
        """
        node, nullable, size, positions, copied = body
        if nullable:
            return body  # covers the empty body too
        option = reuse if reuse is not None and reuse.child is node else Optional(node)
        self.facts[id(option)] = (True, size + 1)
        return (option, True, size + 1, positions, copied)

    def _plus(self, body: _Result) -> _Result:
        """``body+`` respecting (R2), desugared to ``body body*``.

        The paper's grammar has no one-or-more operator, and its Section 3
        case analysis silently relies on every iteration node being nullable
        (a star).  A non-nullable iteration node below a colored node would
        let ``FirstPos`` and ``Witness`` clash through a loop the ``pStar``
        pointer of Theorem 3.5(ii) cannot see.  Rewriting ``E+`` as ``E E*``
        therefore keeps the algorithms exactly as published.  For the
        non-nullable bodies that survive normalisation the rewriting also
        preserves determinism: a conflict in ``E E*`` involving the two copies
        of one position would need some ``q ∈ First(E)`` to follow some
        ``p ∈ Last(E)`` *inside* ``E``, which forces ``E`` to be nullable —
        see tests/unit/test_normalize.py for the executable version of this
        argument.  A nullable body (stars and options included) makes
        ``E+`` and ``E*`` the same language.
        """
        if body[1]:
            return self._star(body, None)
        total = 2 * body[3]
        self._charge(total, body[4])
        return self._join(body, self._star(body, None))[:3] + (total, total)

    def _repeat(self, node: Repeat, body: _Result) -> _Result:
        """Expand ``body{low,high}`` into stars, options and copies.

        The expansion follows the usual identities::

            x{0,0}   = ε            x{0,None} = x*
            x{1,1}   = x            x{1,None} = x+
            x{i,None}= x^(i-1) x+   x{i,j}    = x^i (x (x (... )?)?)?   (j-i optional copies)

        Every copy of the body is the same normalised AST object; positions
        are duplicated when the pointer tree is built, which is exactly what
        the language-level expansion requires.
        """
        child, nullable, size, positions, copied = body
        low, high = node.low, node.high
        if not size:
            return _EMPTY
        if not self.expand_numeric:
            if child is not node.child:
                node = Repeat(child, low, high)
            nullable = low == 0 or nullable
            self.facts[id(node)] = (nullable, size + 1)
            return (node, nullable, size + 1, positions, copied)
        if high is UNBOUNDED:
            if low < 2:
                return self._plus(body) if low else self._star(body, None)
            # x^(i-1) x+, where x+ is x x* for a non-nullable x and x* otherwise
            total = (low if nullable else low + 1) * positions
            self._charge(total, copied)
            plus = self._star(body, None)
            if not nullable:
                plus = self._join(body, plus)
            return self._join(self._chain(body, low - 1), plus)[:3] + (total, total)
        if high < 2:
            if not high:
                return _EMPTY
            return self._optional(body, None) if low == 0 else body
        total = high * positions
        self._charge(total, copied)
        result = None
        for _ in range(high - low):  # (x (x (...)?)?)? with high - low copies
            result = self._optional(body if result is None else self._join(body, result), None)
        if low:
            required = self._chain(body, low)
            result = required if result is None else self._join(required, result)
        return result[:3] + (total, total)

    # -- copies -----------------------------------------------------------------
    def _charge(self, positions: int, copied: int) -> None:
        """Book a copying rewrite whose result has *positions* positions.

        *copied* positions of the copied body were booked by rewrites inside
        it; the result holds them, so they count once.  Raises before the
        copies are built.
        """
        self.copied += positions - copied
        if self.copied > MAX_COPIED_POSITIONS:
            raise InvalidExpressionError(
                f"expanding '+' and '{{i,j}}' would copy more than "
                f"{MAX_COPIED_POSITIONS} positions"
            )

    def _chain(self, body: _Result, count: int) -> _Result:
        """``body^count`` (count >= 1) as right-nested concatenations."""
        result = body
        for _ in range(count - 1):
            result = self._join(body, result)
        return result

    def _join(self, left: _Result, right: _Result) -> _Result:
        """The concatenation ``left right`` of two normalised, non-empty results."""
        node = Concat(left[0], right[0])
        nullable = left[1] and right[1]
        size = left[2] + right[2] + 1
        self.facts[id(node)] = (nullable, size)
        return (node, nullable, size, left[3] + right[3], left[4] + right[4])
