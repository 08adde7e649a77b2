"""Content models as plain tuples, rendered as program input and as a reference.

A model is one of::

    ("sym", name)
    ("seq", (model, ...))        concatenation
    ("alt", (model, ...))        union
    ("star", model) | ("plus", model) | ("opt", model)
    ("rep", model, low, high)    numeric bounds; high None means unbounded

Sequences and unions are n-ary, so a 2000-symbol flat model nests two
levels deep and every walk here stays far from the interpreter's
recursion limit.

The benchmark gives the program only text (:func:`to_text` for the named
dialect, :func:`to_dtd` for DTD declarations).  Expected verdicts come
from :class:`Reference`, which translates the same tuple into a Python
``re`` pattern over one private-use codepoint per symbol.  Nothing here
calls the library's parser, matchers or determinism test.
"""

from __future__ import annotations

import re

#: First codepoint of the symbol map (Unicode private-use area).
_CODE_BASE = 0xE000
#: Stands for every symbol outside a model's alphabet.
_UNKNOWN = chr(0xD7FF)


def symbols(model) -> list[str]:
    """The model's symbol names in first-occurrence order."""
    seen: dict[str, None] = {}
    stack = [model]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "sym":
            seen.setdefault(node[1], None)
        elif kind in ("seq", "alt"):
            stack.extend(reversed(node[1]))
        else:
            stack.append(node[1])
    return list(seen)


def size(model) -> int:
    """Number of symbol occurrences (|e| counted in positions)."""
    count = 0
    stack = [model]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "sym":
            count += 1
        elif kind in ("seq", "alt"):
            stack.extend(node[1])
        else:
            stack.append(node[1])
    return count


def from_ast(expr) -> tuple:
    """Convert a ``repro.regex.ast`` tree into the tuple form.

    Reads only the node classes' public fields; nested binary ``Concat``
    and ``Union`` chains are flattened into n-ary nodes.
    """
    kind = type(expr).__name__
    if kind == "Sym":
        return ("sym", expr.symbol)
    if kind in ("Concat", "Union"):
        parts = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if type(node).__name__ == kind:
                stack.append(node.right)
                stack.append(node.left)
            else:
                parts.append(from_ast(node))
        return ("seq" if kind == "Concat" else "alt", tuple(parts))
    if kind == "Star":
        return ("star", from_ast(expr.child))
    if kind == "Plus":
        return ("plus", from_ast(expr.child))
    if kind == "Optional":
        return ("opt", from_ast(expr.child))
    if kind == "Repeat":
        return ("rep", from_ast(expr.child), expr.low, expr.high)
    raise ValueError(f"no tuple form for {kind}")


_POSTFIX = {"star": "*", "plus": "+", "opt": "?"}


def _bounds(low: int, high: int | None) -> str:
    return f"{{{low},}}" if high is None else f"{{{low},{high}}}"


def to_text(model) -> str:
    """Render in the library's named dialect (``a (b | c)+ d{2,4}``)."""
    kind = model[0]
    if kind == "sym":
        return model[1]
    if kind == "seq":
        return " ".join(_text_item(part) for part in model[1])
    if kind == "alt":
        return " | ".join(_text_item(part) for part in model[1])
    suffix = _bounds(model[2], model[3]) if kind == "rep" else _POSTFIX[kind]
    return _text_atom(model[1]) + suffix


def _text_atom(model) -> str:
    return model[1] if model[0] == "sym" else f"({to_text(model)})"


def _text_item(model) -> str:
    return _text_atom(model) if model[0] in ("seq", "alt") else to_text(model)


def to_dtd(model) -> str:
    """Render as a DTD content model: ``(name, price, (a | b)?, tag*)``."""
    kind = model[0]
    if kind == "sym":
        return f"({model[1]})"
    if kind == "seq":
        return "(" + ", ".join(_dtd_item(part) for part in model[1]) + ")"
    if kind == "alt":
        return "(" + " | ".join(_dtd_item(part) for part in model[1]) + ")"
    if kind == "rep":
        raise ValueError("DTD content models have no numeric bounds")
    return _dtd_item(model[1]) + _POSTFIX[kind]


def _dtd_item(model) -> str:
    if model[0] == "sym":
        return model[1]
    if model[0] in ("seq", "alt"):
        return to_dtd(model)
    return f"({to_dtd(model)})" if model[0] == "rep" else to_dtd(model)


def nullable(model) -> bool:
    """Whether the empty word belongs to the model's language."""
    kind = model[0]
    if kind == "sym":
        return False
    if kind == "seq":
        return all(nullable(part) for part in model[1])
    if kind == "alt":
        return any(nullable(part) for part in model[1])
    if kind in ("star", "opt"):
        return True
    if kind == "plus":
        return nullable(model[1])
    return model[2] == 0 or nullable(model[1])


def core(model):
    """A model ``F°`` with ``(F°)* == F*`` that cannot match the empty word.

    Brüggemann-Klein's star normal form step: ``(F?)°``, ``(F*)°`` and
    ``(F+)°`` are ``F°``; a union maps its branches; a sequence whose
    parts are all nullable becomes the union of their cores (``(F G)*``
    equals ``(F | G)*`` then); anything else that cannot match empty
    stays as it is.
    """
    kind = model[0]
    if kind in ("opt", "star", "plus"):
        return core(model[1])
    if kind == "alt" or (kind == "seq" and nullable(model)):
        return ("alt", tuple(core(part) for part in model[1]))
    if kind == "rep" and nullable(model):
        return core(model[1])
    return model


def nonempty(model):
    """A model for the language of *model* minus the empty word."""
    kind = model[0]
    if not nullable(model):
        return model
    if kind == "alt":
        return ("alt", tuple(nonempty(part) for part in model[1]))
    if kind == "seq":
        parts = model[1]
        return (
            "alt",
            tuple(("seq", (nonempty(part),) + parts[i + 1 :]) for i, part in enumerate(parts)),
        )
    if kind == "opt":
        return nonempty(model[1])
    if kind in ("star", "plus"):
        return ("plus", core(model[1]))
    if nullable(model[1]):
        raise ValueError("no reference for numeric bounds over a nullable body")
    return ("rep", model[1], 1, model[3])


def to_regex(model, codes: dict[str, str]) -> str:
    """An ``re`` pattern for *model* over the one-codepoint symbol map *codes*.

    The pattern is built so that matching never needs to backtrack into a
    finished group: every union branch and every iterated body consumes
    at least one symbol (nullable parts become greedy ``?``/``*`` over
    :func:`nonempty` or :func:`core` forms), and all quantifiers are
    possessive.  For a deterministic (one-unambiguous) model at most one
    position can read each symbol, so the greedy choice is the only one
    that can succeed; taking backtracking away keeps nested stars from
    backtracking exponentially on rejected words.
    """
    kind = model[0]
    if kind == "sym":
        return re.escape(codes[model[1]])
    if kind == "seq":
        return "".join(f"(?:{to_regex(part, codes)})" for part in model[1])
    if kind == "alt":
        if nullable(model):
            return f"(?:{to_regex(nonempty(model), codes)})?+"
        return "(?:" + "|".join(to_regex(part, codes) for part in model[1]) + ")"
    if kind == "star" or (kind == "plus" and nullable(model[1])):
        return f"(?:{to_regex(core(model[1]), codes)})*+"
    if kind == "opt":
        return f"(?:{to_regex(nonempty(model[1]), codes)})?+"
    if kind == "rep" and nullable(model[1]):
        raise ValueError("no reference for numeric bounds over a nullable body")
    inner = f"(?:{to_regex(model[1], codes)})"
    if kind == "rep":
        high = "" if model[3] is None else model[3]
        return f"{inner}{{{model[2]},{high}}}+"
    return inner + "++"


class Reference:
    """Expected membership verdicts for one model, via Python's ``re``."""

    __slots__ = ("codes", "pattern")

    def __init__(self, model):
        names = symbols(model)
        self.codes = {name: chr(_CODE_BASE + index) for index, name in enumerate(names)}
        self.pattern = re.compile(to_regex(model, self.codes))

    def encode(self, word) -> str:
        codes = self.codes
        return "".join(codes.get(symbol, _UNKNOWN) for symbol in word)

    def accepts(self, word) -> bool:
        return self.pattern.fullmatch(self.encode(word)) is not None


def sample(model, rng, star_continue: float = 0.6, max_repeats: int = 8) -> list[str]:
    """One random member word of *model*."""
    out: list[str] = []
    _sample_into(model, rng, out, star_continue, max_repeats)
    return out


def _sample_into(model, rng, out: list, star_continue: float, max_repeats: int) -> None:
    kind = model[0]
    if kind == "sym":
        out.append(model[1])
    elif kind == "seq":
        for part in model[1]:
            _sample_into(part, rng, out, star_continue, max_repeats)
    elif kind == "alt":
        _sample_into(rng.choice(model[1]), rng, out, star_continue, max_repeats)
    elif kind == "opt":
        if rng.random() < 0.5:
            _sample_into(model[1], rng, out, star_continue, max_repeats)
    else:
        if kind == "rep":
            high = model[2] + 3 if model[3] is None else model[3]
            count = rng.randint(model[2], high)
        else:
            count = 1 if kind == "plus" else 0
            while count < max_repeats and rng.random() < star_continue:
                count += 1
        for _ in range(count):
            _sample_into(model[1], rng, out, star_continue, max_repeats)


def mutate(word, alphabet, rng) -> list[str]:
    """One random edit: substitute, delete, insert or swap (may stay a member)."""
    word = list(word)
    operation = rng.choice(("substitute", "delete", "insert", "swap") if word else ("insert",))
    if operation == "substitute":
        word[rng.randrange(len(word))] = rng.choice(alphabet)
    elif operation == "delete":
        del word[rng.randrange(len(word))]
    elif operation == "insert":
        word.insert(rng.randrange(len(word) + 1), rng.choice(alphabet))
    elif len(word) >= 2:
        index = rng.randrange(len(word) - 1)
        word[index], word[index + 1] = word[index + 1], word[index]
    return word
