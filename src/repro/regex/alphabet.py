"""Symbols, sentinels and alphabets.

The paper works over a finite alphabet Sigma and requires (restriction R1)
that every expression is implicitly wrapped as ``(# e) $`` where ``#`` and
``$`` are fresh sentinel symbols that do not occur in ``e``.  This module
centralises the representation of symbols and of the two sentinels so the
rest of the library never has to guess whether a string is a user symbol
or a sentinel.

Symbols are plain strings (XML element names, attribute names, or single
characters); the sentinels are module-level constants chosen outside the
printable range so they cannot collide with user symbols parsed from text.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Sentinel marking the virtual start position (the ``#`` of the paper).
START_SENTINEL = "#"

#: Sentinel marking the virtual end position (the ``$`` of the paper).
END_SENTINEL = "$"

#: Both sentinels, in the order (start, end).
SENTINELS = (START_SENTINEL, END_SENTINEL)

#: Code returned by :meth:`Alphabet.encode` for symbols outside the alphabet.
#: Negative on purpose: valid codes are dense non-negative integers, so the
#: compiled runtime can reject unknown symbols with a single ``< 0`` test.
UNKNOWN_CODE = -1


def is_sentinel(symbol: str) -> bool:
    """Return True when *symbol* is one of the two R1 sentinels."""
    return symbol == START_SENTINEL or symbol == END_SENTINEL


def pretty_symbol(symbol: str) -> str:
    """Human readable rendering of a symbol (sentinels become # / $)."""
    if symbol == START_SENTINEL:
        return "#"
    if symbol == END_SENTINEL:
        return "$"
    return symbol


class Alphabet:
    """An ordered set of symbols with dense integer codes.

    Several algorithms (the Glushkov baseline, the lowest colored ancestor
    structure, the kernel tables) want symbols as small integers.  ``Alphabet``
    assigns codes in first-seen order and supports lookups in both
    directions.

    The class is intentionally tiny; it behaves like a frozen mapping once
    built but also supports incremental construction via :meth:`add` until
    :meth:`freeze` is called.  Freezing pins the *width* of the alphabet:
    the compiled runtime's dense transition rows are arrays of exactly
    ``len(alphabet)`` entries indexed by code, so a code minted after a
    row was densified would silently read past it.  The parse tree
    freezes its alphabet as soon as construction finishes.
    """

    __slots__ = ("_codes", "_symbols", "_frozen")

    def __init__(self, symbols: Iterable[str] = ()):  # noqa: D401 - simple init
        self._codes: dict[str, int] = {}
        self._symbols: list[str] = []
        self._frozen = False
        for symbol in symbols:
            self.add(symbol)

    def add(self, symbol: str) -> int:
        """Insert *symbol* (idempotent) and return its code.

        Raises ``TypeError`` (mirroring frozen built-ins) when the alphabet
        has been frozen and *symbol* is new; re-adding a known symbol stays
        legal because it cannot change the width.
        """
        code = self._codes.get(symbol)
        if code is None:
            if self._frozen:
                raise TypeError(
                    f"cannot add {symbol!r}: alphabet is frozen "
                    "(dense transition rows rely on a stable width)"
                )
            code = len(self._symbols)
            self._codes[symbol] = code
            self._symbols.append(symbol)
        return code

    def freeze(self) -> "Alphabet":
        """Forbid further growth (idempotent); returns self for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has pinned the alphabet's width."""
        return self._frozen

    def code(self, symbol: str) -> int:
        """Return the code of *symbol*, raising ``KeyError`` if absent."""
        return self._codes[symbol]

    def get(self, symbol: str, default: int | None = None) -> int | None:
        """Return the code of *symbol* or *default* when absent."""
        return self._codes.get(symbol, default)

    def symbol(self, code: int) -> str:
        """Return the symbol with integer *code*."""
        return self._symbols[code]

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._codes

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Alphabet({self._symbols!r})"

    def as_list(self) -> list[str]:
        """Return the symbols as a list, in code order."""
        return list(self._symbols)

    @property
    def codes(self) -> dict[str, int]:
        """The symbol → code mapping itself (treat as read-only).

        Exposed so hot loops (the compiled runtime's encoder) can hoist one
        bound ``dict.get`` instead of paying a method call per symbol.
        """
        return self._codes

    def encode(self, word: Iterable[str]) -> list[int]:
        """Intern *word* into a list of dense integer codes, one pass.

        Symbols outside the alphabet map to :data:`UNKNOWN_CODE`; since no
        position is labelled with them, any matcher rejects the word at that
        symbol, and the compiled runtime does so with a single sign test.

        Thread safety: once the alphabet is frozen the mapping never
        mutates again, so encoding is lock-free from any number of threads
        (``repro.service`` pre-encodes whole corpora on worker threads).
        Incremental construction via :meth:`add` is *not* synchronized —
        build and :meth:`freeze` on one thread before sharing, which is
        exactly what the parse-tree builder does.
        """
        get = self._codes.get
        return [get(symbol, UNKNOWN_CODE) for symbol in word]

    def encode_many(self, words: Iterable[Iterable[str]]) -> list[list[int]]:
        """Encode a whole corpus in one pass (the batch APIs' front door).

        One bound ``dict.get`` is hoisted across every word, so batch
        callers (the star-free route, which passes a batch's distinct
        words) pay the method-dispatch cost once per corpus, not per word.
        """
        get = self._codes.get
        return [[get(symbol, UNKNOWN_CODE) for symbol in word] for word in words]

    def decode(self, codes: Sequence[int]) -> list[str]:
        """Inverse of :meth:`encode` for in-alphabet codes (tests, debugging).

        Raises ``LookupError`` on :data:`UNKNOWN_CODE` (or any other
        negative code) rather than letting Python's negative indexing
        silently alias it to the last alphabet symbol.
        """
        symbols = self._symbols
        decoded: list[str] = []
        for code in codes:
            if code < 0:
                raise LookupError(
                    f"code {code} does not denote an alphabet symbol "
                    "(out-of-alphabet symbols encode to UNKNOWN_CODE)"
                )
            decoded.append(symbols[code])
        return decoded
