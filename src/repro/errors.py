"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the main
stages of the pipeline, one subtree per stage:

Syntax errors — rejecting the *input text* before any algorithm runs:

* :class:`RegexSyntaxError` — textual expression cannot be parsed.
* :class:`XMLSyntaxError` — malformed XML document.
* :class:`DTDSyntaxError` — malformed DTD declaration or content model.

Structural errors — the input parsed but violates a requirement of the
paper's algorithms:

* :class:`InvalidExpressionError` — AST/parse-tree invariant broken
  (e.g. numeric repetition with ``low > high``).
* :class:`NotDeterministicError` — a Section 4 matcher was requested for
  an expression that is not one-unambiguous; carries the
  :class:`~repro.core.determinism.DeterminismReport` explaining the
  conflict.
* :class:`AlphabetError` — strict APIs reject symbols outside the
  expression alphabet.
* :class:`InvalidWordError` — a word to match is neither a string nor a
  sequence of symbols (``None``, a number); also a ``TypeError``.

Runtime errors — raised while consuming input with a correct machine:

* :class:`LexError` — bad lexer rule sets, or stuck input; stuck-input
  errors carry the offset, the expected next symbols and the rule tags
  still viable at that offset (the same Section 4 expected-next sets
  that power :mod:`repro.diagnostics`).
* :class:`DiagnosticsError` — the witness/diagnosis layer was asked for
  something it cannot provide (tracing an uncompiled pattern) or its
  replay disagreed with the recorded verdict (an internal invariant).
* :class:`ValidationError` — structural problems while validating XML.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class RegexSyntaxError(ReproError):
    """Raised when a textual expression cannot be parsed.

    Attributes
    ----------
    text:
        The input text being parsed.
    position:
        Offset (0-based) in ``text`` where the error was detected, or
        ``None`` when the error is not tied to a single offset.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at offset {self.position} in {self.text!r})"


class InvalidExpressionError(ReproError):
    """Raised when an AST or parse tree violates a structural requirement.

    Examples: numeric repetitions with ``low > high``, empty unions, or an
    attempt to run a paper algorithm on a tree that has not been normalised
    to satisfy restrictions (R1)-(R3).
    """


class NotDeterministicError(ReproError):
    """Raised when an operation requires a deterministic expression.

    The deterministic matchers of Section 4 are only correct on
    deterministic (one-unambiguous) expressions; constructing one of them
    from a non-deterministic expression raises this error, carrying the
    diagnostic report explaining the conflict.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LexError(ReproError):
    """Raised by :class:`repro.lexer.Lexer` for bad rule sets or stuck input.

    Bad rule sets: a nullable rule (it would match the empty word and the
    scanner could not advance) or more rules than the tag table can hold.
    Stuck input: a position where no rule matches any prefix; ``position``
    carries the character offset, ``expected`` the symbols that would have
    let the scanner advance (the Section 4 expected-next set at the stuck
    state), and ``tags`` the names of the rules those symbols belong to.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        expected: tuple[str, ...] = (),
        tags: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.position = position
        self.expected = expected
        self.tags = tags


class AlphabetError(ReproError):
    """Raised when a word contains a symbol outside the expression alphabet.

    Matchers treat unknown symbols as an immediate mismatch by default; the
    strict APIs raise this error instead so schema authors can distinguish
    "wrong order" from "unknown element".
    """


class InvalidWordError(ReproError, TypeError):
    """Raised when a word to match is neither a string nor a sequence of symbols.

    Also a ``TypeError``, so ``except TypeError`` callers keep working.
    """


class ValidationError(ReproError):
    """Raised for structural problems while validating an XML document."""


class XMLSyntaxError(ReproError):
    """Raised by the minimal XML parser on malformed input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line is None:
            return base
        return f"{base} (line {self.line}, column {self.column})"


class DTDSyntaxError(ReproError):
    """Raised when a DTD declaration or content model cannot be parsed."""


class DiagnosticsError(ReproError):
    """Raised by :mod:`repro.diagnostics` for unsatisfiable requests.

    Two cases: a :class:`~repro.diagnostics.MatchResult` built without a
    pattern is asked for its diagnosis, or a diagnostic replay produced a
    verdict that contradicts the recorded one — the latter indicates an
    internal invariant violation and should be reported as a bug.
    """
