"""repro — Deterministic Regular Expressions in Linear Time.

A complete reproduction of Groz, Maneth & Staworko, *Deterministic Regular
Expressions in Linear Time* (PODS 2012): the linear-time determinism test,
constant-time follow queries, and the four matching algorithms for
deterministic expressions, together with the XML validation application
layer, the classical Glushkov/Thompson baselines and the algorithmic
substrates (LCA, lazy arrays, van Emde Boas trees, lowest colored
ancestors) everything is built on.

Quick start::

    import repro

    pattern = repro.compile("(ab+b(b?)a)*")   # the paper's e1
    assert pattern.is_deterministic
    assert pattern.match("abba")

    report = repro.check_deterministic("(a*ba+bb)*")   # the paper's e2
    assert not report.deterministic
    print(report.describe())

See ``docs/architecture.md`` for the system inventory.  The paper's
complexity claims are reproduced by the experiments in ``benchmarks/``
(E1–E9, one ``bench_*.py`` module each, whose docstring says what it
measures).
"""

from .api import (
    COMPILE_CACHE_SIZE,
    Pattern,
    check_deterministic,
    check_deterministic_numeric,
    compile,  # noqa: A004 - mirrors re.compile
    is_deterministic,
    is_deterministic_numeric,
    iter_cached_patterns,
    load_snapshot,
    match,
    purge,  # noqa: A004 - mirrors re.purge
    resize_compile_cache,
    save_snapshot,
    stats,
)
from .core.determinism import DeterminismConflict, DeterminismReport
from .core.follow import FollowIndex
from .core.numeric import NumericDeterminismReport
from .diagnostics import MatchResult, Repair, ValidationResult
from .errors import (
    AlphabetError,
    DiagnosticsError,
    DTDSyntaxError,
    InvalidExpressionError,
    InvalidWordError,
    LexError,
    NotDeterministicError,
    RegexSyntaxError,
    ReproError,
    ValidationError,
    XMLSyntaxError,
)
from .lexer import Lexer, Token
from .matching import CompiledRuntime, build_matcher
from .regex import Regex, build_parse_tree, parse, parse_word, to_text

__version__ = "1.0.0"

__all__ = [
    "AlphabetError",
    "COMPILE_CACHE_SIZE",
    "CompiledRuntime",
    "DTDSyntaxError",
    "DeterminismConflict",
    "DeterminismReport",
    "DiagnosticsError",
    "FollowIndex",
    "InvalidExpressionError",
    "InvalidWordError",
    "LexError",
    "Lexer",
    "MatchResult",
    "NotDeterministicError",
    "NumericDeterminismReport",
    "Pattern",
    "Regex",
    "Repair",
    "Token",
    "RegexSyntaxError",
    "ReproError",
    "ValidationError",
    "ValidationResult",
    "XMLSyntaxError",
    "__version__",
    "build_matcher",
    "build_parse_tree",
    "check_deterministic",
    "check_deterministic_numeric",
    "compile",
    "is_deterministic",
    "is_deterministic_numeric",
    "iter_cached_patterns",
    "load_snapshot",
    "match",
    "parse",
    "parse_word",
    "purge",
    "resize_compile_cache",
    "save_snapshot",
    "stats",
    "to_text",
]
