"""Locks on the public API surface.

The ExecutionPlan refactor split ``repro.api`` into a facade plus
``repro.cache`` and ``repro.matching.plan``, and split the asyncio front
into ``aio`` / ``aio_frames`` / ``aio_run``.  These tests pin down the
published surface those splits must not change:

* ``repro.__all__`` is locked to the export list below;
* the signatures user code calls (``compile``, ``match``, ``Pattern``)
  are unchanged;
* names that moved resolve only at their new homes: the old import paths
  raise :class:`AttributeError` instead of warning, and the old stats
  aliases are gone from ``repro`` and ``Pattern``.
"""

from __future__ import annotations

import inspect
import warnings

import pytest

import repro
from repro import api, cache

EXPECTED_ALL = [
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

#: Private ``repro.api`` names the cache split moved into ``repro.cache``,
#: old spelling -> new spelling.
MOVED_TO_CACHE = {
    "_PatternCache": "PatternCache",
    "_CACHE": "PATTERN_CACHE",
    "_cache_stats": "compile_cache_stats",
    "_SnapshotTelemetry": "SnapshotTelemetry",
    "_SNAPSHOT_TELEMETRY": "SNAPSHOT_TELEMETRY",
    "_snapshot_meta": "snapshot_meta",
    "_snapshot_stats": "snapshot_stats",
    "_materialization": "materialization",
    "_resolve_snapshot_pattern": "resolve_snapshot_pattern",
    "_load_snapshot_url": "load_snapshot_url",
}


class TestPublicSurface:
    def test_all_is_locked(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_compile_signature(self):
        parameters = inspect.signature(repro.compile).parameters
        assert list(parameters) == ["expr", "dialect", "strategy", "compiled"]
        assert parameters["dialect"].default == "paper"
        assert parameters["strategy"].default == "auto"
        assert parameters["compiled"].default is True

    def test_pattern_constructor_signature(self):
        parameters = inspect.signature(repro.Pattern).parameters
        assert list(parameters) == ["expr", "dialect", "strategy", "compiled"]

    def test_match_signature(self):
        parameters = inspect.signature(repro.match).parameters
        assert list(parameters) == ["expr", "word", "dialect"]

    def test_match_all_signature(self):
        parameters = inspect.signature(repro.Pattern.match_all).parameters
        assert list(parameters) == ["self", "words", "detail"]
        assert parameters["detail"].default == "verdict"

    def test_pattern_keeps_its_public_members(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        for member in (
            "match",
            "match_all",
            "stream",
            "describe",
            "stats",
            "acceptance_memo",
            "is_deterministic",
            "explain",
            "matcher",
            "runtime",
            "plan",
        ):
            assert hasattr(pattern, member), member


class TestMovedNames:
    """Moved names live only at their new homes; the old paths are gone."""

    @pytest.mark.parametrize(("old_name", "target"), sorted(MOVED_TO_CACHE.items()))
    def test_api_names_resolve_only_in_cache(self, old_name, target):
        assert target in vars(cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a shim would warn before resolving
            with pytest.raises(AttributeError, match=old_name):
                getattr(api, old_name)

    def test_aio_entry_points_live_in_aio_run(self):
        from repro import service
        from repro.service import aio, aio_run

        assert service.serve is aio_run.serve
        assert {"host", "port", "workers"} <= set(inspect.signature(aio_run.serve).parameters)
        assert callable(aio_run.run_prefork_worker)
        for name in ("serve", "run_prefork_worker"):
            with pytest.raises(AttributeError, match=name):
                getattr(aio, name)

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            api.no_such_name
        from repro.service import aio

        with pytest.raises(AttributeError):
            aio.no_such_name

    def test_stats_aliases_are_removed_from_the_package(self):
        for name in ("cache_stats", "snapshot_stats"):
            assert not hasattr(repro, name), name
        namespace = repro.stats()
        assert namespace["pattern_cache"] == cache.compile_cache_stats()
        assert namespace["snapshot"].keys() == cache.snapshot_stats().keys()
