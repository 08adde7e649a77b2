"""Unit tests for the PR-9 diagnostics layer and the redesigned result API.

Covers the :class:`~repro.diagnostics.MatchResult` /
:class:`~repro.diagnostics.ValidationResult` surfaces (bool back-compat,
lazy diagnosis, wire shapes), the witness traces recorded by
``TracedRun`` / ``TraceRecorder``, the repair ranking, the consolidated
``repro.stats()`` namespace, and the
expected-next enrichment of validator violations and ``LexError``.
"""

from __future__ import annotations

import pytest

import repro
from repro.diagnostics import (
    MatchResult,
    Repair,
    TraceRecorder,
    ValidationResult,
    complete_from_trace,
    diagnose,
)
from repro.errors import DiagnosticsError, LexError, ReproError
from repro.lexer import Lexer
from repro.matching.kernel import MIN_BATCH
from repro.service import wire
from repro.xml.dtd import describe_expected, parse_dtd
from repro.xml.parser import parse_document
from repro.xml.validator import DTDValidator
from repro.xml.xsd import XSDSchema, element_particle, sequence

EXPR = "(ab+b(b?)a)*"  # the paper's e1 (in the paper dialect, + is union)


@pytest.fixture(autouse=True)
def _fresh_cache():
    repro.purge()
    yield
    repro.purge()


class TestMatchResult:
    def test_truthiness_matches_the_verdict(self):
        pattern = repro.compile(EXPR)
        assert pattern.match("abba")
        assert not pattern.match("abb")

    def test_bool_equality_back_compat(self):
        pattern = repro.compile(EXPR)
        assert pattern.match("abba") == True  # noqa: E712 - the back-compat contract
        assert pattern.match("abb") == False  # noqa: E712
        assert hash(pattern.match("abba")) == hash(True)

    def test_match_all_default_stays_boolean(self):
        pattern = repro.compile(EXPR)
        verdicts = pattern.match_all(["abba", "bba", "bb"])
        assert verdicts == [True, True, False]
        assert all(isinstance(verdict, bool) for verdict in verdicts)

    def test_failure_diagnosis_fields(self):
        result = repro.compile(EXPR).match("abb")
        assert result.error_index == 3
        assert result.reason == "unexpected-end"
        assert result.expected == ("a", "b")
        assert not result.can_end

    def test_mismatch_reason_and_index(self):
        result = repro.compile("(ab)*c").match("acb")
        assert result.reason == "mismatch"
        assert result.error_index == 1
        assert result.expected == ("b",)

    def test_unknown_symbol_reason(self):
        result = repro.compile(EXPR).match(["a", "zz"])
        assert result.reason == "unknown-symbol"
        assert result.error_index == 1

    def test_success_witness_spells_the_word(self):
        result = repro.compile(EXPR).match("abba")
        nodes = result.positions()
        assert [node.symbol for node in nodes[1:]] == ["a", "b", "b", "a"]
        assert len(result.trace) == 5  # start sentinel + one state per symbol

    def test_repairs_are_ranked_and_bounded(self):
        result = repro.compile(EXPR).match("abb")
        actions = [repair.action for repair in result.repairs]
        assert "insert" in actions
        assert "truncate" in actions  # "ab" was an accepting prefix... no: "" is
        truncate = next(r for r in result.repairs if r.action == "truncate")
        assert truncate.index == 2  # longest accepting prefix is "ab"
        assert truncate.symbol is None

    def test_to_dict_shapes(self):
        ok = repro.compile(EXPR).match("abba").to_dict()
        assert ok == {"matched": True}
        bad = repro.compile(EXPR).match("abb").to_dict()
        assert bad["matched"] is False
        assert bad["error_index"] == 3
        assert bad["expected"] == ["a", "b"]
        assert {"reason", "can_end", "repairs"} <= set(bad)

    def test_describe_names_the_failure(self):
        text = repro.compile(EXPR).match("abb").describe()
        assert "unexpected end" in text
        assert "'a'" in text and "'b'" in text

    def test_result_without_pattern_handle_cannot_diagnose(self):
        orphan = MatchResult(False, ("a",))
        with pytest.raises(DiagnosticsError):
            orphan.diagnosis  # noqa: B018 - the property raises

    def test_diagnostics_error_is_a_repro_error(self):
        assert issubclass(DiagnosticsError, ReproError)

    def test_module_level_match_returns_a_result(self):
        result = repro.match(EXPR, "abb")
        assert isinstance(result, MatchResult)
        assert result.error_index == 3

    def test_uncompiled_pattern_diagnoses_identically(self):
        compiled = repro.compile(EXPR).match("abb")
        direct = repro.compile(EXPR, compiled=False).match("abb")
        assert compiled.expected == direct.expected
        assert compiled.error_index == direct.error_index
        assert compiled.trace == direct.trace

    def test_repair_equality_and_dict(self):
        a = Repair("insert", 2, "a", "insert 'a' at index 2")
        b = Repair("insert", 2, "a", "different prose, same repair")
        assert a == b and hash(a) == hash(b)
        assert a.to_dict() == {"action": "insert", "index": 2, "symbol": "a"}


class TestMatchAllDetail:
    def test_full_detail_agrees_with_verdicts(self):
        pattern = repro.compile(EXPR)
        words = ["abba", "bba", "bb", "", "ab" * 20] * 3  # enough for the kernel path
        assert len(words) >= MIN_BATCH
        plain = pattern.match_all(words)
        rich = pattern.match_all(words, detail="full")
        assert [bool(result) for result in rich] == plain
        assert all(isinstance(result, MatchResult) for result in rich)

    def test_full_detail_failures_carry_diagnosis(self):
        pattern = repro.compile(EXPR)
        words = ["abba"] * (MIN_BATCH - 1) + ["abb"]
        rich = pattern.match_all(words, detail="full")
        assert rich[-1].error_index == 3
        assert rich[-1].expected == ("a", "b")

    def test_unknown_detail_level_is_rejected(self):
        with pytest.raises(ValueError):
            repro.compile(EXPR).match_all(["abba"], detail="everything")

    def test_uncompiled_full_detail(self):
        pattern = repro.compile(EXPR, compiled=False)
        rich = pattern.match_all(["abba", "abb"], detail="full")
        assert [bool(result) for result in rich] == [True, False]
        assert rich[1].reason == "unexpected-end"


class TestWitnessRecording:
    def test_traced_run_records_the_state_path(self):
        runtime = repro.compile(EXPR).runtime
        run = runtime.start(trace=True)
        assert run.feed_all(["a", "b", "b", "a"])
        assert run.trace[0] == runtime._start_state
        assert len(run.trace) == 5
        assert run.is_accepting()

    def test_traced_run_stops_recording_at_death(self):
        runtime = repro.compile(EXPR).runtime
        run = runtime.start(trace=True)
        assert not run.feed_all(["a", "a"])
        assert len(run.trace) == 2  # start + the consumed 'a'

    def test_trace_recorder_matches_accepts_encoded(self):
        runtime = repro.compile(EXPR).runtime
        recorder = TraceRecorder(runtime)
        for word in (["a", "b", "b", "a"], ["a", "b", "b"], ["b", "a"]):
            codes = runtime.encode(word)
            assert recorder(codes) == runtime.accepts_encoded(codes)
            verdict, trace = recorder.traces[tuple(codes)]
            assert trace[0] == runtime._start_state

    def test_complete_from_trace_matches_fresh_diagnosis(self):
        pattern = repro.compile(EXPR)
        runtime = pattern.runtime
        recorder = TraceRecorder(runtime)
        word = ["a", "b", "b"]
        verdict = recorder(runtime.encode(word))
        _, trace = recorder.traces[tuple(runtime.encode(word))]
        finished = complete_from_trace(pattern, word, verdict, trace)
        fresh = diagnose(pattern, word)
        assert finished.matched == fresh.matched
        assert finished.error_index == fresh.error_index
        assert finished.expected == fresh.expected
        assert finished.repairs == fresh.repairs

    def test_diagnose_expect_guard(self):
        pattern = repro.compile(EXPR)
        with pytest.raises(DiagnosticsError):
            diagnose(pattern, ["a", "b", "b", "a"], expect=False)


class TestValidationResult:
    def test_truthy_is_valid(self):
        assert ValidationResult(True)
        assert not ValidationResult(False, ("boom",))

    def test_list_protocol_over_violations(self):
        result = ValidationResult(False, ("first", "second"))
        assert len(result) == 2
        assert list(result) == ["first", "second"]
        assert result[0] == "first"

    def test_bool_equality(self):
        assert ValidationResult(True) == True  # noqa: E712 - the back-compat contract
        assert ValidationResult(False, ("x",)) == False  # noqa: E712

    def test_to_dict_duck_types_violations(self):
        class Structured:
            def to_dict(self):
                return {"kind": "content"}

        result = ValidationResult(False, (Structured(), "plain"))
        assert result.to_dict() == {
            "valid": False,
            "violations": [{"kind": "content"}, "plain"],
        }


class TestValidatorDiagnostics:
    DTD = (
        "<!ELEMENT catalog (product+)>"
        "<!ELEMENT product (name, price?)>"
        "<!ELEMENT name EMPTY><!ELEMENT price EMPTY>"
    )

    def test_dtd_violation_carries_path_index_and_expected(self):
        validator = DTDValidator(parse_dtd(self.DTD))
        document = parse_document(
            "<catalog><product><name/></product>"
            "<product><price/></product></catalog>"
        )
        result = validator.validate(document)
        assert not result
        violation = result[0]
        assert violation.kind == "content"
        assert violation.path == "/catalog/product[2]"
        assert violation.child_index == 0
        assert violation.expected == ("name",)
        assert "expected <name>" in violation.message

    def test_dtd_early_end_reports_the_tail_index(self):
        validator = DTDValidator(parse_dtd(self.DTD))
        result = validator.validate(parse_document("<catalog></catalog>"))
        violation = result[0]
        assert violation.child_index == 0
        assert "ended too early" in violation.message

    def test_is_valid_polarity(self):
        validator = DTDValidator(parse_dtd(self.DTD))
        good = parse_document("<catalog><product><name/></product></catalog>")
        assert validator.is_valid(good)
        assert validator.validate(good)

    def test_xsd_children_violation_fields(self):
        schema = XSDSchema(root="order")
        schema.declare(
            "order",
            sequence(element_particle("item", 1, None), element_particle("note", 0, 1)),
        )
        result = schema.validate_children("order", ["note"])
        assert not result
        assert result[0].child_index == 0
        assert result[0].expected == ("item",)

    def test_describe_expected_rendering(self):
        assert describe_expected(("a", "b"), True) == "(<a> | <b> | #END)"
        assert describe_expected(("a",), False) == "<a>"
        assert describe_expected((), False) == "nothing"


class TestLexerDiagnostics:
    def test_stuck_error_reports_expected_tags(self):
        lexer = Lexer([("AB", "ab(ab)*"), ("C", "cc*")])
        with pytest.raises(LexError) as excinfo:
            lexer.tokenize("aba")
        error = excinfo.value
        assert error.position == 2
        assert error.expected == ("b",)
        assert error.tags == ("AB",)
        assert "expected one of ['b']" in str(error)
        assert "rules: AB" in str(error)


class TestWireShapes:
    def test_shape_match_levels(self):
        miss = repro.compile(EXPR).match("abb")
        assert wire.shape_match(miss, "verdict") is False
        assert wire.shape_match(miss, "summary") == {"matched": False, "error_index": 3}
        full = wire.shape_match(miss, "full")
        assert full["expected"] == ["a", "b"]
        assert wire.shape_match(True, "full") is True  # bare bools stay bools

    def test_shape_verdict_with_structured_violations(self):
        validator = DTDValidator(parse_dtd(TestValidatorDiagnostics.DTD))
        result = validator.validate(
            parse_document("<catalog><product><price/></product></catalog>")
        )
        shaped = wire.shape_verdict(result.valid, tuple(result), "full")
        assert shaped["valid"] is False
        assert shaped["violations"][0]["child_index"] == 0
        assert wire.shape_verdict(result.valid, tuple(result), "summary") == {
            "valid": False,
            "violations": 1,
        }


class TestStatsNamespace:
    def test_consolidated_namespaces(self):
        stats = repro.stats()
        assert set(stats) == {"pattern_cache", "snapshot", "kernel"}
        assert {"hits", "misses", "size", "max_size", "evictions"} <= set(
            stats["pattern_cache"]
        )
        assert "backend" in stats["kernel"]
        assert "materialized" in stats["snapshot"]

    def test_kernel_block_is_the_kernel_module_stats(self):
        from repro.matching import kernel

        assert not hasattr(kernel, "kernel_stats")  # the old alias is removed
        assert repro.stats()["kernel"] == kernel.stats()
