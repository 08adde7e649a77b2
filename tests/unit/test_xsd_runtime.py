"""The XSD validator on the compiled engine: cache route, memoization, telemetry.

Companion to ``TestXSD`` in ``test_xml.py`` (which pins down particle
semantics): these tests pin down *how* validation executes — patterns come
from the module-level ``repro.compile`` cache, matchers are memoized per
declared element, child sequences replay warm lazy-DFA rows, and the
stats surfaces report real materialization.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import NotDeterministicError
from repro.xml import element
from repro.xml.xsd import XSDSchema, choice, element_particle, sequence


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    repro.purge()
    yield
    repro.purge()


def _declare(schema: XSDSchema) -> XSDSchema:
    schema.declare(
        "order",
        sequence(element_particle("item", 1, None), element_particle("note", 0, 1)),
    )
    schema.declare(
        "item",
        sequence(
            element_particle("sku"),
            element_particle("qty", 1, 3),
            choice(element_particle("description"), element_particle("summary"),
                   min_occurs=0, max_occurs=1),
        ),
    )
    return schema


def _order(qty_count: int = 2) -> "element":
    items = [
        element("item", element("sku"), *[element("qty") for _ in range(qty_count)])
    ]
    return element("order", *items, element("note"))


class TestMatcherMemoization:
    def test_pattern_for_returns_the_same_object_per_call(self):
        # Regression: _pattern_for must memoize per declared element, not
        # rebuild a Pattern (and its matcher) on every validation call.
        schema = _declare(XSDSchema())
        first = schema._pattern_for("item")
        assert first is not None
        assert schema._pattern_for("item") is first
        assert first.matcher is schema._pattern_for("item").matcher
        assert schema._pattern_for("undeclared") is None

    def test_validation_does_not_recompile(self):
        schema = _declare(XSDSchema())
        schema.validate_children("item", ["sku", "qty"])
        schema.validate_children("order", ["item"])
        compiles = repro.stats()["pattern_cache"]["misses"]
        for _ in range(5):
            schema.validate_children("item", ["sku", "qty", "qty"])
            schema.validate_children("order", ["item", "note"])
        assert repro.stats()["pattern_cache"]["misses"] == compiles

    def test_redeclaration_invalidates_the_memo(self):
        schema = _declare(XSDSchema())
        old = schema._pattern_for("item")
        assert schema.validate_children("item", ["sku", "qty"])
        schema.declare("item", sequence(element_particle("sku")))
        assert schema._pattern_for("item") is not old
        assert schema.validate_children("item", ["sku"])
        assert not schema.validate_children("item", ["sku", "qty"])


class TestCompileCacheRoute:
    def test_equal_particles_share_one_pattern_across_schemas(self):
        first = _declare(XSDSchema())
        second = _declare(XSDSchema())
        assert first._pattern_for("item") is second._pattern_for("item")
        assert repro.stats()["pattern_cache"]["hits"] >= 1

    def test_schema_and_runtime_rows_warm_across_documents(self):
        schema = _declare(XSDSchema())
        assert schema.validate_element(_order())
        warm = schema.stats()["totals"]["misses"]
        assert warm > 0
        assert schema.validate_element(_order())
        assert schema.validate_element(_order(qty_count=3))
        # qty{1,3} with 3 qty children exercised a transition the first
        # document never took, so misses may grow; replaying may not.
        replay = schema.stats()["totals"]["misses"]
        assert schema.validate_element(_order(qty_count=3))
        assert schema.stats()["totals"]["misses"] == replay

    def test_flipping_the_compiled_flag_mid_use_stays_correct(self):
        # Engines memoized under the old flag value must keep working:
        # dispatch follows what was cached, not the current flag.
        schema = _declare(XSDSchema(compiled=False))
        assert schema.validate_children("item", ["sku", "qty"])
        schema.compiled = True
        assert schema.validate_children("item", ["sku", "qty"])  # old direct engine
        assert not schema.validate_children("order", ["note"])  # new runtime engine
        schema.compiled = False
        assert schema.validate_children("order", ["item", "note"])

    def test_compiled_and_direct_schemas_agree(self):
        compiled = _declare(XSDSchema())
        direct = _declare(XSDSchema(compiled=False))
        cases = [
            ("item", ["sku", "qty"]),
            ("item", ["sku", "qty", "qty", "qty"]),
            ("item", ["sku", "qty", "qty", "qty", "qty"]),  # qty maxOccurs=3
            ("item", ["sku"]),  # qty minOccurs=1 violated
            ("item", ["sku", "qty", "summary"]),
            ("item", ["sku", "qty", "summary", "description"]),  # choice is 0..1
            ("order", ["item", "item", "note"]),
            ("order", ["note"]),
            ("order", []),
            ("undeclared", ["anything", "at", "all"]),
        ]
        for name, children in cases:
            assert compiled.validate_children(name, children) == direct.validate_children(
                name, children
            ), (name, children)
        # spot-check a few absolute verdicts so the equivalence is not vacuous
        assert compiled.validate_children("item", ["sku", "qty"])
        assert not compiled.validate_children("item", ["sku", "qty", "qty", "qty", "qty"])
        assert compiled.validate_children("undeclared", ["anything", "at", "all"])

    def test_upa_reports_come_from_cached_patterns(self):
        schema = _declare(XSDSchema())
        reports = schema.check_unique_particle_attribution()
        assert set(reports) == {"order", "item"}
        assert all(report.deterministic for report in reports.values())
        assert schema.is_valid_schema()
        # the UPA pass compiled both patterns; validation reuses them
        compiles = repro.stats()["pattern_cache"]["misses"]
        assert schema.validate_children("item", ["sku", "qty"])
        assert repro.stats()["pattern_cache"]["misses"] == compiles

    def test_upa_violation_reported_and_matching_refused(self):
        schema = XSDSchema()
        schema.declare(
            "bad",
            sequence(element_particle("a", 1, 2), element_particle("a", 1, 1)),
        )
        assert not schema.is_valid_schema()
        report = schema.check_unique_particle_attribution()["bad"]
        assert report.describe()
        with pytest.raises(NotDeterministicError):
            schema.validate_children("bad", ["a", "a"])


class TestSchemaTelemetry:
    def test_stats_empty_before_validation(self):
        schema = _declare(XSDSchema())
        assert schema.stats() == {"elements": {}, "totals": {}, "memos": {}}

    def test_stats_report_materialization_per_element(self):
        schema = _declare(XSDSchema())
        schema.validate_element(_order())
        stats = schema.stats()
        assert set(stats["elements"]) == {"order", "item"}
        for element_stats in stats["elements"].values():
            assert element_stats["transitions_memoized"] == element_stats["misses"] > 0
        totals = stats["totals"]
        assert totals["misses"] == sum(
            s["misses"] for s in stats["elements"].values()
        )
        assert set(totals) == set(next(iter(stats["elements"].values())))

    def test_totals_count_shared_runtimes_once(self):
        # Two names with structurally equal particles share one cached
        # Pattern (and runtime); totals must not double-count it.
        schema = XSDSchema()
        particle = sequence(element_particle("x", 1, None))
        schema.declare("a", particle)
        schema.declare("b", particle)
        assert schema.validate_children("a", ["x"])
        assert schema.validate_children("b", ["x", "x"])
        stats = schema.stats()
        assert set(stats["elements"]) == {"a", "b"}
        assert stats["elements"]["a"] == stats["elements"]["b"]  # same runtime
        assert stats["totals"]["misses"] == stats["elements"]["a"]["misses"]

    def test_direct_schema_reports_no_runtime_stats(self):
        schema = _declare(XSDSchema(compiled=False))
        schema.validate_element(_order())
        assert schema.stats()["elements"] == {}
