"""Route stability of the ExecutionPlan layer (``repro.matching.plan``).

Every surface obtains its engine through :data:`~repro.matching.plan.PLANNER`,
so the route a pattern class takes is a contract: ``describe()["batch_path"]``
must name the plan that actually executes, across pattern classes and
across both kernel backends (``REPRO_KERNEL=pure|native`` — the native
backend degrades to pure when the library is absent, but the *route*
never changes with the backend).

The matrix pins:

* which route each pattern class plans (star-free, counted ``Repeat``,
  XSD particles, lexer unions, uncompiled patterns, oversized machines);
* that ``describe()["batch_path"]`` reads the plan actually executed —
  verified against execution telemetry (which engines were built, where
  the batch words were booked) rather than a second copy of the
  selection logic.
"""

from __future__ import annotations

import pytest

import repro
from repro.lexer import Lexer
from repro.matching import kernel
from repro.matching.dispatch import STRATEGIES
from repro.matching.plan import PLANNER, CompiledPlan, DirectPlan
from repro.xml.xsd import element_particle, sequence

WORDS = ["ab", "aba", "abb", "ba", "", "abab", "bba", "abba", "b", "a"] * 2

ROUTE_MATRIX = [
    # (label, expression builder, compiled, expected route)
    ("star-free", lambda: "ab(a+b)", True, "star-free-multi"),
    ("starred", lambda: "(ab+b(b?)a)*", True, "compiled-kernel"),
    ("uncompiled", lambda: "ab(a+b)", False, "per-word"),
    (
        "counted-repeat-bounded",
        lambda: sequence(element_particle("b", 1, 4)).to_regex(),
        True,
        "star-free-multi",
    ),
    (
        "counted-repeat-unbounded",
        lambda: sequence(element_particle("b", 1, None)).to_regex(),
        True,
        "compiled-kernel",
    ),
]


@pytest.fixture(params=["pure", "native"])
def forced_backend(request, monkeypatch):
    """Force each kernel backend; routes must be identical under both."""
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    return request.param


class TestRouteMatrix:
    @pytest.mark.parametrize(
        ("label", "build", "compiled", "route"),
        ROUTE_MATRIX,
        ids=[row[0] for row in ROUTE_MATRIX],
    )
    def test_route_is_stable_and_reported(self, forced_backend, label, build, compiled, route):
        pattern = repro.Pattern(build(), compiled=compiled)
        assert pattern.plan.route == route
        assert pattern.describe()["batch_path"] == route
        # The route survives matching (plans are planned once, not per call).
        pattern.match_all(WORDS)
        assert pattern.describe()["batch_path"] == route

    @pytest.mark.parametrize("detail", ["verdict", "full"])
    @pytest.mark.parametrize(
        ("label", "build", "compiled", "route"),
        ROUTE_MATRIX + [("oversized", lambda: "(ab+b(b?)a)*", True, "compiled-runtime")],
        ids=[row[0] for row in ROUTE_MATRIX] + ["oversized"],
    )
    def test_batch_parses_each_distinct_word_once(
        self, forced_backend, monkeypatch, label, build, compiled, route, detail
    ):
        """The facade dedups a batch once: ``parse_word`` runs per distinct word."""
        if route == "compiled-runtime":
            monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern(build(), compiled=compiled)
        assert pattern.plan.route == route
        parsed = []
        parse_word = repro.api.parse_word
        monkeypatch.setattr(
            repro.api, "parse_word", lambda word: parsed.append(word) or parse_word(word)
        )
        batches = [pattern.match_all(WORDS, detail=detail) for _ in range(2)]  # cold, warm
        assert len(parsed) == 2 * len(set(WORDS)) == 20
        expected = [bool(pattern.match(word)) for word in WORDS]
        for results in batches:
            assert [bool(result) for result in results] == expected

    @pytest.mark.parametrize(
        ("label", "build", "compiled", "route"),
        ROUTE_MATRIX + [("oversized", lambda: "(ab+b(b?)a)*", True, "compiled-runtime")],
        ids=[row[0] for row in ROUTE_MATRIX] + ["oversized"],
    )
    def test_full_batch_diagnoses_each_distinct_word_once(
        self, forced_backend, monkeypatch, label, build, compiled, route
    ):
        """A full-detail batch builds one result per distinct word, shared by
        its repeats; a cold batch completes each replayed word's trace once."""
        if route == "compiled-runtime":
            monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern(build(), compiled=compiled)
        assert pattern.plan.route == route
        completed = []
        complete = repro.diagnostics.complete_from_trace
        monkeypatch.setattr(
            repro.diagnostics,
            "complete_from_trace",
            lambda *args: completed.append(args[1]) or complete(*args),
        )
        results = pattern.match_all(WORDS, detail="full")  # cold: replays seed the traces
        half = len(set(WORDS))
        assert all(results[i] is results[i + half] for i in range(half))
        seeded = route not in ("per-word", "compiled-runtime")
        assert len(completed) == (half if seeded else 0)
        for result, word in zip(results, WORDS):
            single = pattern.match(word)
            assert bool(result) == bool(single)
            assert result.error_index == single.error_index

    def test_lexer_union_routes_through_the_kernel_plan(self, forced_backend):
        lexer = Lexer([("AB", "ab(ab)*"), ("C", "cc*")])
        assert lexer.pattern.plan.route == "compiled-kernel"
        assert lexer._plan is lexer.pattern.plan
        assert [t.tag for t in lexer.tokens("ababcc")] == ["AB", "C"]

    def test_oversized_machine_routes_to_runtime(self, forced_backend, monkeypatch):
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern("(ab+b(b?)a)*")
        assert pattern.plan.route == "compiled-runtime"
        assert pattern.describe()["batch_path"] == "compiled-runtime"
        assert pattern.match_all(["abba", "bb"]) == [True, False]


class TestRouteMatchesExecution:
    """``batch_path`` names the plan that actually ran, not a prediction."""

    def test_star_free_route_batches_on_the_kernel(self, forced_backend, monkeypatch):
        from repro.matching.star_free import StarFreeMultiMatcher

        def refuse(*args, **kwargs):
            raise AssertionError("the serving path built the Theorem 4.12 matcher")

        monkeypatch.setattr(StarFreeMultiMatcher, "__init__", refuse)
        oracle = repro.Pattern("ab(a+b)", compiled=False)
        expected = [bool(oracle.match(word)) for word in WORDS]
        pattern = repro.Pattern("ab(a+b)")
        assert pattern.plan.route == "star-free-multi"
        for _ in range(3):  # cold, then warm: completed once, one program
            assert pattern.match_all(WORDS) == expected
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == 2 * len(WORDS)
        assert stats["kernel_fallback_words"] == len(WORDS)  # the cold batch's

    def test_kernel_route_books_batch_words_on_the_pattern(self, forced_backend):
        pattern = repro.Pattern("(ab+b(b?)a)*")
        verdicts = pattern.match_all(WORDS)
        assert len(verdicts) == len(WORDS)
        stats = pattern.stats()
        booked = stats["kernel_words"] + stats["kernel_fallback_words"]
        assert booked == len(WORDS)

    def test_runtime_route_books_nothing_on_the_kernel(self, forced_backend, monkeypatch):
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern("(ab+b(b?)a)*")
        pattern.match_all(WORDS)
        stats = pattern.stats()
        assert stats["kernel_words"] == 0
        assert stats["kernel_fallback_words"] == 0

    def test_per_word_route_never_builds_compiled_engines(self, forced_backend):
        pattern = repro.Pattern("ab(a+b)", compiled=False)
        assert pattern.match_all(["aba", "ba"]) == [True, False]
        assert pattern.plan.built_runtime() is None


class TestSharedFollowIndex:
    """One ``FollowIndex`` (pre-order depths plus RMQ) per parse tree, whatever runs."""

    @pytest.fixture
    def lca_builds(self, monkeypatch):
        from repro.core import follow
        from repro.structures.lca import LCAIndex

        built = []

        class CountingLCAIndex(LCAIndex):
            def __init__(self, root, nodes):
                built.append(root)
                super().__init__(root, nodes)

        monkeypatch.setattr(follow, "LCAIndex", CountingLCAIndex)
        return built

    @pytest.mark.parametrize(
        ("expr", "table_limit", "route"),
        [
            ("ab(a+b)", None, "star-free-multi"),
            ("(ab+b(b?)a)*", None, "compiled-kernel"),
            ("(ab+b(b?)a)*", 1, "compiled-runtime"),
        ],
    )
    def test_compile_match_and_batches_build_one_lca_index(
        self, lca_builds, monkeypatch, expr, table_limit, route
    ):
        if table_limit is not None:
            monkeypatch.setattr(kernel, "TABLE_LIMIT", table_limit)
        repro.purge()
        pattern = repro.compile(expr)
        assert pattern.plan.route == route
        pattern.match("abba")
        pattern.match_all(WORDS)
        pattern.match_all(WORDS, detail="full")
        assert lca_builds == [pattern.tree.root]

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_matcher_reuses_the_tree_index(self, lca_builds, strategy):
        pattern = repro.Pattern("(ab+b(b?)a)*", strategy=strategy, compiled=False)
        pattern.match_all(WORDS)
        assert pattern.matcher.follow is pattern.tree.follow
        assert lca_builds == [pattern.tree.root]

    def test_checkers_and_batch_matchers_reuse_the_tree_index(self, lca_builds):
        from repro.core.determinism import DeterminismChecker
        from repro.core.xpath_check import xpath_determinism_check
        from repro.matching import StarFreeMultiMatcher, SubsetKOccurrenceMatcher
        from repro.regex.parse_tree import build_parse_tree

        tree = build_parse_tree("ab(a+b)")
        assert DeterminismChecker(tree).is_deterministic()
        assert xpath_determinism_check(tree).deterministic
        assert SubsetKOccurrenceMatcher(tree).accepts("aba")
        assert StarFreeMultiMatcher(tree).match_all(["aba", "ab"]) == [True, False]
        assert lca_builds == [tree.root]


class TestPlanner:
    def test_compiled_routes_share_one_plan_class(self, monkeypatch):
        """Uncompiled patterns plan direct; every compiled route is a CompiledPlan."""
        assert type(PLANNER.plan(repro.Pattern("ab(a+b)", compiled=False))) is DirectPlan
        pattern = repro.Pattern("(ab+b(b?)a)*")
        assert type(PLANNER.plan(pattern, compiled=False)) is DirectPlan
        routes = {}
        for expr in ("ab(a+b)", "(ab+b(b?)a)*"):
            plan = PLANNER.plan(repro.Pattern(expr))
            assert type(plan) is CompiledPlan
            routes[expr] = plan.route
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        oversized = PLANNER.plan(pattern)
        assert type(oversized) is CompiledPlan
        routes["oversized"] = oversized.route
        assert routes == {
            "ab(a+b)": "star-free-multi",
            "(ab+b(b?)a)*": "compiled-kernel",
            "oversized": "compiled-runtime",
        }

    def test_plan_entry_point_can_be_rebound(self, monkeypatch):
        """A tracer times planning by rebinding ``PLANNER.plan`` on the instance."""
        seen = []
        original = PLANNER.plan

        def traced(pattern, compiled=None):
            plan = original(pattern, compiled)
            seen.append(plan.route)
            return plan

        monkeypatch.setattr(repro.api.PLANNER, "plan", traced)
        assert repro.Pattern("(ab)*").plan.route == "compiled-kernel"
        assert seen == ["compiled-kernel"]
