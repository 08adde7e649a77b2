"""Unit tests for colors, witnesses, a-skeleta and BuildNext (Section 3.1)."""

import sys
import threading
import time

from repro.core.determinism import check_deterministic
from repro.core.follow import FollowIndex
from repro.core.skeleton import SkeletonIndex
from repro.matching.lca_matcher import LowestColoredAncestorMatcher
from repro.regex.ast import concat, sym
from repro.regex.generators import mixed_content
from repro.regex.language import LanguageOracle
from repro.regex.parse_tree import NodeKind, build_parse_tree


#: 210 names; in each ``((x a) y?) a`` block the second ``a`` colors the
#: block's root, an ancestor of the node the first ``a`` colors, so colored
#: nodes do not come out in pre-order when read off the positions.
LARGE_MODEL = " ".join(f"((x{i} a{i}) y{i}?) a{i}" for i in range(70))


def build(text):
    tree = build_parse_tree(text)
    return tree, SkeletonIndex(tree)


class TestColorsAndWitnesses:
    def test_every_non_start_position_is_a_witness_somewhere(self, rng):
        from repro.regex.generators import random_deterministic_expression

        for _ in range(20):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(1, 8)))
            skeletons = SkeletonIndex(tree)
            witnessed = {
                witness.position_index
                for by_symbol in skeletons.colors.values()
                for witness in by_symbol.values()
            }
            expected = {
                p.position_index for p in tree.positions if p.p_sup_first is not None
            }
            assert witnessed == expected

    def test_figure1_colors_of_n3(self):
        """Figure 1: node n3 (the concatenation (ab*)(a?c)) has colors a and c,
        with witnesses p4 (the second a) and p5 (the second c)."""
        tree, skeletons = build("(c?((ab*)(a?c)))*(ba)")
        # n3 is the concat node whose right child is (a?c).
        n3 = None
        for node in tree.nodes:
            if node.kind is NodeKind.CONCAT and node.right is not None:
                right_positions = [p.symbol for p in tree.subexpression_positions(node.right)]
                left_positions = [p.symbol for p in tree.subexpression_positions(node.left)]
                if right_positions == ["a", "c"] and left_positions == ["a", "b"]:
                    n3 = node
                    break
        assert n3 is not None
        colors = skeletons.colors[n3.index]
        assert set(colors) == {"a", "c"}
        assert colors["a"].position_index == 4
        assert colors["c"].position_index == 5

    def test_p1_violation_detected(self):
        tree, skeletons = build("(a+a)b")
        assert skeletons.diagnostics.p1_violations
        violation = skeletons.diagnostics.p1_violations[0]
        assert violation.symbol == "a"
        assert violation.first is not violation.second

    def test_no_p1_violation_for_deterministic_expression(self):
        _, skeletons = build("(ab+b(b?)a)*")
        assert not skeletons.diagnostics.p1_violations

    def test_colored_nodes_are_sorted_in_preorder(self):
        for text, dialect in (("(ab)(ac)", "paper"), (LARGE_MODEL, "named")):
            tree = build_parse_tree(text, dialect=dialect)
            skeletons = SkeletonIndex(tree)
            for symbol in tree.alphabet:
                nodes = skeletons.colored_nodes(symbol)
                assert [n.pre for n in nodes] == sorted(n.pre for n in nodes)
                brute_force = sorted(
                    (
                        tree.nodes[index]
                        for index, by_symbol in skeletons.colors.items()
                        if symbol in by_symbol
                    ),
                    key=lambda node: node.pre,
                )
                assert nodes == brute_force


class TestSkeletonStructure:
    def test_skeleton_contains_all_symbol_positions(self):
        tree, skeletons = build("(c?((ab*)(a?c)))*(ba)")
        a_skeleton = skeletons.skeleton_for("a")
        assert {p.position_index for p in a_skeleton.positions()} == {2, 4, 7}

    def test_skeleton_nodes_are_connected_and_rooted(self):
        tree, skeletons = build("(c?((ab*)(a?c)))*(ba)")
        for skeleton in skeletons.skeletons.values():
            roots = [node for node in skeleton.nodes if node.parent is None]
            assert roots == [skeleton.root]
            for node in skeleton.nodes:
                if node.parent is not None:
                    assert node.parent.enode.is_strict_ancestor_of(node.enode)
                    assert node in (node.parent.left, node.parent.right)

    def test_skeleton_children_sides_match_parse_tree(self):
        tree, skeletons = build("(ab)(ca)")
        for skeleton in skeletons.skeletons.values():
            for node in skeleton.nodes:
                if node.left is not None:
                    assert node.enode.left.is_ancestor_of(node.left.enode)
                if node.right is not None:
                    assert node.enode.right is not None
                    assert node.enode.right.is_ancestor_of(node.right.enode)

    def test_total_skeleton_size_is_linear(self, rng):
        from repro.regex.generators import random_deterministic_expression

        for _ in range(15):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(2, 12)))
            skeletons = SkeletonIndex(tree)
            # Lemma 3.1: the collection of skeleta has size O(|e|); the constant
            # here is generous but finite.
            assert skeletons.total_skeleton_size() <= 6 * tree.size

    def test_missing_symbol_has_no_skeleton(self):
        _, skeletons = build("ab")
        assert skeletons.skeleton_for("z") is None


class TestFirstPosAndNext:
    def test_first_pos_matches_oracle_first_sets(self, rng):
        from repro.regex.generators import random_deterministic_expression

        for _ in range(25):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(1, 9)))
            skeletons = SkeletonIndex(tree)
            oracle = LanguageOracle(tree)
            for symbol, skeleton in skeletons.skeletons.items():
                for node in skeleton.nodes:
                    expected = [
                        q for q in oracle.first(node.enode)
                        if tree.positions[q].symbol == symbol
                    ]
                    if node.first_pos is None:
                        assert expected == []
                    else:
                        assert [node.first_pos.position_index] == expected

    def test_example_4_1_candidates(self):
        """Example 4.1: at node n3 of e0, Witness(n3,c)=p5, Next(n3,c)=p1 and
        FirstPos(n3,c) is undefined."""
        tree, skeletons = build("(c?((ab*)(a?c)))*(ba)")
        colored = [
            node for node in skeletons.colored_nodes("c")
            if skeletons.witness(node, "c") is not None
            and skeletons.witness(node, "c").position_index == 5
        ]
        assert len(colored) == 1
        n3 = colored[0]
        assert skeletons.witness(n3, "c").position_index == 5
        assert skeletons.next_position(n3, "c").position_index == 1
        assert skeletons.first_pos(n3, "c") is None

    def test_next_positions_are_outside_the_subtree(self, rng):
        from repro.regex.generators import random_deterministic_expression

        for _ in range(20):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(1, 9)))
            skeletons = SkeletonIndex(tree)
            for skeleton in skeletons.skeletons.values():
                for node in skeleton.nodes:
                    for position in node.next_positions:
                        assert not node.enode.is_ancestor_of(position)

    def test_next_agrees_with_follow_after_semantics(self, rng):
        """Next(n,a) holds a-labelled positions that follow some last position of n
        from outside n's subtree (the FollowAfter set of the paper)."""
        from repro.regex.generators import random_deterministic_expression

        follow_cache = {}
        for _ in range(20):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(1, 8)))
            skeletons = SkeletonIndex(tree)
            oracle = LanguageOracle(tree)
            index = FollowIndex(tree)
            for symbol, skeleton in skeletons.skeletons.items():
                for node in skeleton.nodes:
                    for target in node.next_positions:
                        assert target.symbol == symbol
                        lasts = [tree.positions[i] for i in oracle.last(node.enode)]
                        assert any(index.follows(p, target) for p in lasts)
        del follow_cache

    def test_diagnostics_flag_paper_e2(self):
        # The paper's non-deterministic example is already caught while the
        # skeleta are being built (its two b's share their pSupFirst node).
        _, skeletons = build("(a*ba+bb)*")
        assert not skeletons.diagnostics.clean
        assert skeletons.diagnostics.p1_violations

    def test_diagnostics_clean_for_deterministic_expressions(self, rng):
        from repro.regex.generators import random_deterministic_expression

        for _ in range(30):
            tree = build_parse_tree(random_deterministic_expression(rng, rng.randint(1, 8)))
            assert SkeletonIndex(tree).diagnostics.clean


class TestOnDemandSkeleta:
    """Only symbols with two or more positions get their skeleton eagerly."""

    def test_single_occurrence_models_build_no_skeleton_and_no_lca_index(self):
        flat = concat(*[sym(f"a{index}") for index in range(1, 2001)])
        for expr in (flat, mixed_content(2000)):
            tree = build_parse_tree(expr)
            assert SkeletonIndex(tree)._skeletons == {}
            assert check_deterministic(tree).deterministic
            assert tree._follow is None

    def test_large_model_builds_exactly_its_repeated_skeleta(self):
        tree = build_parse_tree(LARGE_MODEL, dialect="named")
        skeletons = SkeletonIndex(tree)
        assert set(skeletons._skeletons) == {f"a{index}" for index in range(70)}
        assert check_deterministic(tree).deterministic

    def test_forcing_every_skeleton_matches_the_eager_ones(self):
        tree = build_parse_tree(LARGE_MODEL, dialect="named")
        skeletons = SkeletonIndex(tree)
        forced = skeletons.skeletons
        assert set(forced) == set(tree.alphabet) | {tree.end.symbol}
        assert skeletons.skeleton_for("x0") is forced["x0"]
        assert skeletons.skeleton_for("missing") is None

    def test_threads_force_a_pending_skeleton_once(self, monkeypatch):
        builds = []
        build_symbol = SkeletonIndex._build_symbol

        def slow_build(self, symbol):
            builds.append(symbol)
            time.sleep(0.01)  # widen the window in which a second build could start
            build_symbol(self, symbol)

        monkeypatch.setattr(SkeletonIndex, "_build_symbol", slow_build)
        tree = build_parse_tree(LARGE_MODEL, dialect="named")
        matcher = LowestColoredAncestorMatcher(tree)
        builds.clear()
        oracle = LanguageOracle(tree)
        # x0 follows nothing: reading it again asks x0's skeleton for
        # FirstPos and Next after its witness fails to follow.
        words = [["x0", "x0"], ["x0", "a0", "y0", "a0", "x1", "a1", "a1"], ["x0", "a0", "a0"]]
        barrier = threading.Barrier(2, timeout=10)
        results = []

        def run():
            barrier.wait()
            results.append([matcher.accepts(word) for word in words])

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert results[0] == results[1] == [oracle.accepts(word) for word in words]
        assert builds.count("x0") == 1
        assert len(builds) == len(set(builds))

    def test_many_threads_force_every_pending_skeleton_once(self, monkeypatch):
        builds = []
        build_symbol = SkeletonIndex._build_symbol

        def counted_build(self, symbol):
            builds.append(symbol)
            build_symbol(self, symbol)

        monkeypatch.setattr(SkeletonIndex, "_build_symbol", counted_build)
        tree = build_parse_tree(LARGE_MODEL, dialect="named")
        skeletons = SkeletonIndex(tree)
        eager = list(builds)
        symbols = sorted(skeletons._pending)
        workers = 8
        barrier = threading.Barrier(workers, timeout=10)
        seen = []

        def run(offset):
            barrier.wait()
            order = symbols[offset:] + symbols[:offset]
            seen.append({symbol: skeletons.skeleton_for(symbol) for symbol in order})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(index * len(symbols) // workers,))
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == workers
        assert sorted(builds[len(eager):]) == symbols
        assert all(view == seen[0] for view in seen)
        assert all(skeleton is not None for skeleton in seen[0].values())
        assert set(skeletons.skeletons) == set(symbols) | set(eager)
