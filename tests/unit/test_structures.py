"""Unit tests for the algorithmic substrates: RMQ, LCA, vEB, heavy paths
and lowest colored ancestors."""

import pytest

from repro.regex.parse_tree import build_parse_tree
from repro.structures.colored_ancestor import ColoredAncestorIndex
from repro.structures.heavy_path import HeavyPathDecomposition
from repro.structures.lca import LCAIndex
from repro.structures.rmq import SparseTableRMQ
from repro.structures.veb import VanEmdeBoasTree


class TestSparseTableRMQ:
    def test_single_element(self):
        rmq = SparseTableRMQ([7])
        assert rmq.argmin(0, 1) == 0
        assert rmq.min(0, 1) == 7

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            SparseTableRMQ([])

    def test_rejects_bad_ranges(self):
        rmq = SparseTableRMQ([1, 2, 3])
        with pytest.raises(IndexError):
            rmq.argmin(2, 2)
        with pytest.raises(IndexError):
            rmq.argmin(0, 4)

    def test_ties_break_to_the_left(self):
        rmq = SparseTableRMQ([5, 1, 1, 5])
        assert rmq.argmin(0, 4) == 1

    def test_against_naive_minimum(self, rng):
        values = [rng.randint(0, 50) for _ in range(200)]
        rmq = SparseTableRMQ(values)
        for _ in range(500):
            lo = rng.randrange(len(values))
            hi = rng.randint(lo + 1, len(values))
            assert rmq.min(lo, hi) == min(values[lo:hi])


class TestLCAIndex:
    def test_lca_on_parse_tree_matches_naive(self, rng):
        from repro.regex.generators import random_expression

        for _ in range(30):
            tree = build_parse_tree(random_expression(rng, rng.randint(1, 12)))
            index = LCAIndex(tree.root, tree.nodes)
            nodes = tree.nodes
            for _ in range(40):
                a = rng.choice(nodes)
                b = rng.choice(nodes)
                assert index.lca(a, b) is tree.lca_naive(a, b)

    def test_lca_of_node_with_itself(self):
        tree = build_parse_tree("(ab)c")
        index = LCAIndex(tree.root, tree.nodes)
        for node in tree.nodes:
            assert index.lca(node, node) is node

    def test_lca_is_symmetric(self):
        tree = build_parse_tree("(a+b)(c+d)")
        index = LCAIndex(tree.root, tree.nodes)
        a = tree.positions_by_symbol("a")[0]
        d = tree.positions_by_symbol("d")[0]
        assert index.lca(a, d) is index.lca(d, a)

    def test_is_ancestor_and_depth(self):
        tree = build_parse_tree("ab*")
        index = LCAIndex(tree.root, tree.nodes)
        assert index.is_ancestor(tree.root, tree.positions[1])
        assert not index.is_ancestor(tree.positions[1], tree.root)
        assert index.depth_of(tree.root) == 0
        assert index.depth_of(tree.positions[1]) > 0


class TestVanEmdeBoas:
    def test_empty_tree(self):
        tree = VanEmdeBoasTree(16)
        assert tree.min is None and tree.max is None
        assert not tree
        assert tree.predecessor(10) is None
        assert tree.successor(3) is None

    def test_insert_contains_delete(self):
        tree = VanEmdeBoasTree(32)
        for value in (5, 1, 9, 30):
            tree.insert(value)
        assert all(value in tree for value in (5, 1, 9, 30))
        assert 7 not in tree
        tree.delete(9)
        assert 9 not in tree
        assert sorted(tree) == [1, 5, 30]

    def test_min_max_tracking(self):
        tree = VanEmdeBoasTree(64)
        for value in (10, 3, 40):
            tree.insert(value)
        assert tree.min == 3 and tree.max == 40
        tree.delete(3)
        assert tree.min == 10
        tree.delete(40)
        assert tree.max == 10

    def test_predecessor_successor_semantics(self):
        tree = VanEmdeBoasTree(100)
        for value in (10, 20, 30):
            tree.insert(value)
        assert tree.predecessor(25) == 20
        assert tree.predecessor(20) == 20
        assert tree.predecessor(5) is None
        assert tree.successor(25) == 30
        assert tree.successor(30) == 30
        assert tree.successor(31) is None

    def test_out_of_universe_rejected(self):
        tree = VanEmdeBoasTree(8)
        with pytest.raises(IndexError):
            tree.insert(8)

    def test_against_sorted_list_reference(self, rng):
        universe = 256
        tree = VanEmdeBoasTree(universe)
        reference: set[int] = set()
        for _ in range(3000):
            action = rng.random()
            value = rng.randrange(universe)
            if action < 0.45:
                tree.insert(value)
                reference.add(value)
            elif action < 0.7:
                tree.delete(value)
                reference.discard(value)
            elif action < 0.8:
                assert (value in tree) == (value in reference)
            elif action < 0.9:
                expected = max((v for v in reference if v <= value), default=None)
                assert tree.predecessor(value) == expected
            else:
                expected = min((v for v in reference if v >= value), default=None)
                assert tree.successor(value) == expected
        assert sorted(tree) == sorted(reference)


class TestHeavyPath:
    def test_paths_partition_the_tree(self):
        tree = build_parse_tree("(ab+c)*(d?e)")
        decomposition = HeavyPathDecomposition(tree.root, tree.nodes)
        seen = [node for path in decomposition.paths for node in path]
        assert len(seen) == len(tree.nodes)
        assert {node.index for node in seen} == {node.index for node in tree.nodes}

    def test_paths_are_vertical(self):
        tree = build_parse_tree("(ab+c)*(d?e)")
        decomposition = HeavyPathDecomposition(tree.root, tree.nodes)
        for path in decomposition.paths:
            for parent, child in zip(path, path[1:]):
                assert child.parent is parent

    def test_root_path_count_is_logarithmic(self):
        # A long concatenation chain: every root-to-leaf path should cross
        # O(log n) heavy paths.
        text = "".join(chr(ord("a") + (i % 26)) for i in range(128))
        tree = build_parse_tree(text)
        decomposition = HeavyPathDecomposition(tree.root, tree.nodes)
        deepest = max(tree.nodes, key=lambda node: node.depth)
        assert len(decomposition.paths_to_root(deepest)) <= 2 * 8  # 2*log2(256)

    def test_path_lookup_consistency(self):
        tree = build_parse_tree("(a+b)(c+d)e*")
        decomposition = HeavyPathDecomposition(tree.root, tree.nodes)
        for node in tree.nodes:
            path_id = decomposition.path_id(node)
            assert node in decomposition.paths[path_id]
            assert decomposition.head(node) is decomposition.paths[path_id][0]


class TestColoredAncestors:
    def _build(self, text, assignments):
        tree = build_parse_tree(text)
        index = ColoredAncestorIndex(tree.root, tree.nodes)
        for node_index, color in assignments:
            index.assign_color(tree.nodes[node_index], color)
        return tree, index

    def test_query_matches_naive_walk(self, rng):
        from repro.regex.generators import random_expression

        colors = ["red", "green", "blue"]
        for _ in range(25):
            tree = build_parse_tree(random_expression(rng, rng.randint(2, 12)))
            index = ColoredAncestorIndex(tree.root, tree.nodes)
            for node in tree.nodes:
                for color in colors:
                    if rng.random() < 0.2:
                        index.assign_color(node, color)
            for _ in range(30):
                node = rng.choice(tree.nodes)
                color = rng.choice(colors)
                assert index.lowest_colored_ancestor(node, color) is (
                    index.lowest_colored_ancestor_naive(node, color)
                )

    def test_reflexive_lookup(self):
        tree, index = self._build("ab", [(0, "x")])
        assert index.lowest_colored_ancestor(tree.nodes[0], "x") is tree.nodes[0]

    def test_missing_color_returns_none(self):
        tree, index = self._build("ab", [(0, "x")])
        assert index.lowest_colored_ancestor(tree.positions[1], "y") is None

    def test_multiple_colors_per_node(self):
        tree, index = self._build("ab", [(0, "x"), (0, "y")])
        assert index.colors_of(tree.nodes[0]) == {"x", "y"}
        assert index.total_assignments == 2

    def test_assignment_is_idempotent(self):
        tree, index = self._build("ab", [(0, "x"), (0, "x")])
        assert index.total_assignments == 1

    def test_colors_via_constructor_mapping(self):
        tree = build_parse_tree("ab")
        index = ColoredAncestorIndex(tree.root, tree.nodes, {0: ["x"], 2: ["y"]})
        assert index.total_assignments == 2
        leaf = tree.positions[2]
        assert index.lowest_colored_ancestor(leaf, "x") is tree.nodes[0]
