"""Experiment E9 — micro-benchmarks of the algorithmic substrates.

These pin the per-operation costs the matching bounds rely on: O(1) LCA
queries after linear preprocessing and O(log log U) van Emde Boas
predecessor queries.
Expected shape: per-operation cost independent of (or barely growing with)
the structure size.
"""

import random

import pytest

from repro.structures.lca import LCAIndex
from repro.structures.veb import VanEmdeBoasTree

from .workloads import SEED, chare_tree

QUERIES = 5000


@pytest.mark.parametrize("factors", [64, 512])
def test_lca_queries(benchmark, factors):
    tree = chare_tree(factors)
    index = LCAIndex(tree.root, tree.nodes)
    generator = random.Random(SEED)
    pairs = [(generator.choice(tree.nodes), generator.choice(tree.nodes)) for _ in range(QUERIES)]
    result = benchmark(lambda: sum(1 for a, b in pairs if index.lca(a, b) is not None))
    assert result == QUERIES


@pytest.mark.parametrize("factors", [64, 512])
def test_lca_preprocessing(benchmark, factors):
    tree = chare_tree(factors)
    index = benchmark(lambda: LCAIndex(tree.root, tree.nodes))
    assert len(index) == len(tree.nodes)


@pytest.mark.parametrize("universe", [1 << 10, 1 << 16])
def test_veb_predecessor_queries(benchmark, universe):
    generator = random.Random(SEED)
    tree = VanEmdeBoasTree(universe)
    for _ in range(universe // 8):
        tree.insert(generator.randrange(universe))
    probes = [generator.randrange(universe) for _ in range(QUERIES)]
    result = benchmark(lambda: sum(1 for probe in probes if tree.predecessor(probe) is not None))
    assert result <= QUERIES
