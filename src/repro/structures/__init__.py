"""Algorithmic substrates: LCA, RMQ, vEB trees, colored ancestors.

These data structures are the building blocks the paper's linear-time
algorithms rely on; they are implemented from scratch (no external
dependencies) and tested independently of the regular-expression layers.
"""

from .colored_ancestor import ColoredAncestorIndex
from .heavy_path import HeavyPathDecomposition
from .lca import LCAIndex
from .rmq import SparseTableRMQ
from .veb import VanEmdeBoasTree

__all__ = [
    "ColoredAncestorIndex",
    "HeavyPathDecomposition",
    "LCAIndex",
    "SparseTableRMQ",
    "VanEmdeBoasTree",
]
