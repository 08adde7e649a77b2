"""Sparse-table range minimum queries.

The constant-time LCA structure (:mod:`repro.structures.lca`) reduces LCA
to range-minimum queries over the depths of the tree's nodes.  This
module provides the classic sparse table: ``O(n log n)`` preprocessing and
``O(1)`` per query.  (The paper's bound only needs linear preprocessing;
the ``n log n`` table is the standard practical choice and is what the
benchmarks measure.  A strictly linear variant would use the ±1 block
decomposition over the Euler tour; the API would be identical.)
"""

from __future__ import annotations

from typing import Sequence


class SparseTableRMQ:
    """Idempotent sparse table answering argmin queries on a fixed array.

    Queries return the *index* of the minimum value in ``values[lo:hi]``
    (half-open interval); ties are broken towards the leftmost index.
    """

    __slots__ = ("values", "_table", "_log")

    def __init__(self, values: Sequence[int]):
        if len(values) == 0:
            raise ValueError("RMQ requires a non-empty array")
        self.values = values = list(values)
        n = len(values)
        # _log[i] = floor(log2(i)) for 1 <= i <= n
        self._log = [0] + [i.bit_length() - 1 for i in range(1, n + 1)]
        table: list[list[int]] = [list(range(n))]
        for level in range(1, self._log[n] + 1):
            # Row ``level`` covers spans of 2**level: pair each span's two
            # halves from the row below (ties keep the left, i.e. leftmost, index).
            previous = table[-1]
            table.append([
                left if values[left] <= values[right] else right
                for left, right in zip(previous, previous[1 << (level - 1):])
            ])
        self._table = table

    def argmin(self, lo: int, hi: int) -> int:
        """Index of the minimum of ``values[lo:hi]`` (requires ``lo < hi``)."""
        if not 0 <= lo < hi <= len(self.values):
            raise IndexError(f"invalid RMQ range [{lo}, {hi})")
        span = hi - lo
        level = self._log[span]
        left = self._table[level][lo]
        right = self._table[level][hi - (1 << level)]
        return left if self.values[left] <= self.values[right] else right

    def min(self, lo: int, hi: int) -> int:
        """Minimum value of ``values[lo:hi]``."""
        return self.values[self.argmin(lo, hi)]

    def __len__(self) -> int:
        return len(self.values)
