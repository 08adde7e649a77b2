"""Lazy arrays: associative arrays with constant-time initialisation and reset.

Section 4.3 of the paper stores the ``h`` pointers of the path
decomposition algorithm in *lazy arrays*: arrays over a key space
``{0..N-1}`` supporting assignment, lookup **and whole-array reset** in
constant time.  The trick (folklore, credited in the paper to programming
references [17, 22]) keeps three arrays:

* ``A[k]`` — the stored values,
* ``F[c]`` — the c-th key that became active,
* ``B[k]`` — the index in ``F`` where key ``k`` was activated,

plus a counter ``C`` of active keys.  Key ``k`` is *active* iff
``1 <= B[k] <= C`` and ``F[B[k]] == k``; inactive keys read as ``Null``
even though ``A``/``B`` may contain stale garbage from before a reset.

Python cannot allocate genuinely uninitialised memory, so ``__init__`` is
O(N); everything else — including :meth:`reset` — is O(1), which is the
property the algorithms rely on (the paper itself remarks that hash maps
are the practical alternative and that only the constant-time *reset* is
unmatched).  No matcher in this package uses it — the path-decomposition
matcher keeps ``h`` in hash maps, which it never resets — so only its own
tests and ``benchmarks/bench_structures.py`` exercise it.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

V = TypeVar("V")


class LazyArray(Generic[V]):
    """Associative array over integer keys ``0..size-1`` with O(1) reset."""

    __slots__ = ("_size", "_values", "_activation_order", "_activation_index", "_active_count")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = size
        self._values: list[V | None] = [None] * size
        self._activation_order: list[int] = [0] * size  # the F array
        self._activation_index: list[int] = [0] * size  # the B array
        self._active_count = 0  # the C counter

    # -- core operations ------------------------------------------------------
    def assign(self, key: int, value: V) -> None:
        """Set ``A[key] = value``, activating the key if necessary (O(1))."""
        self._check(key)
        if not self._is_active(key):
            self._activation_order[self._active_count] = key
            self._activation_index[key] = self._active_count
            self._active_count += 1
        self._values[key] = value

    def lookup(self, key: int) -> V | None:
        """Return the value stored for *key*, or ``None`` when inactive (O(1))."""
        self._check(key)
        if self._is_active(key):
            return self._values[key]
        return None

    def reset(self) -> None:
        """Deactivate every key in O(1) by clearing the counter."""
        self._active_count = 0

    def delete(self, key: int) -> None:
        """Deactivate a single key (O(1)); other keys are unaffected."""
        self._check(key)
        if not self._is_active(key):
            return
        slot = self._activation_index[key]
        last = self._active_count - 1
        moved = self._activation_order[last]
        self._activation_order[slot] = moved
        self._activation_index[moved] = slot
        self._active_count = last

    # -- conveniences ----------------------------------------------------------
    def __setitem__(self, key: int, value: V) -> None:
        self.assign(key, value)

    def __getitem__(self, key: int) -> V | None:
        return self.lookup(key)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self._size and self._is_active(key)

    def __len__(self) -> int:
        """Number of active keys."""
        return self._active_count

    @property
    def size(self) -> int:
        """The size of the key space (fixed at construction)."""
        return self._size

    def active_keys(self) -> Iterator[int]:
        """Iterate over the active keys in activation order."""
        for slot in range(self._active_count):
            yield self._activation_order[slot]

    def items(self) -> Iterator[tuple[int, V]]:
        """Iterate over ``(key, value)`` pairs of active keys."""
        for key in self.active_keys():
            yield key, self._values[key]  # type: ignore[misc]

    # -- internals --------------------------------------------------------------
    def _is_active(self, key: int) -> bool:
        slot = self._activation_index[key]
        return slot < self._active_count and self._activation_order[slot] == key

    def _check(self, key: int) -> None:
        if not 0 <= key < self._size:
            raise IndexError(f"key {key} outside the key space [0, {self._size})")
