"""Telemetry-driven cache sizing: /stats history feeds the compile-cache bound.

The compile cache (:data:`repro.COMPILE_CACHE_SIZE`) is a fixed constant
picked for the acceptance workloads.  A serving fleet sees none of that
uniformity: one deployment churns through thousands of distinct patterns
(the 512-entry cache thrashes), another validates three schemas forever.
This module closes the loop — the eviction counter ``GET /stats``
reports drives the bound: evictions climbing between ticks mean the live
working set no longer fits, so the bound doubles (up to
:data:`CACHE_CEILING`); a cache sitting far below its bound with no
evictions for :data:`IDLE_TICKS` consecutive ticks halves back toward
:data:`CACHE_FLOOR` — a long-lived process stops reserving room for a
traffic spike that ended hours ago.

Per-pattern verdict memos are not resized: each holds at most
:data:`~repro.matching.memo.MEMO_LIMIT` words in two generations, which
keep every re-used word whatever passes through once.

Every decision is recorded and reported under the ``"autosize"`` block of
``GET /stats`` (:meth:`Autosizer.stats`), so operators can see *why* a
bound moved, not just that it did.  :meth:`Autosizer.sample` is one
synchronous tick — the unit the tests drive directly; :meth:`start` runs
it on a background thread, like the snapshot refresher.

Resizes are safe by construction: :func:`repro.resize_compile_cache`
evicts under the cache's writer lock — verdicts never change, only the
cost of recomputing them.
"""

from __future__ import annotations

import threading
from collections import deque

from .. import api, cache

#: Seconds between autosizing ticks (the background-thread default).
AUTOSIZE_INTERVAL = 10.0

#: Compile-cache bounds the policy moves between.  The floor is the boot
#: default — autosizing never makes the cache smaller than an untuned
#: process would have had.
CACHE_FLOOR = api.COMPILE_CACHE_SIZE
CACHE_CEILING = 8192

#: Consecutive idle ticks before a bound shrinks.  Growth reacts in one
#: tick (thrash is expensive *now*); shrinking waits — a quiet minute
#: must not throw away a working set the next burst will need.
IDLE_TICKS = 3

#: Decisions kept for the ``/stats`` history.
DECISION_LOG = 32


class Autosizer:
    """Feedback loop from service telemetry to cache bounds.

    Attach to a :class:`~repro.service.core.ValidationService` (the
    constructor registers itself, so the service's :meth:`stats` gains
    the ``"autosize"`` block), then either :meth:`start` the background
    thread or drive :meth:`sample` ticks directly (tests, cron).
    """

    def __init__(
        self,
        service=None,
        interval: float = AUTOSIZE_INTERVAL,
        cache_floor: int = CACHE_FLOOR,
        cache_ceiling: int = CACHE_CEILING,
        idle_ticks: int = IDLE_TICKS,
    ):
        if cache_floor < 1:
            raise ValueError("the autosize floor must be >= 1")
        if cache_ceiling < cache_floor:
            raise ValueError("the autosize ceiling must be >= its floor")
        self.interval = interval
        self.cache_floor = cache_floor
        self.cache_ceiling = cache_ceiling
        self.idle_ticks = max(1, idle_ticks)
        self.ticks = 0
        self.cache_resizes = 0
        self.decisions: deque[dict] = deque(maxlen=DECISION_LOG)
        self._cache_last = cache.compile_cache_stats()
        self._cache_idle = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if service is not None:
            service.autosizer = self

    # -- one tick (the testable unit) ---------------------------------------------------
    def sample(self) -> list[dict]:
        """One autosizing tick; returns the decisions it made (possibly [])."""
        decisions = self._sample_compile_cache()
        self.ticks += 1
        self.decisions.extend(decisions)
        return decisions

    def _sample_compile_cache(self) -> list[dict]:
        stats = cache.compile_cache_stats()
        last, self._cache_last = self._cache_last, stats
        evicted = stats["evictions"] - last["evictions"]
        if evicted > 0:
            self._cache_idle = 0
            if stats["max_size"] < self.cache_ceiling:
                target = min(self.cache_ceiling, stats["max_size"] * 2)
                api.resize_compile_cache(target)
                self.cache_resizes += 1
                return [self._decision(
                    "compile_cache", "grow", stats["max_size"], target,
                    f"{evicted} evictions since last tick",
                )]
            return []
        # No evictions: the cache fits.  Shrink only a cache that has
        # been *comfortably* oversized for a while — size under a
        # quarter of the bound, idle_ticks ticks in a row.
        if stats["size"] * 4 <= stats["max_size"] and stats["max_size"] > self.cache_floor:
            self._cache_idle += 1
            if self._cache_idle >= self.idle_ticks:
                self._cache_idle = 0
                target = max(self.cache_floor, stats["max_size"] // 2)
                api.resize_compile_cache(target)
                self.cache_resizes += 1
                return [self._decision(
                    "compile_cache", "shrink", stats["max_size"], target,
                    f"{stats['size']} entries under a {stats['max_size']} bound "
                    f"for {self.idle_ticks} ticks",
                )]
        else:
            self._cache_idle = 0
        return []

    def _decision(self, target: str, action: str, previous: int, new: int, reason: str) -> dict:
        return {
            "tick": self.ticks,
            "target": target,
            "action": action,
            "from": previous,
            "to": new,
            "reason": reason,
        }

    # -- background thread --------------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`sample` every :attr:`interval` seconds (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True, name="autosizer")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    # -- telemetry ----------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``"autosize"`` block of ``GET /stats``."""
        return {
            "interval": self.interval,
            "ticks": self.ticks,
            "running": self._thread is not None,
            "compile_cache": {
                "bound": cache.compile_cache_stats()["max_size"],
                "floor": self.cache_floor,
                "ceiling": self.cache_ceiling,
                "resizes": self.cache_resizes,
            },
            "decisions": list(self.decisions),
        }
