"""The in-process validation service: a thread pool over the shared caches.

:class:`ValidationService` is the object the HTTP layer (and any embedding
application) talks to.  It owns a ``ThreadPoolExecutor`` and exposes batch
operations whose per-item cost rides the warm paths built in earlier PRs:
a match batch is one ``Pattern.match_all`` call (deduplicated once, then
answered by the pattern's batch route over the lazy-DFA rows every
worker thread shares), and a document batch is one pass that parses and
validates each document against the validator's warm content models.

Metrics are first-class: each public call is wrapped in a request context
that maintains ``total`` / ``in_flight`` / ``errors`` counters and a
bounded latency ring from which :meth:`ValidationService.stats` derives
p50/p99.  The snapshot is taken under the metrics lock, so a ``GET
/stats`` issued while requests are in flight sees mutually consistent
numbers (``in_flight`` included).

>>> service = ValidationService(workers=2)
>>> service.match_batch("(ab+b(b?)a)*", ["abba", "bba", "bb"])
[True, True, False]
>>> service.stats()["requests"]["total"]
1
>>> service.close()
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .. import api, cache
from ..matching import kernel
from ..regex.ast import Regex
from ..xml.document import Document, Element
from ..xml.dtd import DTD, parse_dtd
from ..xml.parser import parse_document
from ..xml.validator import DTDValidator
from ..xml.xsd import XSDSchema, schema_from_dict
from .wire import DETAIL_LEVELS, shape_match

#: Default worker-thread count; the acceptance workloads run at 8.
DEFAULT_WORKERS = 8

#: How many distinct schemas/DTDs (keyed by payload) and patterns the
#: service keeps warm for reuse and for the stats surface.
MEMO_SIZE = 32

#: Latency ring size: enough samples for stable p99 without unbounded
#: memory on a long-lived process.
LATENCY_WINDOW = 2048


@dataclass(frozen=True, slots=True)
class DocumentVerdict:
    """Per-document validation outcome, JSON-shaped for the HTTP layer.

    ``violations`` keeps the legacy rendered-message tuple;  ``details``
    carries the structured :class:`~repro.xml.validator.Violation`
    objects behind them (element path, child index, expected tags), which
    the wire layer renders at ``detail=full``.
    """

    valid: bool
    violations: tuple[str, ...] = ()
    details: tuple = ()

    def to_dict(self) -> dict:
        return {"valid": self.valid, "violations": list(self.violations)}


class ValidationService:
    """Batch matching and document validation over a shared thread pool.

    All state the workers touch is either immutable, lock-free-readable
    (warm cache rows) or guarded by the library's writer locks, so one
    service instance serves any number of concurrent callers; the
    acceptance tests pin down verdict-equivalence between 8 workers and a
    single-threaded oracle.  Use as a context manager or call
    :meth:`close` to release the pool.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS, latency_window: int = LATENCY_WINDOW):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-service")
        self._metrics_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._in_flight = 0
        self._latencies: deque[float] = deque(maxlen=latency_window)
        #: memoized validators built from wire payloads, keyed by payload
        self._validators: "OrderedDict[str, DTDValidator | XSDSchema]" = OrderedDict()
        #: recently served patterns, for the stats surface
        self._patterns: "OrderedDict[str, api.Pattern]" = OrderedDict()
        self._memo_lock = threading.Lock()
        self._closed = False
        #: attached :class:`~repro.service.autosize.Autosizer`, if any;
        #: its report is merged into :meth:`stats` under ``"autosize"``
        self.autosizer = None

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent); in-flight work completes."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def _ensure_open(self) -> None:
        """Raise a clear error instead of the executor's opaque shutdown one.

        Every public entry point checks this first: submitting to a shut
        pool raises ``RuntimeError("cannot schedule new futures after
        shutdown")`` from deep inside ``concurrent.futures`` — or, for a
        corpus small enough to run inline, silently *succeeds* — neither
        of which tells the caller what actually happened.
        """
        if self._closed:
            raise RuntimeError("service is closed")

    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request accounting -------------------------------------------------------------
    def track_request(self):
        """The request-accounting context manager, for embedding fronts.

        The asyncio front wraps each whole POST (its prepare job and every
        batch it dispatches through :meth:`submit`) in a single scope, so
        ``requests.total`` counts client requests, not pool jobs, and
        ``in_flight`` reflects open requests.  An exception leaving the
        scope books the request under ``errors``.  The scope is a plain
        sync context manager: entering/leaving only bumps counters under
        the metrics lock, so holding it across ``await`` points is safe.
        """
        return self._request()

    @contextmanager
    def _request(self):
        start = time.perf_counter()
        with self._metrics_lock:
            self._requests += 1
            self._in_flight += 1
        try:
            yield
        except BaseException:
            with self._metrics_lock:
                self._errors += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            with self._metrics_lock:
                self._in_flight -= 1
                self._latencies.append(elapsed)

    # -- pool plumbing ------------------------------------------------------------------
    def submit(self, work: Callable, *args, **kwargs) -> Future:
        """Submit one unit of work to the pool (the async tier's leaf call).

        Returns the ``concurrent.futures.Future`` directly.  Work
        submitted here must never itself wait on the pool — the event
        loop awaiting a future whose work is *queued behind* other
        pool-waiting work is the classic thread-pool deadlock, which is
        why the async entry points below submit leaf closures only.
        """
        self._ensure_open()
        return self._pool.submit(work, *args, **kwargs)

    async def submit_async(self, work: Callable, *args, **kwargs):
        """Await one unit of pool work without blocking the event loop.

        Cancelling the returned awaitable cancels the pool future: a
        queued job is dropped before it ever runs (a disconnected
        client stops consuming pool capacity), a running one finishes and
        its result is discarded.
        """
        return await asyncio.wrap_future(self.submit(work, *args, **kwargs))

    # -- batch matching -----------------------------------------------------------------
    def match_batch(
        self,
        expr: Regex | str,
        words: Iterable[str | Sequence[str]],
        dialect: str = "paper",
        detail: str = "verdict",
    ) -> list:
        """Match a corpus of words against one pattern; order is preserved.

        The pattern comes from the module compile cache (warm across
        requests and across service instances).  The batch is one
        ``Pattern.match_all`` call on the calling thread, which answers
        each distinct word once.  Splitting it across the pool would buy
        no parallelism (matching holds the GIL) and would parse a
        repeated word once per chunk.

        *detail* selects the verdict shape (the wire negotiation levels):
        ``"verdict"`` keeps the historical list of booleans on the
        untraced hot path; ``"summary"`` / ``"full"`` run the batch in
        witness-recording mode and return the JSON-ready shapes of
        :func:`~repro.service.wire.shape_match` (failing index,
        expected-next set, repair hints).
        """
        self._ensure_open()
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"unknown detail level {detail!r}")
        with self._request():
            pattern = api.compile(expr, dialect=dialect)
            self._remember_pattern(pattern, dialect)
            return self._match_work(pattern, detail)(words)

    async def match_batch_async(
        self,
        expr: Regex | str,
        words: Iterable[str | Sequence[str]],
        dialect: str = "paper",
        detail: str = "verdict",
    ) -> list:
        """:meth:`match_batch` for event loops — no thread ever blocks.

        The sync path would run the batch on the calling thread (for the
        async front: the *event loop*); here the compile (CPU-bound for a
        cold pattern: parse, determinism test) and the batch each run as
        one pool job while the loop only awaits.  Verdicts are identical
        to the sync path by construction — both make the same
        ``Pattern.match_all`` call on the whole batch.
        """
        self._ensure_open()
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"unknown detail level {detail!r}")
        with self._request():
            pattern = await self.submit_async(api.compile, expr, dialect=dialect)
            self._remember_pattern(pattern, dialect)
            return await self.submit_async(self._match_work(pattern, detail), list(words))

    @staticmethod
    def _match_work(pattern: api.Pattern, detail: str) -> Callable[[list], list]:
        """The batch matching closure for one negotiated detail level.

        ``verdict`` is the untraced hot path (bare booleans); richer
        levels record witnesses and shape them on the worker thread, so
        diagnosis replays never run on a serving loop.
        """
        if detail == "verdict":
            return pattern.match_all

        def work(batch: list) -> list:
            results = pattern.match_all(batch, detail="full")
            return [shape_match(result, detail) for result in results]

        return work

    # -- document validation ---------------------------------------------------------------
    def validate_documents(
        self,
        schema: DTDValidator | XSDSchema | DTD,
        documents: Sequence[Document | Element],
    ) -> list[DocumentVerdict]:
        """Validate many documents against one schema, one verdict each.

        *schema* may be a prepared :class:`~repro.xml.validator.DTDValidator`,
        an :class:`~repro.xml.xsd.XSDSchema`, or a raw
        :class:`~repro.xml.dtd.DTD` (wrapped in a validator on the fly).
        The batch runs inline on the calling thread, as
        :meth:`match_batch` does: validation holds the GIL, so splitting
        it across the pool would buy no parallelism.  Every document
        replays the same warm per-model runtimes, so the marginal
        document costs pure transition replay.  DTD verdicts carry the
        violation messages, XSD verdicts the boolean outcome.
        """
        self._ensure_open()
        with self._request():
            validator = DTDValidator(schema) if isinstance(schema, DTD) else schema
            return [self._verdict(validator, document) for document in documents]

    async def validate_document_texts_async(
        self,
        schema: DTDValidator | XSDSchema | DTD,
        texts: Sequence[str],
    ) -> list[DocumentVerdict]:
        """Validate documents given as XML text, as one pool job.

        Parsing is usually the dominant per-document cost, so it runs in
        the job too (:meth:`_document_work`, the closure both shapes of
        ``POST /validate`` use): the event loop never parses a document
        or replays a transition itself.
        """
        self._ensure_open()
        with self._request():
            validator = DTDValidator(schema) if isinstance(schema, DTD) else schema
            return await self.submit_async(self._document_work(validator), list(texts))

    @classmethod
    def _document_work(
        cls, validator: DTDValidator | XSDSchema
    ) -> Callable[[list], list[DocumentVerdict]]:
        """The batch closure that parses and validates XML texts, one verdict each.

        ``parse_document`` is looked up in this module when the closure
        runs, so wrapping the module attribute (as a profiler does) sees
        every document parse.
        """

        def work(texts: list) -> list[DocumentVerdict]:
            return [cls._verdict(validator, parse_document(text)) for text in texts]

        return work

    @staticmethod
    def _verdict(
        validator: DTDValidator | XSDSchema, document: Document | Element
    ) -> DocumentVerdict:
        if isinstance(validator, XSDSchema):
            root = document.root if isinstance(document, Document) else document
            result = validator.validate_element(root)
        else:
            result = validator.validate(document)
        return DocumentVerdict(
            result.valid,
            tuple(violation.describe() for violation in result),
            details=tuple(result),
        )

    # -- wire-payload schema memo --------------------------------------------------------
    def validator_for_dtd(self, dtd_text: str) -> DTDValidator:
        """A (memoized) validator for a DTD given as text — the HTTP path.

        Keyed by the payload itself, so repeated ``POST /validate`` calls
        carrying the same DTD reuse one validator — and therefore the warm
        content-model patterns behind it.
        """
        return self._memoized("dtd:" + dtd_text, lambda: DTDValidator(parse_dtd(dtd_text)))

    def schema_for_payload(self, payload_key: str, data: dict) -> XSDSchema:
        """A (memoized) :class:`XSDSchema` built from its JSON wire shape."""
        return self._memoized("xsd:" + payload_key, lambda: schema_from_dict(data))

    def _memo_put(self, memo: OrderedDict, key: str, value, replace: bool = False) -> object:
        """Insert into a bounded LRU memo and return the entry kept.

        The one place the lock + ``move_to_end`` + bounded ``popitem``
        dance lives, shared by the validator and pattern memos.  Without
        *replace* the first writer of a key wins (racing builders of one
        schema converge on a single validator); with it the newest value
        wins (the pattern memo must track post-purge recompiles).
        """
        with self._memo_lock:
            if replace:
                winner = memo[key] = value
            else:
                winner = memo.setdefault(key, value)
            memo.move_to_end(key)
            while len(memo) > MEMO_SIZE:
                memo.popitem(last=False)
            return winner

    def _memoized(self, key: str, build):
        memo = self._validators
        with self._memo_lock:
            hit = memo.get(key)
            if hit is not None:
                memo.move_to_end(key)
                return hit
        # Build outside the lock: parsing/compiling can be slow.  A racing
        # builder of the same key is tolerated; setdefault keeps the first.
        return self._memo_put(memo, key, build())

    def _remember_pattern(self, pattern: api.Pattern, dialect: str) -> None:
        self._memo_put(self._patterns, f"{dialect}:{pattern.expression}", pattern, replace=True)

    # -- telemetry -----------------------------------------------------------------------
    def request_stats(self) -> dict:
        """This service's request counters: total / errors / in_flight / p50_ms / p99_ms."""
        with self._metrics_lock:
            latencies = sorted(self._latencies)
            return {
                "total": self._requests,
                "errors": self._errors,
                "in_flight": self._in_flight,
                "p50_ms": _percentile_ms(latencies, 0.50),
                "p99_ms": _percentile_ms(latencies, 0.99),
            }

    def stats(self) -> dict:
        """One consistent snapshot of every telemetry surface.

        ``requests`` is :meth:`request_stats`; ``pattern_cache`` is the
        compile-cache namespace of :func:`repro.stats`; ``patterns`` maps
        recently served patterns to their
        :meth:`~repro.api.Pattern.stats`; ``validators`` maps memoized
        wire schemas to their ``stats()`` aggregates; ``kernel`` is
        :func:`repro.matching.kernel.stats` (batch-kernel programs
        built, kernel-path vs fallback word counts and the scan loop's
        name); ``snapshot`` is the snapshot namespace of
        :func:`repro.stats` (row persistence telemetry, including
        the ``snapshot_rejected`` degradation counter).
        """
        requests = self.request_stats()
        with self._memo_lock:
            patterns = {
                key: pattern.stats() for key, pattern in self._patterns.items()
            }
            validators = {
                key: validator.stats() for key, validator in self._validators.items()
            }
        stats = {
            "service": {"workers": self.workers, "closed": self._closed},
            "requests": requests,
            "pattern_cache": cache.compile_cache_stats(),
            "patterns": patterns,
            "validators": validators,
            "kernel": kernel.stats(),
            "snapshot": cache.snapshot_stats(),
        }
        autosizer = self.autosizer
        if autosizer is not None:
            stats["autosize"] = autosizer.stats()
        return stats


def _percentile_ms(sorted_latencies: list[float], quantile: float) -> float | None:
    """Nearest-rank percentile of a sorted latency list, in milliseconds."""
    if not sorted_latencies:
        return None
    rank = min(len(sorted_latencies) - 1, int(quantile * len(sorted_latencies)))
    return round(sorted_latencies[rank] * 1000.0, 3)
