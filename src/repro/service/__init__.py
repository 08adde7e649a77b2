"""repro.service — a concurrent validation service over the compiled engine.

The ROADMAP's north star is a production-scale system serving heavy
traffic; this package is the serving layer that turns the library's
single-threaded building blocks into one.  It exists because the rest of
the stack was made safe to share:

* the module-level compile cache (:func:`repro.compile`) takes warm hits
  lock-free and serialises misses/purges under one mutex;
* :class:`~repro.matching.runtime.CompiledRuntime` rows are written under
  a per-runtime lock while warm replay stays lock-free, so every worker
  thread benefits from every other worker's memoized transitions — the
  Li et al. observation (a few shared content models dominate real schema
  corpora) turned into a shared warm cache;
* the linear-time guarantee of the source paper keeps per-request latency
  proportional to input size, which is what makes the p50/p99 counters
  meaningful under load.

Entry points:

* :class:`ValidationService` — an in-process facade owning a thread pool,
  with batch operations (:meth:`~ValidationService.match_batch`, one
  deduplicated ``Pattern.match_all`` call per batch;
  :meth:`~ValidationService.validate_documents`, one pass over the
  documents) and a :meth:`~ValidationService.stats` snapshot aggregating
  every telemetry surface the library exposes;
* :mod:`repro.service.aio` — the HTTP front (``python -m repro.service``,
  :func:`serve`): ``POST /match``, ``POST /validate``, ``GET /stats``,
  ``GET /snapshot`` (the fleet-bootstrap stream) and ``GET /healthz``
  from one event loop per process, with buffered JSON or NDJSON
  request/response streaming, per-connection backpressure, per-request
  deadlines (``X-Repro-Deadline-Ms``), content-negotiated violation
  detail levels and an ``Authorization: Bearer`` hook; its framing rules
  and limits live in :mod:`repro.service.wire`;
* :mod:`repro.service.autosize` — telemetry-driven cache sizing
  (``--autosize``): a feedback loop resizing the compile cache
  (:func:`repro.resize_compile_cache`) from the same counters
  ``GET /stats`` reports;
* :mod:`repro.service.prefork` — the multi-process front
  (``--processes N``): the parent preloads a warm-state snapshot
  (``docs/snapshot.md`` — a file, or a running fleet's ``/snapshot``
  URL), forks N shared-nothing workers that each run the event loop on
  one inherited socket, aggregates fleet stats through a shared-memory
  :class:`~repro.service.prefork.StatsBoard` merged into ``GET /stats``,
  and keeps the on-disk snapshot fresh with a background
  :class:`~repro.service.prefork.SnapshotRefresher`
  (``--snapshot-save``).

See ``docs/service.md`` for endpoint shapes and deployment notes.
"""

from .aio import AsyncServiceServer
from .aio_run import serve
from .autosize import Autosizer
from .core import DocumentVerdict, ValidationService
from .prefork import SnapshotRefresher

__all__ = [
    "AsyncServiceServer",
    "Autosizer",
    "DocumentVerdict",
    "SnapshotRefresher",
    "ValidationService",
    "serve",
]
