"""Multi-process serving front: fork shared-nothing workers from a warm parent.

One Python process is GIL-bound: the thread-pool service saturates a
single core.  This module scales it across cores the classic prefork
way, arranged so the PR-4 snapshot work pays off fleet-wide:

1. the **parent** binds the listening socket (port 0 picks an ephemeral
   port, printed before any worker starts), optionally **preloads a
   dense-row snapshot** (:func:`repro.load_snapshot` — the rows are
   mmap-backed, read-only, file-cached), and creates a shared-memory
   :class:`StatsBoard`;
2. it then **forks N workers**.  Each worker is shared-nothing Python —
   its own :class:`~repro.service.core.ValidationService`, thread pool
   and caches — but the adopted row pages, the warm compile cache and
   the interpreter image itself are shared copy-on-write, so every
   worker boots with the fleet's warm rows for free;
3. workers ``accept()`` directly on the inherited socket (the kernel
   load-balances connections); the parent never serves traffic — it
   supervises, restarting any worker that dies;
4. each worker periodically publishes a request summary into its
   :class:`StatsBoard` slot; whichever worker answers ``GET /stats``
   merges the whole fleet into a ``"cluster"`` section, so one request
   shows aggregate traffic plus the per-process split;
5. with ``--snapshot-save`` each worker additionally runs a
   :class:`SnapshotRefresher`: a background thread that atomically
   re-persists the snapshot whenever the materialization gauge
   (``repro.stats()["snapshot"]["materialized"]``) grows past a threshold,
   so ``GET /snapshot`` always streams a recent complete file and a new
   host can bootstrap from the running fleet (``--snapshot-url``).

Each worker runs the asyncio front on the inherited socket
(:func:`repro.service.aio_run.run_prefork_worker`).  Entry point:
``python -m repro.service --processes N [--snapshot PATH]
[--snapshot-save PATH]``.  Fork is POSIX-only; on platforms without
``os.fork`` the CLI falls back to the single-process server with a
warning.
"""

from __future__ import annotations

import json
import mmap
import os
import signal
import socket
import struct
import threading
import time

from .. import api, cache
from .autosize import Autosizer
from .core import DEFAULT_WORKERS, ValidationService
from .wire import DEFAULT_HOST, DEFAULT_PORT

#: Bytes reserved per worker in the shared stats segment; a worker whose
#: summary outgrows its slot simply skips that publish.
SLOT_SIZE = 32 * 1024

#: Per-slot header: a seqlock counter (odd while a write is in progress)
#: and the payload length.
_SLOT_HEADER = struct.Struct("<II")

#: Seconds between a worker's stats publications.
PUBLISH_INTERVAL = 1.0

#: A slot whose summary is older than this is treated as a dead worker's
#: leftover: excluded from the live count and the request aggregate.
STALE_AFTER = 10 * PUBLISH_INTERVAL

#: A worker slot that crash-loops more than this many times stays down —
#: the supervisor must not turn a deterministic boot failure into a fork
#: bomb.
MAX_RESTARTS_PER_SLOT = 5

#: Seconds between the snapshot refresher's materialization checks.
REFRESH_INTERVAL = 30.0

#: Materialization growth (``stats()["snapshot"]["materialized"]["total"]``
#: delta) below which the refresher leaves the on-disk snapshot alone —
#: a handful of new transitions is not worth an fsync'd rewrite.
REFRESH_MIN_GROWTH = 64


class SnapshotRefresher:
    """Background thread keeping an on-disk snapshot fresh as traffic warms.

    Every *interval* seconds it reads the live materialization gauge
    (``repro.stats()["snapshot"]["materialized"]["total"]``: memoized
    lazy-DFA transitions + validator memo entries) and, when the level
    has grown by at least *min_growth* since the last persist,
    atomically rewrites *path* via :func:`repro.save_snapshot` — so
    ``GET /snapshot`` and the next process boot always see a recent
    complete file, never a torn one.

    Used by the single-process server and by every prefork worker (the
    write is atomic, so concurrent workers racing on one path leave the
    last complete snapshot — still valid, merely one worker's view).
    Start/stop are idempotent; a failed save is recorded and retried at
    the next tick.
    """

    def __init__(
        self,
        path: str,
        interval: float = REFRESH_INTERVAL,
        min_growth: int = REFRESH_MIN_GROWTH,
    ):
        self.path = path
        self.interval = interval
        self.min_growth = max(1, min_growth)
        self.saves = 0
        self.last_report: dict | None = None
        self.last_error: str | None = None
        self._persisted_level = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()  # a stopped refresher may be started again
        # The baseline is deliberately zero, not the current in-memory
        # level: state preloaded from elsewhere (a --snapshot file, a
        # fleet's /snapshot URL) still counts as growth, so a freshly
        # bootstrapped host persists its own copy on the first tick and
        # can immediately serve GET /snapshot itself.  Worst case is one
        # redundant (atomic) rewrite per boot.
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="snapshot-refresher"
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.maybe_save()

    def maybe_save(self) -> dict | None:
        """One refresh tick: persist if materialization grew enough.

        Returns the save report when a snapshot was written, else
        ``None``.  Exposed for tests and for operators wanting a
        synchronous flush (e.g. right before shutdown).
        """
        level = cache.snapshot_stats()["materialized"]["total"]
        if level - self._persisted_level < self.min_growth:
            return None
        try:
            report = api.save_snapshot(self.path)
        except Exception as error:  # noqa: BLE001 - disk full, encoding bug, ...
            # Whatever failed, the contract holds: record it and retry at
            # the next tick — a dead refresher thread would silently serve
            # an ever-staler GET /snapshot with no telemetry signal.
            self.last_error = str(error)
            return None
        # Re-read after the save: the export completes every visited row,
        # growing the gauge as a side effect — that state is *in* the
        # snapshot, so it is persisted.
        self._persisted_level = cache.snapshot_stats()["materialized"]["total"]
        self.saves += 1
        self.last_report = report
        self.last_error = None
        return report


class StatsBoard:
    """A fixed-slot shared-memory board for cross-process stats.

    The parent creates one anonymous shared mapping before forking; each
    worker owns exactly one slot (single writer), any process may read
    all of them.  Writes use a seqlock: the counter goes odd, the JSON
    payload and its length land, the counter goes even — a reader that
    observes an odd or changing counter simply retries and, failing
    that, reports the slot as stale.  No locks cross the process
    boundary, so a crashed worker can never wedge readers.
    """

    def __init__(self, slots: int, slot_size: int = SLOT_SIZE):
        if slots < 1:
            raise ValueError("a stats board needs at least one slot")
        self.slots = slots
        self.slot_size = slot_size
        self._mm = mmap.mmap(-1, slots * slot_size)

    def publish(self, index: int, payload: dict) -> bool:
        """Write *payload* into slot *index*; False if it does not fit."""
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        if len(data) > self.slot_size - _SLOT_HEADER.size:
            return False
        base = index * self.slot_size
        mm = self._mm
        seq, _ = _SLOT_HEADER.unpack_from(mm, base)
        if seq % 2:
            # A predecessor crashed mid-publish (the supervisor restarts
            # workers into their old slot): re-even the counter so the
            # stable state stays even and readers recover.
            seq += 1
        _SLOT_HEADER.pack_into(mm, base, seq + 1, 0)  # odd: write in progress
        start = base + _SLOT_HEADER.size
        mm[start : start + len(data)] = data
        _SLOT_HEADER.pack_into(mm, base, seq + 2, len(data))
        return True

    def read(self, index: int) -> dict | None:
        """Slot *index*'s latest payload, or ``None`` (empty/stale/torn)."""
        base = index * self.slot_size
        mm = self._mm
        for _ in range(4):
            seq, length = _SLOT_HEADER.unpack_from(mm, base)
            if seq == 0 or seq % 2:
                time.sleep(0.001)
                continue
            if not 0 < length <= self.slot_size - _SLOT_HEADER.size:
                return None
            start = base + _SLOT_HEADER.size
            data = bytes(mm[start : start + length])
            if _SLOT_HEADER.unpack_from(mm, base)[0] == seq:
                try:
                    return json.loads(data)
                except ValueError:
                    return None
        return None

    def read_all(self) -> dict[int, dict]:
        """Every populated slot, keyed by slot index."""
        entries = {}
        for index in range(self.slots):
            payload = self.read(index)
            if payload is not None:
                entries[index] = payload
        return entries


def cluster_payload(board: StatsBoard, processes: int) -> dict:
    """The fleet-view ``"cluster"`` section of ``GET /stats``.

    Merges every worker's latest :class:`StatsBoard` publication into an
    aggregate plus the per-process split, excluding stale slots (a dead
    worker's last summary) — whichever worker answers the request
    reports the same fleet view.
    """
    workers = board.read_all()
    aggregate = {"total": 0, "errors": 0, "in_flight": 0}
    per_worker = {}
    live = 0
    now = time.time()
    for slot, payload in sorted(workers.items()):
        # A dead worker's last summary stays in shared memory; use the
        # timestamp it published to keep stale slots out of the live
        # count and the aggregate.
        updated = payload.get("updated_at")
        stale = not isinstance(updated, (int, float)) or (now - updated > STALE_AFTER)
        if not stale:
            live += 1
            requests = payload.get("requests", {})
            for key in aggregate:
                value = requests.get(key)
                if isinstance(value, (int, float)):
                    aggregate[key] += value
        per_worker[str(slot)] = {**payload, "stale": stale}
    return {
        "processes": processes,
        "live_workers": live,
        "serving_pid": os.getpid(),
        "aggregate_requests": aggregate,
        "workers": per_worker,
    }


def describe_preload(source: str, report: dict) -> str:
    """One line summarising a snapshot preload (single-process and prefork)."""
    return (
        f"snapshot {source}: {report['patterns_loaded']} patterns / "
        f"{report['rows_loaded']} rows, {report['memo_entries_loaded']} memo entries preloaded, "
        f"{report['rejected']} rejected"
    )


def snapshot_source_for(snapshot_save: str | None, snapshot_path: str | None) -> str | None:
    """The local file ``GET /snapshot`` should stream, or ``None``.

    The live ``--snapshot-save`` file wins; otherwise the ``--snapshot``
    file the server booted from.  A URL is never a source: a
    URL-bootstrapped host without ``--snapshot-save`` has nothing of its
    own to serve.  Shared by the single-process and prefork fronts so
    the policy cannot diverge between them.
    """
    if snapshot_save:
        return snapshot_save
    if snapshot_path and not snapshot_path.startswith(("http://", "https://")):
        return snapshot_path
    return None


def _worker_summary(service: ValidationService) -> dict:
    stats = service.stats()
    return {
        "pid": os.getpid(),
        "requests": stats["requests"],
        "pattern_cache": stats["pattern_cache"],
        "updated_at": time.time(),
    }


def serve_prefork(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    processes: int = 2,
    workers: int = DEFAULT_WORKERS,
    snapshot_path: str | None = None,
    snapshot_save: str | None = None,
    refresh_interval: float = REFRESH_INTERVAL,
    refresh_min_growth: int = REFRESH_MIN_GROWTH,
    auth_token: str | None = None,
    autosize_interval: float | None = None,
) -> None:
    """Run the prefork front until interrupted (``--processes N`` body).

    *snapshot_path* (a file or an ``http(s)://`` fleet URL) is preloaded
    in the parent before forking, so every worker shares the adopted
    pages copy-on-write.  *snapshot_save* turns on the live lifecycle:
    each worker runs a :class:`SnapshotRefresher` re-persisting that
    path as its materialization grows, and ``GET /snapshot`` streams it
    to bootstrapping hosts.  Each worker serves one event loop on the
    inherited socket (:func:`repro.service.aio_run.run_prefork_worker`);
    *autosize_interval* gives every worker its own
    :class:`~repro.service.autosize.Autosizer`.
    """
    if not hasattr(os, "fork"):
        raise RuntimeError("the prefork front requires os.fork (POSIX)")
    if processes < 1:
        raise ValueError("processes must be >= 1")
    listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listen.bind((host, port))
    listen.listen(128)
    bound_host, bound_port = listen.getsockname()[:2]
    if snapshot_path:
        print(describe_preload(snapshot_path, api.load_snapshot(snapshot_path)), flush=True)
    snapshot_source = snapshot_source_for(snapshot_save, snapshot_path)
    board = StatsBoard(processes)
    print(
        f"repro.service prefork listening on http://{bound_host}:{bound_port} "
        f"({processes} processes x {workers} threads) — "
        "POST /match, POST /validate, GET /stats",
        flush=True,
    )

    pids: dict[int, int] = {}
    restarts = [0] * processes
    shutting_down = False

    # aio_run imports this module, so the worker body is bound here.
    from .aio_run import run_prefork_worker

    def _spawn(slot: int) -> None:
        pid = os.fork()
        if pid == 0:
            try:
                run_prefork_worker(
                    listen,
                    board,
                    slot,
                    processes,
                    workers,
                    snapshot_source=snapshot_source,
                    snapshot_save=snapshot_save,
                    refresh_interval=refresh_interval,
                    refresh_min_growth=refresh_min_growth,
                    auth_token=auth_token,
                    autosizer=(
                        Autosizer(interval=autosize_interval)
                        if autosize_interval is not None
                        else None
                    ),
                )
            finally:
                os._exit(0)
        pids[pid] = slot

    def _terminate(signum: int, frame: object) -> None:
        nonlocal shutting_down
        shutting_down = True
        for pid in list(pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    # Handlers go in before the first fork: a signal during the spawn
    # loop must already broadcast to the children spawned so far.
    previous_term = signal.signal(signal.SIGTERM, _terminate)
    previous_int = signal.signal(signal.SIGINT, _terminate)
    try:
        for slot in range(processes):
            _spawn(slot)
        while pids:
            try:
                pid, _status = os.wait()
            except InterruptedError:
                continue
            except ChildProcessError:
                break
            slot = pids.pop(pid, None)
            if slot is None or shutting_down:
                continue
            restarts[slot] += 1
            if restarts[slot] > MAX_RESTARTS_PER_SLOT:
                print(f"worker slot {slot} exceeded restart budget; leaving it down", flush=True)
                continue
            time.sleep(0.1)
            if shutting_down:
                # SIGTERM landed during the backoff, after the kill
                # broadcast: spawning now would orphan a worker and
                # leave this loop waiting on it forever.
                continue
            _spawn(slot)
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        listen.close()
