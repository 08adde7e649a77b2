"""Entry points for the serving front: standalone and prefork-worker.

The server class itself lives in :mod:`repro.service.aio`; this module
owns the process-level wiring around it — building the shared
:class:`~repro.service.core.ValidationService`, starting/stopping the
snapshot refresher and cache autosizer, and (for the prefork model)
running one event loop per forked worker on the inherited socket.
"""

from __future__ import annotations

import asyncio
import signal
import socket

from .aio import AsyncServiceServer
from .core import DEFAULT_WORKERS, ValidationService
from .prefork import (
    PUBLISH_INTERVAL,
    REFRESH_INTERVAL,
    REFRESH_MIN_GROWTH,
    SnapshotRefresher,
    StatsBoard,
    _worker_summary,
)
from .wire import DEFAULT_HOST, DEFAULT_PORT


async def _serve_async(
    host: str,
    port: int,
    workers: int,
    snapshot_source: str | None,
    refresher,
    auth_token: str | None,
    autosizer,
) -> None:
    service = ValidationService(workers=workers)
    if autosizer is not None:
        service.autosizer = autosizer
        autosizer.start()
    front = AsyncServiceServer(service, snapshot_source=snapshot_source, auth_token=auth_token)
    server = await front.start(host, port)
    bound_host, bound_port = front.address()
    if refresher is not None:
        refresher.start()
    print(
        f"repro.service (aio) listening on http://{bound_host}:{bound_port} "
        f"({workers} pool workers) — POST /match, POST /validate (NDJSON streaming), "
        "GET /stats, GET /snapshot",
        flush=True,
    )
    try:
        async with server:
            await server.serve_forever()
    finally:
        if refresher is not None:
            refresher.stop()
        if autosizer is not None:
            autosizer.stop()
        service.close()


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = DEFAULT_WORKERS,
    snapshot_source: str | None = None,
    refresher=None,
    auth_token: str | None = None,
    autosizer=None,
) -> None:
    """Run the service until interrupted (the ``python -m repro.service`` body).

    *snapshot_source* enables ``GET /snapshot`` (streaming that file);
    *refresher* is an optional started/stopped object (a
    :class:`~repro.service.prefork.SnapshotRefresher`) re-persisting the
    snapshot in the background while the server runs; *auth_token* turns
    on the Bearer check; *autosizer* (an
    :class:`~repro.service.autosize.Autosizer`) runs the cache-sizing
    loop alongside the server.
    """
    try:
        asyncio.run(
            _serve_async(host, port, workers, snapshot_source, refresher, auth_token, autosizer)
        )
    except KeyboardInterrupt:
        pass


def run_prefork_worker(
    listen_socket: socket.socket,
    board: StatsBoard,
    slot: int,
    processes: int,
    workers: int,
    snapshot_source: str | None = None,
    snapshot_save: str | None = None,
    refresh_interval: float = REFRESH_INTERVAL,
    refresh_min_growth: int = REFRESH_MIN_GROWTH,
    auth_token: str | None = None,
    autosizer=None,
) -> None:
    """Body of one forked worker: an event loop on the inherited socket.

    The prefork parent (:func:`repro.service.prefork.serve_prefork`)
    binds and forks; each worker runs one event loop whose ``accept()``
    the kernel load-balances across the fleet.  The snapshot refresher
    is a daemon thread (``save_snapshot`` is blocking CPU+fsync work that
    must not run on the loop) whose ticks are staggered per slot so the
    fleet does not fsync the same path in lockstep; the stats publisher
    is a loop task.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates shutdown
    service = ValidationService(workers=workers)
    if autosizer is not None:
        service.autosizer = autosizer
        autosizer.start()
    refresher: SnapshotRefresher | None = None
    if snapshot_save:
        refresher = SnapshotRefresher(
            snapshot_save,
            interval=refresh_interval * (1.0 + 0.1 * slot),
            min_growth=refresh_min_growth,
        )
        refresher.start()

    async def worker() -> None:
        front = AsyncServiceServer(
            service,
            snapshot_source=snapshot_source,
            auth_token=auth_token,
            board=board,
            slot=slot,
            processes=processes,
        )
        server = await front.start(sock=listen_socket)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stopping.set)

        async def publish() -> None:
            while True:
                board.publish(slot, _worker_summary(service))
                await asyncio.sleep(PUBLISH_INTERVAL)

        publisher = asyncio.create_task(publish())
        try:
            await stopping.wait()
        finally:
            publisher.cancel()
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(worker())
    finally:
        if refresher is not None:
            refresher.stop()
        if autosizer is not None:
            autosizer.stop()
        service.close()


__all__ = ["run_prefork_worker", "serve"]
