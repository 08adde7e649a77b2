"""``python -m repro.service`` — boot the HTTP validation service.

Every process serves the asyncio front (:mod:`repro.service.aio`:
buffered JSON plus NDJSON request/response streaming with backpressure
and per-request deadlines — ``docs/service.md``).  Single-process by
default; ``--processes N`` switches to the prefork model (N
shared-nothing worker processes accepting on one socket).
``--auth-token`` (or the ``REPRO_AUTH_TOKEN`` environment variable)
requires ``Authorization: Bearer`` on everything but ``/healthz``;
``--autosize`` runs the telemetry-driven cache-sizing loop.  The
snapshot lifecycle (``docs/snapshot.md``):

* ``--snapshot PATH`` preloads a warm-state snapshot before any traffic
  (in prefork mode the parent loads it once and every forked worker
  shares the mmap'd pages copy-on-write);
* ``--snapshot-url URL`` bootstraps the same way from a *running
  fleet*'s ``GET /snapshot`` endpoint instead of a local file;
* ``--snapshot-save PATH`` turns on the live lifecycle: a background
  refresher atomically re-persists PATH as materialization grows
  (``--snapshot-refresh`` seconds between checks), and ``GET /snapshot``
  streams the current file to bootstrapping hosts.

See ``docs/service.md`` and ``docs/snapshot.md``.
"""

from __future__ import annotations

import argparse
import os

from .. import api
from .aio_run import serve
from .autosize import AUTOSIZE_INTERVAL, Autosizer
from .core import DEFAULT_WORKERS
from .prefork import (
    REFRESH_INTERVAL,
    REFRESH_MIN_GROWTH,
    SnapshotRefresher,
    describe_preload,
    snapshot_source_for,
)
from .wire import DEFAULT_HOST, DEFAULT_PORT


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HTTP validation service for deterministic regular expressions "
        "(POST /match, POST /validate, GET /stats, GET /snapshot).",
    )
    parser.add_argument(
        "--host", default=DEFAULT_HOST, help=f"bind address (default {DEFAULT_HOST})"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (default {DEFAULT_PORT}; 0 = ephemeral)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help=f"worker threads per process (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes; > 1 boots the prefork front (POSIX only, default 1)",
    )
    # Accepted for launchers written when a second front existed; "aio"
    # is the only value.
    parser.add_argument("--front", choices=("aio",), default="aio", help=argparse.SUPPRESS)
    parser.add_argument(
        "--auth-token",
        default=os.environ.get("REPRO_AUTH_TOKEN"),
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every endpoint except "
        "/healthz (default: $REPRO_AUTH_TOKEN)",
    )
    parser.add_argument(
        "--autosize",
        action="store_true",
        help="telemetry-driven cache sizing: grow/shrink the compile cache and "
        "per-pattern acceptance memos from live traffic (reported under "
        "/stats 'autosize')",
    )
    parser.add_argument(
        "--autosize-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=f"seconds between autosizing ticks (default {AUTOSIZE_INTERVAL:g})",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="warm-state snapshot to preload before serving (see docs/snapshot.md)",
    )
    parser.add_argument(
        "--snapshot-url",
        default=None,
        metavar="URL",
        help="bootstrap from a running fleet: fetch and preload GET /snapshot "
        "from this base URL (e.g. http://host:port/snapshot)",
    )
    parser.add_argument(
        "--snapshot-save",
        default=None,
        metavar="PATH",
        help="live snapshot lifecycle: auto-refresh this file as materialization "
        "grows and stream it over GET /snapshot",
    )
    parser.add_argument(
        "--snapshot-refresh",
        type=float,
        default=REFRESH_INTERVAL,
        metavar="SECONDS",
        help=f"seconds between snapshot auto-refresh checks (default {REFRESH_INTERVAL:g})",
    )
    parser.add_argument(
        "--snapshot-refresh-growth",
        type=int,
        default=REFRESH_MIN_GROWTH,
        metavar="N",
        help="materialization growth (memoized transitions + table/memo entries) "
        f"required before the snapshot is rewritten (default {REFRESH_MIN_GROWTH})",
    )
    arguments = parser.parse_args(argv)
    preload = arguments.snapshot or arguments.snapshot_url
    if arguments.snapshot and arguments.snapshot_url:
        parser.error("--snapshot and --snapshot-url are mutually exclusive")
    autosize_interval = arguments.autosize_interval
    if autosize_interval is not None and not arguments.autosize:
        parser.error("--autosize-interval requires --autosize")
    if arguments.processes > 1 and hasattr(os, "fork"):
        from .prefork import serve_prefork

        serve_prefork(
            host=arguments.host,
            port=arguments.port,
            processes=arguments.processes,
            workers=arguments.workers,
            snapshot_path=preload,
            snapshot_save=arguments.snapshot_save,
            refresh_interval=arguments.snapshot_refresh,
            refresh_min_growth=arguments.snapshot_refresh_growth,
            auth_token=arguments.auth_token,
            autosize_interval=(
                (autosize_interval or AUTOSIZE_INTERVAL) if arguments.autosize else None
            ),
        )
        return
    if arguments.processes > 1:
        print("os.fork is unavailable on this platform; serving single-process", flush=True)
    if preload:
        print(describe_preload(preload, api.load_snapshot(preload)), flush=True)
    refresher = (
        SnapshotRefresher(
            arguments.snapshot_save,
            interval=arguments.snapshot_refresh,
            min_growth=arguments.snapshot_refresh_growth,
        )
        if arguments.snapshot_save
        else None
    )
    autosizer = (
        Autosizer(interval=autosize_interval if autosize_interval else AUTOSIZE_INTERVAL)
        if arguments.autosize
        else None
    )
    serve(
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        snapshot_source=snapshot_source_for(arguments.snapshot_save, arguments.snapshot),
        refresher=refresher,
        auth_token=arguments.auth_token,
        autosizer=autosizer,
    )


if __name__ == "__main__":
    main()
