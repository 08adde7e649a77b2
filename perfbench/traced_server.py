"""The asyncio front with the benchmark's layer wrappers installed.

Run as ``python -m perfbench.traced_server --out PATH``.  It installs
:func:`perfbench.tracing.install_server`, then serves exactly like
``python -m repro.service --front aio --workers 1`` on an ephemeral port
of 127.0.0.1 (one pool thread: see ``perfbench.serve.FIXED_WORKERS``).
``SIGUSR1`` drops what was recorded so far (boot and warm-up); on
``SIGINT`` the server shuts down and the per-layer aggregates are written
to PATH, the span records next to it.
"""

from __future__ import annotations

import argparse
import json
import signal

from .serve import FIXED_WORKERS
from .tracing import Tracer, install_server


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m perfbench.traced_server")
    parser.add_argument("--out", required=True)
    arguments = parser.parse_args(argv)

    tracer = Tracer()
    install_server(tracer)
    signal.signal(signal.SIGUSR1, lambda _number, _frame: tracer.reset())

    from repro.service.aio_run import serve

    serve(host="127.0.0.1", port=0, workers=FIXED_WORKERS)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "layers": tracer.layers(),
                "counts": dict(tracer.counts),
                "loop_ns": tracer.loop_ns,
            },
            handle,
        )
    tracer.dump(arguments.out.replace(".json", "-spans.json"))


if __name__ == "__main__":
    main()
