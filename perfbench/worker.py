"""One workload in one fresh interpreter; prints a JSON result as its last line.

``python -m perfbench.worker WORKLOAD --seed N --mode MODE --spawned-at T
[--seconds S]`` with MODE one of:

* ``setup``: set up (import, fixed patterns or validators, warm-up) and
  report only the set-up time;
* ``measure``: set up, then run ``S`` times the workload's nominal rate of
  operations (at least ``MIN_OPS``, so a p99 has ten samples beyond it),
  checking every outcome;
* ``fixed``: the seed-fixed operation list, timed as a whole (the
  untraced twin of the traced run);
* ``traced``: the same fixed list with layer wrappers installed; reports
  the per-layer table and writes the span records to ``OUT_DIR``.

``T`` is the parent's ``time.monotonic()`` just before it spawned this
interpreter, so set-up time starts at interpreter start.  Input
generation is timed separately and subtracted: it is not program work.
In-process operations are single-threaded and CPU-bound, so their
latency is the thread's CPU time (time spent descheduled by other tenants
of a shared box is not program work either); serve-aio latency is wall
time seen by the client.  Measured times are scaled by
:mod:`perfbench.calibrate`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from time import perf_counter, thread_time

from .calibrate import WINDOW, Speed

#: Fewest operations in a measured run: a p99 needs ten samples beyond it.
MIN_OPS = 1000
#: Operation time between two calibration probes, seconds.
PROBE_EVERY_S = 0.05
#: Hard cap on a measured run's wall time, seconds.
MAX_MEASURE_S = 120.0
#: Failure messages kept for the report.
KEEP_FAILURES = 5
#: Result files and span dumps.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def provenance(seed: int) -> dict:
    import repro

    return {
        "backend": repro.stats()["kernel"]["backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repro_kernel": os.environ.get("REPRO_KERNEL"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _program_snapshot(repro, workload) -> dict:
    stats = repro.stats()
    snapshot = {
        "cache_hits": stats["pattern_cache"]["hits"],
        "cache_misses": stats["pattern_cache"]["misses"],
        "programs_built": stats["kernel"]["programs_built"],
        "kernel_words": stats["kernel"]["kernel_words"],
        "fallback_words": stats["kernel"]["fallback_words"],
    }
    snapshot.update(workload.program_counts())
    return snapshot


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class Tally:
    """Failed operations: how many, and the first few messages."""

    def __init__(self):
        self.failed = 0
        self.failures: list[str] = []

    def add(self, problem: str | None) -> None:
        if problem:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(problem)


def attempt(workload, case):
    """Run one operation: ``(wall_s, cpu_s, outcome, problem or None)``.

    Only ``workload.run`` is timed; a raising operation is a failed
    operation, not a crashed run.
    """
    began, began_cpu = perf_counter(), thread_time()
    try:
        outcome = workload.run(case)
    except Exception as exc:  # the operation failed; the run goes on
        outcome, problem = None, f"{type(exc).__name__}: {exc}"
    else:
        problem = None
    wall, cpu = perf_counter() - began, thread_time() - began_cpu
    return wall, cpu, outcome, problem or workload.check(case, outcome)


class CpuClock:
    """Each operation's thread CPU time, scaled by calibration probes between operations.

    Creating the clock takes ``WINDOW`` probes; :meth:`tick` between two
    operations probes again once ``PROBE_EVERY_S`` of operation time has
    passed; :meth:`scaled` takes the closing probes and scales every
    operation by the probes on both sides of it.
    """

    def __init__(self):
        self.speed = Speed()
        self.speed.probe(WINDOW)
        self.raw: list[float] = []
        self._windows: list[int] = []
        self._since_probe = 0.0

    def tick(self) -> None:
        if self._since_probe >= PROBE_EVERY_S:
            self.speed.probe()
            self._since_probe = 0.0

    def add(self, cpu_s: float) -> None:
        self._since_probe += cpu_s
        self.raw.append(cpu_s)
        self._windows.append(len(self.speed.history) - 1)

    def scaled(self) -> list[float]:
        """Every operation's CPU seconds at the reference interpreter speed."""
        self.speed.probe(WINDOW // 2)
        return [cpu * self.speed.centred(window) for cpu, window in zip(self.raw, self._windows)]


class Run:
    """Set-up clock: interpreter start to first timed op, minus input generation."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.generation_s = 0.0

    def generate(self, make):
        start = perf_counter()
        try:
            return make()
        finally:
            self.generation_s += perf_counter() - start

    def setup_s(self) -> float:
        return time.monotonic() - self.spawned_at - self.generation_s


def in_process(arguments) -> dict:
    import repro

    from .ops import WORKLOADS
    from .summary import peak_rss_mb, percentile, segmented_percentile

    run = Run(arguments.spawned_at)
    tracer = None
    if arguments.mode == "traced":
        from .tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = run.generate(lambda: WORKLOADS[arguments.workload](arguments.seed))
    workload.setup()
    if arguments.mode == "setup":
        setup_s = run.setup_s()
        speed = Speed()
        speed.probe(WINDOW)
        return {"setup_s": setup_s * speed.factor(), "raw_setup_s": setup_s}
    if arguments.mode in ("fixed", "traced"):
        return fixed_run(repro, workload, run.generate(workload.fixed_cases), tracer, arguments)

    target = max(MIN_OPS, round(arguments.seconds * workload.nominal_rate))
    cases = workload.cases()
    tally = Tally()
    items = 0
    clock = None
    start = perf_counter()
    for _ in range(target):
        case = run.generate(lambda: next(cases))
        if clock is None:
            setup_s = run.setup_s()
            clock = CpuClock()
        else:
            clock.tick()
        _wall, cpu, _outcome, problem = attempt(workload, case)
        clock.add(cpu)
        items += workload.items(case)
        tally.add(problem)
        if perf_counter() - start > MAX_MEASURE_S:
            break
    latencies = [seconds * 1000.0 for seconds in clock.scaled()]
    busy = sum(latencies) / 1000.0
    raw_setup_s, setup_s = setup_s, setup_s * clock.speed.centred(0)
    return {
        "setup_s": setup_s,
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": segmented_percentile(latencies, 0.99),
        "items_per_s": items / busy,
        "peak_rss_mb": peak_rss_mb(),
        "samples": len(latencies),
        "items": items,
        "unit": workload.unit,
        "busy_s": busy,
        "raw_busy_s": sum(clock.raw),
        "raw_setup_s": raw_setup_s,
        "probes_s": clock.speed.history,
        "attempted": len(latencies),
        "failed": tally.failed,
        "failures": tally.failures,
        "provenance": provenance(arguments.seed),
    }


def fixed_run(repro, workload, cases: list, tracer, arguments) -> dict:
    """The fixed op list, untraced or traced (per-layer table).

    ``cost_s``, which the traced and untraced runs compare for the tracing
    overhead, is the operations' CPU time at the reference interpreter
    speed; ``wall_s`` is their wall time, which the spans' coverage is a
    share of.
    """
    tally = Tally()
    total = 0.0
    if tracer is not None:
        tracer.reset()
        before = _program_snapshot(repro, workload)
        layers = tracer.state().layers
    clock = CpuClock()
    for case in cases:
        if tracer is not None:
            determinism_before = layers.get("core.determinism", (0, 0))[1]
        clock.tick()
        wall, cpu, outcome, problem = attempt(workload, case)
        clock.add(cpu)
        total += wall
        tally.add(problem)
        if not problem and tracer is not None and hasattr(workload, "after_traced_op"):
            determinism_ns = layers.get("core.determinism", (0, 0))[1] - determinism_before
            workload.after_traced_op(case, outcome, determinism_ns)
    result = {
        "cost_s": sum(clock.scaled()),
        "raw_cpu_s": sum(clock.raw),
        "wall_s": total,
        "attempted": len(cases),
        "failed": tally.failed,
        "failures": tally.failures,
        "provenance": provenance(arguments.seed),
    }
    if tracer is None:
        return result
    from .tracing import layer_table, size_exponent

    program = _delta(_program_snapshot(repro, workload), before)
    extra = {"trace.coverage": tracer.top_ns("MainThread") / (total * 1e9)}
    if getattr(workload, "tail_points", None):
        extra["core.determinism.size_exponent"] = size_exponent(workload.tail_points)
        result["tail_points"] = workload.tail_points
    result["layers"] = layer_table(tracer.layers(), tracer.counts, program, extra)
    result["program"] = program
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{arguments.workload}-seed{arguments.seed}-spans.json"))
    return result


def serve_aio(arguments) -> dict:
    from . import serve
    from .summary import percentile, segmented_percentile

    run = Run(arguments.spawned_at)
    traffic = run.generate(lambda: serve.Traffic(arguments.seed))
    speed = Speed()
    if arguments.mode == "setup":
        server, setup_s = serve.boot(traffic)
        server.stop()
        speed.probe(WINDOW)
        return {"setup_s": setup_s * speed.factor(), "raw_setup_s": setup_s}
    if arguments.mode in ("fixed", "traced"):
        return serve_fixed(serve, traffic, arguments)
    count = max(MIN_OPS, round(arguments.seconds * serve.NOMINAL_RATE))
    requests = run.generate(lambda: traffic.take(count))
    server, raw_setup_s = serve.boot(traffic)
    speed.probe(WINDOW)
    # probes run between segments, with no request in flight, so they never
    # delay a reply; each segment is scaled by the probes on both sides
    try:
        results, walls = serve.closed_loop(
            server.port, requests, serve.SEGMENT, lambda: speed.probe(3)
        )
        rss = server.peak_rss_mb()
        backend = serve.stats(server.port)["kernel"]["backend"]
    finally:
        server.stop()
    factors = [speed.centred(WINDOW - 1 + 3 * index) for index in range(len(walls))]
    latencies = [latency * factors[segment] * 1000.0 for latency, _s, _b, _i, segment in results]
    busy = sum(wall * scale for wall, scale in zip(walls, factors))
    tally = Tally()
    for _latency, status, body, item, _segment in results:
        tally.add(serve.check(status, body, item))
    info = provenance(arguments.seed)
    info["backend"] = backend
    return {
        "setup_s": raw_setup_s * factors[0],
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": segmented_percentile(latencies, 0.99),
        "items_per_s": len(results) / busy,
        "peak_rss_mb": rss,
        "samples": len(results),
        "items": len(results),
        "unit": "requests",
        "busy_s": busy,
        "raw_busy_s": sum(walls),
        "raw_setup_s": raw_setup_s,
        "probes_s": speed.history,
        "attempted": len(results),
        "failed": tally.failed,
        "failures": tally.failures,
        "provenance": info,
    }


def serve_fixed(serve, traffic, arguments) -> dict:
    """The fixed request list against an untraced or a traced one-worker server.

    ``cost_s``, which the traced and untraced runs compare for the tracing
    overhead, is the server's CPU time over the request loop.  It is not
    scaled: calibration probes, in the client or on the server's loop
    thread, do not track the speed of the server's pool thread.
    """
    import signal

    from .tracing import layer_table

    requests = traffic.take(serve.FIXED_REQUESTS)
    traced = arguments.mode == "traced"
    out = os.path.join(OUT_DIR, f"serve-aio-seed{arguments.seed}-server.json")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
    server, _setup_s = serve.boot(traffic, serve.FIXED_WORKERS, out if traced else None)
    try:
        before = serve.program_counts(serve.stats(server.port))
        if traced:
            server.signal(signal.SIGUSR1)
            time.sleep(0.2)  # let the handler run before traffic starts
        cpu_before = server.cpu_s()
        results, walls = serve.closed_loop(
            server.port, requests, connections=serve.FIXED_CONNECTIONS
        )
        server_cpu_s = server.cpu_s() - cpu_before
        snapshot = serve.stats(server.port)
    finally:
        server.stop()
    tally = Tally()
    for _latency, status, body, item, _segment in results:
        tally.add(serve.check(status, body, item))
    result = {
        "cost_s": server_cpu_s,
        "wall_s": sum(walls),
        "attempted": len(results),
        "failed": tally.failed,
        "failures": tally.failures,
        "provenance": dict(provenance(arguments.seed), backend=snapshot["kernel"]["backend"]),
    }
    if not traced:
        return result
    with open(out, encoding="utf-8") as handle:
        dump = json.load(handle)
    program = _delta(serve.program_counts(snapshot), before)
    loop = dump["loop_ns"]
    core_self = dump["layers"].get("service.core", [0, 0, 0])[1] + loop["core"]
    client_ns = sum(latency for latency, *_rest in results) * 1e9
    extra = {
        "service.core.request_p50_ms": snapshot["requests"]["p50_ms"],
        "service.core.request_p99_ms": snapshot["requests"]["p99_ms"],
        "service.core.pool_wait_s": dump["counts"].get("service.core.pool_wait_ns", 0) / 1e9,
        "service.core.self_s": core_self / 1e9,
        "service.aio.requests": program["requests"],
        "service.aio.errors": program["errors"],
        "service.aio.self_s": (loop["aio"] - loop["core"]) / 1e9,
        "trace.coverage": dump["counts"].get("service.aio.post_ns", 0) / client_ns,
    }
    result["layers"] = layer_table(dump["layers"], dump["counts"], program, extra)
    result["program"] = program
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "fixed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    arguments = parser.parse_args(argv)
    if arguments.workload == "serve-aio":
        result = serve_aio(arguments)
    else:
        result = in_process(arguments)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
