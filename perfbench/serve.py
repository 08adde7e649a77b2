"""The serve-aio workload: a closed-loop client against the asyncio front.

The server runs in a child process (``python -m repro.service --front aio
--workers 2``, or :mod:`perfbench.traced_server` for the traced run); this
process is the single load generator, with two keep-alive connections
that each send their next request only after the previous reply arrived.
The traced run and its untraced twin use one connection to a one-worker
server instead, so their counts repeat (see ``FIXED_WORKERS``).
Request bodies are generated before the clock starts and every response
is checked after the loop ends, so the client spends the measured time
sending and receiving.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time

from . import inputs

CONNECTIONS = 2
SERVER_WORKERS = 2
#: Requests per ``--seconds`` of a measured run (about two seconds of traffic on 2 vCPUs:
#: five 1000-request segments give the p99 its mean).
NOMINAL_RATE = 500
#: Requests between two calibration pauses of a measured run.
SEGMENT = 100
#: Requests in the traced run and in its untraced twin.
FIXED_REQUESTS = 400
#: Connections and server pool threads of the traced run and its untraced twin:
#: one request at a time, and each one a single pool job (two threads would
#: race to fill the same rows and build the same kernel program, so counts
#: such as ``programs_built`` would differ between runs of the same seed).
FIXED_CONNECTIONS = 1
FIXED_WORKERS = 1
BOOT_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Server:
    """A server child process: boot, probe, signal and stop it.

    It runs *workers* pool threads, except that a traced server (one given
    *traced_out*) always runs ``FIXED_WORKERS``.
    """

    def __init__(self, workers: int, traced_out: str | None = None):
        if traced_out is None:
            argv = [sys.executable, "-m", "repro.service", "--front", "aio"]
            argv += ["--workers", str(workers), "--host", "127.0.0.1", "--port", "0"]
        else:
            argv = [sys.executable, "-m", "perfbench.traced_server", "--out", traced_out]
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, bufsize=1
        )
        self.output: list[str] = []
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        self.port = self._await_port(lines)

    def _drain(self, lines: queue.Queue) -> None:
        for line in self.process.stdout:
            if len(self.output) < 200:
                self.output.append(line.rstrip())
            lines.put(line)
        lines.put(None)

    def _await_port(self, lines: queue.Queue) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server did not start: " + " | ".join(self.output[-5:]))
            found = _LISTENING.search(line)
            if found:
                return int(found.group(2))

    def peak_rss_mb(self) -> float:
        from .summary import peak_rss_mb

        return peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        from .summary import cpu_seconds

        return cpu_seconds(self.process.pid)

    def signal(self, number: int) -> None:
        self.process.send_signal(number)

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit (killing it if it hangs)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._reader.join(timeout=5)


# -- HTTP/1.1 over asyncio streams -------------------------------------------------------


async def _exchange(reader, writer, method: str, path: str, body: bytes = b""):
    head = f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
    if method == "POST":
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    writer.write(head.encode("ascii") + b"\r\n" + body)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _request_once(port: int, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _exchange(reader, writer, method, path, body)
    finally:
        writer.close()
        await writer.wait_closed()


def request(port: int, method: str, path: str, body: bytes = b""):
    return asyncio.run(_request_once(port, method, path, body))


def wait_healthy(port: int) -> None:
    deadline = time.monotonic() + BOOT_TIMEOUT
    while True:
        try:
            if request(port, "GET", "/healthz")[0] == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never answered /healthz")
        time.sleep(0.01)


async def _closed_loop(port: int, requests: list, segment: int, pause, connections: int):
    """Run *requests* in segments over *connections* keep-alive connections.

    Returns ``(results, walls)``: one ``(latency_s, status, body, request,
    segment_index)`` per request and the wall time of each segment.
    *pause* runs after each segment, when no request is in flight.
    """
    streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)]
    results: list = []
    walls: list[float] = []

    async def drive(reader, writer, batch, cursor, index):
        for slot in cursor:
            item = batch[slot]
            sent = time.perf_counter()
            status, body = await _exchange(reader, writer, "POST", item.path, item.body)
            results.append((time.perf_counter() - sent, status, body, item, index))

    try:
        for index, low in enumerate(range(0, len(requests), segment)):
            batch = requests[low : low + segment]
            cursor = iter(range(len(batch)))
            start = time.perf_counter()
            await asyncio.gather(*(drive(r, w, batch, cursor, index) for r, w in streams))
            walls.append(time.perf_counter() - start)
            if pause is not None:
                pause()
    finally:
        for _reader, writer in streams:
            writer.close()
            await writer.wait_closed()
    return results, walls


def closed_loop(
    port: int,
    requests: list,
    segment: int | None = None,
    pause=None,
    connections: int = CONNECTIONS,
):
    return asyncio.run(_closed_loop(port, requests, segment or len(requests), pause, connections))


def check(status: int, body: bytes, item) -> str | None:
    """Compare one response with the expected verdicts; an error message or ``None``."""
    if status != 200:
        return f"{item.path} answered {status}: {body[:200]!r}"
    payload = json.loads(body)
    if item.path == "/match":
        if payload.get("verdicts") != item.expected:
            return "/match verdicts differ"
        return None
    verdicts = payload.get("verdicts", [])
    if len(verdicts) != len(item.expected):
        return "/validate verdict count differs"
    for verdict, (valid, paths) in zip(verdicts, item.expected):
        got = sorted(violation.get("path", "") for violation in verdict["violations"])
        if verdict["valid"] != valid or got != paths:
            return f"/validate verdict {got or 'valid'} expected {paths or 'valid'}"
    return None


class Traffic:
    """The seeded request stream: /match batches alternating with /validate documents."""

    def __init__(self, seed: int):
        self.families = inputs.match_families(seed)
        self.dtd_text = inputs.catalog_dtd()
        self.rng = random.Random(f"serve-aio:{seed}")
        self.seed = seed
        self.docs = self._documents()
        self.doc_counts = inputs.Strata(self.rng, lambda u: 1 + int(u * 2), block=2)
        self.count = 0

    def _documents(self):
        for block in itertools.count():
            yield from inputs.doc_cases(self.seed, block, schemas=("dtd",))

    def warmup(self) -> list:
        """One request per pattern plus one DTD payload, to compile before timing."""
        batch = []
        for family in self.families:
            body = {"pattern": family.text, "dialect": "named", "words": family.pool}
            batch.append(inputs.Request("/match", json.dumps(body).encode(), family.pool_expected))
        documents = inputs.doc_cases(self.seed, -1, ("dtd",))[:2]
        batch.append(inputs.validate_request(self.dtd_text, documents))
        return batch

    def take(self, count: int) -> list:
        out = []
        for _ in range(count):
            index = self.count
            self.count += 1
            if index % 2 == 0:
                family = self.families[(index // 2) % len(self.families)]
                out.append(inputs.match_request(family, self.rng))
            else:
                cases = list(itertools.islice(self.docs, self.doc_counts.draw()))
                out.append(inputs.validate_request(self.dtd_text, cases))
        return out


def boot(
    traffic: Traffic, workers: int = SERVER_WORKERS, traced_out: str | None = None
) -> tuple[Server, float]:
    """Start a server, wait for /healthz and warm it up; returns it with its set-up time.

    The warm-up requests go one at a time, so the server's state after
    set-up does not depend on how two connections interleave.
    """
    warm = traffic.warmup()
    server = Server(workers, traced_out)
    try:
        wait_healthy(server.port)
        results, _walls = closed_loop(server.port, warm, connections=1)
        problems = [check(status, body, item) for _lat, status, body, item, _seg in results]
        problems = [problem for problem in problems if problem]
        if problems:
            raise RuntimeError(f"warm-up: {problems[0]}")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - server.spawned


def stats(port: int) -> dict:
    status, body = request(port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return json.loads(body)


def program_counts(snapshot: dict) -> dict:
    """The counters of one ``GET /stats`` snapshot that the per-layer table uses."""
    memo_hits = memo_misses = 0
    for validator in snapshot.get("validators", {}).values():
        for memo in validator.get("memos", {}).values():
            memo_hits += memo["hits"]
            memo_misses += memo["misses"]
    rows = sum(
        pattern["transitions_memoized"]
        for pattern in snapshot.get("patterns", {}).values()
        if pattern is not None
    )
    kernel = snapshot["kernel"]
    cache = snapshot["pattern_cache"]
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "programs_built": kernel["programs_built"],
        "kernel_words": kernel["kernel_words"],
        "fallback_words": kernel["fallback_words"],
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
        "rows_filled": rows,
        "requests": snapshot["requests"]["total"],
        "errors": snapshot["requests"]["errors"],
    }
