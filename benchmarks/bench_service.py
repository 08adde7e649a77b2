"""The validation service's batch operations vs. the per-word request loop.

The service exists so that clients stop issuing one request per word: a
per-word loop pays the request accounting, the compile-cache probe and the
pattern dispatch once *per word*, while ``match_batch`` pays them once per
corpus and then rides the warm batch paths — one encoded-corpus pass of
the star-free multi-matcher (Theorem 4.12) or a compiled-runtime replay
over rows shared by every worker.  This module tracks that gap:

* pytest-benchmark timings of both shapes on warm patterns
  (``BENCH_service.json`` in CI);
* verdict-equivalence checks: the batch paths, the per-word loop and a
  freshly compiled uncached control must agree on every word;
* a throughput smoke gate — one batch request ≥ 3× the per-word request
  loop on warm patterns — so a regression in the batch plumbing fails
  loudly even without timing collection.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
import urllib.request
from contextlib import contextmanager

import repro
from repro.service import AsyncServiceServer, ValidationService

#: One starred pattern (compiled-runtime batch path) and one star-free
#: pattern (multi-matcher batch path); the gate covers both.
PATTERNS = {
    "starred": "(ab+b(b?)a)*",
    "star-free": "(a+b)(c?)(d+e)f",
}

WORD_COUNT = 2000

#: Whole-corpus passes per timed section (warm replay is the scenario).
REPEATS = 3


def _corpus(expr: str) -> tuple[list[str], list[bool]]:
    """Member-biased random words plus single-threaded oracle verdicts."""
    reference = repro.Pattern(expr, compiled=False)
    alphabet = reference.tree.alphabet.as_list()
    rng = random.Random(20120521)
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
        for _ in range(WORD_COUNT)
    ]
    return words, [reference.match(word) for word in words]


def _per_word_loop(service: ValidationService, expr: str, words: list[str]) -> list[bool]:
    """The naive client: one service request per word."""
    return [service.match_batch(expr, [word])[0] for word in words]


@contextmanager
def _serving(service: ValidationService):
    """The serving front on an ephemeral port, its event loop on a thread.

    Yields the front and its bound port; blocking clients (urllib, raw
    sockets, a thread-pool burst) talk to it from the calling thread.
    """
    front = AsyncServiceServer(service)
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    try:
        asyncio.run_coroutine_threadsafe(front.start("127.0.0.1", 0), loop).result(10)
        port = front.address()[1]
        assert port != 0
        yield front, port
    finally:
        asyncio.run_coroutine_threadsafe(front.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=10)
        loop.close()


# ---------------------------------------------------------------------------
# pytest-benchmark timings (enabled with --benchmark-enable)
# ---------------------------------------------------------------------------

def test_per_word_requests(benchmark):
    expr = PATTERNS["starred"]
    words, _ = _corpus(expr)
    with ValidationService(workers=8) as service:
        service.match_batch(expr, words)  # warm the pattern and its rows
        verdicts = benchmark(lambda: [_per_word_loop(service, expr, words) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(words)


def test_batch_requests(benchmark):
    expr = PATTERNS["starred"]
    words, _ = _corpus(expr)
    with ValidationService(workers=8) as service:
        service.match_batch(expr, words)
        verdicts = benchmark(lambda: [service.match_batch(expr, words) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(words)


def test_batch_requests_star_free(benchmark):
    expr = PATTERNS["star-free"]
    words, _ = _corpus(expr)
    with ValidationService(workers=8) as service:
        service.match_batch(expr, words)
        verdicts = benchmark(lambda: [service.match_batch(expr, words) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(words)


# ---------------------------------------------------------------------------
# Correctness and throughput gates (run even with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_batch_verdicts_identical_to_per_word_and_oracle():
    """Batch, per-word-loop and fresh-pattern control must all agree."""
    with ValidationService(workers=8) as service:
        for label, expr in PATTERNS.items():
            words, oracle = _corpus(expr)
            assert any(oracle) and not all(oracle), label  # both verdicts present
            batch = service.match_batch(expr, words)
            assert batch == oracle, f"{label}: batch diverged from the oracle"
            assert _per_word_loop(service, expr, words) == oracle, label
    # both run the kernel; the routes keep their wire names
    assert repro.compile(PATTERNS["starred"]).describe()["batch_path"] == "compiled-kernel"
    assert repro.compile(PATTERNS["star-free"]).describe()["batch_path"] == "star-free-multi"


def _best_of(rounds: int, work) -> float:
    """Minimum wall-clock over *rounds* runs (robust against CI descheduling)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def test_http_round_trip_on_an_ephemeral_port():
    """One real HTTP batch request against a server on an ephemeral port.

    Port 0 lets the kernel pick a free port which is then read back from
    the bound socket — a fixed port collides with whatever else a shared
    CI runner is doing (the ci.yml smoke step reads the bound port back
    the same way).
    """
    words, oracle = _corpus(PATTERNS["starred"])
    with ValidationService(workers=4) as service, _serving(service) as (_front, port):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/match",
            data=json.dumps({"pattern": PATTERNS["starred"], "words": words}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.load(response)
    assert body["verdicts"] == oracle


def test_batch_speedup_at_least_3x():
    """One batch request must be ≥ 3× the per-word request loop, warm.

    Locally the gap is 10–16×; best-of-3 timing keeps the gate from
    tripping on a descheduled shared CI runner rather than on a real
    regression in the batch plumbing.
    """
    with ValidationService(workers=8) as service:
        for label, expr in PATTERNS.items():
            words, oracle = _corpus(expr)
            assert service.match_batch(expr, words) == oracle  # warm + verify
            per_word = _best_of(3, lambda: _per_word_loop(service, expr, words))
            batch = _best_of(3, lambda: service.match_batch(expr, words))
            speedup = per_word / batch
            assert speedup >= 3.0, (
                f"{label}: batch only {speedup:.2f}x over the per-word request loop"
            )


# ---------------------------------------------------------------------------
# The aio streaming front: sustained concurrency, p99, bounded memory
# ---------------------------------------------------------------------------

#: In-flight streaming requests for the sustained-concurrency gate.
STREAM_CLIENTS = 200
STREAM_WORDS_PER_CLIENT = 60

#: The bounded-memory gate streams a corpus bigger than the buffered
#: path's request-body cap — a corpus no client could POST as one JSON
#: body — and requires the server's lifetime peak RSS to stay below even
#: one in-memory copy of it.
HUGE_CORPUS_BYTES = 72 * 1024 * 1024


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def _client_corpora() -> tuple[list[list[str]], list[list[bool]]]:
    """One word list (and its oracle verdicts) per streaming client."""
    reference = repro.Pattern(PATTERNS["starred"], compiled=False)
    alphabet = reference.tree.alphabet.as_list()
    rng = random.Random(20120807)
    corpora, oracles = [], []
    for _ in range(STREAM_CLIENTS):
        words = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 10)))
            for _ in range(STREAM_WORDS_PER_CLIENT)
        ]
        corpora.append(words)
        oracles.append([reference.match(word) for word in words])
    return corpora, oracles


def _stream_match(port: int, expr: str, words: list[str]) -> tuple[list, float]:
    """One NDJSON streaming /match request over a blocking socket.

    A 200-way connect burst can overflow the listen backlog; a reset
    connection is retried (as any real client would), and the retries
    count toward this request's latency.  Returns (verdicts, seconds).
    """
    import socket

    start = time.perf_counter()
    lines = [json.dumps({"pattern": expr})] + [json.dumps(word) for word in words]
    body = ("\n".join(lines) + "\n").encode()
    head = (
        "POST /match HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    for attempt in range(8):
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                sock.sendall(head + body)
                raw = bytearray()
                while True:
                    piece = sock.recv(1 << 16)
                    if not piece:
                        break
                    raw += piece
            break
        except (ConnectionError, OSError):
            if attempt == 7:
                raise
            time.sleep(0.05 * (attempt + 1))
    head_end = raw.index(b"\r\n\r\n")
    assert b" 200 " in raw[:head_end].split(b"\r\n", 1)[0], raw[:head_end]
    payload = bytearray()
    cursor = head_end + 4
    while True:
        size_end = raw.index(b"\r\n", cursor)
        size = int(raw[cursor:size_end], 16)
        if size == 0:
            break
        payload += raw[size_end + 2 : size_end + 2 + size]
        cursor = size_end + 2 + size + 2
    decoded = [json.loads(line) for line in bytes(payload).splitlines()]
    trailer = decoded[-1]
    assert trailer.get("done") is True and trailer["count"] == len(words)
    return decoded[1:-1], time.perf_counter() - start


def test_sustained_streaming_concurrency_gate():
    """≥ 200 in-flight streams, every verdict identical to the oracle.

    One event loop runs the whole 200-way burst with micro-batched pool
    work.  The gate requires every verdict to match the single-threaded
    oracle and the front to have counted every stream; the tail latency
    is printed for the CI log.
    """
    import concurrent.futures

    expr = PATTERNS["starred"]
    corpora, oracles = _client_corpora()
    with ValidationService(workers=8) as service, _serving(service) as (front, port):
        _stream_match(port, expr, corpora[0])  # warm
        with concurrent.futures.ThreadPoolExecutor(STREAM_CLIENTS) as pool:
            results = list(pool.map(lambda words: _stream_match(port, expr, words), corpora))
        assert front.streams >= STREAM_CLIENTS
    for (verdicts, _), oracle in zip(results, oracles):
        assert verdicts == oracle

    p99 = _percentile([seconds for _, seconds in results], 0.99)
    print(f"\n{STREAM_CLIENTS} in-flight streams: p99 {p99 * 1000:.1f}ms")


def test_streaming_peak_rss_stays_below_the_corpus():
    """Stream a corpus the buffered path could never accept; bound peak RSS.

    The corpus exceeds ``MAX_BODY_BYTES`` (a buffered POST would be
    rejected with 413 before parsing), so NDJSON streaming is the only
    way to validate it in one request — and the server process's
    lifetime peak RSS (``VmHWM``) must stay below the size of one
    in-memory copy of the corpus, proving neither the body nor the
    verdicts are ever materialised.
    """
    import os
    import socket
    import subprocess
    import sys

    import pytest

    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM requires /proc")

    from repro.service.wire import MAX_BODY_BYTES

    assert HUGE_CORPUS_BYTES > MAX_BODY_BYTES

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH", "")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        port = int(banner.rsplit(":", 1)[1].split()[0].rstrip("/"))

        word = "abba" * 256  # 1 KiB per line, a member of the pattern
        line = (json.dumps(word) + "\n").encode()
        count = HUGE_CORPUS_BYTES // len(line) + 1

        with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
            sock.sendall(
                b"POST /match HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            )
            header = (json.dumps({"pattern": PATTERNS["starred"]}) + "\n").encode()
            sock.sendall(f"{len(header):x}\r\n".encode() + header + b"\r\n")
            sock.settimeout(300)

            # Upload and download must interleave: a reader thread drains
            # verdicts while the corpus is still being generated.
            received = bytearray()

            def drain() -> None:
                while True:
                    piece = sock.recv(1 << 20)
                    if not piece:
                        return
                    received.extend(piece)

            reader = threading.Thread(target=drain, daemon=True)
            reader.start()
            frame = line * 64  # 64 KiB chunks
            sent = 0
            while sent < count:
                batch = min(64, count - sent)
                piece = frame if batch == 64 else line * batch
                sock.sendall(f"{len(piece):x}\r\n".encode() + piece + b"\r\n")
                sent += batch
            sock.sendall(b"0\r\n\r\n")
            reader.join(timeout=300)

        body = bytes(received)
        head_end = body.index(b"\r\n\r\n")
        assert b" 200 " in body[:head_end].split(b"\r\n", 1)[0]
        # The trailer rides in the last chunks; "done" proves the server
        # saw every line rather than bailing early.
        trailer_at = body.rindex(b'{"count":')
        trailer = json.loads(body[trailer_at : body.index(b"\n", trailer_at)])
        assert trailer == {"count": count, "done": True}

        with open(f"/proc/{process.pid}/status") as status:
            fields = dict(
                line.split(":", 1) for line in status.read().splitlines() if ":" in line
            )
        peak_bytes = int(fields["VmHWM"].split()[0]) * 1024
        print(
            f"\nstreamed {count} words ({count * len(line) / 2**20:.0f} MiB), "
            f"server VmHWM {peak_bytes / 2**20:.0f} MiB"
        )
        assert peak_bytes < HUGE_CORPUS_BYTES, (
            f"server peak RSS {peak_bytes / 2**20:.0f} MiB is not below the "
            f"{HUGE_CORPUS_BYTES / 2**20:.0f} MiB corpus it streamed"
        )
    finally:
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()


def test_streaming_request_timing(benchmark):
    """pytest-benchmark timing of one warm NDJSON streaming request.

    The CI ``service-aio`` job uploads this as ``BENCH_service_aio.json``
    so the perf trajectory tracks the streaming path alongside the
    buffered one.
    """
    expr = PATTERNS["starred"]
    words, oracle = _corpus(expr)
    with ValidationService(workers=8) as service, _serving(service) as (_front, port):
        verdicts, _ = _stream_match(port, expr, words)  # warm + verify
        assert verdicts == oracle
        benchmark(lambda: _stream_match(port, expr, words))
