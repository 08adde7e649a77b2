"""Tests for the asyncio streaming front (``repro.service.aio``).

The wire framing is tested as pure functions; the server itself is
exercised over real sockets with a hand-rolled HTTP/1.1 client, because
the behaviours under test — chunked NDJSON streaming, backpressure,
deadlines, mid-stream disconnects, keep-alive — are exactly the parts a
convenience client library would paper over.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

import repro
from repro.matching.kernel import MIN_BATCH
from repro.matching.memo import MEMO_LIMIT
from repro.service import wire
from repro.service.aio import AsyncServiceServer
from repro.service.autosize import Autosizer
from repro.service.core import ValidationService
from repro.service.wire import WireError
from repro.xml.parser import MAX_DEPTH
from repro.xml.validator import MAX_VIOLATIONS

PATTERN = "(ab+b(b?)a)*"
DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"
VALID_DOC = "<a><b/></a>"
INVALID_DOC = "<a><c/></a>"


# ---------------------------------------------------------------------------
# wire.py: framing as pure functions
# ---------------------------------------------------------------------------

class TestRequestHead:
    def test_roundtrip(self):
        head = wire.parse_request_head(
            b"POST /match?detail=summary&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 12\r\n"
        )
        assert head.method == "POST"
        assert head.path == "/match"
        assert head.query == {"detail": "summary", "x": "1"}
        assert head.headers["host"] == "h"
        assert head.content_length() == 12
        assert head.keep_alive()

    def test_oversized_head_is_431(self):
        with pytest.raises(WireError) as caught:
            wire.parse_request_head(b"G" * (wire.MAX_HEAD_BYTES + 1))
        assert caught.value.status == 431

    def test_unknown_version_is_505(self):
        with pytest.raises(WireError) as caught:
            wire.parse_request_head(b"GET / HTTP/2.0\r\n")
        assert caught.value.status == 505

    def test_malformed_request_line_is_400(self):
        with pytest.raises(WireError) as caught:
            wire.parse_request_head(b"GETGARBAGE\r\n")
        assert caught.value.status == 400

    def test_garbage_content_length_is_400(self):
        head = wire.parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n")
        with pytest.raises(WireError) as caught:
            head.content_length()
        assert caught.value.status == 400

    def test_http_10_defaults_to_close(self):
        head = wire.parse_request_head(b"GET / HTTP/1.0\r\n")
        assert not head.keep_alive()
        head = wire.parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n")
        assert head.keep_alive()

    def test_ndjson_content_types(self):
        for content_type in ("application/x-ndjson", "application/ndjson; charset=utf-8"):
            head = wire.parse_request_head(
                f"POST / HTTP/1.1\r\nContent-Type: {content_type}\r\n".encode()
            )
            assert head.wants_ndjson()
        head = wire.parse_request_head(b"POST / HTTP/1.1\r\nContent-Type: application/json\r\n")
        assert not head.wants_ndjson()


class TestDetailNegotiation:
    def test_query_beats_header_beats_accept(self):
        headers = {
            "x-repro-detail": "summary",
            "accept": "application/x-ndjson; detail=full",
        }
        assert wire.negotiate_detail(headers, {"detail": "verdict"}) == "verdict"
        assert wire.negotiate_detail(headers, {}) == "summary"
        assert wire.negotiate_detail(
            {"accept": "application/x-ndjson; detail=verdict"}, {}
        ) == "verdict"
        assert wire.negotiate_detail({}, {}) == "full"

    def test_unknown_level_is_400(self):
        with pytest.raises(WireError) as caught:
            wire.negotiate_detail({}, {"detail": "everything"})
        assert caught.value.status == 400

    def test_shapes(self):
        violations = ("missing <b>", "stray <c>")
        assert wire.shape_verdict(False, violations, "verdict") is False
        assert wire.shape_verdict(False, violations, "summary") == {
            "valid": False,
            "violations": 2,
        }
        assert wire.shape_verdict(True, (), "full") == {"valid": True, "violations": []}


class TestChunkedFraming:
    def test_chunk_roundtrip(self):
        assert wire.chunk(b"abc") == b"3\r\nabc\r\n"
        assert wire.chunk(b"") == b""
        assert wire.parse_chunk_size(b"1a;ext=1\r\n") == 26

    def test_bad_chunk_size_is_400(self):
        with pytest.raises(WireError) as caught:
            wire.parse_chunk_size(b"xyz\r\n")
        assert caught.value.status == 400

    def test_split_lines_keeps_the_tail(self):
        buffer = bytearray(b'"one"\r\n"two"\n"par')
        assert wire.split_lines(buffer) == [b'"one"', b'"two"']
        assert bytes(buffer) == b'"par'
        buffer.extend(b'tial"\n')
        assert wire.split_lines(buffer) == [b'"partial"']

    def test_oversized_line_is_413(self):
        buffer = bytearray(b"x" * (wire.MAX_LINE_BYTES + 1))
        with pytest.raises(WireError) as caught:
            wire.split_lines(buffer)
        assert caught.value.status == 413


class TestRangeRequests:
    def test_plain_and_open_ended(self):
        assert wire.parse_range(None, 100) is None
        assert wire.parse_range("bytes=0-9", 100) == (0, 10)
        assert wire.parse_range("bytes=90-", 100) == (90, 10)
        assert wire.parse_range("bytes=0-1000", 100) == (0, 100)

    def test_suffix_range(self):
        assert wire.parse_range("bytes=-10", 100) == (90, 10)
        assert wire.parse_range("bytes=-1000", 100) == (0, 100)

    def test_unusable_shapes_serve_the_whole_file(self):
        assert wire.parse_range("items=0-9", 100) is None
        assert wire.parse_range("bytes=0-9,20-29", 100) is None
        assert wire.parse_range("bytes=9-0", 100) is None

    def test_beyond_the_file_is_416(self):
        with pytest.raises(WireError) as caught:
            wire.parse_range("bytes=100-", 100)
        assert caught.value.status == 416

    def test_etag_tracks_the_file_identity(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"generation-one")
        first = wire.snapshot_etag(os.stat(path))
        replacement = tmp_path / "snap.new"
        replacement.write_bytes(b"generation-two!")
        os.replace(replacement, path)
        assert wire.snapshot_etag(os.stat(path)) != first


# ---------------------------------------------------------------------------
# A minimal async HTTP/1.1 client for the server tests
# ---------------------------------------------------------------------------

class Front:
    """Boots one AsyncServiceServer on an ephemeral port for a test coroutine."""

    def __init__(self, workers: int = 4, **kwargs):
        self.workers = workers
        self.kwargs = kwargs

    async def __aenter__(self) -> "Front":
        self.service = ValidationService(workers=self.workers)
        self.front = AsyncServiceServer(self.service, **self.kwargs)
        await self.front.start("127.0.0.1", 0)
        self.port = self.front.address()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.front.close()
        self.service.close()


async def _open(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


def _request_bytes(method: str, target: str, headers: dict[str, str], body: bytes = b"") -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


async def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers: dict[str, str] = {}
    for line in head.split(b"\r\n")[1:]:
        name, sep, value = line.partition(b":")
        if sep:
            headers[name.strip().lower().decode()] = value.strip().decode()
    if headers.get("transfer-encoding") == "chunked":
        body = bytearray()
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                break
            body += await reader.readexactly(size)
            await reader.readexactly(2)
        return status, headers, bytes(body)
    length = int(headers.get("content-length", "0"))
    return status, headers, await reader.readexactly(length)


async def _roundtrip(port: int, method: str, target: str, headers=None, body: bytes = b""):
    reader, writer = await _open(port)
    try:
        sent = dict(headers or {})
        if body and "Content-Length" not in sent and "Transfer-Encoding" not in sent:
            sent["Content-Length"] = str(len(body))
        writer.write(_request_bytes(method, target, sent, body))
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _json_roundtrip(port: int, method: str, target: str, payload=None, headers=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    sent = {"Content-Type": "application/json", **(headers or {})}
    status, _, raw = await _roundtrip(port, method, target, sent, body)
    return status, json.loads(raw) if raw else None


def _ndjson_body(header: dict, items: list) -> bytes:
    lines = [json.dumps(header)] + [json.dumps(item) for item in items]
    return ("\n".join(lines) + "\n").encode()


async def _stream_roundtrip(port: int, target: str, header: dict, items: list, headers=None):
    body = _ndjson_body(header, items)
    sent = {"Content-Type": "application/x-ndjson", **(headers or {})}
    status, response_headers, raw = await _roundtrip(port, "POST", target, sent, body)
    if status != 200:
        return status, json.loads(raw), None, None
    lines = [json.loads(line) for line in raw.splitlines()]
    return status, lines[0], lines[1:-1], lines[-1]


# ---------------------------------------------------------------------------
# Routing, shapes, keep-alive
# ---------------------------------------------------------------------------

class TestRoutes:
    def test_healthz_and_stats(self):
        async def scenario():
            async with Front() as front:
                status, body = await _json_roundtrip(front.port, "GET", "/healthz")
                assert (status, body["status"]) == (200, "ok")
                status, stats = await _json_roundtrip(front.port, "GET", "/stats")
                assert status == 200
                assert stats["aio"]["connections"] >= 1
                assert stats["aio"]["max_pending_batches"] >= 1
                assert "requests" in stats and "pattern_cache" in stats

        asyncio.run(scenario())

    def test_unknown_endpoint_and_method(self):
        async def scenario():
            async with Front() as front:
                status, _ = await _json_roundtrip(front.port, "GET", "/nope")
                assert status == 404
                status, _, _ = await _roundtrip(front.port, "DELETE", "/match")
                assert status == 405

        asyncio.run(scenario())

    def test_deeply_nested_document_gets_a_json_reply(self):
        """Nesting depth costs the parser and the validator heap, not stack:
        a 900-deep document is validated like any other, and the server
        stays healthy."""

        async def scenario():
            async with Front() as front:
                valid = "<a>" * 900 + "</a>" * 900
                invalid = "<a>" * 900 + "<b/>" + "</a>" * 900
                payload = {"dtd": "<!ELEMENT a (a?)>", "documents": [valid, invalid]}
                status, body = await _json_roundtrip(front.port, "POST", "/validate", payload)
                assert status == 200
                assert [verdict["valid"] for verdict in body["verdicts"]] == [True, False]
                status, health = await _json_roundtrip(front.port, "GET", "/healthz")
                assert (status, health["status"]) == (200, "ok")

        asyncio.run(scenario())

    def test_deep_documents_cost_bounded_work(self):
        """A document failing at every one of 20 000 levels gets the first
        MAX_VIOLATIONS violations, quickly; one nested deeper than
        MAX_DEPTH is a 400."""

        async def scenario():
            async with Front() as front:
                depth = 20_000
                payload = {
                    "dtd": "<!ELEMENT a (a?)> <!ELEMENT b EMPTY>",
                    "documents": ["<a><b/>" * depth + "</a>" * depth],
                }
                started = time.perf_counter()
                status, body = await _json_roundtrip(front.port, "POST", "/validate", payload)
                assert time.perf_counter() - started < 5.0
                assert status == 200
                [verdict] = body["verdicts"]
                assert verdict["valid"] is False
                assert len(verdict["violations"]) == MAX_VIOLATIONS
                payload["documents"] = ["<a>" * (MAX_DEPTH + 1)]
                status, body = await _json_roundtrip(front.port, "POST", "/validate", payload)
                assert status == 400
                assert "nested deeper than" in body["error"]

        asyncio.run(scenario())

    def test_buffered_match_has_the_threaded_shape(self):
        async def scenario():
            async with Front() as front:
                words = ["abba", "bba", "bb", "", "ab"]
                status, body = await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": PATTERN, "words": words}
                )
                assert status == 200
                oracle = repro.Pattern(PATTERN, compiled=False)
                assert body["verdicts"] == [oracle.match(word) for word in words]
                assert set(body) == {"pattern", "count", "detail", "verdicts", "strategy", "batch_path"}

        asyncio.run(scenario())

    def test_buffered_error_mapping(self):
        async def scenario():
            async with Front() as front:
                status, body = await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": "(a*ba+bb)*", "words": []}
                )
                assert status == 422  # non-deterministic input, not a server fault
                status, _ = await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": "((", "words": []}
                )
                assert status == 400
                status, _ = await _json_roundtrip(front.port, "POST", "/match", {"words": []})
                assert status == 400

        asyncio.run(scenario())

    def test_get_with_a_body_is_drained_for_keep_alive(self):
        """A GET carrying a body is unusual but legal: the body must be
        consumed, or the next request on the connection would be parsed
        out of the leftover body bytes and die with a spurious 400."""
        async def scenario():
            async with Front() as front:
                reader, writer = await _open(front.port)
                try:
                    body = b'{"ignored": true}'
                    writer.write(
                        _request_bytes(
                            "GET",
                            "/healthz",
                            {"Content-Length": str(len(body))},
                            body,
                        )
                    )
                    await writer.drain()
                    status, _, _ = await _read_response(reader)
                    assert status == 200
                    # The same connection must still frame correctly.
                    writer.write(_request_bytes("GET", "/stats", {}))
                    await writer.drain()
                    status, _, raw = await _read_response(reader)
                    assert status == 200
                    assert "aio" in json.loads(raw)
                finally:
                    writer.close()

        asyncio.run(scenario())

    def test_keep_alive_carries_sequential_requests(self):
        async def scenario():
            async with Front() as front:
                reader, writer = await _open(front.port)
                try:
                    for _ in range(3):
                        payload = json.dumps(
                            {"pattern": PATTERN, "words": ["abba", "bb"]}
                        ).encode()
                        writer.write(
                            _request_bytes(
                                "POST",
                                "/match",
                                {
                                    "Content-Type": "application/json",
                                    "Content-Length": str(len(payload)),
                                },
                                payload,
                            )
                        )
                        await writer.drain()
                        status, _, raw = await _read_response(reader)
                        assert status == 200
                        assert json.loads(raw)["verdicts"] == [True, False]
                finally:
                    writer.close()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# NDJSON streaming
# ---------------------------------------------------------------------------

class TestStreaming:
    def test_stream_grammar_and_verdict_order(self):
        async def scenario():
            async with Front() as front:
                words = ["abba", "bb", "", "abbaabba", "ba"]
                status, header, verdicts, trailer = await _stream_roundtrip(
                    front.port, "/match", {"pattern": PATTERN}, words
                )
                assert status == 200
                assert header["pattern"] == PATTERN
                assert "strategy" in header and "batch_path" in header
                oracle = repro.Pattern(PATTERN, compiled=False)
                assert verdicts == [oracle.match(word) for word in words]
                assert trailer == {"count": len(words), "done": True}

        asyncio.run(scenario())

    def test_stream_over_chunked_request_body(self):
        async def scenario():
            async with Front() as front:
                body = _ndjson_body({"pattern": PATTERN}, ["abba", "bb"])
                reader, writer = await _open(front.port)
                try:
                    writer.write(
                        _request_bytes(
                            "POST",
                            "/match",
                            {
                                "Content-Type": "application/x-ndjson",
                                "Transfer-Encoding": "chunked",
                            },
                        )
                    )
                    # Deliver the body in awkward splits to exercise the
                    # frame/line reassembly.
                    for low in range(0, len(body), 7):
                        piece = body[low : low + 7]
                        writer.write(f"{len(piece):x}\r\n".encode() + piece + b"\r\n")
                        await writer.drain()
                    writer.write(b"0\r\n\r\n")
                    await writer.drain()
                    status, _, raw = await _read_response(reader)
                    assert status == 200
                    lines = [json.loads(line) for line in raw.splitlines()]
                    assert lines[1:-1] == [True, False]
                    assert lines[-1]["done"] is True
                finally:
                    writer.close()

        asyncio.run(scenario())

    def test_stream_validate_detail_levels(self):
        async def scenario():
            async with Front() as front:
                documents = [VALID_DOC, INVALID_DOC]
                status, header, verdicts, trailer = await _stream_roundtrip(
                    front.port, "/validate?detail=verdict", {"dtd": DTD_TEXT}, documents
                )
                assert status == 200
                assert header == {"schema": "dtd", "detail": "verdict"}
                assert verdicts == [True, False]

                status, header, verdicts, _ = await _stream_roundtrip(
                    front.port,
                    "/validate",
                    {"dtd": DTD_TEXT},
                    documents,
                    headers={"X-Repro-Detail": "summary"},
                )
                assert header["detail"] == "summary"
                assert verdicts[0] == {"valid": True, "violations": 0}
                assert verdicts[1]["valid"] is False and verdicts[1]["violations"] >= 1

                status, header, verdicts, _ = await _stream_roundtrip(
                    front.port,
                    "/validate",
                    {"dtd": DTD_TEXT},
                    documents,
                    headers={"Accept": "application/x-ndjson; detail=full"},
                )
                assert header["detail"] == "full"
                assert verdicts[0] == {"valid": True, "violations": []}
                assert verdicts[1]["violations"]  # the actual messages

        asyncio.run(scenario())

    def test_buffered_validate_detail_negotiation(self):
        async def scenario():
            async with Front() as front:
                status, body = await _json_roundtrip(
                    front.port,
                    "POST",
                    "/validate?detail=summary",
                    {"dtd": DTD_TEXT, "documents": [VALID_DOC, INVALID_DOC]},
                )
                assert status == 200
                assert body["detail"] == "summary"
                assert body["verdicts"][0] == {"valid": True, "violations": 0}

        asyncio.run(scenario())

    def test_unknown_detail_level_is_400(self):
        async def scenario():
            async with Front() as front:
                status, body = await _json_roundtrip(
                    front.port,
                    "POST",
                    "/validate?detail=everything",
                    {"dtd": DTD_TEXT, "documents": []},
                )
                assert status == 400

        asyncio.run(scenario())

    def test_stream_of_nothing_still_closes_cleanly(self):
        async def scenario():
            async with Front() as front:
                status, header, verdicts, trailer = await _stream_roundtrip(
                    front.port, "/match", {"pattern": PATTERN}, []
                )
                assert status == 200
                assert verdicts == []
                assert trailer == {"count": 0, "done": True}

        asyncio.run(scenario())

    def test_mid_stream_parse_error_stays_in_stream(self):
        """A malformed document after verdicts went out must surface as an
        in-stream error line — never a second HTTP status head spliced into
        the chunked body (which would break framing entirely)."""
        async def scenario():
            async with Front(stream_batch=2) as front:
                documents = [VALID_DOC, VALID_DOC, "<a><unclosed", VALID_DOC]
                # _read_response decodes the chunked framing: a raw
                # "HTTP/1.1 400" head injected mid-body would blow up the
                # chunk-size parse and fail the test here.
                status, _, raw = await _roundtrip(
                    front.port,
                    "POST",
                    "/validate?detail=verdict",
                    {"Content-Type": "application/x-ndjson"},
                    _ndjson_body({"dtd": DTD_TEXT}, documents),
                )
                assert status == 200  # the head was already out
                lines = [json.loads(line) for line in raw.splitlines()]
                assert lines[0] == {"schema": "dtd", "detail": "verdict"}
                assert lines[1:-1] == [True, True]  # the first batch flowed
                assert "error" in lines[-1]  # ... then the in-stream error
                assert all(
                    not (isinstance(line, dict) and line.get("done")) for line in lines
                )

        asyncio.run(scenario())

    def test_non_deterministic_stream_header_is_422(self):
        async def scenario():
            async with Front() as front:
                status, body, _, _ = await _stream_roundtrip(
                    front.port, "/match", {"pattern": "(a*ba+bb)*"}, ["a"]
                )
                assert status == 422

        asyncio.run(scenario())

    def test_one_stream_counts_as_one_request(self):
        async def scenario():
            async with Front() as front:
                before = front.service.stats()["requests"]["total"]
                await _stream_roundtrip(
                    front.port, "/match", {"pattern": PATTERN}, ["abba"] * 900
                )
                after = front.service.stats()["requests"]["total"]
                assert after == before + 1

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# One request path: a prepare job, batch jobs, one error table
# ---------------------------------------------------------------------------

def _count_jobs(service: ValidationService) -> list:
    """Wrap ``service.submit``; every pool job submitted lands in the returned list."""
    jobs: list = []
    original = service.submit

    def counting_submit(work, *args, **kwargs):
        jobs.append(work)
        return original(work, *args, **kwargs)

    service.submit = counting_submit
    return jobs


def _chunked(body: bytes, size: int = 7) -> bytes:
    """*body* in chunked transfer encoding, *size* bytes per chunk."""
    pieces = [body[low : low + size] for low in range(0, len(body), size)]
    frames = b"".join(f"{len(piece):x}\r\n".encode() + piece + b"\r\n" for piece in pieces)
    return frames + b"0\r\n\r\n"


class TestOneRequestPath:
    def test_a_buffered_post_is_one_prepare_job_and_one_batch_job(self, monkeypatch):
        """One compile per /match (the header is read off the compiled
        pattern, never off ``describe()``), one schema build per /validate,
        then the whole batch as one job."""

        def no_describe(_pattern):
            raise AssertionError("the front called Pattern.describe()")

        compiled = []
        compile_pattern = repro.api.compile
        monkeypatch.setattr(repro.api.Pattern, "describe", no_describe)
        monkeypatch.setattr(
            repro.api, "compile", lambda *a, **k: compiled.append(a) or compile_pattern(*a, **k)
        )

        async def scenario():
            async with Front() as front:
                jobs = _count_jobs(front.service)
                payload = {"pattern": PATTERN, "words": ["abba", "bb", "abba"]}
                status, body = await _json_roundtrip(front.port, "POST", "/match", payload)
                assert status == 200
                assert body["verdicts"] == [True, False, True]
                assert body["batch_path"] == "compiled-kernel"
                assert (len(jobs), len(compiled)) == (2, 1)
                jobs.clear()
                payload = {"dtd": DTD_TEXT, "documents": [VALID_DOC, INVALID_DOC] * 50}
                status, body = await _json_roundtrip(front.port, "POST", "/validate", payload)
                assert status == 200
                assert [verdict["valid"] for verdict in body["verdicts"]] == [True, False] * 50
                assert len(jobs) == 2

        asyncio.run(scenario())

    def test_streamed_patterns_appear_under_stats_patterns(self):
        async def scenario():
            async with Front() as front:
                status, _, verdicts, _ = await _stream_roundtrip(
                    front.port, "/match", {"pattern": "(ab)*"}, ["ab", "b"]
                )
                assert (status, verdicts) == (200, [True, False])
                _, stats = await _json_roundtrip(front.port, "GET", "/stats")
                assert "paper:(ab)*" in stats["patterns"]

        asyncio.run(scenario())

    def test_every_post_is_one_request_and_every_failure_an_error(self):
        async def scenario():
            async with Front(stream_batch=1) as front:
                await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": PATTERN, "words": []}
                )
                await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": "(a*ba+bb)*", "words": ["a"]}
                )
                await _json_roundtrip(front.port, "POST", "/match", {"pattern": "((", "words": []})
                await _json_roundtrip(
                    front.port, "POST", "/validate", {"dtd": DTD_TEXT, "documents": [42]}
                )
                await _stream_roundtrip(front.port, "/match", {"pattern": PATTERN}, ["abba"])
                await _stream_roundtrip(front.port, "/match", {"pattern": "(a*ba+bb)*"}, [])
                # Fails after the head: an in-stream error line.
                await _stream_roundtrip(front.port, "/match", {"pattern": PATTERN}, ["abba", 7])
                await _json_roundtrip(front.port, "POST", "/nope", {})
                requests = front.service.stats()["requests"]
                assert (requests["total"], requests["errors"]) == (8, 6)
                assert requests["in_flight"] == 0

        asyncio.run(scenario())

    def test_items_are_checked_alike_before_any_pool_work(self):
        async def scenario():
            async with Front() as front:
                jobs = _count_jobs(front.service)
                payload = {"pattern": PATTERN, "words": ["abba", ["a", 7]]}
                status, body = await _json_roundtrip(front.port, "POST", "/match", payload)
                assert status == 400
                assert jobs == []
                status, _, raw = await _roundtrip(
                    front.port,
                    "POST",
                    "/match",
                    {"Content-Type": "application/x-ndjson"},
                    _ndjson_body({"pattern": PATTERN}, ["abba", ["a", 7]]),
                )
                assert status == 200
                streamed = [json.loads(line) for line in raw.splitlines()]
                assert streamed[-1] == body  # the same message, in-stream

        asyncio.run(scenario())

    def test_a_bad_dialect_is_a_400_in_both_shapes(self):
        async def scenario():
            async with Front() as front:
                status, body = await _json_roundtrip(
                    front.port, "POST", "/match", {"pattern": "(ab)*", "words": [], "dialect": 5}
                )
                assert status == 400 and "dialect" in body["error"]
                status, streamed, _, _ = await _stream_roundtrip(
                    front.port, "/match", {"pattern": "(ab)*", "dialect": 5}, ["ab"]
                )
                assert (status, streamed) == (400, body)

        asyncio.run(scenario())

    def test_errors_outside_the_taxonomy_are_a_json_500(self, monkeypatch):
        def overflow(*_args, **_kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        async def scenario():
            async with Front() as front:
                reader, writer = await _open(front.port)
                try:
                    # A buffered 500 keeps the connection, as any reply
                    # after a whole body does.
                    body = json.dumps({"pattern": "(ab)*", "words": ["ab"]}).encode()
                    headers = {"Content-Type": "application/json", "Content-Length": str(len(body))}
                    for _ in range(2):
                        writer.write(_request_bytes("POST", "/match", headers, body))
                        await writer.drain()
                        status, _, raw = await _read_response(reader)
                        assert status == 500
                        assert json.loads(raw) == {"error": "internal error: RecursionError"}
                finally:
                    writer.close()
                status, reply, _, _ = await _stream_roundtrip(
                    front.port, "/match", {"pattern": "(ab)*"}, ["ab"]
                )
                assert (status, reply) == (500, {"error": "internal error: RecursionError"})
                status, health = await _json_roundtrip(front.port, "GET", "/healthz")
                assert (status, health["status"]) == (200, "ok")

        monkeypatch.setattr(repro.api, "compile", overflow)
        asyncio.run(scenario())

    def test_a_failure_after_the_head_is_an_in_stream_500(self, monkeypatch):
        def broken_work(_validator):
            def work(_texts):
                raise RuntimeError("boom")

            return work

        monkeypatch.setattr(ValidationService, "_document_work", staticmethod(broken_work))

        async def scenario():
            async with Front() as front:
                status, _, raw = await _roundtrip(
                    front.port,
                    "POST",
                    "/validate",
                    {"Content-Type": "application/x-ndjson"},
                    _ndjson_body({"dtd": DTD_TEXT}, [VALID_DOC]),
                )
                assert status == 200
                lines = [json.loads(line) for line in raw.splitlines()]
                assert lines == [
                    {"schema": "dtd", "detail": "full"},
                    {"error": "internal error: RuntimeError"},
                ]

        asyncio.run(scenario())

    def test_buffered_json_over_a_chunked_body(self):
        async def scenario():
            async with Front() as front:
                body = json.dumps({"pattern": PATTERN, "words": ["abba", "bb"]}).encode()
                status, _, raw = await _roundtrip(
                    front.port,
                    "POST",
                    "/match",
                    {"Content-Type": "application/json", "Transfer-Encoding": "chunked"},
                    _chunked(body),
                )
                assert status == 200
                assert json.loads(raw)["verdicts"] == [True, False]

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_invalid_deadline_header_is_400(self):
        async def scenario():
            async with Front() as front:
                status, _ = await _json_roundtrip(
                    front.port,
                    "POST",
                    "/match",
                    {"pattern": PATTERN, "words": []},
                    headers={"X-Repro-Deadline-Ms": "soon"},
                )
                assert status == 400

        asyncio.run(scenario())

    def test_buffered_deadline_exceeded_is_504(self):
        async def scenario():
            async with Front(workers=2) as front:
                words = ["abba" * 8] * 20000  # comfortably more than 1ms of work
                status, body = await _json_roundtrip(
                    front.port,
                    "POST",
                    "/match",
                    {"pattern": PATTERN, "words": words},
                    headers={"X-Repro-Deadline-Ms": "1"},
                )
                assert status == 504
                assert "deadline" in body["error"]
                assert front.front.deadline_hits == 1

        asyncio.run(scenario())

    def test_mid_stream_deadline_truncates_with_an_error_line(self):
        async def scenario():
            async with Front() as front:
                reader, writer = await _open(front.port)
                try:
                    writer.write(
                        _request_bytes(
                            "POST",
                            "/match",
                            {
                                "Content-Type": "application/x-ndjson",
                                "Transfer-Encoding": "chunked",
                                "X-Repro-Deadline-Ms": "300",
                            },
                        )
                    )
                    opening = _ndjson_body({"pattern": PATTERN}, ["abba"])
                    writer.write(f"{len(opening):x}\r\n".encode() + opening + b"\r\n")
                    await writer.drain()
                    # ... then stall: the server must cut the stream at the
                    # deadline instead of waiting for the body forever.
                    status, headers, raw = await _read_response(reader)
                    assert status == 200  # the stream had already started
                    lines = [json.loads(line) for line in raw.splitlines()]
                    assert "error" in lines[-1]
                    assert all(
                        not (isinstance(line, dict) and line.get("done")) for line in lines
                    )
                finally:
                    writer.close()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backpressure and disconnects
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_outstanding_batches_stay_bounded(self):
        async def scenario():
            async with Front(workers=2, stream_batch=1, max_pending=2) as front:
                service = front.service
                original = service.submit
                state = {"outstanding": 0, "peak": 0, "batches": 0}

                def tracking_submit(work, *args, **kwargs):
                    def slowed(*inner_args, **inner_kwargs):
                        time.sleep(0.005)
                        return work(*inner_args, **inner_kwargs)

                    state["outstanding"] += 1
                    state["batches"] += 1
                    state["peak"] = max(state["peak"], state["outstanding"])
                    future = original(slowed, *args, **kwargs)
                    future.add_done_callback(
                        lambda _f: state.__setitem__("outstanding", state["outstanding"] - 1)
                    )
                    return future

                service.submit = tracking_submit
                try:
                    words = ["abba"] * 40
                    status, _, verdicts, trailer = await _stream_roundtrip(
                        front.port, "/match", {"pattern": PATTERN}, words
                    )
                finally:
                    service.submit = original
                assert status == 200
                assert trailer["count"] == len(words)
                # The compile rides submit too; everything beyond it is
                # the stream's micro-batches.
                assert state["batches"] >= len(words)
                # queue depth + the batch in the producer's hand + the one
                # the writer is awaiting
                assert state["peak"] <= front.front.max_pending + 2

        asyncio.run(scenario())

    def test_mid_stream_disconnect_leaves_the_server_healthy(self):
        async def scenario():
            async with Front() as front:
                reader, writer = await _open(front.port)
                writer.write(
                    _request_bytes(
                        "POST",
                        "/match",
                        {
                            "Content-Type": "application/x-ndjson",
                            "Transfer-Encoding": "chunked",
                        },
                    )
                )
                opening = _ndjson_body({"pattern": PATTERN}, ["abba"] * 500)
                writer.write(f"{len(opening):x}\r\n".encode() + opening + b"\r\n")
                await writer.drain()
                # Read the response head to be sure the stream started,
                # then vanish without warning.
                await reader.readuntil(b"\r\n\r\n")
                writer.transport.abort()
                # The server must shrug this off and keep serving.
                for _ in range(50):
                    await asyncio.sleep(0.02)
                    status, body = await _json_roundtrip(front.port, "GET", "/healthz")
                    assert status == 200
                    if front.service.stats()["requests"]["in_flight"] == 0:
                        break
                assert front.service.stats()["requests"]["in_flight"] == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Auth hook
# ---------------------------------------------------------------------------

class TestAuth:
    def test_bearer_token_gates_everything_but_health(self):
        async def scenario():
            async with Front(auth_token="sesame") as front:
                status, _ = await _json_roundtrip(front.port, "GET", "/healthz")
                assert status == 200
                status, _ = await _json_roundtrip(front.port, "GET", "/stats")
                assert status == 401
                status, _ = await _json_roundtrip(
                    front.port,
                    "GET",
                    "/stats",
                    headers={"Authorization": "Bearer wrong"},
                )
                assert status == 401
                status, _ = await _json_roundtrip(
                    front.port,
                    "GET",
                    "/stats",
                    headers={"Authorization": "Bearer sesame"},
                )
                assert status == 200

        asyncio.run(scenario())

    def test_custom_hook_overrides_the_default(self):
        async def scenario():
            async with Front() as front:
                front.front.authorize = lambda head: head.headers.get("x-magic") == "yes"
                status, _ = await _json_roundtrip(front.port, "GET", "/stats")
                assert status == 401
                status, _ = await _json_roundtrip(
                    front.port, "GET", "/stats", headers={"X-Magic": "yes"}
                )
                assert status == 200

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# GET /snapshot: ETag, ranges, sendfile
# ---------------------------------------------------------------------------

class TestSnapshotDownloads:
    def test_full_download_carries_etag_and_length(self, tmp_path):
        payload = os.urandom(8192)
        path = tmp_path / "snap.bin"
        path.write_bytes(payload)

        async def scenario():
            async with Front(snapshot_source=str(path)) as front:
                status, headers, raw = await _roundtrip(front.port, "GET", "/snapshot")
                assert status == 200
                assert raw == payload
                assert headers["etag"] == wire.snapshot_etag(os.stat(path))
                assert headers["accept-ranges"] == "bytes"
                assert int(headers["content-length"]) == len(payload)
                assert front.front.sendfile_sends >= 1 or True  # fallback is fine too

        asyncio.run(scenario())

    def test_range_resume_and_if_range(self, tmp_path):
        payload = os.urandom(4096)
        path = tmp_path / "snap.bin"
        path.write_bytes(payload)

        async def scenario():
            async with Front(snapshot_source=str(path)) as front:
                status, headers, first_half = await _roundtrip(
                    front.port, "GET", "/snapshot", {"Range": "bytes=0-2047"}
                )
                assert status == 206
                assert first_half == payload[:2048]
                assert headers["content-range"] == f"bytes 0-2047/{len(payload)}"
                etag = headers["etag"]

                # Same generation: the resume completes the byte stream.
                status, _, second_half = await _roundtrip(
                    front.port,
                    "GET",
                    "/snapshot",
                    {"Range": "bytes=2048-", "If-Range": etag},
                )
                assert status == 206
                assert first_half + second_half == payload

                # New generation (atomic replace = new inode): the stale
                # tag must force a full 200, never a spliced 206.
                replacement = tmp_path / "snap.new"
                new_payload = os.urandom(4096)
                replacement.write_bytes(new_payload)
                os.replace(replacement, path)
                status, headers, body = await _roundtrip(
                    front.port,
                    "GET",
                    "/snapshot",
                    {"Range": "bytes=2048-", "If-Range": etag},
                )
                assert status == 200
                assert body == new_payload

        asyncio.run(scenario())

    def test_range_beyond_the_file_is_416(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"tiny")

        async def scenario():
            async with Front(snapshot_source=str(path)) as front:
                status, headers, _ = await _roundtrip(
                    front.port, "GET", "/snapshot", {"Range": "bytes=100-"}
                )
                assert status == 416
                assert headers["content-range"] == "bytes */4"

        asyncio.run(scenario())

    def test_no_snapshot_is_404(self):
        async def scenario():
            async with Front() as front:
                status, _, _ = await _roundtrip(front.port, "GET", "/snapshot")
                assert status == 404

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Autosizing: the telemetry→bounds feedback loop
# ---------------------------------------------------------------------------

class TestCompileCacheResize:
    def test_resize_rebounds_and_restores(self):
        previous = repro.resize_compile_cache(1024)
        try:
            assert repro.stats()["pattern_cache"]["max_size"] == 1024
        finally:
            repro.resize_compile_cache(previous)

    def test_shrink_evicts_down_to_the_bound(self):
        repro.purge()
        previous = repro.stats()["pattern_cache"]["max_size"]
        try:
            for index in range(8):
                repro.compile(f"(a{'b' * (index + 1)})*")
            repro.resize_compile_cache(2)
            assert repro.stats()["pattern_cache"]["size"] <= 2
        finally:
            repro.resize_compile_cache(previous)
            repro.purge()

    def test_rejects_a_nonpositive_bound(self):
        with pytest.raises(ValueError):
            repro.resize_compile_cache(0)


class TestAutosizer:
    def _fresh(self, **kwargs) -> Autosizer:
        return Autosizer(**kwargs)

    def test_grows_the_compile_cache_on_evictions(self):
        repro.purge()
        previous = repro.resize_compile_cache(4)
        try:
            sizer = self._fresh(cache_floor=4, cache_ceiling=64)
            for index in range(10):  # 10 inserts through a 4-slot cache
                repro.compile(f"(a{'b' * (index + 1)})*")
            decisions = sizer.sample()
            grown = [d for d in decisions if d["target"] == "compile_cache"]
            assert grown and grown[0]["action"] == "grow"
            assert repro.stats()["pattern_cache"]["max_size"] == 8
        finally:
            repro.resize_compile_cache(previous)
            repro.purge()

    def test_shrinks_an_idle_oversized_cache(self):
        repro.purge()
        previous = repro.resize_compile_cache(512)
        try:
            repro.compile("(ab)*")  # 1 entry under a 512 bound
            sizer = self._fresh(cache_floor=64, cache_ceiling=1024, idle_ticks=2)
            assert sizer.sample() == []  # first idle tick: patience
            decisions = sizer.sample()
            shrunk = [d for d in decisions if d["target"] == "compile_cache"]
            assert shrunk and shrunk[0]["action"] == "shrink"
            assert repro.stats()["pattern_cache"]["max_size"] == 256
        finally:
            repro.resize_compile_cache(previous)
            repro.purge()

    def test_memos_are_not_resized(self):
        """Verdict memos hold MEMO_LIMIT words in two generations; no tick touches them."""
        repro.purge()
        try:
            pattern = repro.compile("(b?)(c?)(d?)")
            pattern.match_all([["b"]] * MIN_BATCH)  # cold
            pattern.match_all([[name] for name in "bcd"] * MIN_BATCH)  # warm: memoized
            memo = pattern.acceptance_memo()
            held = memo.export()
            sizer = self._fresh()
            for _ in range(sizer.idle_ticks + 1):
                assert not [d for d in sizer.sample() if d["target"] != "compile_cache"]
            assert memo.export() == held and memo.stats()["limit"] == MEMO_LIMIT
        finally:
            repro.purge()

    def test_rejects_bounds_that_cannot_hold(self):
        with pytest.raises(ValueError):
            Autosizer(cache_floor=0)
        with pytest.raises(ValueError):
            Autosizer(cache_floor=64, cache_ceiling=32)

    def test_stats_surface_through_the_service(self):
        service = ValidationService(workers=1)
        try:
            sizer = Autosizer(service, interval=999)
            sizer.sample()
            block = service.stats()["autosize"]
            assert block["ticks"] == 1
            assert block["compile_cache"]["floor"] == sizer.cache_floor
            assert isinstance(block["decisions"], list)
        finally:
            service.close()

    def test_background_thread_starts_and_stops(self):
        sizer = Autosizer(interval=0.01)
        sizer.start()
        try:
            deadline = time.time() + 2.0
            while sizer.ticks == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert sizer.ticks > 0
        finally:
            sizer.stop()
        assert sizer.stats()["running"] is False
