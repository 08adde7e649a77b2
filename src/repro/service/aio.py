"""The serving front: one event loop per process, bounded memory, backpressure.

Serves the validation service's endpoints (``POST /match``, ``POST
/validate``, ``GET /stats``, ``GET /snapshot``, ``GET /healthz``) from
one event loop per process:

* **One request path**: both shapes of ``POST /match`` and ``POST
  /validate`` run the endpoint's one prepare job (compile and
  determinism check, or schema build and UPA check), then its batch
  work from :mod:`repro.service.core`, and answer every failure from
  one error table (:func:`_error_reply`; anything outside the library's
  taxonomy is a ``500``).  The shapes differ only in framing:
* **Buffered JSON** requests (``Content-Type: application/json``) are
  the one-batch case and get one JSON response; the shapes are
  documented in ``docs/service.md``.  The response head and body go out
  in a single write, so a keep-alive client never waits on Nagle's
  algorithm between the two.
* **Streaming NDJSON** on ``POST /match`` and ``POST /validate``
  (``Content-Type: application/x-ndjson``, request body streamed via
  ``Content-Length`` or chunked transfer encoding): *header object, one
  item per line*; the response is chunked NDJSON — *header object, one
  verdict per item in order, trailer object* (grammar in
  ``docs/service.md``).  Memory is bounded by the micro-batch size times
  the queue depth, never by the corpus.
* **Backpressure** per connection: items are micro-batched
  (:data:`STREAM_BATCH`) onto the shared worker pool through a bounded
  queue (:data:`MAX_PENDING_BATCHES`); when the pool falls behind, the
  reader stops consuming the socket and TCP pushes back on the client.
  Verdict writes go through ``drain()``, so a slow *reader* pauses the
  pipeline instead of buffering it.
* **Deadlines**: ``X-Repro-Deadline-Ms`` bounds a request wall-clock.
  Exceeded before the response starts → a clean ``504``; exceeded
  mid-stream → an ``{"error": ...}`` line (no ``"done"`` trailer) and
  the connection closes, so a client can always distinguish a complete
  stream from a truncated one.
* **CPU stays off the loop**: compiles, schema builds, matching and
  document parsing all run on the service's worker pool
  (:meth:`~repro.service.core.ValidationService.submit`); the loop
  only checks request fields and frames bytes.
* **Auth hook**: pass ``auth_token`` (``Authorization: Bearer ...``) or
  override :meth:`AsyncServiceServer.authorize` for anything richer;
  ``/healthz`` stays open for probes.
* ``GET /snapshot`` streams via zero-copy ``loop.sendfile`` where the
  platform has it, with strong ``ETag``/``Range``/``If-Range`` handling
  (:mod:`repro.service.wire`).

Runs standalone (``python -m repro.service``, see
:mod:`repro.service.aio_run`) or as the worker body of the prefork model
(``--processes N``): each forked worker runs one event loop accepting on
the inherited socket.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import os
import socket
from functools import partial
from typing import Callable

from .. import api
from ..errors import NotDeterministicError, ReproError
from . import wire
from .aio_frames import (
    COPY_BLOCK as _COPY_BLOCK,
    DEADLINE_HEADER as DEADLINE_HEADER,  # noqa: PLC0414 - re-exported wire constant
    body_lines as _body_lines,
    check_document,
    check_word,
    chunked_frames as _chunked_frames,
    deadline_seconds as _deadline_seconds,
    decode_item as _decode_item,
    head_bytes as _head_bytes,
)
from .core import ValidationService
from .prefork import StatsBoard, cluster_payload
from .wire import MAX_BODY_BYTES, WireError

#: Items per micro-batch dispatched to the worker pool.  Small enough
#: that verdicts start flowing almost immediately, large enough that the
#: per-batch pool handoff amortizes (the batch kernel's sweet spot).
STREAM_BATCH = 256

#: Pool batches in flight per connection before the reader stops
#: consuming the socket — the backpressure bound.  Peak buffered items
#: per connection is ``STREAM_BATCH * (MAX_PENDING_BATCHES + 2)``
#: regardless of corpus size.
MAX_PENDING_BATCHES = 8

#: Seconds a keep-alive connection may sit idle between requests.
IDLE_TIMEOUT = 75.0


#: Per POST endpoint: the buffered body's item list field, the reply when
#: it is missing, and the item check both request shapes apply.
_ITEMS = {
    "/match": ("words", 'a list "words" field is required', check_word),
    "/validate": ("documents", 'a list "documents" field (XML text) is required', check_document),
}


class _ResponseStarted(Exception):
    """Internal: an error surfaced after response bytes were written."""


class _Progress:
    """How far one POST got, which decides how a failure is answered."""

    __slots__ = ("body_read", "started")

    def __init__(self) -> None:
        #: a buffered body was read whole, so the connection can carry on
        self.body_read = False
        #: the 200 head is out, so a failure becomes an in-stream error line
        self.started = False


def _error_reply(error: Exception) -> tuple[int, str]:
    """The one exception-to-reply table of ``POST /match`` and ``/validate``.

    Returns ``(status, message)``; the table is documented in
    ``docs/service.md``.  Anything outside the library's taxonomy (a
    ``RecursionError`` from a pattern nested past the interpreter stack,
    say) is a 500 naming only the exception class.
    """
    if isinstance(error, WireError):
        return error.status, str(error)
    if isinstance(error, NotDeterministicError):
        return 422, str(error)
    if isinstance(error, ReproError):
        return 400, str(error)
    if isinstance(error, (TypeError, ValueError, KeyError)):
        return 400, f"malformed request: {error!r}"
    if isinstance(error, TimeoutError):
        return 504, "deadline exceeded"
    return 500, f"internal error: {type(error).__name__}"


def _verbatim(verdict):
    """The ``/match`` verdict shaper: batch work already shaped the verdict."""
    return verdict


def _buffered_body(header: dict, verdicts: list) -> dict:
    """A buffered reply: the stream's response header fields around the verdicts.

    The first field (``pattern`` or ``schema``) leads, then ``count``,
    ``detail`` and ``verdicts``; the other fields (``strategy``,
    ``batch_path``) follow, in the buffered shape's documented order.
    """
    subject, *rest = (key for key in header if key != "detail")
    body = {
        subject: header[subject],
        "count": len(verdicts),
        "detail": header["detail"],
        "verdicts": verdicts,
    }
    body.update((key, header[key]) for key in rest)
    return body


class AsyncServiceServer:
    """One event loop serving the validation service's endpoints.

    Wraps a shared :class:`ValidationService`; CPU-bound work is
    dispatched to its pool, the loop itself only parses frames and moves
    bytes.  ``board``/``slot``/``processes`` attach the prefork fleet
    view (the ``"cluster"`` section) to ``GET /stats``.
    """

    def __init__(
        self,
        service: ValidationService,
        snapshot_source: str | None = None,
        auth_token: str | None = None,
        board: StatsBoard | None = None,
        slot: int = 0,
        processes: int = 1,
        stream_batch: int = STREAM_BATCH,
        max_pending: int = MAX_PENDING_BATCHES,
        idle_timeout: float = IDLE_TIMEOUT,
    ):
        self.service = service
        self.snapshot_source = snapshot_source
        self.auth_token = auth_token
        self.board = board
        self.slot = slot
        self.processes = processes
        self.stream_batch = max(1, stream_batch)
        self.max_pending = max(1, max_pending)
        self.idle_timeout = idle_timeout
        #: front telemetry, merged into ``GET /stats`` under ``"aio"``
        self.connections = 0
        self.streams = 0
        self.deadline_hits = 0
        self.disconnects = 0
        self.sendfile_sends = 0
        self._server: asyncio.Server | None = None

    # -- lifecycle ----------------------------------------------------------------------
    async def start(
        self,
        host: str | None = None,
        port: int | None = None,
        sock: socket.socket | None = None,
    ) -> asyncio.Server:
        """Bind (or adopt *sock*) and start accepting; returns the server."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock, limit=wire.MAX_HEAD_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port, limit=wire.MAX_HEAD_BYTES
            )
        return self._server

    def address(self) -> tuple[str, int]:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- auth hook ----------------------------------------------------------------------
    def authorize(self, head: wire.RequestHead) -> bool:
        """The per-request auth hook; override for anything beyond Bearer.

        The default accepts everything when no token is configured, and
        requires ``Authorization: Bearer <token>`` (constant-time
        comparison) otherwise.  ``/`` and ``/healthz`` bypass this so
        liveness probes never need credentials.
        """
        if self.auth_token is None:
            return True
        scheme, _, token = head.headers.get("authorization", "").partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip(), self.auth_token
        )

    # -- connection loop ----------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    async with asyncio.timeout(self.idle_timeout):
                        head_bytes = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, TimeoutError):
                    break  # clean EOF between requests, or idle too long
                except asyncio.LimitOverrunError:
                    await self._send_json(
                        writer, 431, {"error": "request head too large"}, close=True
                    )
                    break
                try:
                    head = wire.parse_request_head(head_bytes[:-4])
                    if not await self._dispatch(head, reader, writer):
                        break
                except WireError as error:
                    # Protocol-level failure: the body position is
                    # unknown, so answer and drop the connection.
                    await self._send_json(
                        writer, error.status, {"error": str(error)}, close=True
                    )
                    break
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            self.disconnects += 1
        except _ResponseStarted:
            self.disconnects += 1
        except asyncio.CancelledError:
            pass  # server shutdown mid-request: drop the connection quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(
        self, head: wire.RequestHead, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether the connection survives."""
        open_paths = ("/", "/healthz")
        if head.path not in open_paths and not self.authorize(head):
            await self._send_json(
                writer,
                401,
                {"error": "missing or invalid bearer token"},
                close=True,
                extra=[("WWW-Authenticate", "Bearer")],
            )
            return False
        if head.method == "GET":
            if not await self._drain_request_body(head, reader, writer):
                return False
            if head.path == "/stats":
                await self._send_json(writer, 200, self.stats_payload())
            elif head.path == "/snapshot":
                return await self._send_snapshot(head, writer)
            elif head.path in open_paths:
                await self._send_json(writer, 200, {"status": "ok", "service": "repro"})
            else:
                await self._send_json(
                    writer, 404, {"error": f"no such endpoint: {head.path}"}
                )
            return head.keep_alive()
        if head.method == "POST":
            return await self._handle_post(head, reader, writer)
        await self._send_json(
            writer, 405, {"error": f"method {head.method} not allowed"}, close=True
        )
        return False

    def stats_payload(self) -> dict:
        stats = self.service.stats()
        stats["aio"] = {
            "connections": self.connections,
            "streams": self.streams,
            "deadline_hits": self.deadline_hits,
            "disconnects": self.disconnects,
            "sendfile_sends": self.sendfile_sends,
            "stream_batch": self.stream_batch,
            "max_pending_batches": self.max_pending,
        }
        if self.board is not None:
            stats["cluster"] = cluster_payload(self.board, self.processes)
        return stats

    async def _drain_request_body(
        self,
        head: wire.RequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Consume a (rare) body on a GET so keep-alive framing survives.

        Without this, the next ``readuntil`` on a reused connection would
        parse body bytes as a request head and die with a spurious 400.
        Bodies beyond :data:`MAX_BODY_BYTES` are refused with the
        connection closed — same bound as every other body path.
        """
        drained = 0
        if head.is_chunked():
            async for piece in _chunked_frames(reader):
                drained += len(piece)
                if drained > MAX_BODY_BYTES:
                    await self._send_json(
                        writer,
                        413,
                        {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                        close=True,
                    )
                    return False
            return True
        remaining = head.content_length() or 0
        if remaining > MAX_BODY_BYTES:
            await self._send_json(
                writer,
                413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                close=True,
            )
            return False
        while remaining > 0:
            data = await reader.read(min(_COPY_BLOCK, remaining))
            if not data:
                return False  # body ended early: the connection is dying anyway
            remaining -= len(data)
        return True

    # -- response plumbing --------------------------------------------------------------
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool = False,
        extra: list[tuple[str, str]] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        if extra:
            headers.extend(extra)
        if close:
            headers.append(("Connection", "close"))
        writer.write(_head_bytes(status, headers) + body)
        await writer.drain()

    # -- POST /match, POST /validate ----------------------------------------------------
    async def _handle_post(
        self, head: wire.RequestHead, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One ``POST /match`` or ``POST /validate``, buffered or NDJSON.

        Both shapes run the endpoint's prepare job (one pool job), then
        its batch work (one pool job per batch; a buffered request is one
        batch), and answer every failure from :func:`_error_reply`.
        Before the response head is out a failure gets a JSON reply: a
        buffered request whose body was read whole keeps its connection,
        any other closes it.  After the head it is an in-stream error
        line, and the connection closes.  Client disconnects propagate
        to :meth:`_handle_connection`.  The whole POST is one
        :meth:`~repro.service.core.ValidationService.track_request`
        scope, so every POST that does not end in a complete 200 is
        booked under ``requests.errors``.
        """
        progress = _Progress()
        try:
            with self.service.track_request():
                if head.path not in _ITEMS:
                    raise WireError(404, f"no such endpoint: {head.path}")
                # Match endpoints default to the historical bare booleans;
                # validate keeps full violation detail.
                default = "verdict" if head.path == "/match" else "full"
                detail = wire.negotiate_detail(head.headers, head.query, default=default)
                deadline = _deadline_seconds(head)
                if head.wants_ndjson():
                    self.streams += 1
                    async with asyncio.timeout(deadline):
                        await self._run_stream(head, reader, writer, detail, progress)
                else:
                    payload = await self._read_buffered_body(head, reader)
                    progress.body_read = True
                    async with asyncio.timeout(deadline):
                        body = await self._run_buffered(head.path, payload, detail)
                    await self._send_json(writer, 200, body)
        except (ConnectionError, asyncio.IncompleteReadError, _ResponseStarted):
            raise
        except Exception as error:  # noqa: BLE001 - the error table answers every failure
            if isinstance(error, TimeoutError):
                self.deadline_hits += 1
            status, message = _error_reply(error)
            if progress.started:
                await self._finish_stream_error(writer, message)
                return False
            await self._send_json(writer, status, {"error": message}, close=not progress.body_read)
            return progress.body_read and head.keep_alive()
        return head.keep_alive()

    async def _read_buffered_body(
        self, head: wire.RequestHead, reader: asyncio.StreamReader
    ) -> dict:
        length = head.content_length()
        if head.is_chunked():
            # Buffered JSON over chunked TE: drain the frames, keep the
            # same total-size bound as a Content-Length body.
            body = bytearray()
            async for piece in _chunked_frames(reader):
                body.extend(piece)
                if len(body) > MAX_BODY_BYTES:
                    raise WireError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            data = bytes(body)
        else:
            if length is None or length <= 0:
                raise WireError(400, "a JSON body with Content-Length is required")
            if length > MAX_BODY_BYTES:
                raise WireError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            data = await reader.readexactly(length)
        try:
            payload = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise WireError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise WireError(400, "the JSON body must be an object")
        return payload

    async def _run_buffered(self, path: str, payload: dict, detail: str) -> dict:
        """A buffered request: the stream's one-batch case, as one JSON body.

        Every item is checked before any pool work; the items then go to
        the endpoint's batch work as a single job.
        """
        prepare = self._preparation(path, payload, detail)
        field, missing, check = _ITEMS[path]
        items = payload.get(field)
        if not isinstance(items, list):
            raise WireError(400, missing)
        for item in items:
            check(item)
        work, shape, header = await self.service.submit_async(prepare)
        verdicts = await self.service.submit_async(work, items)
        return _buffered_body(header, [shape(verdict) for verdict in verdicts])

    # -- the streaming pipeline ---------------------------------------------------------
    async def _run_stream(
        self,
        head: wire.RequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        detail: str,
        progress: _Progress,
    ) -> None:
        """One NDJSON stream: header line, items, verdicts, trailer.

        Memory bound: items are parsed line by line, batched into
        :attr:`stream_batch`-sized pool submissions through a queue of
        :attr:`max_pending` — when the pool lags, ``queue.put`` blocks
        the reader and TCP backpressure reaches the client.  Verdicts
        are written in order through ``drain()``.
        """
        lines = _body_lines(reader, head)
        header_line = await anext(lines, None)
        if header_line is None:
            raise WireError(400, "an NDJSON stream starts with a header object line")
        try:
            header = json.loads(header_line)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise WireError(400, f"invalid stream header: {error}") from None
        if not isinstance(header, dict):
            raise WireError(400, "the stream header must be a JSON object")
        prepare = self._preparation(head.path, header, detail)
        check = _ITEMS[head.path][2]
        work, shape, response_header = await self.service.submit_async(prepare)

        # Response head + header line go out before the first verdict:
        # from here on, errors surface *in-stream* (a missing "done"
        # trailer), never as a status code.
        progress.started = True
        writer.write(
            _head_bytes(
                200,
                [
                    ("Content-Type", "application/x-ndjson; charset=utf-8"),
                    ("Transfer-Encoding", "chunked"),
                ],
            )
        )
        writer.write(wire.chunk(wire.ndjson_line(response_header)))
        await writer.drain()

        queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_pending)

        async def produce() -> None:
            # The future in hand between submit() and a successful
            # queue.put(): if the put is cancelled (disconnect, deadline),
            # the batch would otherwise run to completion unobserved.
            in_hand: asyncio.Future | None = None
            try:
                batch: list = []
                async for line in lines:
                    if not line.strip():
                        continue
                    batch.append(check(_decode_item(line)))
                    if len(batch) >= self.stream_batch:
                        in_hand = asyncio.wrap_future(self.service.submit(work, batch))
                        await queue.put(in_hand)
                        in_hand = None
                        batch = []
                if batch:
                    in_hand = asyncio.wrap_future(self.service.submit(work, batch))
                    await queue.put(in_hand)
                    in_hand = None
                await queue.put(None)
            except asyncio.CancelledError:
                if in_hand is not None:
                    in_hand.cancel()
                raise
            except BaseException as error:  # noqa: BLE001 - relayed to the writer loop
                await queue.put(error)

        producer = asyncio.create_task(produce())
        total = 0
        try:
            while True:
                entry = await queue.get()
                if entry is None:
                    break
                if isinstance(entry, BaseException):
                    raise entry
                for verdict in await entry:
                    writer.write(wire.chunk(wire.ndjson_line(shape(verdict))))
                    total += 1
                await writer.drain()
            writer.write(wire.chunk(wire.ndjson_line({"count": total, "done": True})))
            writer.write(wire.CHUNK_END)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            # Mid-stream client disconnect: stop producing, drop queued
            # pool work, keep the server healthy for other connections.
            raise _ResponseStarted() from None
        finally:
            producer.cancel()
            while not queue.empty():
                leftover = queue.get_nowait()
                if isinstance(leftover, asyncio.Future):
                    leftover.cancel()

    # -- the per-endpoint preparation ----------------------------------------------------
    def _preparation(self, path: str, header: dict, detail: str) -> Callable[[], tuple]:
        """The endpoint's prepare job for a request header, fields checked here.

        The header's fields are checked on the loop (cheap, and before any
        pool work); the returned job runs in the pool and gives
        ``(work, shape, response_header)``: the batch closure, the
        per-verdict wire shaper and the fields every reply carries.
        """
        if path == "/match":
            expr = header.get("pattern")
            if not isinstance(expr, str):
                raise WireError(400, 'a string "pattern" field is required')
            return partial(self._prepare_match, expr, header.get("dialect", "paper"), detail)
        dtd_text = header.get("dtd")
        xsd_data = header.get("xsd")
        if (dtd_text is None) == (xsd_data is None):
            raise WireError(400, 'exactly one of "dtd" (text) or "xsd" (object) is required')
        if dtd_text is not None and not isinstance(dtd_text, str):
            raise WireError(400, '"dtd" must be the DTD as a string')
        if xsd_data is not None and not isinstance(xsd_data, dict):
            raise WireError(400, '"xsd" must be a schema object')
        return partial(self._prepare_validate, dtd_text, xsd_data, detail)

    def _prepare_match(self, expr: str, dialect: str, detail: str) -> tuple:
        """Pool job: compile, check determinism, read the header off the pattern."""
        pattern = api.compile(expr, dialect=dialect)
        if not pattern.is_deterministic:
            raise NotDeterministicError(
                f"pattern is not deterministic: {pattern.explain()}", pattern.report
            )
        self.service._remember_pattern(pattern, dialect)
        response_header = {
            "pattern": expr,
            "strategy": pattern.strategy,
            "batch_path": pattern.plan.route,
            "detail": detail,
        }
        return self.service._match_work(pattern, detail), _verbatim, response_header

    def _prepare_validate(self, dtd_text: str | None, xsd_data: dict | None, detail: str) -> tuple:
        """Pool job: build (or reuse) the schema's validator, checking UPA for XSD."""
        service = self.service
        if dtd_text is not None:
            kind, validator = "dtd", service.validator_for_dtd(dtd_text)
        else:
            key = json.dumps(xsd_data, sort_keys=True)
            kind, validator = "xsd", service.schema_for_payload(key, xsd_data)
            if not validator.is_valid_schema():
                raise WireError(
                    422, "schema violates Unique Particle Attribution (non-deterministic)"
                )

        def shape(verdict):
            return wire.shape_verdict(verdict.valid, verdict.details or verdict.violations, detail)

        return service._document_work(validator), shape, {"schema": kind, "detail": detail}

    async def _finish_stream_error(self, writer: asyncio.StreamWriter, message: str) -> None:
        """Terminate a started stream: error line, end chunk, no trailer."""
        try:
            writer.write(wire.chunk(wire.ndjson_line({"error": message})))
            writer.write(wire.CHUNK_END)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass

    # -- GET /snapshot ------------------------------------------------------------------
    async def _send_snapshot(
        self, head: wire.RequestHead, writer: asyncio.StreamWriter
    ) -> bool:
        source = self.snapshot_source
        if not source:
            await self._send_json(
                writer, 404, {"error": "this server does not serve a snapshot"}
            )
            return head.keep_alive()
        # open()/fstat() touch the filesystem — off the loop, like every
        # other blocking call on this path.
        def _open_snapshot():
            handle = open(source, "rb")
            return handle, os.fstat(handle.fileno())

        loop = asyncio.get_running_loop()
        try:
            handle, stat = await loop.run_in_executor(None, _open_snapshot)
        except OSError:
            await self._send_json(
                writer, 404, {"error": "no snapshot has been persisted yet"}
            )
            return head.keep_alive()
        with handle:
            etag = wire.snapshot_etag(stat)
            size = stat.st_size
            status, offset, length = 200, 0, size
            if_range = head.headers.get("if-range")
            if if_range is None or if_range == etag:
                try:
                    span = wire.parse_range(head.headers.get("range"), size)
                except WireError as error:
                    await self._send_json(
                        writer,
                        error.status,
                        {"error": str(error)},
                        extra=[("Content-Range", f"bytes */{size}")],
                    )
                    return head.keep_alive()
                if span is not None:
                    offset, length = span
                    status = 206
            headers = [
                ("Content-Type", "application/octet-stream"),
                ("Content-Length", str(length)),
                ("ETag", etag),
                ("Accept-Ranges", "bytes"),
            ]
            if status == 206:
                headers.append(
                    ("Content-Range", f"bytes {offset}-{offset + length - 1}/{size}")
                )
            writer.write(_head_bytes(status, headers))
            await writer.drain()
            await self._send_file(writer, handle, offset, length)
        return head.keep_alive()

    async def _send_file(
        self, writer: asyncio.StreamWriter, handle, offset: int, length: int
    ) -> None:
        """Zero-copy sendfile when the platform has it; else a read loop.

        The open descriptor pins one complete snapshot generation (the
        refresher replaces the *directory entry*, never bytes under an
        open fd), so a concurrent refresh can never tear this download.
        """
        if length == 0:
            return
        loop = asyncio.get_running_loop()
        transport = writer.transport
        try:
            await loop.sendfile(transport, handle, offset, length, fallback=False)
            self.sendfile_sends += 1
            return
        except (NotImplementedError, RuntimeError, AttributeError):
            pass  # SSL transport, exotic platform, or sendfile-less loop
        # Fallback copy loop: the reads are disk I/O that would stall
        # every other connection if run on the loop (a large snapshot
        # over TLS would freeze the server), so they go to the executor.
        handle.seek(offset)
        remaining = length
        while remaining > 0:
            block = await loop.run_in_executor(
                None, handle.read, min(_COPY_BLOCK, remaining)
            )
            if not block:
                break
            writer.write(block)
            remaining -= len(block)
            await writer.drain()
