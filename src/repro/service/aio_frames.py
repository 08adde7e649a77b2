"""Byte-level framing for the asyncio front (:mod:`repro.service.aio`).

Everything here is connection plumbing with no service semantics: HTTP
response heads, deadline-header parsing, chunked-transfer decoding,
incremental NDJSON line splitting, per-item JSON decoding and the item
checks both request shapes share.  The handlers in
:mod:`repro.service.aio` compose these; keeping them apart keeps the
front module focused on routing and the streaming pipeline.

All generators yield bounded pieces: a frame is consumed in
:data:`COPY_BLOCK` blocks and the line splitter buffers at most one
incomplete line (bounded by :data:`repro.service.wire.MAX_LINE_BYTES`),
so memory never scales with the corpus a client streams.
"""

from __future__ import annotations

import asyncio
import json
from http.client import responses as _REASONS

from . import wire
from .wire import WireError

#: Request wall-clock bound, milliseconds, set per request.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Bytes per read/sendfile-fallback block on body and snapshot paths.
COPY_BLOCK = 64 * 1024


def head_bytes(status: int, headers: list[tuple[str, str]]) -> bytes:
    """Serialise one HTTP/1.1 response head (status line + headers)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def deadline_seconds(head: wire.RequestHead) -> float | None:
    """The request deadline from :data:`DEADLINE_HEADER`, in seconds."""
    raw = head.headers.get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        ms = float(raw)
    except ValueError:
        raise WireError(400, f"invalid {DEADLINE_HEADER} header: {raw!r}") from None
    if ms <= 0:
        raise WireError(400, f"{DEADLINE_HEADER} must be positive, got {raw!r}")
    return ms / 1000.0


async def chunked_frames(reader: asyncio.StreamReader):
    """Decode chunked transfer encoding: yields raw data pieces.

    A frame is consumed in :data:`COPY_BLOCK` pieces, so one
    absurdly-sized chunk declared by a client never buffers whole —
    the line splitter downstream enforces the real per-item bound.
    """
    while True:
        size = wire.parse_chunk_size(await reader.readline())
        if size == 0:
            # Drain optional trailers up to the terminating blank line.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            return
        while size > 0:
            piece = await reader.read(min(COPY_BLOCK, size))
            if not piece:
                raise WireError(400, "request body ended inside a chunk")
            size -= len(piece)
            yield piece
        await reader.readexactly(2)  # the CRLF after each chunk


async def body_lines(reader: asyncio.StreamReader, head: wire.RequestHead):
    """Yield the request body's NDJSON lines, incrementally.

    Handles both Content-Length and chunked bodies; buffers at most one
    incomplete line (bounded by :data:`wire.MAX_LINE_BYTES` — 413
    beyond) plus one transfer frame, never the corpus.
    """
    buffer = bytearray()
    if head.is_chunked():
        async for frame in chunked_frames(reader):
            buffer.extend(frame)
            for line in wire.split_lines(buffer):
                yield line
    else:
        remaining = head.content_length()
        if remaining is None:
            raise WireError(411, "streaming requests need Content-Length or chunked TE")
        while remaining > 0:
            data = await reader.read(min(COPY_BLOCK, remaining))
            if not data:
                raise WireError(400, "request body ended before Content-Length")
            remaining -= len(data)
            buffer.extend(data)
            for line in wire.split_lines(buffer):
                yield line
    if buffer:  # final line without a trailing newline
        tail = bytes(buffer)
        yield tail[:-1] if tail.endswith(b"\r") else tail


def decode_item(line: bytes):
    """One NDJSON item line, JSON-decoded; the endpoint's check judges the value."""
    try:
        return json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise WireError(400, f"invalid NDJSON item: {error}") from None


def check_word(word):
    """One ``POST /match`` item, buffered or streamed: a string or a list of symbol strings."""
    if isinstance(word, str):
        return word
    if isinstance(word, list) and all(isinstance(symbol, str) for symbol in word):
        return word
    raise WireError(400, "words must be strings or lists of symbol strings")


def check_document(text):
    """One ``POST /validate`` item, buffered or streamed: an XML document string."""
    if isinstance(text, str):
        return text
    raise WireError(400, "documents must be XML strings")


__all__ = [
    "COPY_BLOCK",
    "DEADLINE_HEADER",
    "body_lines",
    "check_document",
    "check_word",
    "chunked_frames",
    "deadline_seconds",
    "decode_item",
    "head_bytes",
]
