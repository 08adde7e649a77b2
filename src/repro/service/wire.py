"""Wire framing for the serving front (pure bytes, no sockets).

The asyncio front (:mod:`repro.service.aio`) speaks HTTP/1.1 with three
body shapes — buffered JSON, streamed NDJSON and the snapshot byte
stream.  This module is the single home for their framing rules and
limits, written against plain ``bytes`` so every piece is unit-testable
without a socket:

* request-head parsing (:func:`parse_request_head`) with the head and
  body limits (:data:`MAX_HEAD_BYTES`, :data:`MAX_BODY_BYTES`);
* NDJSON line framing (:func:`ndjson_line`) and the streaming grammar
  documented in ``docs/service.md``: *header object, one verdict value
  per item, trailer object*;
* chunked transfer encoding (:func:`chunk`, :data:`CHUNK_END`) for
  streamed responses whose length is unknown up front;
* the PR-3 content negotiation of violation detail levels
  (:func:`negotiate_detail`): ``verdict`` (booleans only), ``summary``
  (violation *counts*), ``full`` (structured violation objects — since
  PR 9 with element path, child index and expected tags; match results
  are shaped the same way by :func:`shape_match`);
* snapshot download integrity (:func:`snapshot_etag`,
  :func:`parse_range`): strong validators derived from the file identity
  so a ranged resume can never silently splice two snapshot generations
  together.

>>> head = parse_request_head(b"POST /match?detail=summary HTTP/1.1\\r\\nHost: x\\r\\n\\r\\n")
>>> head.method, head.path, head.query
('POST', '/match', {'detail': 'summary'})
>>> negotiate_detail(head.headers, head.query)
'summary'
>>> ndjson_line(True)
b'true\\n'
>>> chunk(b"abc")
b'3\\r\\nabc\\r\\n'
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote

#: Default bind address of ``python -m repro.service``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8421

#: Reject request heads (request line + headers) beyond this size.
MAX_HEAD_BYTES = 32 * 1024

#: Reject buffered request bodies beyond this size (bytes) instead of
#: buffering them.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Reject a single NDJSON line (one word / one document) beyond this
#: size; the stream itself is unbounded — that is the point.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Violation detail levels, cheapest first.  ``verdict`` streams bare
#: booleans, ``summary`` adds violation counts, ``full`` the messages.
DETAIL_LEVELS = ("verdict", "summary", "full")

#: Terminates a chunked response body.
CHUNK_END = b"0\r\n\r\n"


class WireError(Exception):
    """A protocol violation with the HTTP status it should produce."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass(slots=True)
class RequestHead:
    """A parsed request line + headers (header names lower-cased)."""

    method: str
    target: str
    path: str
    version: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    def content_length(self) -> int | None:
        """The declared body length, ``None`` when absent, 400 when garbage."""
        raw = self.headers.get("content-length")
        if raw is None:
            return None
        try:
            length = int(raw)
        except ValueError:
            raise WireError(400, f"invalid Content-Length: {raw!r}") from None
        if length < 0:
            raise WireError(400, f"invalid Content-Length: {raw!r}")
        return length

    def is_chunked(self) -> bool:
        return self.headers.get("transfer-encoding", "").lower() == "chunked"

    def wants_ndjson(self) -> bool:
        """True when the request body is an NDJSON stream (by Content-Type)."""
        content_type = self.headers.get("content-type", "")
        return content_type.split(";", 1)[0].strip().lower() in (
            "application/x-ndjson",
            "application/ndjson",
        )

    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


def parse_request_head(head: bytes) -> RequestHead:
    """Parse one request head (everything before the blank line).

    Raises :class:`WireError` (400/431/505) on malformed input; duplicate
    headers keep the last value (sufficient for the headers this service
    reads — none of them are list-valued).
    """
    if len(head) > MAX_HEAD_BYTES:
        raise WireError(431, "request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise WireError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise WireError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise WireError(505, f"unsupported HTTP version: {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise WireError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    path, _, query_text = target.partition("?")
    query = {key: value for key, value in parse_qsl(query_text, keep_blank_values=True)}
    return RequestHead(
        method=method,
        target=target,
        path=unquote(path),
        version=version,
        query=query,
        headers=headers,
    )


# ---------------------------------------------------------------------------
# Detail-level negotiation (the PR-3 wire follow-up)
# ---------------------------------------------------------------------------

def negotiate_detail(headers: dict[str, str], query: dict[str, str], default: str = "full") -> str:
    """The violation detail level a response should carry.

    Precedence: the ``detail`` query parameter, then an explicit
    ``X-Repro-Detail`` header, then a ``detail=`` parameter on the
    ``Accept`` header (``Accept: application/x-ndjson; detail=summary``),
    then *default*.  An unknown level is a 400 — silently downgrading
    would hand a dashboard booleans where it expected messages.
    """
    candidate = query.get("detail") or headers.get("x-repro-detail")
    if candidate is None:
        accept = headers.get("accept", "")
        for part in accept.split(";")[1:]:
            name, sep, value = part.strip().partition("=")
            if sep and name.strip().lower() == "detail":
                candidate = value.strip()
                break
    if candidate is None:
        return default
    candidate = candidate.lower()
    if candidate not in DETAIL_LEVELS:
        raise WireError(
            400, f"unknown detail level {candidate!r} (expected one of {', '.join(DETAIL_LEVELS)})"
        )
    return candidate


def shape_verdict(valid: bool, violations, detail: str):
    """One document verdict in its negotiated wire shape (JSON-ready).

    *violations* may be plain strings (the legacy message shape) or
    diagnostic objects exposing ``to_dict`` — the PR-9
    :class:`~repro.xml.validator.Violation` records with element path,
    child index and expected tags.  ``verdict`` stays a bare boolean and
    ``summary`` a count either way; ``full`` renders whatever detail the
    objects carry, on buffered and streamed responses alike.
    """
    if detail == "verdict":
        return valid
    if detail == "summary":
        return {"valid": valid, "violations": len(violations)}
    return {
        "valid": valid,
        "violations": [
            violation.to_dict() if hasattr(violation, "to_dict") else violation
            for violation in violations
        ],
    }


def shape_match(result, detail: str):
    """One match verdict in its negotiated wire shape (JSON-ready).

    *result* is a :class:`~repro.diagnostics.MatchResult` (or a bare
    bool, shaped as ``verdict`` regardless).  ``verdict`` keeps the
    historical bare boolean — the default level on ``/match`` —
    ``summary`` adds the failing index, and ``full`` the
    whole diagnosis (expected-next set, repair hints) via
    :meth:`~repro.diagnostics.MatchResult.to_dict`.
    """
    if detail == "verdict" or isinstance(result, bool):
        return bool(result)
    if detail == "summary":
        payload = {"matched": result.matched}
        if not result.matched:
            payload["error_index"] = result.error_index
        return payload
    return result.to_dict()


# ---------------------------------------------------------------------------
# NDJSON + chunked transfer encoding
# ---------------------------------------------------------------------------

def ndjson_line(value) -> bytes:
    """One NDJSON line: compact JSON plus the newline terminator."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8") + b"\n"


def chunk(data: bytes) -> bytes:
    """*data* as one HTTP/1.1 chunk (empty input yields no chunk at all)."""
    if not data:
        return b""
    return b"%x\r\n%s\r\n" % (len(data), data)


def parse_chunk_size(line: bytes) -> int:
    """The size from one chunk-size line (extensions after ``;`` ignored)."""
    text = line.strip().split(b";", 1)[0]
    try:
        size = int(text, 16)
    except ValueError:
        raise WireError(400, f"malformed chunk size: {line!r}") from None
    if size < 0:
        raise WireError(400, f"malformed chunk size: {line!r}")
    return size


def split_lines(buffer: bytearray) -> list[bytes]:
    """Drain complete ``\\n``-terminated lines from *buffer* (in place).

    The tail (an incomplete line) stays in the buffer; a tail beyond
    :data:`MAX_LINE_BYTES` is a 413 — one absurd line must not buffer
    unbounded memory, which is exactly what the streaming tier promises
    not to do.
    """
    lines: list[bytes] = []
    while True:
        newline = buffer.find(b"\n")
        if newline < 0:
            break
        line = bytes(buffer[:newline])
        del buffer[: newline + 1]
        if line.endswith(b"\r"):
            line = line[:-1]
        lines.append(line)
    if len(buffer) > MAX_LINE_BYTES:
        raise WireError(413, f"NDJSON line exceeds {MAX_LINE_BYTES} bytes")
    return lines


# ---------------------------------------------------------------------------
# Snapshot download integrity (ETag + single-range requests)
# ---------------------------------------------------------------------------

def snapshot_etag(stat) -> str:
    """A strong validator for the snapshot file behind an open descriptor.

    Derived from the inode identity, size and mtime: the snapshot
    lifecycle replaces the file atomically (new inode per rewrite), so
    any refresh changes the tag and a conditional resume against a stale
    tag falls back to a full download instead of splicing generations.
    """
    return f'"{stat.st_ino:x}-{stat.st_size:x}-{stat.st_mtime_ns:x}"'


def parse_range(header_value: str | None, size: int) -> tuple[int, int] | None:
    """A single ``Range: bytes=...`` header as ``(offset, length)``.

    ``None`` means "no usable range: serve the whole file" (absent
    header, other units, or multi-range requests — tolerating a range is
    the contract, honouring every exotic shape is not).  A syntactically
    valid range that lies beyond the file raises ``WireError(416)``.
    """
    if not header_value or size == 0:
        return None
    unit, sep, spec = header_value.partition("=")
    if not sep or unit.strip().lower() != "bytes" or "," in spec:
        return None
    start_text, sep, end_text = spec.strip().partition("-")
    if not sep:
        return None
    try:
        if not start_text:  # suffix range: the last N bytes
            suffix = int(end_text)
            if suffix <= 0:
                raise ValueError
            offset = max(0, size - suffix)
            return offset, size - offset
        offset = int(start_text)
        end = int(end_text) if end_text else size - 1
    except ValueError:
        return None
    if offset >= size:
        raise WireError(416, f"range {header_value!r} outside a {size}-byte snapshot")
    if end < offset:
        return None
    end = min(end, size - 1)
    return offset, end - offset + 1
