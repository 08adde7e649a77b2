"""Property test: streamed verdicts equal the service's batch verdicts.

The streaming path reshapes everything — NDJSON lines instead of one JSON
body, micro-batches through a bounded queue instead of one pool map,
chunked framing both directions — and none of it may show in a verdict.
For random deterministic expressions and random corpora, the byte content
of the streamed verdict lines must decode to exactly the list
:meth:`~repro.service.core.ValidationService.match_batch` returns for the
same corpus.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex.generators import random_deterministic_expression
from repro.regex.printer import to_text
from repro.regex.words import mutate_word, sample_member
from repro.service.core import ValidationService


@pytest.fixture(scope="module")
def fronts(front_in_background):
    """An aio front, plus a separate in-process service as the batch oracle."""
    batch_service = ValidationService(workers=4)
    aio_service = ValidationService(workers=4)
    with front_in_background(aio_service) as front:
        yield batch_service, front.address()[1]
    aio_service.close()
    batch_service.close()


def _streamed_verdict_lines(port: int, pattern: str, words: list[str]) -> list[bytes]:
    """POST an NDJSON stream over a raw socket; return the verdict lines."""
    import socket

    header = json.dumps({"pattern": pattern, "dialect": "named"})
    lines = [header] + [json.dumps(word) for word in words]
    body = ("\n".join(lines) + "\n").encode()
    head = (
        f"POST /match HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + body)
        raw = bytearray()
        while True:
            piece = sock.recv(65536)
            if not piece:
                break
            raw += piece
    head_end = raw.index(b"\r\n\r\n")
    status = int(raw[:head_end].split(b" ", 2)[1])
    assert status == 200, raw[:head_end]
    # De-chunk the body.
    payload = bytearray()
    cursor = head_end + 4
    while True:
        size_end = raw.index(b"\r\n", cursor)
        size = int(raw[cursor:size_end], 16)
        if size == 0:
            break
        payload += raw[size_end + 2 : size_end + 2 + size]
        cursor = size_end + 2 + size + 2
    body_lines = bytes(payload).splitlines()
    trailer = json.loads(body_lines[-1])
    assert trailer == {"count": len(words), "done": True}
    return body_lines[1:-1]


def _corpus(seed: int, leaf_count: int) -> tuple[str, list[str]]:
    rng = random.Random(seed)
    expr = random_deterministic_expression(rng, leaf_count)
    pattern = to_text(expr, dialect="named")
    alphabet = sorted({symbol for symbol in pattern if symbol.isalnum()}) or ["a"]
    words: list[str] = [""]
    for _ in range(8):
        member = sample_member(expr, rng)
        words.append("".join(member))
        words.append("".join(mutate_word(member, alphabet, rng)))
        words.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9))))
    return pattern, words


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=20, deadline=None)
def test_streamed_verdicts_match_the_batch_service(fronts, seed, leaf_count):
    batch_service, aio_port = fronts
    pattern, words = _corpus(seed, leaf_count)
    expected = batch_service.match_batch(pattern, words, dialect="named")
    lines = _streamed_verdict_lines(aio_port, pattern, words)
    # Byte-identical framing: each verdict is exactly the canonical JSON
    # encoding of the batch verdict, one per line, in order.
    assert lines == [json.dumps(verdict).encode() for verdict in expected]
