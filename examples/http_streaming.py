"""The asyncio streaming front, end to end in one process.

Boots the serving front (exactly what ``python -m repro.service`` runs)
on an ephemeral port, then speaks its NDJSON stream protocol with a
plain ``asyncio`` client: verdicts arrive line by line *while the corpus
is still uploading*, so neither side ever holds the whole corpus in
memory.  Also shows per-request deadlines (``X-Repro-Deadline-Ms``),
violation detail negotiation (``?detail=``) and the ``aio`` telemetry
block.  The CI ``service-aio`` job runs this script as the streaming
smoke test.

Run with:  python examples/http_streaming.py
"""

import asyncio
import json

from repro.service import ValidationService
from repro.service.aio import AsyncServiceServer

PATTERN = "(ab+b(b?)a)*"
DTD = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"


async def stream(port: int, target: str, header: dict, items, extra_headers=()):
    """POST one NDJSON stream; print each response line as it lands.

    The request body goes out chunk by chunk and the response is consumed
    line by line off the same connection — this is the whole point of the
    streaming front: verdict N is on the wire before item N+1 leaves.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head_lines = [
        f"POST {target} HTTP/1.1",
        "Host: example",
        "Content-Type: application/x-ndjson",
        "Transfer-Encoding: chunked",
        "Connection: close",
        *extra_headers,
    ]
    writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode())

    def send_line(value) -> None:
        line = (json.dumps(value) + "\n").encode()
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")

    send_line(header)
    for item in items:
        send_line(item)
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()

    status_line = (await reader.readline()).decode().strip()
    print(f"  {status_line}")
    while (await reader.readline()).strip():
        pass  # response headers
    results = []
    while True:
        size_line = await reader.readline()
        size = int(size_line.strip() or b"0", 16)
        if size == 0:
            break
        payload = await reader.readexactly(size)
        await reader.readexactly(2)  # CRLF after the chunk
        for line in payload.splitlines():
            value = json.loads(line)
            results.append(value)
            print(f"    {value!r}")
    writer.close()
    return results


async def main() -> None:
    service = ValidationService(workers=8)
    front = AsyncServiceServer(service)
    await front.start("127.0.0.1", 0)
    port = front.address()[1]
    print(f"aio front listening on 127.0.0.1:{port}")

    # -- stream a /match corpus: header line, words, verdicts in order ------
    print("\nstreaming POST /match:")
    words = ["abba", "bb", "", "abbaabba", "ba"]
    lines = await stream(port, "/match", {"pattern": PATTERN}, words)
    verdicts = lines[1:-1]
    assert lines[-1] == {"count": len(words), "done": True}
    assert verdicts == [True, False, True, True, True]

    # -- stream /validate with a negotiated detail level --------------------
    print("\nstreaming POST /validate?detail=summary:")
    documents = ["<a><b/></a>", "<a><c/></a>"]
    lines = await stream(port, "/validate?detail=summary", {"dtd": DTD}, documents)
    assert lines[1] == {"valid": True, "violations": 0}
    assert lines[2]["valid"] is False

    # -- a missed deadline cuts a started stream with an in-stream error ----
    print("\nPOST /match with X-Repro-Deadline-Ms: 1 on a large corpus:")
    try:
        await stream(
            port,
            "/match",
            {"pattern": PATTERN},
            (["abba" * 8] * 20000),
            extra_headers=("X-Repro-Deadline-Ms: 1",),
        )
    except (ConnectionError, asyncio.IncompleteReadError):
        print("    (stream cut at the deadline)")

    # -- the aio telemetry block --------------------------------------------
    stats = front.stats_payload()
    aio = stats["aio"]
    print(
        f"\naio telemetry: {aio['connections']} connections, "
        f"{aio['streams']} streams, {aio['deadline_hits']} deadline hits"
    )
    assert aio["streams"] >= 3

    await front.close()
    service.close()
    print("\nall streaming checks passed")


if __name__ == "__main__":
    asyncio.run(main())
