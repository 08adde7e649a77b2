"""The HTTP validation service, end to end in one process.

Boots the serving front on an ephemeral port (exactly what
``python -m repro.service --port 0`` runs) on an event loop in a
background thread, then walks through every endpoint with a plain
``urllib`` client: batch matching on both batch paths, DTD and XSD
document validation, determinism rejections, and the telemetry
snapshot.  The CI ``docs`` job runs every example, this one included.

Run with:  python examples/http_service.py
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

from repro.service import AsyncServiceServer, ValidationService


def request(port: int, path: str, payload: dict | None = None) -> tuple[int, dict]:
    """One JSON request against the local service (POST if a payload is given)."""
    url = f"http://127.0.0.1:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> None:
    service = ValidationService(workers=8)
    front = AsyncServiceServer(service)
    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    asyncio.run_coroutine_threadsafe(front.start("127.0.0.1", 0), loop).result()
    port = front.address()[1]
    print(f"service listening on 127.0.0.1:{port} with 8 workers")

    # -- batch matching: the starred pattern replays shared lazy-DFA rows ----
    status, body = request(
        port, "/match", {"pattern": "(ab+b(b?)a)*", "words": ["abba", "bba", "bb", ""]}
    )
    print(f"\nPOST /match  (status {status}, path {body['batch_path']})")
    print("  verdicts:", body["verdicts"])

    # -- a star-free pattern answers the whole corpus in one scan ------------
    status, body = request(
        port, "/match", {"pattern": "(a+b)(c?)d", "words": ["acd", "bd", "dd"]}
    )
    print(f"POST /match  (status {status}, path {body['batch_path']})")
    print("  verdicts:", body["verdicts"])

    # -- non-deterministic input is a client error, not a server fault -------
    status, body = request(port, "/match", {"pattern": "(a*ba+bb)*", "words": ["bb"]})
    print(f"POST /match on the paper's e2 -> {status}: {body['error'][:60]}...")

    # -- DTD validation with violation messages ------------------------------
    status, body = request(
        port,
        "/validate",
        {
            "dtd": "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
            "documents": ["<a><b/><c/></a>", "<a><c/></a>"],
        },
    )
    print(f"\nPOST /validate (dtd, status {status})")
    for verdict in body["verdicts"]:
        print(" ", verdict)

    # -- XSD validation from the JSON wire shape -----------------------------
    status, body = request(
        port,
        "/validate",
        {
            "xsd": {
                "root": "order",
                "elements": {
                    "order": {
                        "kind": "sequence", "min": 1, "max": 1,
                        "children": [
                            {"kind": "element", "name": "sku", "min": 1, "max": 1},
                            {"kind": "element", "name": "qty", "min": 1, "max": 3},
                        ],
                    }
                },
            },
            "documents": ["<order><sku/><qty/><qty/></order>", "<order><qty/></order>"],
        },
    )
    print(f"POST /validate (xsd, status {status})")
    print("  valid:", [verdict["valid"] for verdict in body["verdicts"]])

    # -- the telemetry snapshot ----------------------------------------------
    status, stats = request(port, "/stats")
    print(f"\nGET /stats (status {status})")
    print("  requests:     ", stats["requests"])
    print("  pattern_cache:", stats["pattern_cache"])
    print("  patterns:     ", sorted(stats["patterns"]))
    print("  validators:   ", [key.split(":", 1)[0] for key in stats["validators"]])
    print("  transitions:  ", stats["snapshot"]["materialized"]["transitions"])

    asyncio.run_coroutine_threadsafe(front.close(), loop).result()
    loop.call_soon_threadsafe(loop.stop)
    service.close()
    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
