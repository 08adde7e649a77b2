"""End-to-end tests of the buffered JSON endpoints over a real socket.

The serving front (:class:`~repro.service.aio.AsyncServiceServer`) is
booted on an ephemeral port once per module; requests go through
``urllib`` and ``http.client`` exactly as an external client's would, so
routing, status codes, JSON envelopes, error mapping and keep-alive
framing are all exercised over a socket rather than by calling handler
methods directly.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.service import ValidationService

DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def http_service(front_in_background):
    service = ValidationService(workers=4)
    with front_in_background(service) as front:
        yield service, front.address()[1]
    service.close()


@pytest.fixture(scope="module")
def server_port(http_service):
    return http_service[1]


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(port: int, path: str, payload, raw: bytes | None = None):
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestMatchEndpoint:
    def test_batch_verdicts_match_the_library(self, server_port):
        words = ["abba", "bba", "bb", "", "ab"]
        status, body = _post(server_port, "/match", {"pattern": "(ab+b(b?)a)*", "words": words})
        assert status == 200
        oracle = repro.Pattern("(ab+b(b?)a)*", compiled=False)
        assert body["verdicts"] == [oracle.match(word) for word in words]
        assert body["count"] == len(words)
        assert body["batch_path"] == "compiled-kernel"

    def test_star_free_pattern_reports_its_batch_path(self, server_port):
        status, body = _post(
            server_port, "/match", {"pattern": "(a+b)(c?)d", "words": ["acd", "bd", "dd"]}
        )
        assert status == 200
        assert body["verdicts"] == [True, True, False]
        assert body["batch_path"] == "star-free-multi"

    def test_words_may_be_symbol_lists(self, server_port):
        status, body = _post(
            server_port, "/match", {"pattern": "(ab)*", "words": [["a", "b"], ["b"]]}
        )
        assert status == 200
        assert body["verdicts"] == [True, False]

    def test_non_deterministic_pattern_is_422(self, server_port):
        status, body = _post(server_port, "/match", {"pattern": "(a*ba+bb)*", "words": ["bb"]})
        assert status == 422
        assert "deterministic" in body["error"]

    def test_syntax_error_is_400(self, server_port):
        status, body = _post(server_port, "/match", {"pattern": "((", "words": []})
        assert status == 400
        assert "error" in body

    def test_missing_fields_are_400(self, server_port):
        assert _post(server_port, "/match", {"words": ["a"]})[0] == 400
        assert _post(server_port, "/match", {"pattern": "(ab)*"})[0] == 400
        assert _post(server_port, "/match", {"pattern": "(ab)*", "words": "ab"})[0] == 400

    def test_non_string_word_entries_are_a_clean_400(self, server_port):
        """Regression (ISSUE 5): a non-string word used to surface as a
        worker-pool TypeError repr'd into the 400 body — after a wasted
        fan-out on the chunked path.  It must be rejected up front."""
        for words in (["ab", 7], [None], [["a", 3]], [{"a": 1}]):
            status, body = _post(
                server_port, "/match", {"pattern": "(ab)*", "words": words}
            )
            assert status == 400, (words, body)
            assert "TypeError" not in body["error"], body
            assert "words" in body["error"], body


class TestValidateEndpoint:
    def test_dtd_validation_with_violation_messages(self, server_port):
        status, body = _post(
            server_port,
            "/validate",
            {"dtd": DTD_TEXT, "documents": ["<a><b/></a>", "<a><c/><b/></a>"]},
        )
        assert status == 200
        assert body["schema"] == "dtd"
        assert [verdict["valid"] for verdict in body["verdicts"]] == [True, False]
        assert body["verdicts"][1]["violations"]

    def test_xsd_validation(self, server_port):
        schema = {
            "root": "a",
            "elements": {
                "a": {
                    "kind": "sequence",
                    "min": 1,
                    "max": 1,
                    "children": [
                        {"kind": "element", "name": "b", "min": 1, "max": 2},
                        {"kind": "element", "name": "c", "min": 0, "max": 1},
                    ],
                }
            },
        }
        status, body = _post(
            server_port,
            "/validate",
            {"xsd": schema, "documents": ["<a><b/><b/><c/></a>", "<a><b/><b/><b/></a>"]},
        )
        assert status == 200
        assert body["schema"] == "xsd"
        assert [verdict["valid"] for verdict in body["verdicts"]] == [True, False]

    def test_upa_violating_schema_is_422(self, server_port):
        schema = {
            "elements": {
                "a": {
                    "kind": "sequence",
                    "min": 1,
                    "max": 1,
                    "children": [
                        {"kind": "element", "name": "b", "min": 0, "max": 2},
                        {"kind": "element", "name": "b", "min": 1, "max": 1},
                    ],
                }
            }
        }
        status, body = _post(server_port, "/validate", {"xsd": schema, "documents": []})
        assert status == 422
        assert "Particle" in body["error"]

    def test_malformed_xml_is_400(self, server_port):
        status, _ = _post(server_port, "/validate", {"dtd": DTD_TEXT, "documents": ["<a><b>"]})
        assert status == 400

    def test_requires_exactly_one_schema_kind(self, server_port):
        assert _post(server_port, "/validate", {"documents": []})[0] == 400
        payload = {"dtd": DTD_TEXT, "xsd": {"elements": {}}, "documents": []}
        assert _post(server_port, "/validate", payload)[0] == 400

    def test_malformed_request_leaves_the_validator_memo_untouched(self, http_service):
        """Regression (ISSUE 5): the validator used to be built and
        *memoized* before the documents were type-checked, so a stream of
        malformed requests could evict warm validators from the bounded
        memo.  A bad request must not touch the memo at all."""
        service, port = http_service
        warm = "<!ELEMENT w (x?)> <!ELEMENT x EMPTY>"
        status, _ = _post(port, "/validate", {"dtd": warm, "documents": ["<w><x/></w>"]})
        assert status == 200
        with service._memo_lock:
            before = list(service._validators)
        assert "dtd:" + warm in before
        evictor = "<!ELEMENT e EMPTY>"
        status, body = _post(port, "/validate", {"dtd": evictor, "documents": [42]})
        assert status == 400 and "documents" in body["error"]
        with service._memo_lock:
            after = list(service._validators)
        assert after == before, "a malformed request changed the validator memo"
        assert "dtd:" + evictor not in after


class TestPlumbing:
    def test_stats_endpoint_aggregates_all_surfaces(self, server_port):
        _post(server_port, "/match", {"pattern": "(ab)*", "words": ["ab"]})
        status, body = _get(server_port, "/stats")
        assert status == 200
        assert {
            "service", "requests", "pattern_cache", "patterns", "validators", "shared_rows"
        } <= set(body)
        requests = body["requests"]
        assert requests["total"] >= 1
        assert requests["in_flight"] == 0
        assert requests["p50_ms"] is not None
        assert body["pattern_cache"]["max_size"] == repro.COMPILE_CACHE_SIZE

    def test_healthz(self, server_port):
        assert _get(server_port, "/healthz")[0] == 200

    def test_unknown_routes_are_404(self, server_port):
        assert _get(server_port, "/nope")[0] == 404
        assert _post(server_port, "/nope", {})[0] == 404

    def test_invalid_json_is_400(self, server_port):
        status, body = _post(server_port, "/match", None, raw=b"{not json")
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_non_object_body_is_400(self, server_port):
        status, _ = _post(server_port, "/match", ["a", "b"])
        assert status == 400

    def test_keep_alive_connection_survives_across_requests(self, server_port):
        connection = http.client.HTTPConnection("127.0.0.1", server_port)
        try:
            for _ in range(3):  # one persistent connection, three requests
                connection.request(
                    "POST",
                    "/match",
                    body=json.dumps({"pattern": "(ab)*", "words": ["ab"]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["verdicts"] == [True]
        finally:
            connection.close()

    def test_sequential_keep_alive_requests_do_not_stall(self, server_port):
        """Fifty one-word requests on one connection finish well under a second.

        A response whose head and body leave in two writes stalls every
        keep-alive request for the peer's delayed ACK (Nagle's algorithm
        holds back the second write) — tens of milliseconds each, seconds
        for the loop below.  One write per response keeps it fast.
        """
        body = json.dumps({"pattern": "(ab)*", "words": ["ab"]})
        connection = http.client.HTTPConnection("127.0.0.1", server_port)
        try:
            connection.request(
                "POST", "/match", body=body, headers={"Content-Type": "application/json"}
            )
            connection.getresponse().read()  # connect and warm the pattern
            start = time.perf_counter()
            for _ in range(50):
                connection.request(
                    "POST", "/match", body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["verdicts"] == [True]
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f} s"

    def test_unconsumed_body_errors_close_the_connection(self, server_port):
        """Error replies sent before the body was read must not leave the
        unread bytes to be parsed as the next request (keep-alive desync)."""
        body = json.dumps({"pattern": "(ab)*", "words": ["ab"]})
        connection = http.client.HTTPConnection("127.0.0.1", server_port)
        try:
            connection.request(
                "POST", "/nope", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_concurrent_clients_get_consistent_answers(self, server_port):
        words = ["abba", "bb", "bba"]
        oracle = repro.Pattern("(ab+b(b?)a)*", compiled=False)
        expected = [oracle.match(word) for word in words]
        failures: list[object] = []

        def client():
            status, body = _post(
                server_port, "/match", {"pattern": "(ab+b(b?)a)*", "words": words}
            )
            if status != 200 or body["verdicts"] != expected:
                failures.append((status, body))

        threads = [threading.Thread(target=client) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[0]


class TestCommandLine:
    """``--front`` survives only as a hidden flag whose one value is ``aio``."""

    @staticmethod
    def _cli(*arguments: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *arguments],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def test_the_threaded_front_is_rejected(self):
        completed = self._cli("--front", "threaded")
        assert completed.returncode == 2
        assert "invalid choice: 'threaded'" in completed.stderr

    def test_help_does_not_advertise_a_front_choice(self):
        completed = self._cli("--help")
        assert completed.returncode == 0
        assert "--front" not in completed.stdout


class TestPoisonRequests:
    """Requests that overflow the interpreter stack still get a JSON reply.

    The server is its own process with stderr on a pipe the test never
    reads while it runs: one traceback per request written there would
    fill the pipe and block the event loop, so ``/healthz`` answering
    quickly afterwards also shows that nothing was logged.
    """

    DEEP = "(" * 900 + "a" + ")" * 900
    WIDE = " | ".join(f"n{index}" for index in range(1000))

    @staticmethod
    def _post(port: int, content_type: str, body: bytes) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("POST", "/match", body=body, headers={"Content-Type": content_type})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_every_poison_request_gets_a_json_reply(self):
        def ndjson(header: dict, *items) -> bytes:
            return "\n".join(json.dumps(line) for line in (header, *items)).encode() + b"\n"

        poison = [
            ("application/json", json.dumps({"pattern": self.DEEP, "words": ["a"]}).encode()),
            ("application/x-ndjson", ndjson({"pattern": self.DEEP}, "a")),
            (
                "application/json",
                json.dumps({"pattern": self.WIDE, "dialect": "named", "words": [["n1"]]}).encode(),
            ),
            ("application/x-ndjson", ndjson({"pattern": "(ab)*", "dialect": 5}, "ab")),
            ("application/json", json.dumps({"pattern": self.DEEP, "words": ["a"]}).encode()),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.split("http://")[1].split(" ")[0].rsplit(":", 1)[1])
            for content_type, body in poison:
                status, reply = self._post(port, content_type, body)
                assert 400 <= status < 600 and isinstance(reply.get("error"), str), (status, reply)
            started = time.perf_counter()
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1) as response:
                assert response.status == 200
            assert time.perf_counter() - started < 1.0
            requests = _get(port, "/stats")[1]["requests"]
            assert (requests["total"], requests["errors"]) == (len(poison), len(poison))
        finally:
            process.terminate()
            try:
                _, stderr = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                _, stderr = process.communicate(timeout=30)
        assert "Traceback" not in stderr
