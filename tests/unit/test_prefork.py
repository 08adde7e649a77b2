"""The multi-process front: StatsBoard semantics and a real prefork boot.

The StatsBoard tests run in-process (the seqlock protocol must hold for
any interleaving a crashed or mid-write worker can leave behind).  The
boot test launches ``python -m repro.service --processes 2`` as a real
subprocess on an ephemeral port, exercises ``/match`` and the merged
``/stats`` cluster view, and shuts it down with SIGTERM.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.service.prefork import _SLOT_HEADER, SLOT_SIZE, StatsBoard

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


class TestStatsBoard:
    def test_publish_read_round_trip(self):
        board = StatsBoard(slots=3)
        payload = {"pid": 42, "requests": {"total": 7}}
        assert board.publish(1, payload) is True
        assert board.read(1) == payload
        assert board.read(0) is None  # untouched slot
        assert board.read_all() == {1: payload}

    def test_republish_overwrites(self):
        board = StatsBoard(slots=1)
        board.publish(0, {"n": 1})
        board.publish(0, {"n": 2})
        assert board.read(0) == {"n": 2}

    def test_oversized_payload_is_skipped_not_torn(self):
        board = StatsBoard(slots=1)
        board.publish(0, {"n": 1})
        huge = {"blob": "x" * SLOT_SIZE}
        assert board.publish(0, huge) is False
        assert board.read(0) == {"n": 1}  # previous value intact

    def test_torn_write_reads_as_stale(self):
        board = StatsBoard(slots=1)
        board.publish(0, {"n": 1})
        # Simulate a worker that died mid-write: odd seqlock counter.
        seq, length = _SLOT_HEADER.unpack_from(board._mm, 0)
        _SLOT_HEADER.pack_into(board._mm, 0, seq + 1, length)
        assert board.read(0) is None

    def test_garbage_length_reads_as_stale(self):
        board = StatsBoard(slots=1)
        _SLOT_HEADER.pack_into(board._mm, 0, 2, SLOT_SIZE * 2)
        assert board.read(0) is None

    def test_publish_recovers_from_a_crashed_writer(self):
        """A worker killed mid-write leaves an odd counter; the restarted
        worker's next publish must re-even it, not invert the parity."""
        board = StatsBoard(slots=1)
        board.publish(0, {"n": 1})
        seq, length = _SLOT_HEADER.unpack_from(board._mm, 0)
        _SLOT_HEADER.pack_into(board._mm, 0, seq + 1, length)  # died mid-write
        assert board.read(0) is None
        assert board.publish(0, {"n": 2}) is True
        assert board.read(0) == {"n": 2}
        assert board.read(0) == {"n": 2}  # stable, not flapping

    def test_slot_isolation(self):
        board = StatsBoard(slots=4)
        for slot in range(4):
            board.publish(slot, {"slot": slot})
        assert {slot: body["slot"] for slot, body in board.read_all().items()} == {
            0: 0, 1: 1, 2: 2, 3: 3
        }

    def test_header_struct_is_two_u32(self):
        assert _SLOT_HEADER.size == struct.calcsize("<II")


class TestWorkerSummary:
    def test_summary_reads_only_what_it_publishes(self, monkeypatch):
        """The once-a-second summary equals ``stats()``'s two blocks, built cheaply."""
        from repro import cache
        from repro.service.core import ValidationService
        from repro.service.prefork import _worker_summary

        with ValidationService(workers=1) as service:
            for expression in ("(ab)*", "a(b+c)", "(ab+b(b?)a)*"):
                service.match_batch(expression, ["ab", "abab", "ba"] * 3)
            stats = service.stats()
            assert stats["patterns"]  # the full view walks remembered patterns

            def refuse(*args, **kwargs):
                raise AssertionError("the worker summary built a full stats view")

            monkeypatch.setattr(cache, "materialization", refuse)
            monkeypatch.setattr(repro.Pattern, "stats", refuse)
            summary = _worker_summary(service)
        assert summary["pid"] == os.getpid()
        assert summary["requests"] == stats["requests"]
        assert summary["pattern_cache"] == stats["pattern_cache"]


class TestClusterStatsView:
    def test_stats_payload_filters_stale_workers(self):
        """A dead worker's leftover summary must not count as live."""
        from repro.service.aio import AsyncServiceServer
        from repro.service.core import ValidationService

        board = StatsBoard(slots=2)
        fresh = {"pid": 1, "requests": {"total": 5, "errors": 0, "in_flight": 1}}
        board.publish(0, {**fresh, "updated_at": time.time()})
        dead = {"pid": 2, "requests": {"total": 9, "errors": 0, "in_flight": 3}}
        board.publish(1, {**dead, "updated_at": time.time() - 3600})
        service = ValidationService(workers=1)
        try:
            front = AsyncServiceServer(service, board=board, processes=2)
            cluster = front.stats_payload()["cluster"]
            assert cluster["live_workers"] == 1
            assert cluster["aggregate_requests"] == {"total": 5, "errors": 0, "in_flight": 1}
            assert cluster["workers"]["0"]["stale"] is False
            assert cluster["workers"]["1"]["stale"] is True  # listed, excluded
        finally:
            service.close()


def _wait_for_port(process: subprocess.Popen, deadline_s: float = 30.0) -> int:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError("server exited before printing its address")
        if "listening on http://" in line:
            return int(line.split("http://")[1].split(" ")[0].rsplit(":", 1)[1])
    raise AssertionError("server never printed its address")


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return json.load(response)


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="prefork requires os.fork")
class TestPreforkBoot:
    def test_prefork_serves_and_merges_cluster_stats(self, tmp_path):
        # A snapshot to preload, so the boot exercises the whole pipeline.
        repro.purge()
        pattern = repro.compile("(ab+b(b?)a)*")
        for word in ["abba", "bb", "abab"]:
            pattern.match(word)
        snapshot_path = tmp_path / "rows.snapshot"
        repro.save_snapshot(str(snapshot_path))
        repro.purge()

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--port",
                "0",
                "--processes",
                "2",
                "--workers",
                "2",
                "--snapshot",
                str(snapshot_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Its own session, so a hung shutdown can be killed together
            # with the forked workers instead of orphaning them.
            start_new_session=True,
        )
        try:
            port = _wait_for_port(process)
            deadline = time.monotonic() + 30
            last_error = None
            while time.monotonic() < deadline:
                try:
                    body = _post(
                        port, "/match", {"pattern": "(ab+b(b?)a)*", "words": ["abba", "bb"]}
                    )
                    break
                except OSError as error:  # workers may still be forking
                    last_error = error
                    time.sleep(0.2)
            else:
                raise AssertionError(f"prefork server never answered: {last_error}")
            assert body["verdicts"] == [True, False]

            stats = _get(port, "/stats")
            cluster = stats["cluster"]
            assert cluster["processes"] == 2
            assert 1 <= cluster["live_workers"] <= 2
            assert stats["snapshot"]["patterns_loaded"] >= 1
            for payload in cluster["workers"].values():
                assert payload["pid"] > 0
            assert _get(port, "/healthz")["status"] == "ok"
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                exit_code = process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
                raise
            finally:
                process.stdout.close()
            assert exit_code == 0
