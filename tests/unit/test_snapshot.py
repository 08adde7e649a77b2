"""Row snapshots: format round-trip, corruption handling, telemetry.

The contract under test (ISSUE 4): a stale or corrupt snapshot must
degrade to the normal lazy fill with a counted ``snapshot_rejected``
stat — never an exception on the match path, and never a changed
verdict.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import cache
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import snapshot as snapshot_format
from repro.matching.snapshot import SnapshotError
from repro.regex.parse_tree import build_parse_tree

EXPR = "(ab+b(b?)a)*"
WORDS = ["abba", "ab", "bb", "abab", "ba", "", "abbaab"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.purge()
    yield
    repro.purge()


def _warm_and_save(path) -> dict:
    pattern = repro.compile(EXPR)
    for word in WORDS:
        pattern.match(word)
    return repro.save_snapshot(str(path))


def _oracle() -> list[bool]:
    reference = repro.Pattern(EXPR, compiled=False)
    return [reference.match(word) for word in WORDS]


def _assert_degraded_but_correct(report: dict, expected_reason: str) -> None:
    """The load was rejected (with the right reason) and matching still works."""
    assert report["rejected"] >= 1, report
    assert report["patterns_loaded"] == 0, report
    stats = repro.stats()["snapshot"]
    assert stats["rejected_reasons"].get(expected_reason, 0) >= 1, stats
    pattern = repro.compile(EXPR)
    assert [pattern.match(word) for word in WORDS] == _oracle()
    runtime = pattern._built_runtime()
    assert runtime is None or runtime.stats()["adopted_rows"] == 0


class TestRoundTrip:
    def test_save_load_restores_rows_without_building_a_matcher(self, tmp_path):
        path = tmp_path / "rows.snapshot"
        saved = _warm_and_save(path)
        assert saved["patterns"] == 1 and saved["rows"] > 0
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["patterns_loaded"] == 1
        assert report["rows_loaded"] == saved["rows"]
        pattern = repro.compile(EXPR)
        assert [pattern.match(word) for word in WORDS] == _oracle()
        runtime = pattern.runtime
        stats = runtime.stats()
        assert stats["adopted_rows"] == saved["rows"]
        assert stats["misses"] == 0, "adopted rows should answer every query"
        assert runtime._matcher_obj is None, "the Section-4 matcher must stay unbuilt"
        # Re-persisting a snapshot-adopted runtime (every row adopted and
        # complete) must not force the matcher either — the refresh path
        # keeps the deferred-construction win.
        runtime.export_rows()
        assert runtime._matcher_obj is None, "export of a complete runtime forced the matcher"

    def test_same_traffic_saves_the_same_bytes(self, tmp_path):
        """Rows are completed at save, so the file depends on the traffic alone."""
        first = tmp_path / "first.snapshot"
        _warm_and_save(first)
        repro.purge()
        second = tmp_path / "second.snapshot"
        _warm_and_save(second)
        assert first.read_bytes() == second.read_bytes()
        # a save completes rows in place, so saving again changes nothing
        repro.save_snapshot(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_rows_are_interned_in_a_file_pool(self, tmp_path):
        path = tmp_path / "rows.snapshot"
        saved = _warm_and_save(path)
        assert saved["pool_rows"] <= saved["rows"]
        snapshot = snapshot_format.load(path)
        assert snapshot.pool_size == saved["pool_rows"]
        assert snapshot.entries[0].meta["expr"] == EXPR

    def test_loading_twice_is_idempotent(self, tmp_path):
        path = tmp_path / "rows.snapshot"
        saved = _warm_and_save(path)
        repro.purge()
        repro.load_snapshot(str(path))
        second = repro.load_snapshot(str(path))
        assert second["rows_loaded"] == 0, "locally present rows must win"
        pattern = repro.compile(EXPR)
        assert pattern.runtime.stats()["adopted_rows"] == saved["rows"]

    def test_save_skips_patterns_without_materialized_rows(self, tmp_path):
        repro.compile(EXPR)  # compiled but never matched: no runtime
        saved = repro.save_snapshot(str(tmp_path / "rows.snapshot"))
        assert saved["patterns"] == 0
        assert saved["skipped"] == 1

    def test_a_rows_entry_holds_fingerprint_meta_and_row_refs_only(self, tmp_path):
        """Decoding the ROWS section by hand finds the pool, then per entry its
        fingerprint, meta and (state, pool index) refs, and no other byte."""
        import struct

        path = tmp_path / "rows.snapshot"
        saved = _warm_and_save(path)
        pattern = repro.compile(EXPR)
        visited = sorted(pattern.runtime.export_rows()["rows"])
        rows = next(
            s for s in snapshot_format.describe_file(path)["sections"] if s["tag"] == "ROWS"
        )
        data = path.read_bytes()[rows["offset"] : rows["offset"] + rows["length"]]
        at = 0

        def u32():
            nonlocal at
            (value,) = struct.unpack_from("<I", data, at)
            at += 4
            return value

        pool = u32()
        for _ in range(pool):
            ints = u32()
            at += ints * snapshot_format.ITEMSIZE
        assert pool == saved["pool_rows"]
        assert u32() == 1  # one pattern
        fingerprint = data[at : at + 32]
        at += 32
        length = u32()
        meta = json.loads(data[at : at + length])
        at += length + (-(4 + length)) % 4
        assert meta == cache.snapshot_meta((EXPR, "paper", "auto", True), pattern)
        assert fingerprint == snapshot_format.pattern_fingerprint(meta)
        refs = [(u32(), u32()) for _ in range(u32())]
        assert [state for state, _index in refs] == visited
        assert all(index < pool for _state, index in refs)
        assert at == len(data), "bytes left over after the row refs"

        repro.save_snapshot(str(tmp_path / "again.snapshot"))
        assert (tmp_path / "again.snapshot").read_bytes() == path.read_bytes()

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        _warm_and_save(tmp_path / "rows.snapshot")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "rows.snapshot"]
        assert leftovers == []


class TestCorruption:
    """Each corruption class maps to one counted rejection reason."""

    def _saved_bytes(self, tmp_path) -> tuple:
        path = tmp_path / "rows.snapshot"
        _warm_and_save(path)
        repro.purge()
        return path, path.read_bytes()

    def test_truncated_file(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        for cut in (0, 7, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            report = repro.load_snapshot(str(path))
            _assert_degraded_but_correct(report, "truncated")
            repro.purge()

    def test_wrong_magic(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        path.write_bytes(b"NOTASNAP" + data[8:])
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "magic")

    def test_wrong_version_byte(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        mutated = bytearray(data)
        mutated[8] ^= 0xFF  # the version field sits right after the magic
        path.write_bytes(bytes(mutated))
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "version")

    def test_flipped_checksum(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        mutated = bytearray(data)
        mutated[16] ^= 0x01  # the stored CRC-32
        path.write_bytes(bytes(mutated))
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "checksum")

    def test_flipped_payload_byte(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        mutated = bytearray(data)
        mutated[-3] ^= 0x40  # payload corruption is caught by the same CRC
        path.write_bytes(bytes(mutated))
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "checksum")

    def test_missing_file(self, tmp_path):
        report = repro.load_snapshot(str(tmp_path / "never-written.snapshot"))
        assert report["rejected"] == 1
        assert repro.stats()["snapshot"]["rejected_reasons"].get("missing", 0) >= 1
        assert repro.compile(EXPR).match("abba")

    def test_alphabet_width_mismatch(self, tmp_path):
        """Well-formed file, valid fingerprint, rows of the wrong width."""
        pattern = repro.compile(EXPR)
        for word in WORDS:
            pattern.match(word)
        key = (EXPR, "paper", "auto", True)
        meta = cache.snapshot_meta(key, pattern)
        export = pattern.runtime.export_rows()
        bad_rows = {state: list(row) + [0] for state, row in export["rows"].items()}
        path = tmp_path / "rows.snapshot"
        snapshot_format.write(
            path,
            [
                {
                    "fingerprint": snapshot_format.pattern_fingerprint(meta),
                    "meta": meta,
                    "rows": bad_rows,
                }
            ],
        )
        repro.purge()
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "alphabet-width")

    def test_stale_fingerprint(self, tmp_path):
        """An entry whose recorded identity does not match this build."""
        pattern = repro.compile(EXPR)
        for word in WORDS:
            pattern.match(word)
        key = (EXPR, "paper", "auto", True)
        meta = cache.snapshot_meta(key, pattern)
        export = pattern.runtime.export_rows()
        stale = dict(meta)
        stale["alphabet"] = meta["alphabet"] + ["zzz"]  # a different-build encoding
        path = tmp_path / "rows.snapshot"
        snapshot_format.write(
            path,
            [
                {
                    "fingerprint": snapshot_format.pattern_fingerprint(stale),
                    "meta": stale,
                    "rows": export["rows"],
                }
            ],
        )
        repro.purge()
        _assert_degraded_but_correct(repro.load_snapshot(str(path)), "fingerprint")

    def test_rejections_are_counted(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        mutated = bytearray(data)
        mutated[16] ^= 0x01
        path.write_bytes(bytes(mutated))
        repro.load_snapshot(str(path))
        repro.load_snapshot(str(path))
        assert repro.stats()["snapshot"]["snapshot_rejected"] == before + 2


class TestAdoptRows:
    """Direct runtime-level validation: reject before any mutation."""

    def _runtime(self) -> CompiledRuntime:
        return CompiledRuntime(build_matcher(build_parse_tree("(ab)*"), verify=False))

    def test_rejects_wrong_row_width(self):
        runtime = self._runtime()
        with pytest.raises(SnapshotError) as excinfo:
            runtime.adopt_rows({0: [0]})
        assert excinfo.value.reason == "alphabet-width"
        assert runtime.stats()["adopted_rows"] == 0
        assert runtime.accepts("abab") is True

    def test_rejects_state_out_of_range(self):
        runtime = self._runtime()
        with pytest.raises(SnapshotError) as excinfo:
            runtime.adopt_rows({999: [0, 1]})
        assert excinfo.value.reason == "row-bounds"

    def test_rejects_target_out_of_range(self):
        runtime = self._runtime()
        with pytest.raises(SnapshotError) as excinfo:
            runtime.adopt_rows({0: [999, -7]})
        assert excinfo.value.reason == "row-bounds"

    def test_partial_validation_failure_mutates_nothing(self):
        runtime = self._runtime()
        good = runtime.export_rows()  # completes rows; export is adoptable
        fresh = CompiledRuntime(build_matcher(build_parse_tree("(ab)*"), verify=False))
        bad = dict(good["rows"])
        bad[0] = [999] * good["width"]
        with pytest.raises(SnapshotError):
            fresh.adopt_rows(bad)
        assert fresh.stats()["adopted_rows"] == 0
        assert fresh.stats()["states_visited"] == 0


class TestServiceTelemetry:
    def test_service_stats_carry_snapshot_counters(self):
        from repro.service import ValidationService

        with ValidationService(workers=1) as service:
            stats = service.stats()
        assert "snapshot_rejected" in stats["snapshot"]
        assert stats["snapshot"] == repro.stats()["snapshot"]

    def test_snapshot_stats_shape(self):
        stats = repro.stats()["snapshot"]
        assert {
            "saves",
            "loads",
            "patterns_saved",
            "rows_saved",
            "patterns_loaded",
            "rows_loaded",
            "snapshot_rejected",
            "rejected_reasons",
        } <= set(stats)


class TestMetaRoundTrip:
    def test_ast_keyed_patterns_round_trip(self, tmp_path):
        """Content models are cached under AST keys; they must persist too."""
        from repro.regex.parser import parse

        expr = parse("(ab)*c", dialect="paper")
        pattern = repro.compile(expr)
        for word in ["ababc", "c", "ab"]:
            pattern.match(word)
        path = tmp_path / "rows.snapshot"
        saved = repro.save_snapshot(str(path))
        assert saved["patterns"] == 1
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["patterns_loaded"] == 1
        restored = repro.compile(parse("(ab)*c", dialect="paper"))
        assert restored.runtime.stats()["adopted_rows"] > 0
        assert restored.match("ababc")

    def test_json_meta_is_human_readable(self, tmp_path):
        path = tmp_path / "rows.snapshot"
        _warm_and_save(path)
        snapshot = snapshot_format.load(path)
        meta = snapshot.entries[0].meta
        assert json.loads(json.dumps(meta)) == meta
        assert meta["positions"] == len(repro.compile(EXPR).tree.positions)
