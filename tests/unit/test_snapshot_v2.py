"""The sectioned snapshot format: sections, older versions, live lifecycle.

The contract under test: a snapshot file persists validator memos next
to the dense rows; a file of an older version is one counted
``version`` rejection and a cold start (``tests/data/rows.v1.snapshot``
and ``tests/data/sftb.v2.snapshot``, written by the last writers of
those versions, are the reference files); a section tag the reader does
not know is skipped unread while ``ROWS`` and ``MEMO`` adopt; corrupt or
stale *sections* degrade per-section to lazy rebuild — never a changed
verdict; and the serving layer streams the current file over
``GET /snapshot`` so a fresh host bootstraps from a running fleet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import pytest

import repro
from repro import cache
from repro.matching import memo as memo_module
from repro.matching import snapshot as snapshot_format
from repro.matching.snapshot import SnapshotError
from repro.matching.star_free import StarFreeMultiMatcher
from repro.regex.language import LanguageOracle
from repro.service import SnapshotRefresher, ValidationService
from repro.xml import parse_dtd
from repro.xml.memo import AcceptanceMemo
from repro.xml.parser import parse_document
from repro.xml.validator import DTDValidator

ROWS_EXPR = "(ab+b(b?)a)*"
ROWS_WORDS = ["abba", "ab", "bb", "abab", "ba", "", "abbaab"]

#: A version-1 (rows-only) snapshot of ROWS_EXPR warmed by ROWS_WORDS,
#: written by the last release that could write v1; it loads as one
#: ``version`` rejection.
V1_FIXTURE = Path(__file__).resolve().parents[1] / "data" / "rows.v1.snapshot"

#: A v2 snapshot with ROWS, SFTB and MEMO sections for STAR_FREE_EXPR
#: (rows and memo warmed by STAR_FREE_WORDS), written by the last writer
#: that emitted star-free tables; it loads as one ``version`` rejection.
SFTB_FIXTURE = Path(__file__).resolve().parents[1] / "data" / "sftb.v2.snapshot"

STAR_FREE_EXPR = "(a+b)(c?)d"
STAR_FREE_WORDS = ["acd", "bd", "dd", "", "ad", "bcd"]

DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"
DOCUMENTS = ["<a><b/></a>", "<a><b/><c/></a>", "<a><c/></a>", "<a><c/><b/></a>"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.purge()
    yield
    repro.purge()


def _warm_everything() -> None:
    """Materialize state in both sections: rows (star-free batches too) and memos."""
    pattern = repro.compile(ROWS_EXPR)
    for word in ROWS_WORDS:
        pattern.match(word)
    star_free = repro.compile(STAR_FREE_EXPR)
    star_free.match_all(STAR_FREE_WORDS)
    validator = DTDValidator(parse_dtd(DTD_TEXT))
    for text in DOCUMENTS:
        validator.is_valid(parse_document(text))


def _oracle() -> dict:
    rows = repro.Pattern(ROWS_EXPR, compiled=False)
    star_free = repro.Pattern(STAR_FREE_EXPR, compiled=False)
    validator = DTDValidator(parse_dtd(DTD_TEXT), compiled=False)
    return {
        "rows": [rows.match(word) for word in ROWS_WORDS],
        "star_free": [star_free.match(word) for word in STAR_FREE_WORDS],
        "documents": [validator.is_valid(parse_document(text)) for text in DOCUMENTS],
    }


def _insert_section(path: Path, tag: bytes, payload: bytes) -> None:
    """Rewrite the snapshot at *path* with one more section after ``ROWS``,
    as a newer writer adding a section this reader does not know would."""
    from repro.matching.snapshot import _HEADER, _SECTION

    blob = path.read_bytes()
    magic, version, itemsize, byteorder, count, _crc = _HEADER.unpack_from(blob, 0)
    sections = []
    for index in range(count):
        name, _crc, offset, length = _SECTION.unpack_from(
            blob, _HEADER.size + index * _SECTION.size
        )
        sections.append((name, blob[offset : offset + length]))
    sections.insert(1, (tag, payload))
    offset = _HEADER.size + len(sections) * _SECTION.size
    directory = b""
    for name, data in sections:
        directory += _SECTION.pack(name, zlib.crc32(data) & 0xFFFFFFFF, offset, len(data))
        offset += len(data)
    header = _HEADER.pack(
        magic, version, itemsize, byteorder, len(sections), zlib.crc32(directory) & 0xFFFFFFFF
    )
    path.write_bytes(header + directory + b"".join(data for _name, data in sections))


def _verdicts_now() -> dict:
    pattern = repro.compile(ROWS_EXPR)
    star_free = repro.compile(STAR_FREE_EXPR)
    validator = DTDValidator(parse_dtd(DTD_TEXT))
    return {
        "rows": [pattern.match(word) for word in ROWS_WORDS],
        "star_free": star_free.match_all(STAR_FREE_WORDS),
        "documents": [validator.is_valid(parse_document(text)) for text in DOCUMENTS],
    }


class TestSectionsRoundTrip:
    def test_rows_and_memos_round_trip(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        saved = repro.save_snapshot(str(path))
        assert saved["patterns"] >= 2, saved
        assert saved["memo_patterns"] >= 1, saved
        assert saved["memo_entries"] >= len({("b",), ("b", "c"), ("c",), ("c", "b")}), saved
        assert saved["sections"] == ["ROWS", "MEMO"]

        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["format"] == snapshot_format.VERSION == 3
        assert report["rejected"] == 0, report
        assert report["patterns_loaded"] >= 2
        assert report["memos_loaded"] >= 1
        assert report["memo_entries_loaded"] >= 4
        assert _verdicts_now() == _oracle()

        # The star-free pattern's batches warmed rows, and they adopted.
        restored = repro.compile(STAR_FREE_EXPR).stats()
        assert restored["adopted_rows"] > 0
        assert restored["misses"] == 0

    def test_save_load_counts_into_telemetry(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        before = repro.stats()["snapshot"]
        repro.save_snapshot(str(path))
        repro.purge()
        repro.load_snapshot(str(path))
        stats = repro.stats()["snapshot"]
        assert stats["loads"] == before["loads"] + 1
        assert stats["memo_entries_saved"] > before["memo_entries_saved"]
        assert stats["memo_entries_loaded"] > before["memo_entries_loaded"]

    def test_describe_file_lists_sections(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        saved = repro.save_snapshot(str(path))
        description = snapshot_format.describe_file(path)
        assert description["format"] == 3
        assert description["bytes"] == saved["bytes"]
        assert [s["tag"] for s in description["sections"]] == ["ROWS", "MEMO"]
        total = sum(s["length"] for s in description["sections"])
        assert description["sections"][0]["offset"] + total == saved["bytes"]

    def test_memo_only_pattern_is_persisted(self, tmp_path):
        """A pattern warm only in its memo still earns a snapshot entry."""
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        validator.is_valid(parse_document("<a><b/></a>"))
        saved = repro.save_snapshot(str(tmp_path / "memo.snapshot"))
        assert saved["memo_patterns"] >= 1

    def test_materialized_gauge_tracks_rows_and_memos(self):
        base = repro.stats()["snapshot"]["materialized"]
        assert base["total"] == 0
        _warm_everything()
        gauge = repro.stats()["snapshot"]["materialized"]
        assert gauge["transitions"] > 0
        assert gauge["memo_entries"] > 0
        assert gauge["total"] == gauge["transitions"] + gauge["memo_entries"]


#: A fresh process: loads the snapshot, counts ``parse_word`` calls and
#: batches the words once.
_FRESH_CHILD = """\
import json, sys
import repro, repro.api
path, expr, words = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
report = repro.load_snapshot(path)
parsed = []
parse_word = repro.api.parse_word
repro.api.parse_word = lambda word: parsed.append(word) or parse_word(word)
verdicts = repro.compile(expr).match_all(words)
print(json.dumps({"verdicts": verdicts, "parsed": len(parsed),
                  "adopted": report["memo_entries_loaded"]}))
"""


class TestBatchWordsInTheMemo:
    """Warm batches fill the runtime's memo; a save writes its symbol sequences only."""

    @staticmethod
    def _warm(words: list) -> repro.Pattern:
        pattern = repro.compile(ROWS_EXPR)
        for _ in range(2):  # cold, then warm: the second batch memoizes
            pattern.match_all(words)
        return pattern

    def test_a_warm_str_word_batch_adds_nothing_to_memo(self, tmp_path):
        pattern = self._warm(ROWS_WORDS * 2)
        assert len(pattern.acceptance_memo()) == len(ROWS_WORDS)  # raw str keys
        assert repro.stats()["snapshot"]["materialized"]["memo_entries"] == 0
        saved = repro.save_snapshot(str(tmp_path / "str.snapshot"))
        assert saved["memo_entries"] == 0 and saved["sections"] == ["ROWS"], saved

    def test_a_warm_list_word_batch_answers_a_fresh_process_unparsed(self, tmp_path):
        words = [list(word) for word in ROWS_WORDS] * 2
        self._warm(words)
        assert repro.stats()["snapshot"]["materialized"]["memo_entries"] == len(ROWS_WORDS)
        path = tmp_path / "list.snapshot"
        saved = repro.save_snapshot(str(path))
        assert saved["memo_entries"] == len(ROWS_WORDS), saved
        environment = dict(os.environ)
        source = str(Path(__file__).resolve().parents[2] / "src")
        environment["PYTHONPATH"] = source + os.pathsep + environment.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _FRESH_CHILD, str(path), ROWS_EXPR, json.dumps(words)],
            capture_output=True,
            text=True,
            timeout=120,
            env=environment,
            check=True,
        )
        child = json.loads(completed.stdout)
        assert child["adopted"] == len(ROWS_WORDS)
        assert child["parsed"] == 0, "the adopted memo must answer before parse_word"
        oracle = repro.Pattern(ROWS_EXPR, compiled=False)
        assert child["verdicts"] == [bool(oracle.match(word)) for word in words]

    def test_the_materialized_gauge_counts_what_a_save_writes(self, tmp_path):
        self._warm(ROWS_WORDS + [list(word) for word in ROWS_WORDS])  # one key of each kind
        _warm_everything()
        gauge = repro.stats()["snapshot"]["materialized"]["memo_entries"]
        saved = repro.save_snapshot(str(tmp_path / "mixed.snapshot"))
        assert gauge == saved["memo_entries"] == len(ROWS_WORDS) + len(DOCUMENTS)


class TestOlderVersions:
    """A file of an older format version is one ``version`` rejection and a cold start."""

    @pytest.mark.parametrize(
        ("fixture", "expr", "words"),
        [(V1_FIXTURE, ROWS_EXPR, ROWS_WORDS), (SFTB_FIXTURE, STAR_FREE_EXPR, STAR_FREE_WORDS)],
        ids=["v1", "v2"],
    )
    def test_an_older_file_is_one_version_rejection(self, fixture, expr, words):
        before = repro.stats()["snapshot"]
        report = repro.load_snapshot(str(fixture))
        assert report["rejected"] == 1 and len(report["errors"]) == 1, report
        assert report["patterns_loaded"] == report["rows_loaded"] == 0, report
        assert report["memos_loaded"] == report["memo_entries_loaded"] == 0, report
        stats = repro.stats()["snapshot"]
        assert stats["snapshot_rejected"] == before["snapshot_rejected"] + 1
        reasons = before["rejected_reasons"]
        assert stats["rejected_reasons"] == {**reasons, "version": reasons.get("version", 0) + 1}
        assert stats["loads"] == before["loads"]
        assert stats["materialized"]["total"] == 0, "a rejected file adopted something"
        with pytest.raises(SnapshotError) as excinfo:
            snapshot_format.describe_file(fixture)
        assert excinfo.value.reason == "version"

        pattern = repro.compile(expr)
        assert pattern._built_runtime() is None
        oracle = LanguageOracle(pattern.tree)
        expected = [oracle.accepts(list(word)) for word in words]
        assert [bool(pattern.match(word)) for word in words] == expected
        assert pattern.match_all(words) == expected
        assert pattern.stats()["adopted_rows"] == 0


class TestSectionDegradation:
    def _flip_in_section(self, path, tag: str) -> None:
        description = snapshot_format.describe_file(path)
        section = next(s for s in description["sections"] if s["tag"] == tag)
        blob = bytearray(path.read_bytes())
        blob[section["offset"] + section["length"] // 2] ^= 0x20
        path.write_bytes(bytes(blob))

    @pytest.mark.parametrize("corrupt", ["ROWS", "MEMO"])
    def test_one_bad_section_leaves_the_other_adopting(self, tmp_path, corrupt):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        oracle = _oracle()
        repro.save_snapshot(str(path))
        self._flip_in_section(path, corrupt)
        repro.purge()
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        report = repro.load_snapshot(str(path))
        assert report["rejected"] >= 1, report
        assert repro.stats()["snapshot"]["snapshot_rejected"] > before
        assert repro.stats()["snapshot"]["rejected_reasons"].get("checksum", 0) >= 1
        if corrupt != "ROWS":
            assert report["patterns_loaded"] >= 2
        if corrupt != "MEMO":
            assert report["memos_loaded"] >= 1
        assert _verdicts_now() == oracle, f"verdict changed with a corrupt {corrupt} section"

    def test_structurally_bad_rows_section_adopts_nothing_from_it(self, tmp_path):
        """A ROWS section with a valid CRC but malformed structure must
        reject as a unit — no half-adopted prefix of its entries."""
        import struct
        import zlib

        from repro.matching.snapshot import _HEADER, _SECTION

        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        blob = bytearray(path.read_bytes())
        description = snapshot_format.describe_file(path)
        rows = next(s for s in description["sections"] if s["tag"] == "ROWS")
        # The last 8 bytes of the ROWS payload are the final entry's last
        # (state, pool_index) pair; point the pool index outside the pool.
        struct.pack_into("<I", blob, rows["offset"] + rows["length"] - 4, 0xFFFFFF)
        # Recompute the section CRC and the directory CRC so only the
        # *structure* is bad.
        payload = bytes(blob[rows["offset"] : rows["offset"] + rows["length"]])
        directory_start = _HEADER.size
        for index in range(len(description["sections"])):
            entry_offset = directory_start + index * _SECTION.size
            tag = bytes(blob[entry_offset : entry_offset + 4])
            if tag == b"ROWS":
                struct.pack_into("<I", blob, entry_offset + 4, zlib.crc32(payload) & 0xFFFFFFFF)
        directory = bytes(
            blob[directory_start : directory_start + len(description["sections"]) * _SECTION.size]
        )
        struct.pack_into("<I", blob, 16, zlib.crc32(directory) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))

        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1, report
        assert report["patterns_loaded"] == 0, "a rejected ROWS section partially adopted"
        assert report["rows_loaded"] == 0, report
        assert report["memos_loaded"] >= 1, report
        assert _verdicts_now() == _oracle()

    def test_fully_rejected_file_is_not_counted_as_a_load(self, tmp_path):
        """Corrupting every section must not increment loads."""
        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        for tag in ("ROWS", "MEMO"):
            self._flip_in_section(path, tag)
        repro.purge()
        before = repro.stats()["snapshot"]
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 2, report
        stats = repro.stats()["snapshot"]
        assert stats["loads"] == before["loads"], "an all-rejected file was counted as a load"
        assert _verdicts_now() == _oracle()

    def test_header_corruption_rejects_the_whole_file(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        blob = bytearray(path.read_bytes())
        blob[16] ^= 0x01  # the directory CRC
        path.write_bytes(bytes(blob))
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1
        assert report["patterns_loaded"] == 0
        assert report["memos_loaded"] == 0
        assert _verdicts_now() == _oracle()

    def test_stale_star_free_fingerprint_is_counted(self, tmp_path):
        pattern = repro.compile(STAR_FREE_EXPR)
        pattern.match_all(STAR_FREE_WORDS)
        key = (STAR_FREE_EXPR, "paper", "auto", True)
        meta = cache.snapshot_meta(key, pattern)
        stale = dict(meta)
        stale["alphabet"] = meta["alphabet"] + ["zzz"]
        rows = pattern.runtime.export_rows()
        path = tmp_path / "stale.snapshot"
        snapshot_format.write(
            path,
            [
                {
                    "fingerprint": snapshot_format.pattern_fingerprint(stale),
                    "meta": stale,
                    "rows": rows["rows"],
                }
            ],
        )
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1
        assert report["patterns_loaded"] == 0
        assert repro.stats()["snapshot"]["rejected_reasons"].get("fingerprint", 0) >= 1
        oracle = repro.Pattern(STAR_FREE_EXPR, compiled=False)
        fresh = repro.compile(STAR_FREE_EXPR)
        assert fresh.match_all(STAR_FREE_WORDS) == [
            oracle.match(w) for w in STAR_FREE_WORDS
        ]


class TestUnknownSections:
    """A section tag this reader does not know is skipped unread; ROWS and MEMO adopt."""

    def _newer_file(self, tmp_path) -> tuple[Path, dict]:
        path = tmp_path / "newer.snapshot"
        _warm_everything()
        oracle = _oracle()
        repro.save_snapshot(str(path))
        _insert_section(path, b"XTRA", b"a section from a newer writer " * 4)
        repro.purge()
        return path, oracle

    def test_unknown_section_is_skipped_while_rows_and_memos_adopt(self, tmp_path):
        path, oracle = self._newer_file(tmp_path)
        described = snapshot_format.describe_file(path)["sections"]
        assert [section["tag"] for section in described] == ["ROWS", "XTRA", "MEMO"]
        loaded = snapshot_format.load(path)
        assert loaded.sections == ["ROWS", "MEMO"] and loaded.section_errors == []
        before = repro.stats()["snapshot"]
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 0 and report["errors"] == [], report
        assert report["patterns_loaded"] >= 2 and report["rows_loaded"] > 0
        assert report["memos_loaded"] >= 1 and report["memo_entries_loaded"] > 0
        stats = repro.stats()["snapshot"]
        assert stats["snapshot_rejected"] == before["snapshot_rejected"]
        assert stats["loads"] == before["loads"] + 1
        star_free = repro.compile(STAR_FREE_EXPR)
        assert star_free.stats()["adopted_rows"] > 0
        assert _verdicts_now() == oracle
        assert star_free.stats()["misses"] == 0

    def test_a_damaged_unknown_section_is_skipped_before_its_crc(self, tmp_path):
        path, oracle = self._newer_file(tmp_path)
        section = next(
            s for s in snapshot_format.describe_file(path)["sections"] if s["tag"] == "XTRA"
        )
        blob = bytearray(path.read_bytes())
        blob[section["offset"] + section["length"] // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        loaded = snapshot_format.load(path)
        assert loaded.sections == ["ROWS", "MEMO"]
        assert loaded.section_errors == []
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 0 and report["errors"] == [], report
        assert report["rows_loaded"] > 0 and report["memo_entries_loaded"] > 0
        assert _verdicts_now() == oracle

    def test_resaving_drops_the_unknown_section(self, tmp_path):
        path, _oracle = self._newer_file(tmp_path)
        repro.load_snapshot(str(path))
        resaved = tmp_path / "resaved.snapshot"
        saved = repro.save_snapshot(str(resaved))
        assert saved["sections"] == ["ROWS", "MEMO"]
        described = snapshot_format.describe_file(resaved)["sections"]
        assert [section["tag"] for section in described] == ["ROWS", "MEMO"]

    def test_multi_matcher_keeps_no_persistence_surface(self, tmp_path):
        matcher = StarFreeMultiMatcher(STAR_FREE_EXPR, verify=False)
        for name in ("export_tables", "adopt_tables", "table_stats"):
            assert not hasattr(matcher, name), name
        with pytest.raises(TypeError):
            snapshot_format.write(tmp_path / "x.snapshot", [], star_free=[])


class TestAcceptanceMemo:
    def test_memo_short_circuits_repeat_validation(self):
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        document = parse_document("<a><b/><c/></a>")
        assert validator.is_valid(document)
        memo = validator._plans["a"].built_runtime().memo
        assert len(memo) == 1
        hits_before = memo.hits
        assert validator.is_valid(document)
        assert memo.hits > hits_before

    def test_memo_is_shared_across_validators_of_one_model(self):
        first = DTDValidator(parse_dtd(DTD_TEXT))
        second = DTDValidator(parse_dtd(DTD_TEXT))
        memo = first._plans["a"].built_runtime().memo
        assert second._plans["a"].built_runtime().memo is memo
        assert memo is first._patterns["a"].acceptance_memo()

    def test_adopt_validates_before_mutating(self):
        memo = AcceptanceMemo()
        with pytest.raises(SnapshotError) as excinfo:
            memo.adopt([(["b"], True), (["c"], "yes")])
        assert excinfo.value.reason == "memo-entry"
        assert len(memo) == 0

    def test_adopt_rejects_non_sequence_keys(self):
        memo = AcceptanceMemo()
        for bad in [("bc", True)], [(7, True)], [([1, 2], True)], ["x"]:
            with pytest.raises(SnapshotError):
                memo.adopt(bad)
        assert len(memo) == 0

    def test_adopt_respects_the_bound_and_local_wins(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MEMO_LIMIT", 4)
        memo = AcceptanceMemo()
        memo.put(("b",), True)
        entries = [(["b"], False), (["c"], True), (["d"], False), (["e"], True), (["f"], True)]
        # ("c",) and ("d",) fill the old generation and ("e",) the young
        # one's last slot; ("b",) loses to local and ("f",) is over the bound.
        assert memo.adopt(entries) == 3
        assert len(memo) == 4 and memo.adopted == 3
        assert memo.get(("f",)) is None
        assert memo.get(("b",)) is True, "local verdict must win"
        assert memo.get(("e",)) is True

    def test_put_stops_at_the_bound(self, monkeypatch):
        """The memo stops growing at the bound: a full young generation turns over."""
        monkeypatch.setattr(memo_module, "MEMO_LIMIT", 2)
        memo = AcceptanceMemo()
        memo.put(("a",), True)
        memo.put(("b",), False)  # the young generation was full: ("a",) is now old
        assert len(memo) == 2
        memo.put(("c",), True)  # ("a",) was not re-used since: it goes
        assert len(memo) == 2
        assert memo.get(("a",)) is None
        assert memo.get(("b",)) is False
        assert memo.stats()["limit"] == 2

    def test_adopt_never_drops_an_entry_the_memo_holds(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MEMO_LIMIT", 4)
        memo = AcceptanceMemo()
        for name in "abc":  # ("a",) and ("b",) turn over into the old generation
            memo.put((name,), True)
        held = set(memo.export())
        assert len(held) == 3
        assert memo.adopt([([name], False) for name in "wxyz"]) == 1
        assert held < set(memo.export())
        assert len(memo) == 4

    def test_a_batch_verdict_answers_the_validator_without_a_replay(self):
        """List-word batches and validators share one memo, keyed on the sequence."""
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        pattern = validator._patterns["a"]
        words = [["b"], ["b", "c"], ["c"], ["c", "b"]] * 2
        for _ in range(2):  # cold, then warm: the second batch fills the memo
            pattern.match_all(words)
        memo = pattern.acceptance_memo()
        assert len(memo) == 4 and memo.hits == memo.misses == 0  # batch probes count nothing
        misses, rows = memo.misses, pattern.runtime.stats()["transitions_memoized"]
        assert [validator.is_valid(parse_document(text)) for text in DOCUMENTS] == [
            True,
            True,
            False,
            False,
        ]
        assert memo.misses == misses and memo.hits == len(DOCUMENTS)
        assert pattern.runtime.stats()["transitions_memoized"] == rows


class TestLiveLifecycle:
    def test_refresher_persists_on_growth_and_idles_otherwise(self, tmp_path):
        path = tmp_path / "live.snapshot"
        refresher = SnapshotRefresher(str(path), interval=3600, min_growth=1)
        assert refresher.maybe_save() is None, "nothing materialized yet"
        assert not path.exists()
        _warm_everything()
        report = refresher.maybe_save()
        assert report is not None and path.exists()
        assert refresher.saves == 1
        # No further growth: the next tick must not rewrite.
        assert refresher.maybe_save() is None
        assert refresher.saves == 1
        # New growth: the file is rewritten atomically.
        extra = repro.compile("(xy)*z")
        extra.match("xyz")
        assert refresher.maybe_save() is not None
        assert refresher.saves == 2
        assert snapshot_format.describe_file(path)["format"] == snapshot_format.VERSION

    def test_refresher_thread_runs_and_stops(self, tmp_path):
        path = tmp_path / "live.snapshot"
        _warm_everything()
        refresher = SnapshotRefresher(str(path), interval=0.05, min_growth=1)
        refresher.start()
        try:
            for _ in range(100):
                if path.exists():
                    break
                threading.Event().wait(0.05)
            assert path.exists(), "the background thread never persisted"
        finally:
            refresher.stop()
        assert refresher._thread is None


@pytest.fixture()
def snapshot_server(tmp_path, front_in_background):
    """A real HTTP server whose ``GET /snapshot`` serves a warm snapshot file."""
    _warm_everything()
    path = tmp_path / "served.snapshot"
    repro.save_snapshot(str(path))
    service = ValidationService(workers=1)
    with front_in_background(service, snapshot_source=str(path)) as front:
        yield front.address()[1], path
    service.close()


class TestSnapshotEndpoint:
    def test_get_snapshot_streams_the_exact_file(self, snapshot_server):
        port, path = snapshot_server
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/snapshot") as response:
            assert response.headers["Content-Type"] == "application/octet-stream"
            blob = response.read()
        assert blob == path.read_bytes()

    def test_get_snapshot_404_without_a_source(self, front_in_background):
        service = ValidationService(workers=1)
        with front_in_background(service) as front:
            port = front.address()[1]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/snapshot")
            excinfo.value.close()
            assert excinfo.value.code == 404
        service.close()

    def test_fleet_bootstrap_over_the_wire(self, snapshot_server):
        """load_snapshot(url): a fresh host adopts a running fleet's state."""
        port, _path = snapshot_server
        repro.purge()
        report = repro.load_snapshot(f"http://127.0.0.1:{port}/snapshot")
        assert report["url"].endswith("/snapshot")
        assert report["rejected"] == 0, report
        assert report["patterns_loaded"] >= 2
        assert report["memos_loaded"] >= 1
        assert _verdicts_now() == _oracle()

    def test_fetch_failure_degrades_to_cold_start(self):
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        report = repro.load_snapshot("http://127.0.0.1:9/snapshot")  # closed port
        assert report["rejected"] == 1
        assert report["patterns_loaded"] == 0
        stats = repro.stats()["snapshot"]
        assert stats["snapshot_rejected"] == before + 1
        assert stats["rejected_reasons"].get("fetch", 0) >= 1
        assert repro.compile(ROWS_EXPR).match("abba")

    def test_failed_fetches_do_not_leak_file_descriptors(self):
        """A bootstrap retry loop against a dead fleet must not bleed fds."""
        import os

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
            pytest.skip("needs /proc to count descriptors")
        repro.load_snapshot("http://127.0.0.1:9/snapshot")  # warm any lazy imports
        before = len(os.listdir(fd_dir))
        for _ in range(5):
            repro.load_snapshot("http://127.0.0.1:9/snapshot")
        assert len(os.listdir(fd_dir)) == before
