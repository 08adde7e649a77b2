"""Unit tests for the per-pattern verdict memo (:mod:`repro.matching.memo`).

Pins the two-generation bound and what :meth:`AcceptanceMemo.exported`
counts (the tuple keys a save writes), path by path: ``put``, an
old-generation hit in ``get``, a turnover and ``adopt``.  The laws over
random traffic are in ``tests/property/test_memo_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.matching import CompiledRuntime, build_matcher
from repro.matching import memo as memo_module
from repro.matching.memo import AcceptanceMemo
from repro.matching.snapshot import SnapshotError
from repro.regex.parse_tree import build_parse_tree


def _small_memo(monkeypatch, limit: int = 4) -> AcceptanceMemo:
    monkeypatch.setattr(memo_module, "MEMO_LIMIT", limit)
    memo = AcceptanceMemo()
    assert memo.half == limit // 2
    return memo


def _held_tuples(memo: AcceptanceMemo) -> int:
    return sum(type(key) is tuple for generation in (memo.old, memo.young) for key in generation)


class TestExported:
    def test_str_keys_are_not_counted(self):
        memo = AcceptanceMemo()
        memo.put("ab", True)
        memo.put(("a", "b"), True)
        memo.put("ba", False)
        assert memo.exported() == 1 == len(memo.export())
        assert len(memo) == 3

    def test_overwriting_a_held_tuple_counts_it_once(self):
        memo = AcceptanceMemo()
        for verdict in (True, False, True):
            memo.put(("a", "b"), verdict)
        assert memo.exported() == 1
        assert memo.get(("a", "b")) is True

    def test_a_turnover_drops_the_oldest_generation(self, monkeypatch):
        memo = _small_memo(monkeypatch)
        memo.put(("a",), True)
        memo.put("ab", False)  # young is full: 1 tuple, 1 str
        memo.put(("b",), False)  # turnover: young becomes old
        assert set(memo.old) == {("a",), "ab"} and set(memo.young) == {("b",)}
        assert memo.exported() == 2
        memo.put(("c",), True)
        memo.put(("d",), True)  # turnover: the first generation is dropped
        assert set(memo.old) == {("b",), ("c",)} and set(memo.young) == {("d",)}
        assert memo.exported() == 3 == _held_tuples(memo) == len(memo.export())

    def test_an_old_generation_hit_moves_the_word_to_the_young_one(self, monkeypatch):
        memo = _small_memo(monkeypatch)
        memo.put(("a",), True)
        memo.put(("b",), False)
        memo.put("c", True)  # turnover: ("a",) and ("b",) are old
        assert set(memo.old) == {("a",), ("b",)} and set(memo.young) == {"c"}
        assert memo.get(("a",)) is True
        assert set(memo.old) == {("b",)} and set(memo.young) == {"c", ("a",)}
        assert memo.get("c") is True  # a young hit moves nothing
        assert set(memo.old) == {("b",)} and set(memo.young) == {"c", ("a",)}
        assert memo.exported() == 2 == _held_tuples(memo)

    def test_adopt_fills_the_old_generation_then_the_young_one(self, monkeypatch):
        memo = _small_memo(monkeypatch)
        memo.put(("a",), True)
        entries = [(["a"], False), (["b"], True), (("c",), False), (["d"], True), (["e"], True)]
        # ("a",) is held and keeps its entry; b and c fill the old
        # generation, d the young one's last place, and e finds no room.
        assert memo.adopt(entries) == 3
        assert memo.get(("a",)) is True
        assert set(memo.old) == {("b",), ("c",)} and set(memo.young) == {("a",), ("d",)}
        assert memo.exported() == 4 == _held_tuples(memo) == len(memo.export())
        assert memo.adopted == 3

    def test_a_rejected_adoption_installs_nothing(self):
        memo = AcceptanceMemo()
        memo.put(("a",), True)
        with pytest.raises(SnapshotError) as excinfo:
            memo.adopt([(["b"], True), (["c"], "yes")])
        assert excinfo.value.reason == "memo-entry"
        assert memo.exported() == 1
        assert set(memo.young) == {("a",)} and not memo.old


class TestBound:
    def test_the_memo_never_holds_more_than_its_limit(self, monkeypatch):
        memo = _small_memo(monkeypatch, limit=8)
        for index in range(100):
            memo.put((f"w{index}",), index % 2 == 0)
            assert len(memo) <= 8
        assert memo.exported() == len(memo) == _held_tuples(memo)
        assert memo.get(("w99",)) is False
        assert memo.get(("w0",)) is None

    def test_a_word_reused_within_every_half_limit_is_never_evicted(self, monkeypatch):
        memo = _small_memo(monkeypatch, limit=8)
        memo.put(("hot",), True)
        for index in range(100):
            memo.put((f"once{index}",), False)
            if index % 3 == 2:  # within every half-limit (4) of new words
                assert memo.get(("hot",)) is True
        assert memo.get(("hot",)) is True


class TestValidatorProbes:
    def test_validator_probes_count_hits_and_misses_and_batch_probes_do_not(self):
        runtime = CompiledRuntime(build_matcher(build_parse_tree("(ab)*"), verify=False))
        memo = runtime.memo
        assert memo.accepts(runtime, ["a", "b"]) is True
        assert memo.accepts(runtime, ["a"]) is False
        assert memo.accepts(runtime, ("a", "b")) is True
        assert (memo.hits, memo.misses) == (1, 2)
        assert memo.get(("a", "b")) is True  # a batch probe counts nothing
        assert (memo.hits, memo.misses) == (1, 2)
        assert memo.stats() == {
            "entries": 2,
            "hits": 1,
            "misses": 2,
            "adopted": 0,
            "limit": memo_module.MEMO_LIMIT,
        }
