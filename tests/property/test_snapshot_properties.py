"""Property tests: persistence may never change a verdict.

Four laws, checked over random deterministic expressions and random
words (including unknown symbols and sentinels):

1. **round trip** — saving a warm runtime's rows and adopting them into
   a fresh runtime yields verdicts identical to the wrapped matcher, and
   the adopted runtime answers without a single delegation;
2. **export is stable** — export → adopt → export reproduces identical
   rows (the persisted machine is a fixpoint, not an approximation);
3. **corruption degrades, never lies** — any single-byte flip anywhere
   in a snapshot file either rejects cleanly (counted, lazy fill takes
   over) or leaves every verdict unchanged; it never raises on the match
   path and never changes an answer.  (Byte flips that survive CRC-32 in
   this file's small payloads do not exist, but the property is stated —
   and checked — end to end through ``load_snapshot``.)
4. **section independence** (format v2) — a random byte flip inside
   either section (dense rows, validator memos) rejects only that
   section: the other still adopts, and every verdict — matching,
   star-free batches and document validation — agrees with an
   uncompiled oracle.
"""

from __future__ import annotations

import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

import repro
from repro.matching import CompiledRuntime, build_matcher
from repro.matching import snapshot as snapshot_format
from repro.regex.generators import random_deterministic_expression
from repro.regex.parse_tree import build_parse_tree
from repro.regex.words import mutate_word, sample_member
from repro.xml.dtd import parse_dtd
from repro.xml.parser import parse_document
from repro.xml.validator import DTDValidator


def _workload(seed: int, leaf_count: int):
    rng = random.Random(seed)
    expr = random_deterministic_expression(rng, leaf_count)
    tree = build_parse_tree(expr)
    alphabet = tree.alphabet.as_list() or ["a"]
    words: list[list[str]] = [[]]
    for _ in range(5):
        member = sample_member(expr, rng)
        words.append(list(member))
        words.append(list(mutate_word(member, alphabet, rng)))
        words.append([rng.choice(alphabet) for _ in range(rng.randint(1, 8))])
    words.append([alphabet[0], "not-in-alphabet"])
    words.append(["$", "#"])
    return expr, tree, words


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_adopted_rows_reproduce_every_verdict(seed: int, leaf_count: int):
    expr, tree, words = _workload(seed, leaf_count)
    matcher = build_matcher(tree, verify=False)
    warm = CompiledRuntime(matcher)
    expected = [warm.accepts(word) for word in words]

    export = warm.export_rows()
    fresh = CompiledRuntime(build_matcher(build_parse_tree(expr), verify=False))
    adopted = fresh.adopt_rows(export["rows"])
    assert adopted == len(export["rows"])
    assert [fresh.accepts(word) for word in words] == expected
    assert fresh.stats()["misses"] == 0, "complete export must answer everything"

    # the persisted machine is a fixpoint: re-export reproduces the rows
    second = fresh.export_rows()
    assert {state: list(row) for state, row in second["rows"].items()} == {
        state: list(row) for state, row in export["rows"].items()
    }


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_single_byte_corruption_never_changes_a_verdict(seed: int, leaf_count: int, data):
    expr, _tree, words = _workload(seed, leaf_count)
    try:
        repro.purge()
        pattern = repro.compile(expr)  # AST-keyed, like the XML validators
        expected = [pattern.match(word) for word in words]

        directory = tempfile.mkdtemp(prefix="snapshot-prop-")
        path = os.path.join(directory, "rows.snapshot")
        saved = repro.save_snapshot(path)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())

        offset = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[offset] ^= 1 << bit
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        repro.purge()
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        report = repro.load_snapshot(path)  # must not raise, whatever the flip hit
        if report["rejected"]:
            assert repro.stats()["snapshot"]["snapshot_rejected"] > before
        pattern = repro.compile(expr)
        assert [pattern.match(word) for word in words] == expected, (
            f"verdict changed after flipping bit {bit} of byte {offset} "
            f"(saved {saved['bytes']} bytes, load report {report})"
        )
    finally:
        repro.purge()


# ---------------------------------------------------------------------------
# Section independence (format v2)
# ---------------------------------------------------------------------------

_ROWS_EXPR = "(ab+b(b?)a)*"
_ROWS_WORDS = ["abba", "ab", "bb", "abab", "", "ba"]
_STAR_FREE_EXPR = "(a+b)(c?)d"
_STAR_FREE_WORDS = ["acd", "bd", "dd", "", "ad", "bcd"]
_DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"
_DOCUMENTS = ["<a><b/></a>", "<a><b/><c/></a>", "<a><c/></a>", "<a><c/><b/></a>"]


def _warm_all_sections() -> None:
    pattern = repro.compile(_ROWS_EXPR)
    for word in _ROWS_WORDS:
        pattern.match(word)
    repro.compile(_STAR_FREE_EXPR).match_all(_STAR_FREE_WORDS)
    validator = DTDValidator(parse_dtd(_DTD_TEXT))
    for text in _DOCUMENTS:
        validator.is_valid(parse_document(text))


def _oracle_verdicts() -> dict:
    rows = repro.Pattern(_ROWS_EXPR, compiled=False)
    star_free = repro.Pattern(_STAR_FREE_EXPR, compiled=False)
    validator = DTDValidator(parse_dtd(_DTD_TEXT), compiled=False)
    return {
        "rows": [rows.match(word) for word in _ROWS_WORDS],
        "star_free": [star_free.match(word) for word in _STAR_FREE_WORDS],
        "documents": [validator.is_valid(parse_document(text)) for text in _DOCUMENTS],
    }


def _live_verdicts() -> dict:
    validator = DTDValidator(parse_dtd(_DTD_TEXT))
    return {
        "rows": [repro.compile(_ROWS_EXPR).match(word) for word in _ROWS_WORDS],
        "star_free": repro.compile(_STAR_FREE_EXPR).match_all(_STAR_FREE_WORDS),
        "documents": [validator.is_valid(parse_document(text)) for text in _DOCUMENTS],
    }


@given(
    tag=st.sampled_from(["ROWS", "MEMO"]),
    data=st.data(),
)
@settings(max_examples=24, deadline=None)
def test_section_byte_flips_leave_other_sections_adopting(tag: str, data):
    try:
        repro.purge()
        _warm_all_sections()
        expected = _oracle_verdicts()
        directory = tempfile.mkdtemp(prefix="snapshot-v2-prop-")
        path = os.path.join(directory, "state.snapshot")
        repro.save_snapshot(path)

        description = snapshot_format.describe_file(path)
        assert [s["tag"] for s in description["sections"]] == ["ROWS", "MEMO"]
        section = next(s for s in description["sections"] if s["tag"] == tag)
        offset = section["offset"] + data.draw(
            st.integers(min_value=0, max_value=section["length"] - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[offset] ^= 1 << bit
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        repro.purge()
        report = repro.load_snapshot(path)  # must not raise, whatever the flip hit
        # CRC-32 catches every single-bit flip, so exactly the targeted
        # section is rejected and the other still adopts.
        assert report["rejected"] >= 1, report
        if tag != "ROWS":
            assert report["patterns_loaded"] >= 2, report
        if tag != "MEMO":
            assert report["memos_loaded"] >= 1, report
        assert _live_verdicts() == expected, (
            f"verdict changed after flipping bit {bit} of byte {offset} in section {tag} "
            f"(load report {report})"
        )
    finally:
        repro.purge()
