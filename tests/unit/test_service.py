"""Unit tests for :class:`repro.service.ValidationService`.

The acceptance bar for the service layer: an 8-worker service must be
verdict-identical to single-threaded execution on the stress corpus, the
batch APIs must agree with per-word matching, and the stats snapshot must
stay internally consistent while requests are in flight.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

import repro
from repro.errors import NotDeterministicError
from repro.service import DocumentVerdict, ValidationService
from repro.xml import DTDValidator, XSDSchema, element, element_particle, parse_dtd, sequence

DTD_TEXT = """
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price, (description | summary)?, tag*)>
<!ELEMENT name (#PCDATA)> <!ELEMENT price (#PCDATA)>
<!ELEMENT description (#PCDATA)> <!ELEMENT summary (#PCDATA)> <!ELEMENT tag (#PCDATA)>
"""


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.purge()
    yield
    repro.purge()


def _documents(count: int, rng: random.Random):
    documents = []
    for index in range(count):
        children = [element("name", text="n"), element("price", text="9")]
        if rng.random() < 0.5:
            children.append(element(rng.choice(["description", "summary"])))
        children.extend(element("tag") for _ in range(rng.randint(0, 3)))
        if index % 4 == 3:  # a quarter of the corpus violates the model
            children.reverse()
        documents.append(element("catalog", element("product", *children)))
    return documents


def _word_corpus(expr: str, count: int, rng: random.Random):
    reference = repro.Pattern(expr, compiled=False)
    alphabet = reference.tree.alphabet.as_list()
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10))) for _ in range(count)
    ]
    oracle = [reference.match(word) for word in words]
    return words, oracle


class TestMatchBatch:
    def test_agrees_with_single_threaded_oracle(self):
        words, oracle = _word_corpus("(ab+b(b?)a)*", 800, random.Random(1))
        with ValidationService(workers=8) as service:
            assert service.match_batch("(ab+b(b?)a)*", words) == oracle

    def test_star_free_pattern_batches_on_the_kernel(self):
        words, oracle = _word_corpus("(a+b)(c?)d", 600, random.Random(2))
        pattern = repro.compile("(a+b)(c?)d")
        assert pattern.describe()["batch_path"] == "star-free-multi"
        with ValidationService(workers=8) as service:
            for _ in range(2):  # cold, then warm
                assert service.match_batch("(a+b)(c?)d", words) == oracle
        stats = pattern.stats()
        assert stats["kernel_programs"] == 1
        assert stats["kernel_words"] == len(words)

    def test_small_batches_run_inline(self):
        with ValidationService(workers=4) as service:
            assert service.match_batch("(ab)*", ["abab", "aba", ""]) == [True, False, True]

    def test_order_is_preserved_across_chunks(self):
        words = ["ab" * (index % 4) for index in range(257)]
        expected = [repro.Pattern("(ab)*", compiled=False).match(word) for word in words]
        with ValidationService(workers=8) as service:
            assert service.match_batch("(ab)*", words) == expected

    def test_non_deterministic_pattern_raises_and_counts_an_error(self):
        with ValidationService(workers=2) as service:
            with pytest.raises(NotDeterministicError):
                service.match_batch("(a*ba+bb)*", ["bb"])
            stats = service.stats()
            assert stats["requests"]["errors"] == 1
            assert stats["requests"]["total"] == 1


class TestValidateDocuments:
    def test_dtd_verdicts_match_direct_validation(self):
        documents = _documents(40, random.Random(3))
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        expected = [validator.validate(document).valid for document in documents]
        with ValidationService(workers=8) as service:
            verdicts = service.validate_documents(validator, documents)
        assert [verdict.valid for verdict in verdicts] == expected
        assert any(not verdict.valid for verdict in verdicts)
        flagged = next(verdict for verdict in verdicts if not verdict.valid)
        assert flagged.violations  # DTD verdicts carry the messages

    def test_accepts_a_raw_dtd(self):
        documents = _documents(6, random.Random(4))
        with ValidationService(workers=2) as service:
            verdicts = service.validate_documents(parse_dtd(DTD_TEXT), documents)
        assert all(isinstance(verdict, DocumentVerdict) for verdict in verdicts)

    def test_xsd_verdicts_match_direct_validation(self):
        schema = XSDSchema(root="catalog")
        schema.declare("catalog", element_particle("product", 1, None))
        schema.declare(
            "product",
            sequence(element_particle("name"), element_particle("tag", 0, None)),
        )
        good = element("catalog", element("product", element("name")))
        bad = element("catalog", element("product", element("tag"), element("name")))
        with ValidationService(workers=4) as service:
            verdicts = service.validate_documents(schema, [good, bad, good])
        assert [verdict.valid for verdict in verdicts] == [True, False, True]

    def test_eight_workers_identical_to_one_worker_on_stress_corpus(self):
        """The acceptance criterion, end to end on documents."""
        documents = _documents(120, random.Random(5))
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        with ValidationService(workers=1) as single:
            sequential = single.validate_documents(validator, documents)
        with ValidationService(workers=8) as service:
            parallel = service.validate_documents(validator, documents)
        assert parallel == sequential


class TestStats:
    def test_counters_and_percentiles(self):
        with ValidationService(workers=2) as service:
            for _ in range(10):
                service.match_batch("(ab)*", ["abab", "ab", "a"])
            stats = service.stats()
        requests = stats["requests"]
        assert requests["total"] == 10
        assert requests["errors"] == 0
        assert requests["in_flight"] == 0
        assert requests["p50_ms"] is not None and requests["p50_ms"] >= 0
        assert requests["p99_ms"] >= requests["p50_ms"]
        assert stats["pattern_cache"]["hits"] >= 9  # one miss, then warm
        assert stats["service"]["workers"] == 2

    def test_patterns_surface_runtime_stats(self):
        with ValidationService(workers=2) as service:
            service.match_batch("(ab)*", ["abab"])
            stats = service.stats()
        (runtime_stats,) = stats["patterns"].values()
        assert runtime_stats["transitions_memoized"] == runtime_stats["misses"] > 0


    def test_stats_sees_the_in_flight_request(self):
        """A snapshot taken mid-request reports it as in flight.

        The corpus generator snapshots the service while ``match_batch``
        is consuming it — deterministically inside the request window.
        """
        with ValidationService(workers=2) as service:
            captured: list[dict] = []

            def corpus():
                yield "abba"
                captured.append(service.stats())
                yield "bb"

            assert service.match_batch("(ab+b(b?)a)*", corpus()) == [True, False]
            (snapshot,) = captured
            assert snapshot["requests"]["in_flight"] == 1
            assert snapshot["requests"]["total"] == 1
            after = service.stats()
            assert after["requests"]["in_flight"] == 0
            assert after["requests"]["total"] == 1

    def test_stats_snapshots_stay_consistent_under_traffic(self):
        """Snapshots probed from another thread never show torn counters."""
        words = ["abba" * 6] * 400
        with ValidationService(workers=4) as service:
            stop = threading.Event()
            snapshots: list[dict] = []

            def prober():
                while not stop.is_set():
                    snapshots.append(service.stats())

            thread = threading.Thread(target=prober)
            thread.start()
            try:
                for _ in range(20):
                    service.match_batch("(ab+b(b?)a)*", words)
            finally:
                stop.set()
                thread.join()
        assert snapshots
        totals = [snapshot["requests"]["total"] for snapshot in snapshots]
        assert totals == sorted(totals)  # monotone under concurrency
        for snapshot in snapshots:
            requests = snapshot["requests"]
            assert 0 <= requests["in_flight"] <= 1
            assert requests["errors"] == 0
            assert snapshot["pattern_cache"]["evictions"] >= 0

    def test_stats_after_validation_lists_memoized_validators(self):
        with ValidationService(workers=2) as service:
            validator = service.validator_for_dtd(DTD_TEXT)
            assert service.validator_for_dtd(DTD_TEXT) is validator  # memoized
            service.validate_documents(validator, _documents(4, random.Random(6)))
            stats = service.stats()
        (validator_stats,) = stats["validators"].values()
        assert validator_stats["totals"]["transitions_memoized"] > 0


class TestLifecycle:
    def test_close_is_idempotent(self):
        service = ValidationService(workers=1)
        service.close()
        service.close()
        assert service.stats()["service"]["closed"] is True

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ValidationService(workers=0)

    def test_closed_service_raises_a_clear_error(self):
        """Regression (ISSUE 5): entry points used to fall through to the
        executor, whose shutdown error (or, for inline-sized corpora, a
        silent success) never mentioned that the service was closed."""
        service = ValidationService(workers=2)
        service.close()
        with pytest.raises(RuntimeError, match="service is closed"):
            service.match_batch("(ab)*", ["ab"])
        with pytest.raises(RuntimeError, match="service is closed"):
            service.validate_documents(parse_dtd("<!ELEMENT a EMPTY>"), [])
        with pytest.raises(RuntimeError, match="service is closed"):
            asyncio.run(service.validate_document_texts_async(parse_dtd("<!ELEMENT a EMPTY>"), []))
        # stats stays readable on a closed service (monitoring keeps working)
        assert service.stats()["service"]["closed"] is True
