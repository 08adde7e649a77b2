"""Experiment E8 — end-to-end DTD validation.

The paper's motivating application: validating an XML document checks each
element's child sequence against a deterministic content model.  Expected
shape: validation time grows linearly with the document size (the content
models are fixed), and the one-off validator construction (determinism
checks + matcher preprocessing) is independent of the document.

The linearity claim is a gate: ``test_validation_slope_in_document_size``
fits the log-log slope of parse plus DTD-validate CPU time over documents
of 2k to 64k elements and fails above :data:`MAX_SLOPE`, on three
shapes — wide (one element with n children), deep (nesting depth n) and
mixed content (n text runs split by comments around n elements).  It
takes the minimum of three runs with the garbage collector off, and runs
with timings disabled too.
"""

import gc
import math
import statistics
import time

import pytest

from repro.xml import DTDValidator, parse_document, parse_dtd

from .workloads import validation_workload

PRODUCTS = [100, 400, 1600]

#: Document sizes (elements) the linearity gate fits its slope over.
SLOPE_SIZES = [2000, 4000, 8000, 16000, 32000, 64000]
#: Largest accepted log-log slope of parse + validate time against size.
MAX_SLOPE = 1.15
#: Document shapes of the gate: ``(DTD, document text of n elements)``.
SLOPE_FAMILIES = {
    "wide": (
        "<!ELEMENT r (a*)> <!ELEMENT a EMPTY>",
        lambda n: "<r>" + "<a/>" * (n - 1) + "</r>",
    ),
    "deep": ("<!ELEMENT a (a?)>", lambda n: "<a>" * n + "</a>" * n),
    "mixed": (
        "<!ELEMENT r (#PCDATA | b)*> <!ELEMENT b EMPTY>",
        lambda n: "<r>" + "x<!---->y<b/>" * (n - 1) + "</r>",
    ),
}


def _fastest_validations(validator, texts, repeats: int = 3) -> list[float]:
    """Minimum parse + validate CPU time per text, GC off while timing.

    The repeats go round-robin over the sizes, so a burst of load on a
    shared box slows one run of several sizes instead of every run of one.
    """
    best = [math.inf] * len(texts)
    for _ in range(repeats):
        for slot, text in enumerate(texts):
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.process_time()
                result = validator.validate(parse_document(text))
                best[slot] = min(best[slot], time.process_time() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
            assert result.valid
            del result
    return best


@pytest.mark.parametrize("family", sorted(SLOPE_FAMILIES))
def test_validation_slope_in_document_size(family):
    dtd_text, build = SLOPE_FAMILIES[family]
    validator = DTDValidator(parse_dtd(dtd_text))
    times = _fastest_validations(validator, [build(size) for size in SLOPE_SIZES])
    fit = statistics.linear_regression(
        [math.log(size) for size in SLOPE_SIZES], [math.log(t) for t in times]
    )
    timings = ", ".join(f"{size}: {t * 1000:.1f}ms" for size, t in zip(SLOPE_SIZES, times))
    assert fit.slope <= MAX_SLOPE, (
        f"parse + validate time grows as n^{fit.slope:.2f} on the {family} family ({timings})"
    )


@pytest.mark.parametrize("products", PRODUCTS)
def test_document_validation(benchmark, products):
    dtd, catalog = validation_workload(products)
    validator = DTDValidator(dtd)
    assert benchmark(lambda: validator.is_valid(catalog)) is True


def test_validator_construction(benchmark):
    dtd, _ = validation_workload(10)
    validator = benchmark(lambda: DTDValidator(dtd))
    assert validator.is_valid(validation_workload(10)[1])


@pytest.mark.parametrize("products", [400])
def test_streaming_child_checks(benchmark, products):
    dtd, catalog = validation_workload(products)
    validator = DTDValidator(dtd)

    def run():
        valid = 0
        for element in catalog.iter_elements():
            checker = validator.checker_for(element.name)
            if checker is None:
                continue
            children_ok = all(checker.feed(child) for child in element.child_sequence())
            if children_ok and checker.complete():
                valid += 1
        return valid

    assert benchmark(run) > 0
