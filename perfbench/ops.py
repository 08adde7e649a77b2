"""The three in-process workloads: set-up, one timed operation, and its check.

Each workload exposes the same surface to :mod:`perfbench.worker`:

* ``setup()`` builds the fixed patterns or validators and warms up;
* ``cases()`` yields operation inputs forever (generated lazily, outside
  any timed region) and ``fixed_cases()`` a seed-fixed list for the traced
  and overhead runs;
* ``run(case)`` is the timed operation; ``check(case, outcome)`` compares
  it with the expected outcome afterwards and returns an error message or
  ``None``;
* ``items(case)`` is how many units of work the op did (models, words or
  documents), for throughput.
"""

from __future__ import annotations

import itertools
import random

from . import inputs


def _stats_total(patterns, key: str) -> int:
    total = 0
    for pattern in patterns:
        stats = pattern.stats()
        if stats is not None:
            total += stats[key]
    return total


class SchemaCompile:
    """Distinct content models compiled once each, then a first 16-word batch."""

    name = "schema-compile"
    unit = "models"
    #: operations per ``--seconds`` of a measured run (about 2.5 seconds' worth on
    #: 2 vCPUs): the large tail puts a p99 on the edge of the few ops a full garbage
    #: collection lands in, so one 1000-op segment spread 0.18 across seeds and three
    #: spread 0.04-0.08
    nominal_rate = 300
    fixed_blocks = 4

    def __init__(self, seed: int):
        import repro
        from repro.errors import NotDeterministicError

        self.seed = seed
        self.repro = repro
        self.not_deterministic = NotDeterministicError
        self.warmup = inputs.compile_warmup(seed)
        #: (|e|, determinism self time) per large-tail model, filled by the traced run
        self.tail_points: list[tuple[int, float]] = []
        self.rows_filled = 0

    def setup(self) -> None:
        for case in self.warmup:
            self.run(case)

    def cases(self):
        for block in itertools.count():
            yield from inputs.compile_block(self.seed, block)

    def fixed_cases(self) -> list:
        blocks = range(self.fixed_blocks)
        return [case for block in blocks for case in inputs.compile_block(self.seed, block)]

    def run(self, case):
        pattern = self.repro.compile(case.text, dialect="named")
        deterministic = pattern.is_deterministic
        try:
            verdicts = pattern.match_all(case.words)
        except self.not_deterministic:
            verdicts = None
        return deterministic, verdicts, pattern

    def check(self, case, outcome) -> str | None:
        deterministic, verdicts, _pattern = outcome
        if deterministic != case.deterministic:
            return f"determinism verdict {deterministic} for {case.family} model, size {case.size}"
        if deterministic and verdicts != case.expected:
            return f"first-batch verdicts differ for {case.family} model of size {case.size}"
        if not deterministic and verdicts is not None:
            return "match_all on a non-deterministic model did not raise"
        return None

    def items(self, case) -> int:
        return 1

    def after_traced_op(self, case, outcome, determinism_ns: int) -> None:
        stats = outcome[2].stats()
        if stats is not None:
            self.rows_filled += stats["transitions_memoized"]
        if case.family.startswith("large"):
            self.tail_points.append((case.size, determinism_ns / 1e9))

    def program_counts(self) -> dict:
        return {"rows_filled": self.rows_filled}


class MatchStream:
    """Warm ``match_all`` batches over five fixed patterns fetched through the cache."""

    name = "match-stream"
    unit = "words"
    nominal_rate = 500
    fixed_batches = 1000

    def __init__(self, seed: int):
        import repro

        self.repro = repro
        self.seed = seed
        self.families = inputs.match_families(seed)
        self.rng = random.Random(f"match-stream-batches:{seed}")
        self.patterns = []

    def setup(self) -> None:
        for family in self.families:
            pattern = self.repro.compile(family.text, dialect="named")
            if pattern.match_all(family.pool) != family.pool_expected:
                raise RuntimeError(f"warm-up verdicts differ for {family.name}")
            self.patterns.append(pattern)

    def cases(self):
        for index in itertools.count():
            family = self.families[index % len(self.families)]
            words, expected = inputs.match_batch(family, self.rng)
            yield family, words, expected

    def fixed_cases(self) -> list:
        return list(itertools.islice(self.cases(), self.fixed_batches))

    def run(self, case):
        family, words, _expected = case
        return self.repro.compile(family.text, dialect="named").match_all(words)

    def check(self, case, outcome) -> str | None:
        family, words, expected = case
        if outcome != expected:
            wrong = sum(1 for got, want in zip(outcome, expected) if got != want)
            return f"{wrong} of {len(words)} verdicts differ on {family.name}"
        return None

    def items(self, case) -> int:
        return len(case[1])

    def program_counts(self) -> dict:
        return {"rows_filled": _stats_total(self.patterns, "transitions_memoized")}


class ValidateDocs:
    """XML text parsed and validated against a catalog DTD or an orders XSD."""

    name = "validate-docs"
    unit = "docs"
    nominal_rate = 420
    fixed_docs = 600

    def __init__(self, seed: int):
        import repro
        from repro.xml import parser

        self.repro = repro
        self.seed = seed
        self.parser = parser
        self.dtd_text = inputs.catalog_dtd()
        self.xsd_data = inputs.orders_xsd()
        self.warmup = inputs.doc_cases(seed, -1)
        self.dtd = None
        self.xsd = None

    def setup(self) -> None:
        from repro.xml import DTDValidator, parse_dtd, schema_from_dict

        self.dtd = DTDValidator(parse_dtd(self.dtd_text))
        self.xsd = schema_from_dict(self.xsd_data)
        for case in self.warmup:
            problem = self.check(case, self.run(case))
            if problem:
                raise RuntimeError(f"warm-up: {problem}")

    def cases(self):
        for block in itertools.count():
            yield from inputs.doc_cases(self.seed, block)

    def fixed_cases(self) -> list:
        return list(itertools.islice(self.cases(), self.fixed_docs))

    def run(self, case):
        document = self.parser.parse_document(case.text)
        if case.schema == "dtd":
            return self.dtd.validate(document)
        return self.xsd.validate_element(document.root)

    def check(self, case, outcome) -> str | None:
        paths = sorted(violation.path for violation in outcome)
        if bool(outcome) != case.valid or paths != case.paths:
            return f"{case.schema} document: {paths or 'valid'}, expected {case.paths or 'valid'}"
        return None

    def items(self, case) -> int:
        return 1

    def program_counts(self) -> dict:
        hits = misses = 0
        for validator in (self.dtd, self.xsd):
            for memo in validator.stats()["memos"].values():
                hits += memo["hits"]
                misses += memo["misses"]
        patterns = [pattern for _key, pattern in self.repro.iter_cached_patterns()]
        return {
            "memo_hits": hits,
            "memo_misses": misses,
            "rows_filled": _stats_total(patterns, "transitions_memoized"),
        }


WORKLOADS = {cls.name: cls for cls in (SchemaCompile, MatchStream, ValidateDocs)}
