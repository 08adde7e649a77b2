"""Cold-start cost with and without a persisted warm-state snapshot.

The snapshot subsystem (``docs/snapshot.md``) exists for one number: how
fast a *fresh process* reaches its first verdicts.  A true cold process
pays Section-4 matcher preprocessing plus one structure query per
``(state, symbol)`` pair before the lazy DFA is warm; a
snapshot-preloaded process adopts completed, mmap-backed rows and skips
both — the wrapped matcher is never even built.  This module measures
exactly that, with real processes:

* each sample boots a fresh ``sys.executable``, optionally calls
  :func:`repro.load_snapshot`, then matches the same corpus to its first
  :data:`VERDICT_TARGET` verdicts, reporting wall-clock and verdicts;
* a **verdict-equivalence gate**: both modes must agree with a
  single-threaded, uncompiled, freshly constructed oracle on every word
  — persistence must never change an answer;
* a **throughput gate** (runs even with ``--benchmark-disable``): the
  snapshot-preloaded process must reach its verdicts at least
  :data:`MIN_SPEEDUP`× faster than the true cold process, best-of-5 on
  both sides so a descheduled CI runner cannot fake a regression.

The **v2 leg** (ISSUE 5) repeats the measurement for the workload the
format-v2 sections exist for: an XSD process validating child sequences.
Both children install the schema identically first — build it from its
wire shape and run the UPA determinism check, exactly what the HTTP
service does before serving a single verdict — and the clock then runs
from that schema-ready point to the 1 000th verdict.  The cold child
spends the window building matchers and discovering ``(state, symbol)``
pairs one structure query at a time; the snapshot child spends it
inside :func:`repro.load_snapshot` (every adoption cost on the clock)
and then answers from adopted dense rows and per-element acceptance
memos.  The gate: at least :data:`MIN_SPEEDUP`× faster to the 1 000th
verdict, with oracle verdict-equivalence on every sequence.
"""

from __future__ import annotations

import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: PYTHONPATH entry handed to the measured child processes.
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: First-1k-verdicts is the scenario the ISSUE gates.
VERDICT_TARGET = 1000

#: Snapshot-preloaded cold start must beat a true cold start by this factor.
MIN_SPEEDUP = 3.0

#: Deterministic corpus seed (shared with the oracle).
SEED = 20120521

#: Alphabet width per pattern.  The workload is shaped so the cold
#: differential scales *quadratically* while the shared cost scales
#: linearly: a mixing star over W symbols has W + 1 live states with all
#: W symbols legal in each, so a cold process pays up to ``(W + 1) * W``
#: first-visit structure queries while parsing and
#: the determinism test stay O(W).  At W = 150 the exercised machine is
#: ~22k transitions per pattern.
WIDTH = 150

PATTERN_COUNT = 2

WORDS_PER_PATTERN = VERDICT_TARGET // PATTERN_COUNT

WORD_LENGTH = 60

#: Fraction of words drawn from the full pool (hitting symbols outside
#: the pattern's alphabet, hence rejected) instead of the pattern's own.
REJECT_BIAS = 0.3


def _symbol_pool() -> list[str]:
    """~175 single-character symbols (ASCII + Greek + Cyrillic).

    The paper dialect treats any non-operator character as a symbol, so
    a wide alphabet costs nothing syntactically; each pattern samples
    :data:`WIDTH` of these, and words occasionally step outside the
    sampled subset to produce genuine rejects.
    """
    pool = list(string.ascii_letters + string.digits)
    pool += [chr(code) for code in range(0x0391, 0x03AA) if chr(code).isalpha()]
    pool += [chr(code) for code in range(0x03B1, 0x03CA)]
    pool += [chr(code) for code in range(0x0410, 0x0450)]
    return pool

#: The measured child: boots cold (optionally adopting the snapshot),
#: compiles each pattern and matches its words one request at a time,
#: then reports elapsed wall-clock and the verdict bits.
_CHILD = """\
import json, sys, time
mode, corpus_path, snapshot_path = sys.argv[1], sys.argv[2], sys.argv[3]
import repro
with open(corpus_path) as handle:
    corpus = json.load(handle)
start = time.perf_counter()
adopted = 0
if mode == "snapshot":
    adopted = repro.load_snapshot(snapshot_path)["rows_loaded"]
verdicts = {}
count = 0
for expr in corpus["patterns"]:
    pattern = repro.compile(expr)
    bits = []
    for word in corpus["words"][expr]:
        bits.append("1" if pattern.match(word) else "0")
        count += 1
    verdicts[expr] = "".join(bits)
elapsed = time.perf_counter() - start
print(json.dumps({"elapsed": elapsed, "count": count, "adopted": adopted,
                  "verdicts": verdicts}))
"""


def _patterns() -> list[str]:
    """PATTERN_COUNT deterministic mixing stars over distinct alphabets.

    ``(s1+s2+...+sW)*`` with distinct symbols is trivially deterministic,
    and every symbol is legal after every symbol — the densest possible
    transition table for the cold process to discover one structure
    query at a time.
    """
    rng = random.Random(SEED)
    pool = _symbol_pool()
    return [
        "(" + "+".join(rng.sample(pool, WIDTH)) + ")*" for _ in range(PATTERN_COUNT)
    ]


def _corpus() -> dict:
    """VERDICT_TARGET member-biased words spread over the patterns."""
    rng = random.Random(SEED + 1)
    pool = _symbol_pool()
    patterns = _patterns()
    words: dict[str, list[str]] = {}
    for expr in patterns:
        alphabet = expr[1:-2].split("+")
        pattern_words = []
        for _ in range(WORDS_PER_PATTERN):
            source = pool if rng.random() < REJECT_BIAS else alphabet
            pattern_words.append("".join(rng.choice(source) for _ in range(WORD_LENGTH)))
        words[expr] = pattern_words
    return {"patterns": patterns, "words": words}


def _oracle(corpus: dict) -> dict[str, str]:
    """Fresh uncompiled single-threaded verdicts for every word."""
    verdicts = {}
    for expr in corpus["patterns"]:
        reference = repro.Pattern(expr, compiled=False)
        verdicts[expr] = "".join(
            "1" if reference.match(word) else "0" for word in corpus["words"][expr]
        )
    return verdicts


def _run_child(mode: str, corpus_path: str, snapshot_path: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, corpus_path, snapshot_path],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return json.loads(output.stdout)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The corpus file, the snapshot file and the oracle verdicts."""
    directory = tmp_path_factory.mktemp("snapshot-bench")
    corpus = _corpus()
    corpus_path = directory / "corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    # Drop any patterns other modules left in the process cache:
    # save_snapshot persists the whole cache, and stowaway patterns
    # would be loaded inside the measured child's load window.
    repro.purge()
    # Warm this process and persist its rows (the save completes every
    # row the corpus exercised).
    for expr in corpus["patterns"]:
        pattern = repro.compile(expr)
        for word in corpus["words"][expr]:
            pattern.match(word)
    snapshot_path = directory / "rows.snapshot"
    saved = repro.save_snapshot(str(snapshot_path))
    assert saved["patterns"] >= PATTERN_COUNT, saved
    return {
        "corpus_path": str(corpus_path),
        "snapshot_path": str(snapshot_path),
        "oracle": _oracle(corpus),
    }


# ---------------------------------------------------------------------------
# pytest-benchmark timings (enabled with --benchmark-enable)
# ---------------------------------------------------------------------------


def test_cold_process_first_1k_verdicts(benchmark, workload):
    result = benchmark.pedantic(
        lambda: _run_child("cold", workload["corpus_path"], workload["snapshot_path"]),
        rounds=3,
        iterations=1,
    )
    assert result["count"] == VERDICT_TARGET


def test_snapshot_process_first_1k_verdicts(benchmark, workload):
    result = benchmark.pedantic(
        lambda: _run_child("snapshot", workload["corpus_path"], workload["snapshot_path"]),
        rounds=3,
        iterations=1,
    )
    assert result["count"] == VERDICT_TARGET
    assert result["adopted"] > 0


# ---------------------------------------------------------------------------
# Correctness and throughput gates (run even with --benchmark-disable)
# ---------------------------------------------------------------------------


def test_snapshot_verdicts_identical_to_oracle(workload):
    """Both process modes must agree with the uncompiled oracle everywhere."""
    cold = _run_child("cold", workload["corpus_path"], workload["snapshot_path"])
    warm = _run_child("snapshot", workload["corpus_path"], workload["snapshot_path"])
    assert warm["adopted"] > 0, "snapshot was not adopted"
    assert cold["verdicts"] == workload["oracle"], "cold process diverged from the oracle"
    assert warm["verdicts"] == workload["oracle"], "snapshot process diverged from the oracle"
    oracle_bits = "".join(workload["oracle"].values())
    assert "0" in oracle_bits and "1" in oracle_bits  # both verdicts exercised


def test_snapshot_cold_start_speedup_at_least_3x(workload):
    """Snapshot-preloaded time-to-first-1k-verdicts must be >= 3x faster.

    The snapshot child never builds a Section-4 matcher at all.  The gap
    reads 3.9-4.0x (2 vCPU, CPython 3.11.7, best of 5): a cold child of
    70-80 ms against a snapshot child of 18-21 ms, whose best of 3 has
    read 26-35 ms on a loaded machine.  Best-of-5 on both sides, one cold
    and one snapshot child per round, keeps a descheduled shared runner
    (or a burst of load landing on one side's children) from deciding
    the verdict.
    """
    cold = warm = float("inf")
    for _ in range(5):
        paths = workload["corpus_path"], workload["snapshot_path"]
        cold = min(cold, _run_child("cold", *paths)["elapsed"])
        warm = min(warm, _run_child("snapshot", *paths)["elapsed"])
    speedup = cold / warm
    assert speedup >= MIN_SPEEDUP, (
        f"snapshot-preloaded cold start only {speedup:.2f}x faster "
        f"(cold {cold * 1000:.1f}ms vs snapshot {warm * 1000:.1f}ms)"
    )


# ---------------------------------------------------------------------------
# The v2 leg: a snapshot-preloaded XSD process (rows + validator memos)
# ---------------------------------------------------------------------------

#: Element names per content model: a wide unbounded choice, so — as in
#: the rows leg — every name is legal after every name and the cold
#: differential scales quadratically in the alphabet (``(W + 1) · W``
#: first-visit structure queries per model).
XSD_WIDTH = 150

XSD_MODELS = 2

XSD_SEQUENCE_LENGTH = 60

XSD_VALIDATIONS_PER_MODEL = VERDICT_TARGET // XSD_MODELS

#: The measured XSD child.  Both modes install the schema identically —
#: build it from its wire shape and run the UPA determinism check,
#: exactly what ``POST /validate`` does before answering a single
#: verdict — and the clock runs from that schema-ready point to the
#: last verdict.  The snapshot child pays its whole adoption inside the
#: window (``load_snapshot`` is the first thing on the clock).
_XSD_CHILD = """\
import json, sys, time
mode, corpus_path, snapshot_path = sys.argv[1], sys.argv[2], sys.argv[3]
import repro
from repro.xml.xsd import schema_from_dict
with open(corpus_path) as handle:
    corpus = json.load(handle)
schema = schema_from_dict(corpus["schema"])
assert schema.is_valid_schema()  # the serving layer's schema-install step
start = time.perf_counter()
adopted = {"rows": 0, "memo_entries": 0}
if mode == "snapshot":
    report = repro.load_snapshot(snapshot_path)
    adopted = {"rows": report["rows_loaded"], "memo_entries": report["memo_entries_loaded"]}
bits = []
for name, children in corpus["sequences"]:
    bits.append("1" if schema.validate_children(name, children) else "0")
elapsed = time.perf_counter() - start
print(json.dumps({"elapsed": elapsed, "count": len(bits), "adopted": adopted,
                  "verdicts": "".join(bits)}))
"""


def _xsd_corpus() -> dict:
    """An XSD wire schema plus an all-distinct validation corpus."""
    rng = random.Random(SEED + 2)
    elements: dict[str, dict] = {}
    names_by_model: dict[str, list[str]] = {}
    for index in range(XSD_MODELS):
        model = f"record{index}"
        names = [f"e{index}x{position}" for position in range(XSD_WIDTH)]
        names_by_model[model] = names
        elements[model] = {
            "kind": "choice",
            "min": 0,
            "max": None,
            "children": [
                {"kind": "element", "name": name, "min": 1, "max": 1} for name in names
            ],
        }
    sequences: list[list] = []
    for model, names in names_by_model.items():
        # Every sequence is distinct: a cold process cannot ride its own
        # freshly built memo, while the snapshot process adopts the warm
        # process's memo covering this exact corpus (the deployment
        # scenario: the fleet has already seen today's documents).
        for _ in range(XSD_VALIDATIONS_PER_MODEL):
            children = [rng.choice(names) for _ in range(XSD_SEQUENCE_LENGTH)]
            if rng.random() < REJECT_BIAS:  # a foreign name makes the sequence invalid
                children[rng.randrange(len(children))] = "zz"
            sequences.append([model, children])
    return {"schema": {"root": None, "elements": elements}, "sequences": sequences}


def _xsd_oracle(corpus: dict) -> str:
    """Verdicts from a fresh, uncompiled schema (no runtime, no memos)."""
    from repro.xml.xsd import schema_from_dict

    schema = schema_from_dict(corpus["schema"])
    schema.compiled = False
    return "".join(
        "1" if schema.validate_children(name, children) else "0"
        for name, children in corpus["sequences"]
    )


def _run_xsd_child(mode: str, corpus_path: str, snapshot_path: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", _XSD_CHILD, mode, corpus_path, snapshot_path],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return json.loads(output.stdout)


@pytest.fixture(scope="module")
def xsd_workload(tmp_path_factory):
    """The XSD corpus file, the v2 snapshot and the oracle verdicts."""
    from repro.xml.xsd import schema_from_dict

    directory = tmp_path_factory.mktemp("snapshot-v2-bench")
    corpus = _xsd_corpus()
    corpus_path = directory / "xsd-corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    # Drop any patterns earlier fixtures left in the process cache:
    # save_snapshot persists the whole cache, and stowaway patterns
    # would be re-compiled inside the measured child's load window.
    repro.purge()
    # Warm this process exactly like the measured child, then persist:
    # the snapshot carries the content models' dense rows and the
    # per-element acceptance memos the corpus exercised.
    schema = schema_from_dict(corpus["schema"])
    for name, children in corpus["sequences"]:
        schema.validate_children(name, children)
    snapshot_path = directory / "xsd-state.snapshot"
    saved = repro.save_snapshot(str(snapshot_path))
    assert saved["patterns"] >= XSD_MODELS, saved
    assert saved["memo_patterns"] >= XSD_MODELS, saved
    return {
        "corpus_path": str(corpus_path),
        "snapshot_path": str(snapshot_path),
        "oracle": _xsd_oracle(corpus),
    }


def test_xsd_cold_process_first_1k_validations(benchmark, xsd_workload):
    result = benchmark.pedantic(
        lambda: _run_xsd_child(
            "cold", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
        ),
        rounds=3,
        iterations=1,
    )
    assert result["count"] == VERDICT_TARGET


def test_xsd_snapshot_process_first_1k_validations(benchmark, xsd_workload):
    result = benchmark.pedantic(
        lambda: _run_xsd_child(
            "snapshot", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
        ),
        rounds=3,
        iterations=1,
    )
    assert result["count"] == VERDICT_TARGET
    assert result["adopted"]["rows"] > 0
    assert result["adopted"]["memo_entries"] > 0


def test_xsd_snapshot_verdicts_identical_to_oracle(xsd_workload):
    """Both XSD process modes must agree with the uncompiled oracle."""
    cold = _run_xsd_child(
        "cold", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
    )
    warm = _run_xsd_child(
        "snapshot", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
    )
    assert warm["adopted"]["rows"] > 0, "snapshot rows were not adopted"
    assert warm["adopted"]["memo_entries"] > 0, "validator memos were not adopted"
    assert cold["verdicts"] == xsd_workload["oracle"], "cold XSD process diverged"
    assert warm["verdicts"] == xsd_workload["oracle"], "snapshot XSD process diverged"
    assert "0" in xsd_workload["oracle"] and "1" in xsd_workload["oracle"]


def test_xsd_snapshot_first_1k_validations_speedup_at_least_3x(xsd_workload):
    """The ISSUE-5 gate: a snapshot-preloaded XSD process reaches its
    first 1k validations >= 3x faster than a cold one (rows answer the
    transition traffic, memos answer repeated sequences outright)."""
    cold = min(
        _run_xsd_child(
            "cold", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
        )["elapsed"]
        for _ in range(3)
    )
    warm = min(
        _run_xsd_child(
            "snapshot", xsd_workload["corpus_path"], xsd_workload["snapshot_path"]
        )["elapsed"]
        for _ in range(3)
    )
    speedup = cold / warm
    assert speedup >= MIN_SPEEDUP, (
        f"snapshot-preloaded XSD process only {speedup:.2f}x faster "
        f"(cold {cold * 1000:.1f}ms vs snapshot {warm * 1000:.1f}ms)"
    )
