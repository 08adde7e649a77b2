"""Batch matching kernel vs. the per-word compiled-runtime loop.

The compiled runtime already answers repeated matching with one dict/array
probe per symbol, but its drivers re-enter the interpreter for every
symbol of every word.  The kernel (:mod:`repro.matching.kernel`) reads the
parse tree's follow relation into one premultiplied table, dedups the
corpus, and walks each *distinct* word through the table, one table
index per symbol — so a repeated-match stream (the Li et al. workload:
few distinct child sequences, matched millions of times) collapses to a
handful of branch-free scans plus an index fan-out, and once the
runtime's verdict memo holds a word, later passes answer it with one
dict probe.  This module tracks that gap:

* pytest-benchmark timings of the per-word loop and the kernel;
* a verdict-equivalence check, on a fresh runtime and on a warm one;
* two throughput gates against the per-word loop, on the repeated-match
  corpora: the warm ``match_words`` path (dedup plus the verdict memo)
  must be ≥ 10× faster, and one encode plus one scan of the whole stream,
  with no memo, ≥ 7× faster;
* the build gate of the follow-relation rows: nested stars, whose Last
  chains are long, must build their program in at most 3× the time of a
  flat union of the same table size.
"""

from __future__ import annotations

import time

import pytest

from repro.matching import CompiledRuntime, build_matcher
from repro.matching import kernel
from repro.regex.ast import Concat, Optional, Star, Sym
from repro.regex.generators import mixed_content
from repro.regex.parse_tree import build_parse_tree

from .workloads import repeated_match_corpus

#: Times the whole stream is re-matched in the timed sections; the first
#: pass warms rows and the kernel program, the rest are steady state.
REPEATS = 5

CORPUS_NAMES = ("mixed-content", "chare", "kore", "deep-alternation")


def _corpus(name: str):
    for corpus_name, tree, stream in repeated_match_corpus():
        if corpus_name == name:
            return tree, stream
    raise KeyError(name)


def _warm_runtime(tree, stream) -> CompiledRuntime:
    """A runtime with rows, acceptance verdicts and kernel program all hot."""
    runtime = CompiledRuntime(build_matcher(tree, verify=False))
    runtime.match_many(stream)
    program = runtime.export_kernel_program()
    assert program is not None, "bench corpora must fit a kernel table"
    kernel.match_corpus(program, program.encode_corpus(stream))
    return runtime


def _match_per_word(runtime, stream) -> list[bool]:
    accepts_encoded = runtime.accepts_encoded
    encode = runtime.encode
    return [accepts_encoded(encode(word)) for word in stream]


def _match_kernel(runtime, stream) -> list[bool]:
    return kernel.match_words(runtime, stream)


# ---------------------------------------------------------------------------
# pytest-benchmark timings (enabled with --benchmark-enable)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_per_word_loop(benchmark, name):
    tree, stream = _corpus(name)
    runtime = _warm_runtime(tree, stream)
    verdicts = benchmark(lambda: [_match_per_word(runtime, stream) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(stream)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_kernel_pure(benchmark, name):
    tree, stream = _corpus(name)
    runtime = _warm_runtime(tree, stream)
    verdicts = benchmark(lambda: [_match_kernel(runtime, stream) for _ in range(REPEATS)])
    assert len(verdicts[0]) == len(stream)


# ---------------------------------------------------------------------------
# Correctness and throughput gates (run even with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_kernel_verdicts_identical():
    """Kernel passes on a fresh and on a warm runtime must agree with the per-word loop."""
    for name, tree, stream in repeated_match_corpus():
        runtime = CompiledRuntime(build_matcher(tree, verify=False))
        reference = _match_per_word(runtime, stream)

        # Fresh: the runtime has no row yet, but its program is complete
        # (read off the parse tree), so every verdict comes from the scan
        # and no row is filled.
        fresh_runtime = CompiledRuntime(build_matcher(tree, verify=False))
        fresh = _match_kernel(fresh_runtime, stream)
        assert fresh == reference, f"{name}: fresh kernel diverged"
        assert fresh_runtime.misses == 0, f"{name}: the kernel filled runtime rows"

        # Warm: the runtime the reference filled, through match_corpus.
        program = runtime.export_kernel_program()
        verdicts = kernel.match_corpus(program, program.encode_corpus(stream))
        assert verdicts == reference, f"{name}: warm kernel diverged"


def _best_of(rounds: int, work) -> float:
    """Minimum wall-clock over *rounds* runs (robust against CI descheduling)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_speedup_at_least_10x():
    """The warm batch path ≥ 10× the per-word loop on repeated-match streams.

    This times ``match_words`` on a warm runtime, the path a warm
    ``Pattern.match_all`` takes: the stream is deduplicated once and the
    runtime's verdict memo answers the words it holds before any
    encoding or scan (:func:`test_kernel_encode_and_scan_speedup` times
    the encode and the scan alone).  Locally the aggregate is ~15×
    (5–20× per family; short-word deep-alternation is the low outlier,
    long-word mixed-content the high one); best-of-3 timing keeps a
    descheduled CI runner from tripping the gate without a real
    regression.
    """
    per_word_total = 0.0
    kernel_total = 0.0
    for name, tree, stream in repeated_match_corpus():
        runtime = _warm_runtime(tree, stream)
        assert _match_kernel(runtime, stream) == _match_per_word(runtime, stream)

        def run_per_word():
            for _ in range(REPEATS):
                _match_per_word(runtime, stream)

        def run_kernel():
            for _ in range(REPEATS):
                _match_kernel(runtime, stream)

        per_word_total += _best_of(3, run_per_word)
        kernel_total += _best_of(3, run_kernel)

    speedup = per_word_total / kernel_total
    assert speedup >= 10.0, f"kernel only {speedup:.2f}x over the per-word loop"


def test_kernel_encode_and_scan_speedup():
    """One encode plus one scan of the stream ≥ 7× the per-word loop.

    No memo answers a word here: ``encode_corpus`` dedups the raw
    stream, encodes each distinct word as a list of codes and
    ``match_corpus`` scans every one of them, so this gate times the
    kernel's own two layers.  Aggregate over the four families, best of
    3 per side: ten runs read 7.9–14.6× (median 10.8×) on a 2-vCPU box
    (CPython 3.11.7), and ten runs of the stride-3 group encoding this
    loop replaced, alternating with them, read 9.0–10.8× (median 9.6×).
    The bound leaves headroom below the lowest reading.
    """
    per_word_total = 0.0
    kernel_total = 0.0
    for name, tree, stream in repeated_match_corpus():
        runtime = _warm_runtime(tree, stream)
        program = runtime.export_kernel_program()

        def encode_and_scan():
            return kernel.match_corpus(program, program.encode_corpus(stream))

        assert encode_and_scan() == _match_per_word(runtime, stream)

        def run_per_word():
            for _ in range(REPEATS):
                _match_per_word(runtime, stream)

        def run_kernel():
            for _ in range(REPEATS):
                encode_and_scan()

        per_word_total += _best_of(3, run_per_word)
        kernel_total += _best_of(3, run_kernel)

    speedup = per_word_total / kernel_total
    assert speedup >= 7.0, f"encode + scan only {speedup:.2f}x over the per-word loop"


def _nested_stars(depth: int):
    """``E_i = (a_i? E_{i-1} b_i?)*``: every Last chain climbs through all enclosing stars."""
    expr = None
    for level in range(1, depth + 1):
        body = Optional(Sym(f"a{level}"))
        if expr is not None:
            body = Concat(body, expr)
        expr = Star(Concat(body, Optional(Sym(f"b{level}"))))
    return expr


def test_nested_star_build_within_3x_of_a_flat_union():
    """The follow-relation rows stay linear in the table.

    Nested stars at depth 200 (402 states, 400 symbols) and
    ``mixed_content(400)`` (402 states, 400 symbols) have tables of one
    size.  Row by row along the Last chains, the nested stars
    build in about 1.4× the union's time; relinking each
    Last(left) × First(right) pair at every enclosing star read about
    20×.  Best of 3 on each side.
    """
    nested = build_parse_tree(_nested_stars(200))
    flat = build_parse_tree(mixed_content(400))
    assert len(nested.positions) == len(flat.positions)
    assert len(nested.alphabet) == len(flat.alphabet)
    nested_s = _best_of(3, lambda: kernel.build_program(nested))
    flat_s = _best_of(3, lambda: kernel.build_program(flat))
    ratio = nested_s / flat_s
    assert ratio <= 3.0, f"nested stars built in {ratio:.2f}x the flat union's time"
