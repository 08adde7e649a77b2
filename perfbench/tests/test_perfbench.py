"""Tests of the benchmark's own code: statistics, inputs, reference, checks, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import inputs, model, ops, serve, worker
from perfbench.run import END_TO_END, ROOT, WORKLOADS, child_env
from perfbench.summary import BEYOND, percentile, segmented_percentile
from perfbench.tracing import LAYER_METRICS, size_exponent

# -- the percentile rule -----------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile([float(v) for v in range(999)], 0.99) is None
    values = [float(v) for v in range(1000)]
    p99 = percentile(values, 0.99)
    assert p99 == 989.0
    assert sum(1 for value in values if value > p99) == BEYOND


def test_segmented_p99_is_the_mean_of_whole_segments():
    calm = [1.0] * 980 + [5.0] * 20
    burst = [1.0] * 980 + [50.0] * 20
    assert segmented_percentile(calm + burst + calm + [1.0] * 5, 0.99) == 20.0
    assert segmented_percentile(calm[:999], 0.99) is None


def test_strata_take_one_draw_per_slice():
    draws = inputs.Strata(random.Random(1), lambda u: int(u * 10), block=10)
    assert sorted(draws.draw() for _ in range(10)) == list(range(10))


def test_median_rank_is_reported_for_small_runs():
    assert percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0
    assert percentile([], 0.5) is None


def test_size_exponent_is_the_log_log_slope():
    assert size_exponent([(n, 3e-6 * n**2) for n in (200, 400, 800, 1600)]) == pytest.approx(2.0)
    assert size_exponent([(n, 1e-6 * n) for n in (200, 2000)]) == pytest.approx(1.0)


# -- seeded inputs -----------------------------------------------------------------------


def _compile_fingerprint(seed: int) -> str:
    cases = inputs.compile_block(seed, 0) + inputs.compile_block(seed, 1)
    return json.dumps([(c.text, c.words, c.expected, c.deterministic) for c in cases])


def test_same_seed_gives_byte_identical_inputs():
    assert _compile_fingerprint(11) == _compile_fingerprint(11)
    assert _compile_fingerprint(11) != _compile_fingerprint(12)
    docs = [case.text for case in inputs.doc_cases(11, 3)]
    assert docs == [case.text for case in inputs.doc_cases(11, 3)]
    bodies = [request.body for request in serve.Traffic(11).take(12)]
    assert bodies == [request.body for request in serve.Traffic(11).take(12)]
    first = ops.MatchStream(11).fixed_cases()[:20]
    second = ops.MatchStream(11).fixed_cases()[:20]
    assert [(f.name, w, e) for f, w, e in first] == [(f.name, w, e) for f, w, e in second]


def test_compile_blocks_are_stratified_and_distinct():
    cases = inputs.compile_block(5, 0) + inputs.compile_block(5, 1)
    families = [case.family for case in cases]
    assert families.count("xsd") == 2 * inputs.XSD_PER_BLOCK
    assert families.count("nondet") == 2 * inputs.NONDET_PER_BLOCK
    large = [case.size for case in cases if case.family.startswith("large")]
    assert large == [size for size in large if 200 <= size <= 2000]
    assert len(large) == 2 * inputs.LARGE_PER_BLOCK
    assert len({case.text for case in cases}) == len(cases)
    assert all(len(case.words) >= 8 for case in cases)


def test_one_document_in_five_carries_one_violation():
    cases = list(itertools.chain.from_iterable(inputs.doc_cases(3, block) for block in range(10)))
    broken = [case for case in cases if not case.valid]
    assert len(broken) == len(cases) // 5
    assert all(len(case.paths) == 1 for case in broken)


# -- the independent reference -----------------------------------------------------------


def test_re_reference_agrees_with_the_language_oracle():
    from repro.regex.generators import random_deterministic_expression
    from repro.regex.language import LanguageOracle
    from repro.regex.parse_tree import build_parse_tree

    for seed in range(200):
        rng = random.Random(seed)
        expr = random_deterministic_expression(rng, rng.randint(2, 10))
        tuple_model = model.from_ast(expr)
        reference = model.Reference(tuple_model)
        oracle = LanguageOracle(build_parse_tree(expr))
        alphabet = model.symbols(tuple_model) + ["undeclared"]
        for index in range(20):
            word = model.sample(tuple_model, rng)
            if index % 2:
                word = model.mutate(word, alphabet, rng)
            assert reference.accepts(word) == oracle.accepts(word), (tuple_model, word)


# -- checks count failures ---------------------------------------------------------------


def _fixed(workload, cases):
    import repro

    return worker.fixed_run(repro, workload, cases, None, SimpleNamespace(seed=0))


def test_a_flipped_verdict_raises_failed_share():
    workload = ops.MatchStream(4)
    workload.setup()
    cases = workload.fixed_cases()[:10]
    assert _fixed(workload, cases)["failed"] == 0
    family, words, expected = cases[3]
    flipped = list(expected)
    flipped[0] = not flipped[0]
    cases[3] = (family, words, flipped)
    result = _fixed(workload, cases)
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_a_wrong_violation_path_is_a_failure():
    workload = ops.ValidateDocs(4)
    workload.setup()
    cases = [case for case in workload.fixed_cases()[:20] if not case.valid]
    assert cases and _fixed(workload, cases)["failed"] == 0
    cases[0].paths = ["/catalog/product[999]"]
    assert _fixed(workload, cases)["failed"] == 1


def test_a_wrong_determinism_verdict_is_a_failure():
    workload = ops.SchemaCompile(4)
    cases = [case for case in inputs.compile_block(4, 0) if case.size < 100][:30]
    assert _fixed(workload, cases)["failed"] == 0
    cases[0].deterministic = not cases[0].deterministic
    assert _fixed(workload, cases)["failed"] == 1


# -- tiny smoke runs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_in_process_workload_smoke(name):
    workload = ops.WORKLOADS[name](9)
    workload.setup()
    cases = list(itertools.islice(workload.cases(), 12))
    for case in cases:
        assert workload.check(case, workload.run(case)) is None


def test_serve_aio_smoke(monkeypatch):
    for name in ("PYTHONPATH", "REPRO_KERNEL", "PYTHONHASHSEED"):
        monkeypatch.setenv(name, child_env()[name])
    traffic = serve.Traffic(9)
    requests = traffic.take(6)
    server, setup_s = serve.boot(traffic)
    try:
        results, _wall = serve.closed_loop(server.port, requests)
    finally:
        server.stop()
    assert setup_s > 0
    assert server.process.returncode is not None
    assert len(results) == len(requests)
    assert [serve.check(status, body, item) for _l, status, body, item, _s in results] == [None] * 6


def _worker(*arguments: str) -> dict:
    found = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *arguments, "--spawned-at", "0"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert found.returncode == 0, found.stderr
    return json.loads(found.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "name, layer, calls",
    [
        ("validate-docs", "xml.parser.calls", ops.ValidateDocs.fixed_docs),
        ("serve-aio", "service.aio.requests", serve.FIXED_REQUESTS),
    ],
)
def test_traced_counts_repeat_exactly(name, layer, calls):
    first = _worker(name, "--seed", "2", "--mode", "traced")
    second = _worker(name, "--seed", "2", "--mode", "traced")
    counts = [metric for metric, (unit, _better) in LAYER_METRICS.items() if unit == "count"]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["layers"][layer] == calls
    assert first["layers"]["trace.coverage"] >= 0.9
    assert first["cost_s"] > 0
    assert first["provenance"]["backend"] == "pure"


def test_cli_prints_the_result_contract_last():
    found = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate-docs", "--seed", "3"]
        + ["--seconds", "0.2", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert found.returncode == 0, found.stderr
    last = json.loads(found.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= worker.MIN_OPS
    assert set(last["metrics"]) == set(END_TO_END)


def test_cli_fails_without_the_library(tmp_path: Path):
    ignore = shutil.ignore_patterns("out")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    found = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match-stream", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert found.returncode != 0
    assert found.stdout.strip() == ""


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["per_layer"]] == list(LAYER_METRICS)
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
