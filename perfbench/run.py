"""The repository benchmark: four seeded workloads, end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload schema-compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Every workload runs in fresh interpreters (``python -m perfbench.worker``)
with ``REPRO_KERNEL=pure`` and ``PYTHONHASHSEED=0`` pinned, importing the
library from this checkout's ``src/``.  With ``--trace 0`` a run sets up
``SETUPS`` times (reporting the median set-up time) and then measures the
end-to-end metrics for ``--seconds`` seconds of operations; with
``--trace 1`` it runs a seed-fixed operation list twice, untraced and with
layer wrappers installed, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results with their
provenance are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import LAYER_METRICS  # noqa: E402
from perfbench.worker import OUT_DIR  # noqa: E402

WORKLOADS = ("schema-compile", "match-stream", "validate-docs", "serve-aio")
#: Set-up-only interpreters per run, besides the measuring one.
SETUPS = 6
#: Untraced and traced runs of the fixed op list in a ``--trace 1`` run.
OVERHEAD_RUNS = 3
#: Every run ends within this many seconds, children included.
RUN_DEADLINE_S = 170.0

#: End-to-end metrics: name → unit.  ``items_per_s`` counts models,
#: words, documents or requests depending on the workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "items_per_s": "items/s",
}

#: Each workload's own name for op_p50_ms, op_p99_ms and items_per_s.
DISPLAY = {
    "schema-compile": ("compile_p50_ms", "compile_p99_ms", "models_per_s"),
    "match-stream": ("batch_p50_ms", "batch_p99_ms", "match_words_per_s"),
    "validate-docs": ("doc_p50_ms", "doc_p99_ms", "docs_per_s"),
    "serve-aio": ("http_p50_ms", "http_p99_ms", "http_req_per_s"),
}


class BenchError(Exception):
    """The benchmark could not produce a result (reported on stderr, exit code 1)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_KERNEL"] = "pure"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker interpreter and return its JSON result.

    The worker leads its own process group, so a timeout also stops the
    server a serve-aio worker started.
    """
    argv = [sys.executable, "-m", "perfbench.worker", workload, "--seed", str(seed)]
    argv += ["--mode", mode, "--seconds", str(seconds)]
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload} {mode} run exceeded the time limit") from None
    if process.returncode != 0:
        raise BenchError(f"{workload} {mode} run failed:\n{stderr.strip()[-3000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} run printed no result")
    return json.loads(lines[-1])


def commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [spawn(workload, seed, "setup", seconds, deadline)["setup_s"] for _ in range(SETUPS)]
    result = spawn(workload, seed, "measure", seconds, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    metrics = {"setup_s": median(setups)}
    for name in ("peak_rss_mb", "op_p50_ms", "op_p99_ms", "items_per_s"):
        if result[name] is not None:
            metrics[name] = result[name]
    result["metrics"] = {
        name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()
    }
    return result


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced and traced runs of the fixed op list, alternating, ``OVERHEAD_RUNS`` each.

    The overhead compares the median ``cost_s`` of each kind: CPU time,
    not wall time, so that time spent descheduled does not read as tracing
    cost; in process it is also scaled by calibration probes (see
    :func:`perfbench.worker.fixed_run` and :func:`perfbench.worker.serve_fixed`).
    The per-layer table is the first traced run's; every other traced run
    must repeat each of its count metrics exactly, or the result is not
    correct.
    """
    plain, runs = [], []
    for _ in range(OVERHEAD_RUNS):
        plain.append(spawn(workload, seed, "fixed", seconds, deadline))
        runs.append(spawn(workload, seed, "traced", seconds, deadline))
    result = runs[0]
    layers = result["layers"]
    untraced_s = median(run["cost_s"] for run in plain)
    layers["trace.overhead_share"] = median(run["cost_s"] for run in runs) / untraced_s - 1.0
    result["overhead_cost_s"] = {
        "untraced": [run["cost_s"] for run in plain],
        "traced": [run["cost_s"] for run in runs],
    }
    result["count_mismatches"] = [
        name
        for name, (unit, _better) in LAYER_METRICS.items()
        if unit == "count" and any(run["layers"][name] != layers[name] for run in runs[1:])
    ]
    for run in plain + runs[1:]:
        result["failed"] += run["failed"]
        result["attempted"] += run["attempted"]
        result["failures"] += run["failures"]
    result["metrics"] = {
        name: {"value": layers[name], "unit": unit}
        for name, (unit, _better) in LAYER_METRICS.items()
    }
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    info = result["provenance"]
    print(
        f"perfbench {workload} seed={seed} trace={trace} backend={info['backend']} "
        f"python={info['python']} nproc={info['nproc']} commit={info['commit'][:12]} "
        f"src={info['src_digest']}"
    )
    names = dict(zip(("op_p50_ms", "op_p99_ms", "items_per_s"), DISPLAY[workload]))
    for name, metric in result["metrics"].items():
        label = names.get(name, name)
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = ""
        if name in ("op_p50_ms", "op_p99_ms"):
            note = f"  ({name}, n={result['samples']})"
        elif name == "items_per_s":
            note = f"  ({name}: {result['items']} {result['unit']} in {result['busy_s']:.2f} s)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples'])} set-ups)"
        print(f"  {label:<40} {text:>14} {metric['unit']:<8}{note}")
    if "count_mismatches" in result:
        differing = ", ".join(result["count_mismatches"]) or "none"
        print(f"  count metrics that differ between traced runs: {differing}")
    attempted, failed = result["attempted"], result["failed"]
    share = failed / attempted
    print(f"  {'failed_share':<40} {share:>14.6g} {'ratio':<8}  ({failed} of {attempted} ops)")
    for problem in result.get("failures", []):
        print(f"  failure: {problem}")


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        result = traced(workload, seed, seconds, deadline)
    else:
        result = measure(workload, seed, seconds, deadline)
    result["provenance"].update(commit=commit(), src_digest=source_digest())
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    report(workload, seed, trace, result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            results[name] = run_one(
                name, arguments.seed, arguments.seconds, arguments.trace, deadline
            )
        except BenchError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    expected = set(LAYER_METRICS) if arguments.trace else set(END_TO_END)
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    complete = all(set(result["metrics"]) == expected for result in results.values())
    repeated = not any(result.get("count_mismatches") for result in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {
            f"{name}.{key}": value
            for name, result in results.items()
            for key, value in result["metrics"].items()
        }
    summary = {
        "correct": failed == 0 and complete and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
