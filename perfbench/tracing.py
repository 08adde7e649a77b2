"""Layer spans recorded from outside the program, and the per-layer table.

:func:`install` replaces the entry points the program calls through with
wrappers that open a span around each call.  A span records its name,
start, end and parent; a layer's self time is its span's duration minus
the part its child spans cover.  Entry points called once per item
(``parse_word`` per word, memo probes and replays per child sequence) are
only accumulated per layer, so memory stays bounded; the other spans are
kept in memory and written out by :meth:`Tracer.dump` when the run ends.

Nothing under ``src/`` is edited: every wrapper is installed by rebinding
a module attribute, a class attribute or an instance attribute that the
program looks up at call time.
"""

from __future__ import annotations

import collections.abc
import json
import math
import statistics
import threading
from collections import defaultdict
from time import perf_counter_ns

#: The per-layer metrics of ``BENCHMARK.json``: name → (unit, better).
LAYER_METRICS = {
    "regex.parser.parse.calls": ("count", "lower"),
    "regex.parser.parse.self_s": ("s", "lower"),
    "regex.parser.parse_word.calls": ("count", "lower"),
    "regex.parser.parse_word.self_s": ("s", "lower"),
    "regex.parse_tree.calls": ("count", "lower"),
    "regex.parse_tree.self_s": ("s", "lower"),
    "regex.parse_tree.nodes": ("count", "lower"),
    "core.determinism.calls": ("count", "lower"),
    "core.determinism.self_s": ("s", "lower"),
    "core.determinism.size_exponent": ("slope", "lower"),
    "core.numeric.calls": ("count", "lower"),
    "core.numeric.self_s": ("s", "lower"),
    "matching.plan.calls": ("count", "lower"),
    "matching.plan.self_s": ("s", "lower"),
    "matching.plan.route.star-free-multi": ("count", "higher"),
    "matching.plan.route.compiled-kernel": ("count", "higher"),
    "matching.plan.route.compiled-runtime": ("count", "lower"),
    "matching.dispatch.calls": ("count", "lower"),
    "matching.dispatch.self_s": ("s", "lower"),
    "matching.runtime.replay.calls": ("count", "lower"),
    "matching.runtime.replay.self_s": ("s", "lower"),
    "matching.runtime.rows_filled": ("count", "lower"),
    "matching.kernel.programs_built": ("count", "lower"),
    "matching.kernel.build.self_s": ("s", "lower"),
    "matching.kernel.encode.self_s": ("s", "lower"),
    "matching.kernel.dedup_ratio": ("ratio", "higher"),
    "matching.kernel.scan.self_s": ("s", "lower"),
    "matching.kernel.fallback_share": ("ratio", "lower"),
    "matching.kernel.batch.self_s": ("s", "lower"),
    "matching.star_free.calls": ("count", "lower"),
    "matching.star_free.self_s": ("s", "lower"),
    "matching.star_free.encode.self_s": ("s", "lower"),
    "cache.calls": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.self_s": ("s", "lower"),
    "xml.parser.calls": ("count", "lower"),
    "xml.parser.self_s": ("s", "lower"),
    "xml.parser.mb_per_s": ("MB/s", "higher"),
    "xml.validator.self_s": ("s", "lower"),
    "xml.xsd.self_s": ("s", "lower"),
    "xml.memo.calls": ("count", "lower"),
    "xml.memo.hit_ratio": ("ratio", "higher"),
    "xml.memo.self_s": ("s", "lower"),
    "diagnostics.calls": ("count", "lower"),
    "diagnostics.self_s": ("s", "lower"),
    "service.core.request_p50_ms": ("ms", "lower"),
    "service.core.request_p99_ms": ("ms", "lower"),
    "service.core.pool_wait_s": ("s", "lower"),
    "service.core.self_s": ("s", "lower"),
    "service.aio.requests": ("count", "higher"),
    "service.aio.errors": ("count", "lower"),
    "service.aio.self_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


class _ThreadState:
    """One thread's open spans and per-layer totals (no lock on the hot path)."""

    __slots__ = ("stack", "layers", "top_ns", "thread")

    def __init__(self, thread: str):
        #: open frames ``[child_ns, span_index or None]``
        self.stack: list[list] = []
        #: layer → [calls, self_ns, total_ns]
        self.layers: dict[str, list[int]] = {}
        #: time covered by this thread's outermost layer spans
        self.top_ns = 0
        self.thread = thread


class Tracer:
    """Span store plus per-layer aggregates; safe to call from several threads."""

    def __init__(self):
        self._local = threading.local()
        # re-entrant: the traced server resets from a signal handler, which
        # may interrupt the main thread while it holds this lock
        self._lock = threading.RLock()
        self._states: list[_ThreadState] = []
        #: span records ``[name, start_ns, end_ns, parent_index]`` (per-item calls excluded)
        self.spans: list[list] = []
        #: named counters fed by post-call hooks (tree nodes, routes, bytes, ...)
        self.counts: dict[str, int] = defaultdict(int)
        #: event-loop time of the serving layers (see :func:`install_server`)
        self.loop_ns = {"aio": 0, "core": 0}

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            return state

    def reset(self) -> None:
        """Drop everything recorded so far (the set-up phase)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self.loop_ns.update(aio=0, core=0)
            for state in self._states:
                state.layers.clear()
                state.top_ns = 0

    def layers(self) -> dict[str, list[int]]:
        """Per-layer ``[calls, self_ns, total_ns]`` summed over threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            for state in self._states:
                for name, totals in state.layers.items():
                    into = merged.setdefault(name, [0, 0, 0])
                    for slot in range(3):
                        into[slot] += totals[slot]
        return merged

    def top_ns(self, thread: str) -> int:
        with self._lock:
            return sum(state.top_ns for state in self._states if state.thread == thread)

    def call(self, name: str, function, args, kwargs, post=None):
        """Run *function* inside a recorded span named *name*."""
        state = self.state()
        stack = state.stack
        parent = next((frame[1] for frame in reversed(stack) if frame[1] is not None), None)
        record = [name, 0, 0, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        frame = [0, index]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            record[1] = start
            record[2] = end
            _close(state, name, frame, end - start)
        if post is not None:
            post(self, result, args)
        return result

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def dump(self, path: str) -> None:
        """Write the span records (name, start, end, parent) as JSON."""
        fields = ["name", "start_ns", "end_ns", "parent"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def _close(state: _ThreadState, name: str, frame: list, duration: int) -> None:
    stack = state.stack
    stack.pop()
    totals = state.layers.get(name)
    if totals is None:
        totals = state.layers[name] = [0, 0, 0]
    totals[0] += 1
    totals[1] += duration - frame[0]
    totals[2] += duration
    if stack:
        stack[-1][0] += duration
    else:
        state.top_ns += duration


def _wrap(tracer: Tracer, owner, attribute: str, name: str, item: bool = False, post=None):
    """Rebind ``owner.attribute`` to a wrapper timing each call as layer *name*.

    Per-item wrappers (*item*) record no span, only the layer totals, and
    keep their own bookkeeping short: it runs once per word or child
    sequence.
    """
    original = getattr(owner, attribute)
    if item:
        local = tracer._local

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer.state()
            frame = [0, None]
            state.stack.append(frame)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                _close(state, name, frame, perf_counter_ns() - start)

    else:

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, post)

    wrapper.__wrapped__ = original
    setattr(owner, attribute, wrapper)


# -- post-call hooks (counts read off results and arguments) ----------------------------


def _tree_nodes(tracer, tree, _args):
    tracer.count("regex.parse_tree.nodes", len(tree.nodes))


def _route(tracer, plan, _args):
    tracer.count(f"matching.plan.route.{plan.route}")


def _corpus(tracer, corpus, _args):
    tracer.count("kernel.corpus_words", len(corpus.index))
    tracer.count("kernel.corpus_distinct", len(corpus.distinct))


def _xml_bytes(tracer, _document, args):
    tracer.count("xml.parser.bytes", len(args[0].encode("utf-8")))


def install(tracer: Tracer) -> None:
    """Wrap the library's layer entry points (in-process workloads and the server)."""
    from repro import api, cache
    from repro.matching import kernel, runtime, star_free
    from repro.regex import alphabet
    from repro.xml import memo, parser, validator, xsd

    _wrap(tracer, api, "parse", "regex.parser.parse")
    _wrap(tracer, api, "parse_word", "regex.parser.parse_word", item=True)
    _wrap(tracer, api, "build_parse_tree", "regex.parse_tree", post=_tree_nodes)
    _wrap(tracer, api, "check_deterministic", "core.determinism")
    _wrap(tracer, api, "check_deterministic_numeric", "core.numeric")
    _wrap(tracer, api, "build_matcher", "matching.dispatch")
    _wrap(tracer, api.PLANNER, "plan", "matching.plan", post=_route)
    _wrap(tracer, kernel, "match_words", "matching.kernel.batch")
    _wrap(tracer, kernel, "build_program", "matching.kernel.build")
    _wrap(tracer, kernel.KernelProgram, "encode_corpus", "matching.kernel.encode", post=_corpus)
    _wrap(tracer, kernel.KernelProgram, "scan", "matching.kernel.scan")
    _wrap(tracer, runtime.CompiledRuntime, "accepts_encoded", "matching.runtime.replay", item=True)
    _wrap(tracer, star_free.StarFreeMultiMatcher, "__init__", "matching.star_free")
    _wrap(tracer, star_free.StarFreeMultiMatcher, "match_all_encoded", "matching.star_free")
    _wrap(tracer, alphabet.Alphabet, "encode_many", "matching.star_free.encode")
    _wrap(tracer, cache.PatternCache, "get_or_build", "cache")
    _wrap(tracer, parser, "parse_document", "xml.parser", post=_xml_bytes)
    _wrap(tracer, validator.DTDValidator, "validate", "xml.validator")
    _wrap(tracer, xsd.XSDSchema, "validate_element", "xml.xsd")
    _wrap(tracer, memo.AcceptanceMemo, "accepts", "xml.memo", item=True)
    _wrap(tracer, validator, "diagnose", "diagnostics")
    _wrap(tracer, xsd, "diagnose", "diagnostics")


# -- the asyncio server ------------------------------------------------------------------


class _StepTimed(collections.abc.Coroutine):
    """Drives a coroutine and books the time of each step it runs on the loop.

    Time spent awaiting (pool work, socket I/O) is not booked: only the
    slices in which the wrapped coroutine actually executes.
    """

    __slots__ = ("_coroutine", "_sink")

    def __init__(self, coroutine, sink):
        self._coroutine = coroutine
        self._sink = sink

    def send(self, value):
        start = perf_counter_ns()
        try:
            return self._coroutine.send(value)
        finally:
            self._sink(perf_counter_ns() - start)

    def throw(self, *exception):
        start = perf_counter_ns()
        try:
            return self._coroutine.throw(*exception)
        finally:
            self._sink(perf_counter_ns() - start)

    def close(self):
        return self._coroutine.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def install_server(tracer: Tracer) -> None:
    """Wrap the serving layers on top of :func:`install` (call in the server process).

    ``service.aio`` books the loop-thread steps of each connection handler,
    ``service.core`` the steps of the service's async entry points plus
    each pool job's own time; pool jobs open a ``service.core`` span on the
    worker thread, so the library spans inside them nest under it.
    """
    from repro.service import aio, core

    install(tracer)
    _wrap(tracer, core, "parse_document", "xml.parser", post=_xml_bytes)
    busy = tracer.loop_ns

    def booker(key):
        def sink(nanoseconds):
            busy[key] += nanoseconds

        return sink

    def step_timed(owner, attribute, key):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            return _StepTimed(original(*args, **kwargs), booker(key))

        setattr(owner, attribute, wrapper)

    step_timed(aio.AsyncServiceServer, "_handle_connection", "aio")
    for entry in ("match_batch_async", "validate_document_texts_async"):
        step_timed(core.ValidationService, entry, "core")

    handle_post = aio.AsyncServiceServer._handle_post

    async def timed_post(self, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return await handle_post(self, *args, **kwargs)
        finally:
            tracer.count("service.aio.post_ns", perf_counter_ns() - start)
            tracer.count("service.aio.posts")

    aio.AsyncServiceServer._handle_post = timed_post

    service_init = core.ValidationService.__init__

    def traced_init(self, *args, **kwargs):
        service_init(self, *args, **kwargs)
        pool_submit = self._pool.submit

        def submit(work, *work_args, **work_kwargs):
            queued = perf_counter_ns()

            def job():
                tracer.count("service.core.pool_wait_ns", perf_counter_ns() - queued)
                return tracer.call("service.core", work, work_args, work_kwargs)

            return pool_submit(job)

        self._pool.submit = submit

    core.ValidationService.__init__ = traced_init


# -- the per-layer table -----------------------------------------------------------------


def size_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 below two distinct sizes."""
    pairs = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _y in pairs}) < 2:
        return 0.0
    xs, ys = zip(*pairs)
    return statistics.linear_regression(xs, ys).slope


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_table(layers: dict, counts: dict, program: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric from the spans, the counters and the program's stats.

    *program* holds deltas of the program's own telemetry over the traced
    ops (``cache_hits``, ``cache_misses``, ``programs_built``,
    ``kernel_words``, ``fallback_words``, ``memo_hits``, ``memo_misses``,
    ``rows_filled``); *extra* supplies the workload-level numbers
    (coverage, overhead, size exponent, service request figures).
    *layers* maps a layer to ``[calls, self_ns, total_ns]``; *counts* holds
    the post-call hook counters.
    """

    def calls(name):
        return layers[name][0] if name in layers else 0

    def self_s(name):
        return layers[name][1] / 1e9 if name in layers else 0.0

    table = {}
    for layer in (
        "regex.parser.parse",
        "regex.parser.parse_word",
        "regex.parse_tree",
        "core.determinism",
        "core.numeric",
        "matching.plan",
        "matching.dispatch",
        "matching.runtime.replay",
        "matching.star_free",
        "xml.parser",
        "diagnostics",
    ):
        table[f"{layer}.calls"] = calls(layer)
        table[f"{layer}.self_s"] = self_s(layer)
    table["regex.parse_tree.nodes"] = counts.get("regex.parse_tree.nodes", 0)
    for route in ("star-free-multi", "compiled-kernel", "compiled-runtime"):
        table[f"matching.plan.route.{route}"] = counts.get(f"matching.plan.route.{route}", 0)
    table["matching.runtime.rows_filled"] = program.get("rows_filled", 0)
    table["matching.kernel.programs_built"] = program.get("programs_built", 0)
    table["matching.kernel.build.self_s"] = self_s("matching.kernel.build")
    table["matching.kernel.encode.self_s"] = self_s("matching.kernel.encode")
    table["matching.kernel.scan.self_s"] = self_s("matching.kernel.scan")
    table["matching.kernel.batch.self_s"] = self_s("matching.kernel.batch")
    table["matching.star_free.encode.self_s"] = self_s("matching.star_free.encode")
    table["matching.kernel.dedup_ratio"] = _ratio(
        counts.get("kernel.corpus_words", 0), counts.get("kernel.corpus_distinct", 0)
    )
    kernel_words = program.get("kernel_words", 0)
    fallback_words = program.get("fallback_words", 0)
    table["matching.kernel.fallback_share"] = _ratio(fallback_words, kernel_words + fallback_words)
    hits, misses = program.get("cache_hits", 0), program.get("cache_misses", 0)
    table["cache.calls"] = hits + misses
    table["cache.hit_ratio"] = _ratio(hits, hits + misses)
    table["cache.self_s"] = self_s("cache")
    parse_total = layers["xml.parser"][2] / 1e9 if "xml.parser" in layers else 0.0
    table["xml.parser.mb_per_s"] = _ratio(counts.get("xml.parser.bytes", 0) / 1e6, parse_total)
    table["xml.validator.self_s"] = self_s("xml.validator")
    table["xml.xsd.self_s"] = self_s("xml.xsd")
    memo_hits, memo_misses = program.get("memo_hits", 0), program.get("memo_misses", 0)
    table["xml.memo.calls"] = memo_hits + memo_misses
    table["xml.memo.hit_ratio"] = _ratio(memo_hits, memo_hits + memo_misses)
    table["xml.memo.self_s"] = self_s("xml.memo")
    for name in (
        "service.core.request_p50_ms",
        "service.core.request_p99_ms",
        "service.core.pool_wait_s",
        "service.core.self_s",
        "service.aio.requests",
        "service.aio.errors",
        "service.aio.self_s",
        "core.determinism.size_exponent",
        "trace.coverage",
        "trace.overhead_share",
    ):
        table[name] = extra.get(name, 0)
    missing = set(LAYER_METRICS) - set(table)
    if missing:
        raise AssertionError(f"per-layer metrics without a value: {sorted(missing)}")
    return table
