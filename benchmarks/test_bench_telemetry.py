"""Benchmark: telemetry costs — scrape latency, counter increments,
and compile overhead of the always-on phase timers.

Writes ``.bench_build/BENCH_telemetry.json`` with the headline
numbers the observability acceptance gate cares about:

* **scrape latency** — one full ``/metrics`` collection + render over a
  populated service registry (the path a Prometheus scraper hits);
* **counter increment ns** — cost of one labeled-counter increment
  (the per-event instrumentation primitive);
* **phase-timing compile overhead** — the phase timer's own cost per
  compile divided by compile time with timing off.  The timers only
  earn their always-on default if this stays a rounding error; the
  acceptance bar is < 2 %, asserted here.
* **span-recording and event-logging compile overhead** — the cost of
  the spans (a live ``SpanRecorder.span`` plus the per-phase child
  spans ``record_compile_spans`` synthesizes) and of the four events a
  job emits, per compile, over compile time.  Same < 2 % bar: the
  waterfall and the log must be free enough to leave on.

Each overhead is measured directly — the instrumented operations run
in a tight loop (best of several batches) and their per-compile total
is divided by the suite's compile time (per-item minimum of alternating
repeats) — instead of as the difference of two noisy compile timings,
which turns a compile-time jitter of a few percent into a false 2 %
breach, and more so the faster compiles get.  The ratio is the median
of ``TRIALS`` such measurements, recorded as ``*_cost_ratio``.
"""

from __future__ import annotations

import time
from unittest.mock import patch

import pytest

from repro.api import CompileJob, MachineSpec, Session
from repro.core import compiler as compiler_module
from repro.core.compiler import SquareCompiler
from repro.service.server import CompilationService
from repro.telemetry import EventLog, MetricsRegistry, SpanRecorder
from repro.telemetry.spans import record_compile_spans
from repro.telemetry.timing import PhaseTimer

from benchmarks.conftest import emit_bench, run_once

#: Registry cross-section: small oracles on a fixed lattice plus quick
#: arithmetic on a large machine, so the overhead number reflects both
#: event-dense tiny compiles and routing-dominated big ones.
SMALL = ("RD53", "6SYM", "2OF5", "ADDER4")
LARGE = ("ADDER32", "MUL32")
POLICIES = ("eager", "lazy", "square")
GRID = MachineSpec.nisq_grid(5, 5)
BIG = MachineSpec(kind="nisq", num_qubits=256)

#: Acceptance bar: phase timing must cost less than this fraction of
#: compile time (ISSUE 8 criterion).
MAX_OVERHEAD_RATIO = 0.02

#: Overhead measurements per gate; the median is asserted.
TRIALS = 3
#: Compile timings per item per side (minimum is kept).
REPEATS = 5
#: Timed batches per instrumented operation (best is kept), and calls
#: per batch.
COST_REPEATS = 5
COST_LOOPS = 20

#: Filled by the tests, flushed to ``BENCH_telemetry.json`` on teardown.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Flush ``RESULTS`` as a versioned record after the module runs."""
    yield
    emit_bench("telemetry", RESULTS)


def test_bench_counter_increment(benchmark):
    """Nanoseconds per labeled-counter increment."""
    registry = MetricsRegistry()
    child = registry.counter("bench_events_total", "bench",
                             labelnames=("tenant",)).labels(tenant="t")
    increments = 100_000

    def spin():
        for _ in range(increments):
            child.inc()

    benchmark.pedantic(spin, rounds=5, iterations=1, warmup_rounds=1)
    nanoseconds = benchmark.stats.stats.min / increments * 1e9
    benchmark.extra_info["increment_ns"] = round(nanoseconds, 1)
    RESULTS["counter_increment_ns"] = round(nanoseconds, 1)
    assert child.value == increments * 6  # 5 rounds + 1 warmup


def test_bench_scrape_latency(benchmark):
    """One full /metrics collection + render on a populated service."""
    service = CompilationService(session=Session(), workers=1)
    try:
        tenant = service.authenticate(None)
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        service.compile({"job": job.to_dict()}, tenant=tenant)

        text = benchmark.pedantic(service.metrics_text, rounds=20,
                                  iterations=5, warmup_rounds=1)
    finally:
        service.close()
    assert "repro_compile_phase_seconds" in text
    milliseconds = benchmark.stats.stats.min * 1e3
    benchmark.extra_info["scrape_ms"] = round(milliseconds, 3)
    RESULTS["scrape_latency_ms"] = round(milliseconds, 3)
    RESULTS["scrape_bytes"] = len(text.encode("utf-8"))


def _suite():
    """Prebuilt (program, machine, config) triples: rounds time only
    compiles, never program loading or lattice construction."""
    from repro.workloads.registry import benchmark_overrides

    triples = []
    for name in SMALL:
        for policy in POLICIES:
            job = CompileJob.for_benchmark(name, GRID, policy)
            triples.append((job.load_program(), GRID.build(), job.config))
    for name in LARGE:
        for policy in POLICIES:
            overrides = benchmark_overrides(name, "quick")
            job = CompileJob.for_benchmark(name, BIG, policy,
                                           overrides=overrides)
            triples.append((job.load_program(), BIG.build(), job.config))
    return triples


def _time_one(program, machine, config, phase_timing) -> float:
    started = time.perf_counter()
    result = SquareCompiler(machine, config,
                            phase_timing=phase_timing).compile(program)
    elapsed = time.perf_counter() - started
    assert bool(result.phase_seconds) is phase_timing
    return elapsed


@pytest.fixture(scope="module")
def suite():
    """The suite plus per-item minimum compile seconds, phase timing off
    and on, timed alternately so slow drift hits both sides equally."""
    triples = _suite()
    for program, machine, config in triples:  # warm every code path once
        _time_one(program, machine, config, False)
        _time_one(program, machine, config, True)
    off, on = [], []
    for program, machine, config in triples:
        offs, ons = [], []
        for _ in range(REPEATS):
            offs.append(_time_one(program, machine, config, False))
            ons.append(_time_one(program, machine, config, True))
        off.append(min(offs))
        on.append(min(ons))
    return triples, off, on


def _seconds_per_call(func) -> float:
    """Seconds per call of ``func``: the best of ``COST_REPEATS`` timed
    batches of ``COST_LOOPS`` back-to-back calls."""
    best = float("inf")
    for _ in range(COST_REPEATS):
        started = time.perf_counter()
        for _ in range(COST_LOOPS):
            func()
        best = min(best, (time.perf_counter() - started) / COST_LOOPS)
    return best


def _overhead_trials(benchmark, cost_per_trial, compile_seconds) -> list:
    """``TRIALS`` measurements of instrumentation seconds over compile
    seconds, sorted."""
    def measure():
        return [cost_per_trial() for _ in range(TRIALS)]

    costs = run_once(benchmark, measure)
    return sorted(cost / compile_seconds for cost in costs)


def _timer_calls(program, machine, config) -> list:
    """The push (phase name) / pop (None) sequence one compile makes on
    its phase timer."""
    calls = []

    class RecordingTimer(PhaseTimer):
        __slots__ = ()

        def push(self, phase: str) -> None:
            calls.append(phase)
            super().push(phase)

        def pop(self) -> None:
            calls.append(None)
            super().pop()

    with patch.object(compiler_module, "PhaseTimer", RecordingTimer):
        SquareCompiler(machine, config).compile(program)
    return calls


def _replay_timer(calls) -> dict:
    """Everything the compiler does with its phase timer: build it, make
    the recorded push/pop calls, and read the per-phase seconds."""
    timer = PhaseTimer()
    for phase in calls:
        if phase is None:
            timer.pop()
        else:
            timer.push(phase)
    return {name: timer.seconds[name] for name in sorted(timer.seconds)}


def test_bench_phase_timing_overhead(benchmark, suite):
    """Compile-time cost of the always-on phase timers (< 2 %).

    The cost is measured directly: each compile's recorded timer calls
    are replayed in a tight loop, and their total time is divided by the
    compile time with timing off.
    """
    triples, off, on = suite
    sequences = [_timer_calls(*triple) for triple in triples]

    def cost():
        return sum(_seconds_per_call(lambda: _replay_timer(calls))
                   for calls in sequences)

    ratios = _overhead_trials(benchmark, cost, sum(off))
    overhead = ratios[len(ratios) // 2]

    benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
    RESULTS["compiles_per_trial"] = 2 * REPEATS * len(triples)
    RESULTS["compile_seconds_timing_off"] = round(sum(off), 4)
    RESULTS["compile_seconds_timing_on"] = round(sum(on), 4)
    RESULTS["phase_timer_calls_per_compile"] = round(
        sum(map(len, sequences)) / len(sequences), 1)
    RESULTS["phase_timing_cost_ratio"] = round(overhead, 4)
    RESULTS["phase_timing_cost_trials"] = [round(r, 4) for r in ratios]

    # The acceptance bar: always-on telemetry must be a rounding error.
    assert overhead < MAX_OVERHEAD_RATIO, (
        f"phase timing cost {overhead:.2%} of compile time "
        f"(bar: {MAX_OVERHEAD_RATIO:.0%})")


def test_bench_span_recording_overhead(benchmark, suite):
    """Compile-time cost of span recording + phase bridging (< 2 %).

    What a worker job adds around each compile: a live parent span (the
    contextvar push/pop and the ring append) plus the compile/phase
    child spans ``record_compile_spans`` synthesizes from the result.
    Its direct cost per compile is divided by compile time with phase
    timing on (the default).
    """
    triples, _, on = suite
    recorder = SpanRecorder()
    results = [(program.name, SquareCompiler(machine, config).compile(program))
               for program, machine, config in triples]

    def spans(result):
        with recorder.span("job.run") as parent:
            record_compile_spans(parent, [result])

    def cost():
        return sum(_seconds_per_call(lambda: spans(result))
                   for result in results)

    ratios = _overhead_trials(benchmark, cost, sum(on))
    overhead = ratios[len(ratios) // 2]

    stats = recorder.stats()
    assert stats["recorded"] > 0  # spans really were recorded

    benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
    RESULTS["span_cost_ratio"] = round(overhead, 4)
    RESULTS["span_cost_trials"] = [round(r, 4) for r in ratios]
    RESULTS["spans_recorded"] = stats["recorded"]

    # ISSUE 9 acceptance bar: the waterfall must be cheap enough to
    # leave on for every job.
    assert overhead < MAX_OVERHEAD_RATIO, (
        f"span recording cost {overhead:.2%} of compile time "
        f"(bar: {MAX_OVERHEAD_RATIO:.0%})")


def _emit_job_events(events: EventLog) -> None:
    """The events a service job emits around its compile: worker pickup,
    both cache-tier consults, and the done record."""
    events.info("worker picked up job", component="worker",
                fields={"kind": "benchmark", "wait_seconds": 0.0})
    events.debug("cache.memory consulted", component="cache",
                 fields={"tier": "memory", "hits": 0, "misses": 1})
    events.debug("cache.disk consulted", component="cache",
                 fields={"tier": "disk", "lookups": 1, "hits": 0})
    events.info("job done", component="manager",
                fields={"kind": "benchmark", "entries": 1})


def test_bench_log_overhead(benchmark, suite):
    """Compile-time cost of structured event logging (< 2 %).

    Per job the event log adds four :meth:`EventLog.emit` calls, each
    pulling trace/tenant/job correlation off the active span and
    appending to the ring.  They are timed inside a live span, exactly
    as a worker runs them, and their cost per compile is divided by
    compile time with phase timing on (the default).
    """
    triples, _, on = suite
    recorder = SpanRecorder()
    events = EventLog()

    def cost():
        with recorder.span("job.run", labels={"job_id": "bench",
                                              "tenant": "bench"}):
            per_job = _seconds_per_call(lambda: _emit_job_events(events))
        return per_job * len(triples)

    ratios = _overhead_trials(benchmark, cost, sum(on))
    overhead = ratios[len(ratios) // 2]

    stats = events.stats()
    assert stats["recorded"] > 0  # events really were recorded

    benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
    RESULTS["log_cost_ratio"] = round(overhead, 4)
    RESULTS["log_cost_trials"] = [round(r, 4) for r in ratios]
    RESULTS["log_events_recorded"] = stats["recorded"]

    # ISSUE 10 acceptance bar: narrating every job must stay a
    # rounding error next to compiling it.
    assert overhead < MAX_OVERHEAD_RATIO, (
        f"event logging cost {overhead:.2%} of compile time "
        f"(bar: {MAX_OVERHEAD_RATIO:.0%})")
