"""Benchmark: static-verifier throughput and overhead vs compile time.

Writes ``.bench_build/BENCH_verify.json`` with the headline numbers
the verifier's acceptance gate cares about:

* **verifier gates/sec** — scheduled-gate events checked per second of
  verification (one linear pass over the recorded schedule, segments
  and mapping replay);
* **verify overhead ratio** — total verification time divided by total
  compile time over the same results, each the fastest of a few
  interleaved runs.
  The verifier only earns its place as an always-on safety net if this
  stays a small fraction; the acceptance bar is < 20 %, asserted here.

The measured sweep compiles a cross-section of the registry (small
oracles through mid-size arithmetic) under all three reclamation
policies with ``record_schedule=True``, so the verifier runs at full
rule coverage (RV001-RV006) and every report must come back clean.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Session, SweepSpec
from repro.verify import verify_result

from benchmarks.conftest import emit_bench, run_once

#: Registry cross-section: the three small oracles plus mid-size
#: arithmetic — big enough for tens of thousands of scheduled events.
BENCHMARKS = ("RD53", "6SYM", "2OF5", "ADDER4", "ADDER32", "MUL32")
POLICIES = ("eager", "lazy", "square")

#: Acceptance bar: verification must cost less than this fraction of
#: compile time (ISSUE 7 criterion).
MAX_OVERHEAD_RATIO = 0.20

#: Timed runs per side; the fastest is kept.
REPEATS = 5

#: Filled by the test, flushed to ``BENCH_verify.json`` on teardown.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Flush ``RESULTS`` as a versioned record after the module runs."""
    yield
    emit_bench("verify", RESULTS)


def _compile_suite():
    """Compile the measured sweep, returning (results, compile_seconds)."""
    spec = (SweepSpec()
            .with_benchmarks(*BENCHMARKS)
            .with_policies(*POLICIES)
            .with_scales("quick")
            .with_config(record_schedule=True))
    session = Session()
    started = time.perf_counter()
    sweep = session.run(spec)
    compile_seconds = time.perf_counter() - started
    assert sweep.ok, sweep.failures()
    return sweep.results(), compile_seconds


def _verify_all(results):
    """One full verification pass over every compiled result."""
    return [verify_result(result) for result in results]


def _best_of_repeats():
    """Compile the sweep and verify its results ``REPEATS`` times, each
    verification right after its compile so host-speed drift hits both
    sides alike; returns the reports and both sides' fastest seconds."""
    compile_seconds = verify_seconds = float("inf")
    for _ in range(REPEATS):
        results, seconds = _compile_suite()
        compile_seconds = min(compile_seconds, seconds)
        started = time.perf_counter()
        reports = _verify_all(results)
        verify_seconds = min(verify_seconds, time.perf_counter() - started)
    return reports, compile_seconds, verify_seconds


def test_bench_verifier_overhead(benchmark):
    """Verifier gates/sec and verify-vs-compile overhead ratio.

    Both sides are the fastest of ``REPEATS`` interleaved runs, so one
    scheduler hiccup on either side cannot fake a breach of the bar.
    """
    reports, compile_seconds, verify_seconds = run_once(benchmark,
                                                        _best_of_repeats)

    for report in reports:
        assert not report.findings, report.summary()
        assert not report.skipped_rules, report.skipped_rules

    checked_gates = sum(report.checked_gates for report in reports)
    gates_per_second = checked_gates / verify_seconds
    overhead = verify_seconds / compile_seconds

    benchmark.extra_info["gates_per_second"] = round(gates_per_second, 1)
    benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
    RESULTS["results_verified"] = len(reports)
    RESULTS["checked_gates"] = checked_gates
    RESULTS["verify_gates_per_second"] = round(gates_per_second, 1)
    RESULTS["compile_seconds"] = round(compile_seconds, 3)
    RESULTS["verify_seconds"] = round(verify_seconds, 3)
    RESULTS["verify_overhead_ratio"] = round(overhead, 4)

    # The acceptance bar: a safety net must stay a small fraction of
    # the work it guards.
    assert overhead < MAX_OVERHEAD_RATIO, (
        f"verification cost {overhead:.1%} of compile time "
        f"(bar: {MAX_OVERHEAD_RATIO:.0%})")
