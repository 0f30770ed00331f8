"""Benchmark: the compile path itself, profiled phase by phase.

Writes ``.bench_build/BENCH_compile.json`` — the first artifact of
the compile perf trajectory.  Every entry pairs a phase's wall seconds
with the machine-independent work counter that phase chewed through
(:mod:`repro.profile`), so the headline unit is **throughput** —
gates/sec through allocation, segments/sec through liveness — which is
comparable across the machines that run this suite, unlike raw
seconds.

The ladder is the same registry cross-section the telemetry bench uses:
small oracles on a fixed 5x5 lattice plus quick-scale wide arithmetic
on a 256-qubit machine, under all three reuse policies.  Compiles run
fresh and in-process (never through a cache), because phase timings are
telemetry that deliberately does not survive serialization.
"""

from __future__ import annotations

import pytest

from repro.api import MachineSpec
from repro.profile import PHASE_WORK, ProfileReport, profile_benchmarks

from benchmarks.conftest import emit_bench, run_once

SMALL = ("RD53", "6SYM", "2OF5", "ADDER4")
LARGE = ("ADDER32", "MUL32")
POLICIES = ("eager", "lazy", "square")
GRID = MachineSpec.nisq_grid(5, 5)
BIG = MachineSpec(kind="nisq", num_qubits=256)

#: Filled by the tests, flushed to ``BENCH_compile.json`` on teardown.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Flush ``RESULTS`` as a versioned record after the module runs."""
    yield
    emit_bench("compile", RESULTS)


def _ladder() -> ProfileReport:
    """Profile the whole ladder: SMALL on the lattice, LARGE at quick
    scale on the big machine, every policy."""
    small = profile_benchmarks(SMALL, GRID, policies=POLICIES,
                               scale="quick")
    large = profile_benchmarks(LARGE, BIG, policies=POLICIES,
                               scale="quick")
    return ProfileReport(list(small) + list(large))


def test_bench_compile_path(benchmark):
    """Profile the paper-scale ladder; emit per-phase gates/sec."""
    _ladder()  # warm caches of everything but the compiles themselves

    report = run_once(benchmark, _ladder)
    assert len(report) == (len(SMALL) + len(LARGE)) * len(POLICIES)

    # Every profile carries every pipeline phase with live timings and
    # non-trivial deterministic work counters.
    for profile in report:
        assert set(profile.phase_seconds) == set(PHASE_WORK), profile.label
        assert profile.counters["gates"] > 0, profile.label
        assert profile.counters["liveness_events"] > 0, profile.label

    # Fleet throughput per phase: total work over total seconds.
    totals = report.phase_totals()
    work = {phase: sum(profile.phase_work(phase) for profile in report)
            for phase in totals}
    rates = {phase: round(work[phase] / seconds, 1) if seconds > 0
             else float(work[phase])
             for phase, seconds in totals.items()}
    assert all(rate > 0 for rate in rates.values())

    benchmark.extra_info["jobs"] = len(report)
    benchmark.extra_info["total_compile_seconds"] = round(
        report.total_seconds(), 4)
    RESULTS["jobs"] = len(report)
    RESULTS["total_compile_seconds"] = round(report.total_seconds(), 4)
    RESULTS["phase_seconds"] = {phase: round(seconds, 6)
                                for phase, seconds in totals.items()}
    RESULTS["phase_work"] = work
    RESULTS["phase_rates_per_second"] = rates
    RESULTS["hotspots_top5"] = [
        {"label": row["label"], "phase": row["phase"],
         "seconds": round(row["seconds"], 6),
         "share": round(row["share"], 4),
         "rate_per_second": round(row["rate"], 1)}
        for row in report.hotspots(top=5)
    ]
    RESULTS["profiles"] = [profile.to_dict() for profile in report]
