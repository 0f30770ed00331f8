"""Serial in-process compile workloads: ``nisq-lattice`` and ``ft-braid``.

Both compile the same jobs — six large benchmarks x {eager, lazy,
square} — each on a machine grown by ``repro.api.autosize_compile``
from fresh ``MachineSpec.build`` machines, with no result cache.  On
NISQ lattices swap routing carries most of the cost; on FT machines it
does no work (zero swaps) while allocation and braiding still do, so a
routing optimisation is predicted to leave ``ft-braid`` unchanged.

A run is a whole number of *blocks*.  A block is two passes over the
18 jobs; each benchmark's size knob takes its two values (one step
below and at the base size) once per block, in a seeded rotation, and
each pass runs its jobs in a seeded order.  Every block
therefore holds the same compile work whatever the seed, so the seed
moves the order and the per-pass sizes but not the throughput or the
quality ratios.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import MachineSpec, autosize_compile
from repro.core import POLICY_PRESETS, SquareCompiler, preset
from repro.verify import verify_result
from repro.workloads import load_benchmark

from perfbench.harness import (SpeedProbe, Tracer, geomean, ratio,
                               per_unit, percentile, self_peak_rss_mb,
                               tail_mean)

#: Traced client threads running jobs at once.
CONCURRENCY = 1

#: benchmark -> (size knob, base value, fixed overrides).  Sizes sit
#: between the registry's quick and laptop scales so that one block fits
#: a run of the benchmark's time budget; ``None`` marks a benchmark
#: without a size knob (the synthetic Belle program).
JOB_SIZES: Dict[str, Optional[Tuple[str, int, Dict[str, int]]]] = {
    "ADDER64": ("width", 64, {}),
    "MUL32": ("width", 8, {}),
    "MODEXP": ("exponent_bits", 3, {"width": 4}),
    "SHA2": ("word_width", 8, {"rounds": 2}),
    "SALSA20": ("word_width", 6, {"rounds": 1}),
    "Belle": None,
}
POLICIES = ("eager", "lazy", "square")
#: Size steps from the base value; a block runs each once per benchmark.
STEPS = (-1, 0)
BLOCK_JOBS = len(JOB_SIZES) * len(POLICIES) * len(STEPS)
PHASES = ("validate", "allocation", "mapping_routing", "reclamation",
          "liveness")

Job = Tuple[str, Tuple[Tuple[str, int], ...], str]


def job_overrides(benchmark: str, step: int) -> Tuple[Tuple[str, int], ...]:
    size = JOB_SIZES[benchmark]
    if size is None:
        return ()
    knob, base, fixed = size
    overrides = dict(fixed)
    overrides[knob] = base + step
    return tuple(sorted(overrides.items()))


def all_programs() -> List[Tuple[str, Tuple[Tuple[str, int], ...]]]:
    keys = []
    for benchmark in JOB_SIZES:
        for step in (STEPS if JOB_SIZES[benchmark] else (0,)):
            keys.append((benchmark, job_overrides(benchmark, step)))
    return keys


def draw_block(rng: random.Random) -> List[Job]:
    """One block: a pass per size step, rotated, each pass shuffled."""
    offsets = {benchmark: rng.randrange(len(STEPS)) for benchmark in JOB_SIZES}
    block: List[Job] = []
    for rotation in range(len(STEPS)):
        pass_jobs = [
            (benchmark,
             job_overrides(benchmark,
                           STEPS[(offsets[benchmark] + rotation) % len(STEPS)]),
             policy)
            for benchmark in JOB_SIZES for policy in POLICIES]
        rng.shuffle(pass_jobs)
        block.extend(pass_jobs)
    return block


class CompileContext:
    """Set-up state: loaded programs, the machine spec and the seeded draw."""

    def __init__(self, workload: str, seed: int, tracer: Tracer) -> None:
        self.spec = (MachineSpec.nisq_autosize() if workload == "nisq-lattice"
                     else MachineSpec.ft_autosize())
        self.rng = random.Random(f"{workload}:{seed}")
        self.programs = {}
        for benchmark, overrides in all_programs():
            with tracer.span("workloads.load"):
                self.programs[(benchmark, overrides)] = load_benchmark(
                    benchmark, **dict(overrides))
        # Warm the import-time and first-call paths outside the timed run.
        self.spec.build(self.spec.start_qubits)

    def close(self) -> None:
        pass


def setup(workload: str, seed: int, tracer: Tracer,
          cpu: int) -> CompileContext:
    return CompileContext(workload, seed, tracer)


def run_job(ctx: CompileContext, job: Job, tracer: Tracer) -> Dict[str, object]:
    benchmark, overrides, policy = job
    program = ctx.programs[(benchmark, overrides)]
    spec = ctx.spec
    builds: List[Tuple[int, float, float]] = []

    def machine_for(qubits: int):
        started = time.perf_counter()
        machine = spec.build(qubits)
        builds.append((qubits, started, time.perf_counter()))
        return machine

    record: Dict[str, object] = {"job": job}
    with tracer.span("job"):
        with tracer.span("api.autosize_compile") as parent:
            started = time.perf_counter()
            try:
                result = autosize_compile(program, machine_for,
                                          POLICY_PRESETS[policy],
                                          start_qubits=spec.start_qubits,
                                          max_qubits=spec.max_qubits)
            except Exception as error:  # counted as a failed operation
                record["error"] = f"{type(error).__name__}: {error}"
                result = None
            finished = time.perf_counter()
    record.update(result=result, wall=finished - started, builds=builds,
                  started=started, finished=finished)
    if tracer.enabled and result is not None:
        trace_attempts(tracer, record, parent)
    return record


def trace_attempts(tracer: Tracer, record: Dict[str, object],
                   parent: int) -> None:
    """Rebuild build/attempt/phase spans from the recorded build times."""
    builds = record["builds"]
    for index, (_, start, end) in enumerate(builds):
        tracer.add("arch.build", start, end, parent)
        if index + 1 < len(builds):
            tracer.add("core.compile.failed_attempt", end,
                       builds[index + 1][1], parent)
    final = tracer.add("core.compile", builds[-1][2], record["finished"],
                       parent)
    cursor = builds[-1][2]
    for name, seconds in record["result"].phase_seconds.items():
        tracer.add(f"core.phase.{name}", cursor, cursor + seconds, final)
        cursor += seconds


def measure(ctx: CompileContext, tracer: Tracer, probe: SpeedProbe,
            seconds: float, share: float) -> Dict[str, object]:
    """Run whole blocks until the next one would overrun ``share`` of
    ``seconds``."""
    seconds *= share
    records: List[Dict[str, object]] = []
    wall = 0.0
    rss = 0.0  # peak after one block, whatever the block count
    probe.mark()
    while True:
        block_time = 0.0
        unit = len(records) // BLOCK_JOBS
        for job in draw_block(ctx.rng):
            record = run_job(ctx, job, tracer)
            record.update(probe=probe.mark(), unit=unit)
            block_time += record["wall"]
            records.append(record)
        wall += block_time
        rss = rss or self_peak_rss_mb()
        if wall + block_time > seconds:
            break
    for record in records:
        record["scaled"] = record["wall"] * probe.scale(record["probe"])
    return {"records": records, "wall": wall, "rss": rss,
            "units": len(records) // BLOCK_JOBS}


def recompile(ctx: CompileContext, job: Job, qubits: int):
    """Compile ``job`` once more on the machine size autosize settled on,
    recording the gate stream; returns ``(machine, result)``."""
    benchmark, overrides, policy = job
    machine = ctx.spec.build(qubits)
    config = preset(policy, record_schedule=True)
    return machine, SquareCompiler(machine, config).compile(
        ctx.programs[(benchmark, overrides)])


def _summary(result) -> Dict[str, object]:
    """The result as data, without the gate stream and the wall clock."""
    return {key: value for key, value in result.to_dict().items()
            if key not in ("scheduled_gates", "compile_seconds")}


def schedule_problem(machine, recorded, report, timed) -> Optional[str]:
    """What is wrong with a job's recorded recompile, or ``None``.

    The recompile must match every timed result of the job outside the
    gate stream, and ``verify_result`` must run every rule on it (RV003
    may skip only where the machine does not route by swaps) with no
    finding.
    """
    problems = []
    allowed = set() if machine.communication == "swap" else {"RV003"}
    skipped = sorted({rule for rule, _ in report.skipped_rules} - allowed)
    if skipped:
        problems.append(f"rules skipped {skipped}")
    if report.findings:
        problems.append(f"findings {sorted({d.rule for d in report.findings})}")
    expected = _summary(recorded)
    if any(_summary(result) != expected for result in timed):
        problems.append("timed result differs from the recorded recompile")
    return "; ".join(problems) or None


def checked_step(benchmark: str, seed: int) -> int:
    """The size step whose jobs get the full check in a run of ``seed``;
    any two consecutive seeds cover every step of every benchmark."""
    return STEPS[(seed + list(JOB_SIZES).index(benchmark)) % len(STEPS)]


def check(ctx: CompileContext, runs: Sequence[Dict[str, object]],
          tracer: Tracer, seed: int):
    """Correctness gate, after the timed blocks.

    Every timed job must have compiled and pass ``verify_result`` (which
    checks counts and accounting only, as the timed compiles record no
    gate stream).  Each benchmark x policy, at the size
    :func:`checked_step` picks, is then compiled once more with its
    stream recorded and must pass :func:`schedule_problem`, which covers
    liveness, mapping and swap adjacency.  (Recompiling every size
    would cost about as much as a timed block.)  Returns ``(attempted,
    failures, per-layer metrics)``.
    """
    records = [record for run in runs for record in run["records"]]
    failures: List[str] = []
    timed: Dict[Job, List[Dict[str, object]]] = {}
    for record in records:
        if record.get("error"):
            failures.append(f"{record['job']}: {record['error']}")
            continue
        with tracer.span("verify.verify_result"):
            report = verify_result(record["result"])
        if report.findings:
            failures.append(f"{record['job']}: "
                            f"{[d.rule for d in report.findings]}")
        benchmark, overrides, _ = record["job"]
        if overrides == job_overrides(benchmark,
                                      checked_step(benchmark, seed)):
            timed.setdefault(record["job"], []).append(record)
    verify_s = 0.0
    checked_gates = 0
    for job, group in timed.items():
        with tracer.span("core.compile.recorded"):
            qubits = group[0]["builds"][-1][0]
            machine, recorded = recompile(ctx, job, qubits)
        with tracer.span("verify.verify_result"):
            report = verify_result(recorded, machine=machine)
        verify_s += report.verify_seconds
        checked_gates += report.checked_gates
        problem = schedule_problem(machine, recorded, report,
                                   [record["result"] for record in group])
        if problem:
            failures.append(f"{job}: {problem}")
    return len(records) + len(timed), failures, {
        "verify.verify_s": verify_s,
        "verify.gates_per_s": ratio(checked_gates, verify_s)}


def end_to_end(measured: Dict[str, object]) -> Dict[str, float]:
    records = measured["records"]
    walls = [r["scaled"] for r in records]
    wall = sum(walls)
    ok = [r for r in records if r.get("result") is not None]
    routed = sum(r["result"].total_gate_count for r in ok)
    aqv: Dict[Tuple[str, tuple], Dict[str, int]] = {}
    for r in ok:
        benchmark, overrides, policy = r["job"]
        aqv.setdefault((benchmark, overrides), {})[policy] = \
            r["result"].active_quantum_volume
    return {
        "jobs_per_s": len(records) / wall,
        "p50_ms": per_unit(records, lambda t: percentile(t, 50)) * 1e3,
        "tail_ms": per_unit(records, tail_mean) * 1e3,
        "routed_gates_per_s": routed / wall,
        "aqv_ratio_square_vs_lazy": geomean(
            ratio(v["square"], v["lazy"]) for v in aqv.values()
            if "square" in v and "lazy" in v),
        "peak_rss_mb": measured["rss"],
        "samples": len(walls),
    }


def core_metrics(results, units: int) -> Dict[str, float]:
    """Compiler-layer counts and phase seconds per block (or pass).

    Every block compiles the same jobs, so the counts repeat exactly.
    """
    phase = {name: sum(result.phase_seconds.get(name, 0.0)
                       for result in results) for name in PHASES}
    gates = sum(result.gate_count for result in results)
    swaps = sum(result.swap_count for result in results)
    decisions = sum(result.num_reclamation_points for result in results)
    per_unit = {
        "core.compile_s": sum(result.compile_seconds for result in results),
        "scheduler.gates": gates,
        "scheduler.swaps": swaps,
        "scheduler.depth": sum(result.circuit_depth for result in results),
        "core.qubits_used": sum(result.num_qubits_used for result in results),
        "core.reclaim_decisions": decisions,
        "core.reclaimed": sum(result.num_reclaimed for result in results),
        "core.uncompute_gates": sum(result.uncompute_gate_count
                                    for result in results),
    }
    for name in PHASES:
        per_unit[f"core.phase.{name}_s"] = phase[name]
    out = {name: value / units for name, value in per_unit.items()}
    out["core.phase.allocation.gates_per_s"] = ratio(gates,
                                                     phase["allocation"])
    out["core.phase.mapping_routing.routed_gates_per_s"] = ratio(
        gates + swaps, phase["mapping_routing"])
    out["core.phase.reclamation.ops_per_s"] = ratio(decisions,
                                                    phase["reclamation"])
    return out


def layer_metrics(measured: Dict[str, object]) -> Dict[str, float]:
    """Autosize, machine-build and compiler metrics per block."""
    ok = [r for r in measured["records"] if r.get("result") is not None]
    units = measured["units"]
    builds = [b for r in ok for b in r["builds"]]
    out = core_metrics([r["result"] for r in ok], units)
    out["arch.build_s"] = sum(end - start
                              for _, start, end in builds) / units
    out["arch.builds"] = len(builds) / units
    out["api.autosize_attempts"] = len(builds) / units
    out["api.autosize_wasted_s"] = sum(r["builds"][-1][1] - r["started"]
                                       for r in ok) / units
    out["api.autosize_useful_ratio"] = ratio(
        sum(r["result"].compile_seconds for r in ok),
        sum(r["wall"] for r in ok))
    return out
