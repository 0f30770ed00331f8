"""The ``nisq-small-noise`` workload: the Figure 8 pipeline, job by job.

Each job compiles one of the seven ``NISQ_BENCHMARKS`` on a fixed 5x5
lattice under one of {eager, lazy, square-laa, square} with the
schedule recorded and Toffolis kept, then runs ``verify_result``,
``to_circuit(physical=True)``, ``estimate_success`` and a seeded
2048-shot ``MonteCarloSimulator``.  No autosize retries happen and
routing is cheap, so this workload shows noise-layer and per-compile
fixed costs.  A pass is the 28 jobs in a seeded order with fresh
Monte Carlo seeds; every pass compiles the same programs, so counts per
pass repeat exactly.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.api import MachineSpec
from repro.core import SquareCompiler, preset
from repro.ir import flatten_program, simulate_classical
from repro.noise import MonteCarloSimulator, estimate_success, tvd_from_ideal
from repro.verify import verify_result
from repro.workloads import NISQ_BENCHMARKS, load_benchmark

from perfbench.compile_workloads import core_metrics
from perfbench.harness import (SpeedProbe, Tracer, geomean, ratio,
                               per_unit, percentile, self_peak_rss_mb,
                               tail_mean)

POLICIES = ("eager", "lazy", "square-laa", "square")
GRID = MachineSpec.nisq_grid(5, 5)
SHOTS = 2048
CHECK_INPUTS = 4
#: Traced client threads running jobs at once.
CONCURRENCY = 1

#: Programs from the synthetic generator whose compute blocks rewrite
#: their own inputs, so their entry outputs depend on where uncompute
#: runs.  Only policies that uncompute every call (eager reclamation)
#: have the flattened source as a policy-independent reference for them;
#: lazy and square change elsa-s's and belle-s's outputs by design.
SYNTHETIC = {"jasmine-s", "elsa-s", "belle-s"}
EAGER_RECLAIM = {"eager", "square-laa"}


class NoiseContext:
    def __init__(self, seed: int, tracer: Tracer,
                 benchmarks=tuple(NISQ_BENCHMARKS)) -> None:
        self.rng = random.Random(f"nisq-small-noise:{seed}")
        self.programs = {}
        for name in benchmarks:
            with tracer.span("workloads.load"):
                self.programs[name] = load_benchmark(name)
        self.jobs = [(name, policy) for name in self.programs
                     for policy in POLICIES]
        self.configs = {policy: preset(policy, record_schedule=True)
                        for policy in POLICIES}
        GRID.build()

    def close(self) -> None:
        pass


def setup(workload: str, seed: int, tracer: Tracer,
          cpu: int) -> NoiseContext:
    return NoiseContext(seed, tracer)


def draw_pass(ctx: NoiseContext) -> List[Tuple[str, str, int]]:
    jobs = [(name, policy, ctx.rng.randrange(1 << 31))
            for name, policy in ctx.jobs]
    ctx.rng.shuffle(jobs)
    return jobs


def run_job(ctx: NoiseContext, job: Tuple[str, str, int],
            tracer: Tracer) -> Dict[str, object]:
    name, policy, mc_seed = job
    record: Dict[str, object] = {"job": job}
    times = record["times"] = {}
    with tracer.span("job"):
        try:
            clock = time.perf_counter()
            with tracer.span("arch.build"):
                machine = GRID.build()
            times["build"] = time.perf_counter() - clock
            with tracer.span("core.compile") as parent:
                result = SquareCompiler(machine, ctx.configs[policy]).compile(
                    ctx.programs[name])
            if tracer.enabled:
                cursor = tracer.spans[parent][2] - result.compile_seconds
                for phase, seconds in result.phase_seconds.items():
                    tracer.add(f"core.phase.{phase}", cursor,
                               cursor + seconds, parent)
                    cursor += seconds
            times["compile"] = time.perf_counter() - clock - times["build"]
            clock = time.perf_counter()
            with tracer.span("verify.verify_result"):
                report = verify_result(result, machine=machine)
            times["verify"] = time.perf_counter() - clock
            clock = time.perf_counter()
            with tracer.span("ir.to_circuit"):
                circuit = result.to_circuit(physical=True)
            times["to_circuit"] = time.perf_counter() - clock
            clock = time.perf_counter()
            with tracer.span("noise.analytical"):
                success = estimate_success(result).total
            times["analytical"] = time.perf_counter() - clock
            clock = time.perf_counter()
            with tracer.span("noise.monte_carlo"):
                run = MonteCarloSimulator(seed=mc_seed).run(
                    circuit, shots=SHOTS,
                    measured_wires=result.entry_param_sites())
            times["mc"] = time.perf_counter() - clock
        except Exception as error:  # counted as a failed operation
            record["error"] = f"{type(error).__name__}: {error}"
            return record
    record.update(result=result, findings=len(report.findings),
                  skipped=[rule for rule, _ in report.skipped_rules],
                  checked_gates=report.checked_gates, success=success,
                  tvd=tvd_from_ideal(run), wall=sum(times.values()))
    return record


def measure(ctx: NoiseContext, tracer: Tracer, probe: SpeedProbe,
            seconds: float, share: float) -> Dict[str, object]:
    """Run whole passes until the next one would overrun ``share`` of
    ``seconds``."""
    seconds *= share
    records: List[Dict[str, object]] = []
    wall = 0.0
    passes = 0
    rss = 0.0  # peak after one pass, whatever the pass count
    probe.mark()
    while True:
        pass_time = 0.0
        for job in draw_pass(ctx):
            record = run_job(ctx, job, tracer)
            if "wall" in record:
                record.update(probe=probe.mark(), unit=passes)
                pass_time += record["wall"]
            records.append(record)
        wall += pass_time
        passes += 1
        rss = rss or self_peak_rss_mb()
        if wall + pass_time > seconds:
            break
    for record in records:
        if "wall" in record:
            record["scaled"] = record["wall"] * probe.scale(record["probe"])
    return {"records": records, "wall": wall, "rss": rss, "units": passes}


def outputs_match(program, result, rng: random.Random) -> bool:
    """Entry outputs of the compiled circuit equal the flattened source's."""
    entry = program.entry
    flat = flatten_program(program)
    circuit = result.to_circuit()
    inputs, outputs = len(entry.inputs), len(entry.outputs)
    for _ in range(CHECK_INPUTS):
        bits = [rng.randint(0, 1) for _ in range(inputs)] + [0] * outputs
        compiled = simulate_classical(circuit, bits)
        source = simulate_classical(flat.circuit,
                                    dict(zip(flat.param_wires, bits)))
        if any(compiled[inputs + i] != source[flat.param_wires[inputs + i]]
               for i in range(outputs)):
            return False
    return True


def check(ctx: NoiseContext, runs: Sequence[Dict[str, object]],
          tracer: Tracer, seed: int):
    """Correctness gate: no error, every verifier rule run with no
    finding, deterministic compiles, and classical equivalence with the
    flattened source.  Returns ``(attempted, failures, per-layer
    metrics)``."""
    records = [record for run in runs for record in run["records"]]
    rng = random.Random(f"nisq-small-noise-check:{seed}")
    failures: List[str] = []
    first: Dict[Tuple[str, str], object] = {}
    equivalence_checks = 0
    for record in records:
        if record.get("error"):
            failures.append(f"{record['job']}: {record['error']}")
            continue
        name, policy, _ = record["job"]
        if record["findings"] or record["skipped"]:
            failures.append(f"{record['job']}: verifier findings or "
                            f"skipped rules {record['skipped']}")
            continue  # one failure per job at most
        key = (name, policy)
        if key in first:
            if first[key].to_dict() != record["result"].to_dict() | {
                    "compile_seconds": first[key].compile_seconds}:
                failures.append(f"{key}: compile output changed between passes")
            continue
        first[key] = record["result"]
        if name in SYNTHETIC and policy not in EAGER_RECLAIM:
            continue
        equivalence_checks += 1
        with tracer.span("ir.classical_sim"):
            try:
                if not outputs_match(ctx.programs[name], record["result"],
                                     rng):
                    failures.append(f"{key}: entry outputs differ from the "
                                    f"source")
            except Exception as error:  # a malformed circuit fails the gate
                failures.append(f"{key}: {type(error).__name__}: {error}")
    return len(records), failures, {
        "ir.equivalence_checks": equivalence_checks}


def end_to_end(measured: Dict[str, object]) -> Dict[str, float]:
    records = [r for r in measured["records"] if not r.get("error")]
    walls = [r["scaled"] for r in records]
    wall = sum(walls)
    by_key: Dict[str, Dict[str, object]] = {}
    for r in records:
        name, policy, _ = r["job"]
        by_key.setdefault(name, {})[policy] = r["result"]
    return {
        "jobs_per_s": len(measured["records"]) / wall,
        "p50_ms": per_unit(records, lambda t: percentile(t, 50)) * 1e3,
        "tail_ms": per_unit(records, tail_mean) * 1e3,
        "routed_gates_per_s": sum(r["result"].total_gate_count
                                  for r in records) / wall,
        "aqv_ratio_square_vs_lazy": geomean(
            ratio(v["square"].active_quantum_volume,
                  v["lazy"].active_quantum_volume)
            for v in by_key.values() if "square" in v and "lazy" in v),
        "peak_rss_mb": measured["rss"],
        "samples": len(walls),
    }


def layer_metrics(measured: Dict[str, object]) -> Dict[str, float]:
    records = [r for r in measured["records"] if not r.get("error")]
    units = measured["units"]
    total = {key: sum(r["times"][key] for r in records)
             for key in ("build", "verify", "to_circuit", "analytical", "mc")}
    success: Dict[str, Dict[str, float]] = {}
    tvd = []
    for r in records:
        name, policy, _ = r["job"]
        success.setdefault(name, {})[policy] = r["success"]
        if policy == "square":
            tvd.append(r["tvd"])
    out = core_metrics([r["result"] for r in records], units)
    out.update({
        "arch.build_s": total["build"] / units,
        "arch.builds": len(records) / units,
        "verify.verify_s": total["verify"] / units,
        "verify.gates_per_s": ratio(sum(r["checked_gates"] for r in records),
                                    total["verify"]),
        "ir.to_circuit_s": total["to_circuit"] / units,
        "noise.analytical_s": total["analytical"] / units,
        "noise.mc_s": total["mc"] / units,
        "noise.shots_per_s": ratio(SHOTS * len(records), total["mc"]),
        "noise.success_ratio_square_vs_eager": geomean(
            ratio(v["square"], v["eager"]) for v in success.values()
            if "square" in v and "eager" in v),
        "noise.tvd_mean_square": sum(tvd) / len(tvd) if tvd else 0.0,
    })
    return out
