"""Tests of the benchmark itself: seeded draws, repeatable counts and the
correctness gate.  They run small slices of each workload, not the
timed runs."""

from __future__ import annotations

import json
import random
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

from repro.api import CompileJob, execute_job_payload
from repro.verify import applicable_mutations, apply_mutation, verify_result

from perfbench import compile_workloads, noise_workload, service_workload
from perfbench.harness import SpeedProbe, Tracer

ROOT = Path(__file__).resolve().parents[2]
OFF = Tracer(False)


def _adder_slice(seed: int, policy: str = None):
    """Run the ADDER64 jobs of one nisq-lattice block (a cheap slice)."""
    ctx = compile_workloads.setup("nisq-lattice", seed, OFF, 0)
    jobs = [job for job in compile_workloads.draw_block(ctx.rng)
            if job[0] == "ADDER64" and policy in (None, job[2])]
    records = [compile_workloads.run_job(ctx, job, OFF) for job in jobs]
    return ctx, jobs, records


def _noise_pass(seed: int):
    ctx = noise_workload.NoiseContext(seed, OFF, benchmarks=("RD53", "2OF5"))
    measured = noise_workload.measure(ctx, OFF, SpeedProbe([0]), 0.0, 1.0)
    return ctx, measured


def test_same_seed_repeats_counts_and_quality():
    _, jobs_a, records_a = _adder_slice(3)
    _, jobs_b, records_b = _adder_slice(3)
    assert jobs_a == jobs_b
    first = compile_workloads.core_metrics([r["result"] for r in records_a], 1)
    second = compile_workloads.core_metrics([r["result"] for r in records_b], 1)
    counts = [name for name in first if not name.endswith("_s")]
    assert counts
    for name in counts:
        assert first[name] == second[name], name

    _, noise_a = _noise_pass(5)
    _, noise_b = _noise_pass(5)
    layers_a = noise_workload.layer_metrics(noise_a)
    layers_b = noise_workload.layer_metrics(noise_b)
    for name in ("scheduler.gates", "scheduler.swaps", "core.reclaimed",
                 "noise.success_ratio_square_vs_eager",
                 "noise.tvd_mean_square"):
        assert layers_a[name] == layers_b[name], name
    assert (noise_workload.end_to_end(noise_a)["aqv_ratio_square_vs_lazy"]
            == noise_workload.end_to_end(noise_b)["aqv_ratio_square_vs_lazy"])


def test_different_seed_changes_the_draw():
    block = compile_workloads.draw_block
    assert block(random.Random("nisq-lattice:1")) != block(
        random.Random("nisq-lattice:2"))
    # The rotation keeps every block's job multiset seed-independent.
    assert sorted(block(random.Random("a"))) == sorted(
        block(random.Random("b")))
    seq_1, disk_1 = service_workload.draw_sequence(1)
    seq_2, disk_2 = service_workload.draw_sequence(2)
    assert [kind for kind, _ in seq_1] != [kind for kind, _ in seq_2]
    assert Counter(kind for kind, _ in seq_1) == service_workload.COUNTS
    assert {j.fingerprint() for j in disk_1} != {j.fingerprint()
                                                 for j in disk_2}
    _, noise_a = _noise_pass(5)
    _, noise_b = _noise_pass(6)
    assert [r["job"] for r in noise_a["records"]] != [
        r["job"] for r in noise_b["records"]]


def test_mutated_result_trips_the_gate():
    ctx, _, records = _adder_slice(3, policy="square")
    run = {"records": records}
    attempted, failures, _ = compile_workloads.check(ctx, [run], OFF, 3)
    # Every timed job, plus one recorded recompile at the checked size.
    assert attempted == len(records) + 1 and failures == []
    result = records[0]["result"]
    mutated = apply_mutation(result, applicable_mutations(result)[0])
    bad = {"records": [dict(records[0], result=mutated)] + records[1:]}
    _, failures, _ = compile_workloads.check(ctx, [bad], OFF, 3)
    assert failures

    ctx, measured = _noise_pass(5)
    _, failures, extra = noise_workload.check(ctx, [measured], OFF, seed=5)
    assert failures == [] and extra["ir.equivalence_checks"] > 0
    record = measured["records"][0]
    result = record["result"]
    mutated = apply_mutation(result, "unknown-gate")
    measured["records"][0] = dict(record, result=mutated)
    _, failures, _ = noise_workload.check(ctx, [measured], OFF, seed=5)
    assert failures


def test_routing_error_in_the_recorded_stream_trips_the_gate(monkeypatch):
    """A non-adjacent two-qubit gate keeps every count, so only the
    recorded recompile's swap-adjacency rule (RV003) can catch it."""
    ctx, _, records = _adder_slice(3, policy="square")
    recompile = compile_workloads.recompile

    def misrouted(ctx, job, qubits):
        machine, result = recompile(ctx, job, qubits)
        return machine, apply_mutation(result, "nonadjacent-gate")

    monkeypatch.setattr(compile_workloads, "recompile", misrouted)
    _, failures, _ = compile_workloads.check(ctx, [{"records": records}],
                                             OFF, 3)
    assert len(failures) == 1 and "RV003" in failures[0]


def test_unrecorded_stream_fails_the_schedule_check():
    """A result without its gate stream skips RV001-RV003: that fails."""
    ctx, _, records = _adder_slice(3, policy="square")
    result = records[0]["result"]
    machine = ctx.spec.build(records[0]["builds"][-1][0])
    report = verify_result(result, machine=machine)
    problem = compile_workloads.schedule_problem(machine, result, report,
                                                 [result])
    assert problem and "RV001" in problem and "RV003" in problem


def test_service_gate_compares_replies_with_in_process_results():
    job = service_workload.HOT[0]
    reply = execute_job_payload(CompileJob.from_dict(job.to_dict()))
    reply["result"]["compile_seconds"] = 123.0  # wall clock is ignored
    sample = {"kind": "hit", "job": job, "response": reply, "latency": 0.0}
    check = service_workload.check
    assert check(None, [{"samples": [sample]}], OFF, 1) == (1, [], {})
    tampered = json.loads(json.dumps(reply))
    result = tampered["result"]
    result["swap_count"] += 1
    bad = dict(sample, response=tampered)
    assert len(check(None, [{"samples": [bad]}], OFF, 1)[1]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nisq-lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert run.stdout == ""
