"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nisq-lattice --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice (untraced, then with benchmark-side
spans) and prints the per-layer metrics, writing the spans to
``.perfbench_out/``.  The last stdout line is the result object; the
line before it records the seed, host fingerprint and sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Workload -> module.  Every module has the same interface:
#: ``setup(workload, seed, tracer, cpu)`` returns a context with
#: ``close()``; ``measure(ctx, tracer, probe, seconds, share)`` runs
#: ``share`` of a run; ``check(ctx, runs, tracer, seed)`` returns
#: ``(attempted, failures, per-layer metrics)``; ``end_to_end`` and
#: ``layer_metrics`` read one measurement; ``CONCURRENCY`` counts the
#: threads that run jobs at once.
WORKLOADS = {
    "nisq-lattice": "perfbench.compile_workloads",
    "ft-braid": "perfbench.compile_workloads",
    "nisq-small-noise": "perfbench.noise_workload",
    "service-mix": "perfbench.service_workload",
}
#: Spans whose self time the traced run reports as ``self.<span>_s``.
SELF_SPANS = ("api.autosize_compile", "core.compile",
              "core.compile.failed_attempt", "arch.build",
              "verify.verify_result", "noise.monte_carlo", "client.request")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench.harness import (SpeedProbe, Tracer, host_fingerprint,
                                   metric, pin, timed_median)

    spec = load_spec()
    module = importlib.import_module(WORKLOADS[workload])
    # Pin this process (and the threads it starts) to one CPU and the
    # service's server to another, so the speed probe samples exactly the
    # CPUs the work runs on.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else [0]
    own_cpu, server_cpu = cpus[-1], cpus[0]
    host = host_fingerprint()
    pin(0, own_cpu)
    probe = SpeedProbe([server_cpu, own_cpu] if workload == "service-mix"
                       else [own_cpu])
    off = Tracer(False)
    tracer = Tracer(True) if traced else off
    if traced:
        started = time.perf_counter()
        ctx = module.setup(workload, seed, tracer, server_cpu)
        setup_s = time.perf_counter() - started
    else:
        setup_s, ctx = timed_median(
            lambda: module.setup(workload, seed, off, server_cpu), probe)
    try:
        if traced:
            # Half the run untraced, half traced, for the overhead ratio.
            base = module.measure(ctx, off, probe, seconds, 0.5)
            started = time.perf_counter()
            measured = module.measure(ctx, tracer, probe, seconds, 0.5)
            traced_wall = time.perf_counter() - started
            runs = [base, measured]
        else:
            measured = module.measure(ctx, off, probe, seconds, 1.0)
            runs = [measured]
        attempted, failures, extra = module.check(ctx, runs, tracer, seed)
    finally:
        ctx.close()

    e2e = module.end_to_end(measured)
    samples = e2e.pop("samples")
    e2e["setup_s"] = setup_s
    e2e["correct_ratio"] = 1.0 - len(failures) / attempted
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(traced), "host": host,
            "cpus": {"benchmark": own_cpu, "server": server_cpu},
            "samples": samples, "failures": failures[:20],
            "raw_jobs_per_s": len(measured.get("records")
                                  or measured.get("samples"))
            / measured["wall"],
            "kernel_median_s": statistics.median(probe.samples)}
    if traced:
        layers = {m["name"]: 0.0 for m in spec["per_layer"]}
        found = module.layer_metrics(measured)
        found.update(extra)
        selfs = tracer.self_times()
        units = measured.get("units", 1)
        found["workloads.load_s"] = selfs.get("workloads.load", 0.0)
        for name in SELF_SPANS:
            found[f"self.{name}_s"] = selfs.get(name, 0.0) / units
        base_rate = module.end_to_end(base)["jobs_per_s"]
        found["trace.overhead_ratio"] = base_rate / e2e["jobs_per_s"]
        # Each concurrent thread covers the wall once.
        found["trace.coverage_ratio"] = (tracer.root_time("job")
                                         / module.CONCURRENCY / traced_wall)
        found["trace.spans"] = len(tracer.spans)
        unknown = sorted(set(found) - set(layers))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        layers.update(found)
        chosen = {m["name"]: metric(layers[m["name"]], m["unit"])
                  for m in spec["per_layer"]}
        info["self_seconds"] = {k: round(v, 6) for k, v in selfs.items()}
        tracer.dump(os.path.join(ROOT, ".perfbench_out",
                                 f"spans-{workload}-{seed}.jsonl"), info)
    else:
        chosen = {m["name"]: metric(e2e[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
    print(json.dumps(info, sort_keys=True))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": chosen}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # A terminated run still unwinds, so the service workload's server
    # subprocess is stopped by its ``finally`` clause.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
