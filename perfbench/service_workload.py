"""The ``service-mix`` workload: a closed loop against a ``serve`` process.

The server runs as ``python -m repro.experiments serve`` with 2 workers,
a temporary ``--cache-dir`` and a registry of two tenants.  Two client
threads in this process (one per tenant) each wait for their reply
before sending the next request.  The seed draws the request sequence
over four classes:

* ``hit`` — ``/compile`` of a job already in the server's memory;
* ``miss`` — ``/compile`` of a job never seen before (compiles, then
  writes both cache tiers);
* ``disk_hit`` — a job written to the disk cache during set-up, not yet
  in memory;
* ``async`` — ``submit_async`` + ``wait_for`` of an in-memory job.

The compile hot path barely runs here: HTTP, the queue, fair-share
scheduling and the cache tiers do the work.

No request log or client in the repository fixes how often each class
occurs, so the mix is arbitrary, and no metric depends on it: latencies
are taken per class and combined with equal weight, and ``jobs_per_s``
is the closed loop's throughput on a mix of equal shares.  The class
counts are fixed (see ``COUNTS``); only the order and the miss/disk jobs
drawn depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import CompileJob, MachineSpec, Session, execute_job_payload
from repro.service import DiskCache, ServiceClient
from repro.telemetry import new_trace_id
from repro.workloads import NISQ_BENCHMARKS

from perfbench.harness import (SpeedProbe, Tracer, geomean, percentile, pin,
                               ratio, tail_mean)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLASSES = ("hit", "miss", "disk_hit", "async")
POLICIES = ("eager", "lazy", "square-laa", "square")
#: New jobs per (benchmark, policy) pair, for each of miss and disk_hit.
PER_PAIR = 12
NEW_JOBS = PER_PAIR * len(NISQ_BENCHMARKS) * len(POLICIES)
#: Requests per class in one run's sequence.  A miss or a disk hit needs
#: a job of its own, so those are scarce; the cheap hits and async
#: requests between them spread them over a longer run, which averages
#: out more of the host's drift.  Every metric weighs the classes
#: equally, so these counts decide none of them.
COUNTS = {"hit": 8 * NEW_JOBS, "miss": NEW_JOBS, "disk_hit": NEW_JOBS,
          "async": 8 * NEW_JOBS}
#: Requests between two host-speed samples.
SEGMENT = 50
#: Seconds any one request, or the server start, may take.
TIMEOUT_S = 30
TENANTS = {
    "default": {"name": "anonymous", "role": "standard"},
    "tenants": [
        {"name": "alice", "role": "standard", "api_key": "bench-alice",
         "max_queued": 1024},
        {"name": "bob", "role": "batch", "api_key": "bench-bob",
         "max_queued": 1024},
    ],
}
KEYS = ("bench-alice", "bench-bob")
#: Traced client threads running requests at once (one per tenant).
CONCURRENCY = len(KEYS)
HOT = [CompileJob.for_benchmark(name, MachineSpec.nisq_grid(5, 5), policy,
                                decompose_toffoli=True)
       for name in ("RD53", "6SYM", "2OF5", "ADDER4")
       for policy in ("lazy", "square")]
#: Server span name -> per-layer metric stem.
SERVER_SPANS = {
    "server.handle": "service.handle_ms",
    "queue.wait": "queue.wait_ms",
    "job.run": "queue.job_run_ms",
    "cache.memory": "cache.memory_ms",
    "cache.disk": "cache.disk_ms",
    "session.compile": "api.session_compile_ms",
}


def draw_sequence(seed: int) -> Tuple[List[Tuple[str, CompileJob]],
                                      List[CompileJob]]:
    """The seeded request sequence and the jobs to pre-write to disk.

    New jobs are stratified: every (benchmark, policy) pair gives the
    same number of misses and of disk jobs, on seeded grid sizes drawn
    from a range they nearly exhaust, so the compile work behind them
    hardly depends on the seed.
    """
    rng = random.Random(f"service-mix:{seed}")
    hot = {job.fingerprint() for job in HOT}
    pairs = [(name, policy) for name in NISQ_BENCHMARKS
             for policy in POLICIES]
    grids = [(rows, cols) for rows in range(5, 10) for cols in range(5, 10)]
    misses: List[CompileJob] = []
    disk: List[CompileJob] = []
    for name, policy in pairs:
        jobs = [CompileJob.for_benchmark(name, MachineSpec.nisq_grid(*grid),
                                         policy, decompose_toffoli=True)
                for grid in rng.sample(grids, 2 * PER_PAIR + 1)]
        jobs = [job for job in jobs if job.fingerprint() not in hot]
        misses.extend(jobs[:PER_PAIR])
        disk.extend(jobs[PER_PAIR:2 * PER_PAIR])
    sequence = ([("hit", rng.choice(HOT)) for _ in range(COUNTS["hit"])]
                + [("miss", job) for job in misses]
                + [("disk_hit", job) for job in disk]
                + [("async", rng.choice(HOT))
                   for _ in range(COUNTS["async"])])
    rng.shuffle(sequence)
    return sequence, disk


class Server:
    """One ``serve`` subprocess on a fresh cache directory."""

    def __init__(self, root: str, workdir: str, disk_jobs: List[CompileJob],
                 tracer: Tracer, cpu: int) -> None:
        self.workdir = workdir
        self.process: Optional[subprocess.Popen] = None
        os.makedirs(workdir)
        cache_dir = os.path.join(workdir, "cache")
        tenants = os.path.join(workdir, "tenants.json")
        with open(tenants, "w", encoding="utf-8") as handle:
            json.dump(TENANTS, handle)
        try:
            with tracer.span("service.prewrite_disk"):
                Session(disk_cache=DiskCache(cache_dir)).run(disk_jobs)
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                       PYTHONUNBUFFERED="1")
            with tracer.span("service.start"):
                self.process = subprocess.Popen(
                    [sys.executable, "-m", "repro.experiments", "serve",
                     "--port", "0", "--workers", "2", "--cache-dir",
                     cache_dir, "--tenants", tenants],
                    cwd=root, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True)
                pin(self.process.pid, cpu)
                ready, _, _ = select.select([self.process.stdout], [], [],
                                            TIMEOUT_S)
                banner = self.process.stdout.readline() if ready else ""
                if "http://" not in banner:
                    raise RuntimeError(f"server did not start: {banner!r}")
                self.url = "http://" + banner.split("http://", 1)[1].split()[0]
            with tracer.span("service.warm_hot"):
                client = ServiceClient(self.url, timeout=TIMEOUT_S,
                                       api_key=KEYS[0])
                for job in HOT:
                    client.compile_job(job)
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("server peak RSS unavailable")

    def close(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None
        shutil.rmtree(self.workdir, ignore_errors=True)


class ServiceContext:
    """A running server, one client per tenant and the seeded sequence."""

    def __init__(self, seed: int, tracer: Tracer, server_cpu: int) -> None:
        self.sequence, disk = draw_sequence(seed)
        self.cursor = 0
        workdir = os.path.join(ROOT, ".perfbench_out",
                               f"service-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        self.server = Server(ROOT, workdir, disk, tracer, server_cpu)
        # Each client thread reuses its tenant's client for every request.
        self.clients = [ServiceClient(self.server.url, timeout=TIMEOUT_S,
                                      api_key=key) for key in KEYS]

    def close(self) -> None:
        self.server.close()


def setup(workload: str, seed: int, tracer: Tracer,
          cpu: int) -> ServiceContext:
    return ServiceContext(seed, tracer, cpu)


def send(client: ServiceClient, kind: str,
         job: CompileJob) -> Dict[str, object]:
    if kind == "async":
        ticket = client.submit_async(job)
        record = client.wait_for(ticket, timeout=TIMEOUT_S, interval=0.001,
                                 max_interval=0.05)
        if record.get("state") != "DONE":
            raise RuntimeError(f"async job ended {record.get('state')}")
        return record["response"]
    return client.compile_job(job)


def run_segment(ctx: ServiceContext, tracer: Tracer,
                end: int) -> List[Dict[str, object]]:
    """Two closed-loop clients, one per tenant, drain requests up to ``end``."""
    lock = threading.Lock()
    samples: List[Dict[str, object]] = []

    def worker(client: ServiceClient) -> None:
        while True:
            with lock:
                if ctx.cursor >= end:
                    return
                index = ctx.cursor
                ctx.cursor += 1
            kind, job = ctx.sequence[index]
            if tracer.enabled:
                client.trace_id = new_trace_id()
            sample: Dict[str, object] = {"kind": kind, "job": job,
                                         "trace_id": client.trace_id}
            clock = time.perf_counter()
            with tracer.span("job"), tracer.span("client.request"):
                try:
                    sample["response"] = send(client, kind, job)
                except Exception as error:  # counted as a failed operation
                    sample["error"] = f"{type(error).__name__}: {error}"
            sample["latency"] = time.perf_counter() - clock
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=worker, args=(client,))
               for client in ctx.clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def measure(ctx: ServiceContext, tracer: Tracer, probe: SpeedProbe,
            seconds: float, share: float) -> Dict[str, object]:
    """Serve ``share`` of the sequence in segments until it or ``share``
    of ``seconds`` runs out.

    The clients pause between segments while the probe samples the host
    speed, so each segment's times are normalised by the speed around it.
    """
    seconds *= share
    end = min(len(ctx.sequence),
              ctx.cursor + math.ceil(share * len(ctx.sequence)))
    stats_client = ServiceClient(ctx.server.url, timeout=TIMEOUT_S,
                                 api_key=KEYS[0])
    before = stats_client.stats()
    segments = []
    wall = 0.0
    probe.mark()
    while ctx.cursor < end and wall < seconds:
        started = time.perf_counter()
        segment = run_segment(ctx, tracer, min(end, ctx.cursor + SEGMENT))
        elapsed = time.perf_counter() - started
        segments.append((segment, elapsed, probe.mark()))
        wall += elapsed
        if tracer.enabled:
            # Fetched between segments, before the server's span ring
            # can evict them, and outside the timed segment.
            for sample in segment:
                sample["spans"] = stats_client.trace(
                    sample["trace_id"])["spans"]
    after = stats_client.stats()
    samples: List[Dict[str, object]] = []
    for segment, _, after_index in segments:
        scale = probe.scale(after_index)
        for sample in segment:
            sample["scaled"] = sample["latency"] * scale
        samples.extend(segment)
    return {"samples": samples, "wall": wall,
            "before": before, "after": after,
            "rss": ctx.server.peak_rss_mb()}


def _comparable(result: Dict[str, object]) -> str:
    trimmed = {k: v for k, v in result.items() if k != "compile_seconds"}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


def check(ctx: ServiceContext, runs: Sequence[Dict[str, object]],
          tracer: Tracer, seed: int):
    """Correctness gate: every reply equals ``execute_job_payload`` run in
    this process, byte for byte once the wall-clock field is dropped.
    Returns ``(attempted, failures, per-layer metrics)``."""
    samples = [sample for run in runs for sample in run["samples"]]
    references: Dict[str, str] = {}
    failures: List[str] = []
    for sample in samples:
        if sample.get("error"):
            failures.append(f"{sample['kind']}: {sample['error']}")
            continue
        job = sample["job"]
        response = sample["response"]
        fingerprint = job.fingerprint()
        if fingerprint not in references:
            with tracer.span("api.execute_job_payload"):
                payload = execute_job_payload(job)
            references[fingerprint] = _comparable(payload["result"])
        if (not response.get("ok")
                or _comparable(response["result"]) != references[fingerprint]):
            failures.append(f"{sample['kind']} {job.program_label}: "
                            f"reply differs from the in-process result")
    return len(samples), failures, {}


def by_class(samples: Sequence[Dict[str, object]],
             key: str) -> Dict[str, List[float]]:
    """Each request class's values of ``key``, in seconds."""
    out: Dict[str, List[float]] = {kind: [] for kind in CLASSES}
    for sample in samples:
        out[sample["kind"]].append(sample[key])
    return out


def end_to_end(measured: Dict[str, object]) -> Dict[str, float]:
    samples = measured["samples"]
    per_class = by_class(samples, "scaled")
    classes = [times for times in per_class.values() if times]
    ok = [s for s in samples if not s.get("error") and s["response"].get("ok")]
    for s in ok:
        result = s["response"]["result"]
        s["routed"] = result["gate_count"] + result["swap_count"]
    aqv: Dict[str, Dict[str, int]] = {}
    for s in ok:
        if s["kind"] in ("hit", "async"):
            job = s["job"]
            aqv.setdefault(job.program_label, {})[job.policy_label] = \
                s["response"]["result"]["active_quantum_volume"]
    # Little's law for the closed loop, on a mix of equal shares.
    jobs_per_s = CONCURRENCY / statistics.mean(
        statistics.mean(times) for times in classes)
    routed = [values for values in by_class(ok, "routed").values() if values]
    return {
        "jobs_per_s": jobs_per_s,
        "p50_ms": geomean(percentile(t, 50) for t in classes) * 1e3,
        "tail_ms": geomean(tail_mean(t) for t in classes) * 1e3,
        "routed_gates_per_s": jobs_per_s * statistics.mean(
            statistics.mean(values) for values in routed),
        "peak_rss_mb": measured["rss"],
        "aqv_ratio_square_vs_lazy": geomean(
            ratio(v["square"], v["lazy"]) for v in aqv.values()
            if "square" in v and "lazy" in v),
        "samples": {kind: {"n": len(times),
                           "p50_ms": percentile(times, 50) * 1e3}
                    for kind, times in per_class.items() if times},
    }


def _median(values: List[float]) -> float:
    return percentile(values, 50) if values else 0.0


def layer_metrics(measured: Dict[str, object]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind in CLASSES:
        samples = [s for s in measured["samples"] if s["kind"] == kind]
        latencies = [s["latency"] * 1e3 for s in samples]
        out[f"service.samples.{kind}"] = len(latencies)
        out[f"service.p50_ms.{kind}"] = _median(latencies)
        out[f"service.p90_ms.{kind}"] = (percentile(latencies, 90)
                                         if latencies else 0.0)
        per_span: Dict[str, List[float]] = {m: [] for m in
                                            SERVER_SPANS.values()}
        transport = []
        for s in samples:
            if "spans" not in s:
                continue
            totals: Dict[str, float] = {}
            for span in s["spans"]:
                stem = SERVER_SPANS.get(span["name"])
                if stem is not None:
                    totals[stem] = totals.get(stem, 0.0) + span["duration"]
            for stem, seconds in totals.items():
                per_span[stem].append(seconds * 1e3)
            transport.append(s["latency"] * 1e3
                             - totals.get("service.handle_ms", 0.0) * 1e3)
        out[f"client.transport_ms.{kind}"] = _median(transport)
        for stem, values in per_span.items():
            out[f"{stem}.{kind}"] = _median(values)
    before, after = measured["before"], measured["after"]
    session_delta = {key: after["session"][key] - before["session"][key]
                     for key in ("cache_hits", "cache_misses", "disk_hits")}
    lookups = session_delta["cache_hits"] + session_delta["cache_misses"]
    out["cache.memory_hit_ratio"] = ratio(
        session_delta["cache_hits"] - session_delta["disk_hits"], lookups)
    out["cache.disk_hit_ratio"] = ratio(session_delta["disk_hits"], lookups)
    queue_before = before["queue"]["queue"]
    queue_after = after["queue"]["queue"]
    out["queue.rejected"] = queue_after["rejected"] - queue_before["rejected"]
    out["tenancy.quota_rejected"] = (queue_after["quota_rejected"]
                                     - queue_before["quota_rejected"])
    return out
