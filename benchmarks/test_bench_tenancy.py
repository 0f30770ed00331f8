"""Benchmark: fair-share scheduling and durable-store overhead.

Starts the machine-readable perf trajectory the ROADMAP asks for: in
addition to pytest-benchmark timings, this module writes
``.bench_build/BENCH_tenancy.json`` with three headline numbers —

* **fair-share queue throughput** — jobs/sec through the full
  submit → fair-share pop → worker → record pipeline with a no-op
  runner and three tenants competing, i.e. the tenancy tax on the
  queue-machinery benchmark next door;
* **scheduler pop latency** — mean microseconds per ``pop()`` against a
  deep backlog, since the fair-share pop is an O(depth) score scan
  rather than a heap pop;
* **WAL replay time** — jobs/sec recovered when a restarted store
  replays its journal, the cost a server pays at boot.

Each also asserts a generous catastrophe floor (far below observed
numbers) so a regression that serializes the pipeline or makes replay
quadratic fails loudly on any machine.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.queue import JobManager, JobQueue, QueuedJob
from repro.tenancy import FairShareScheduler, JsonlJobStore, Tenant

from benchmarks.conftest import emit_bench, run_once

#: Jobs pushed through each pipeline per measurement round.
QUEUE_JOBS = 500
POP_BACKLOG = 300
WAL_JOBS = 400

TENANTS = (
    Tenant("alpha", role="admin", api_key="bk-alpha"),
    Tenant("bravo", role="standard", api_key="bk-bravo"),
    Tenant("charlie", role="batch", api_key="bk-charlie"),
)

#: Filled by the tests, flushed to ``BENCH_tenancy.json`` on teardown.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Flush ``RESULTS`` as a versioned record after the module runs."""
    yield
    emit_bench("tenancy", RESULTS)


def drain_fairshare_manager(jobs: int, workers: int) -> int:
    """Submit ``jobs`` no-op jobs across three tenants, wait for all."""
    manager = JobManager(lambda job: {"ok": True}, workers=workers,
                         queue_size=jobs, retention=jobs,
                         scheduler=FairShareScheduler())
    try:
        tickets = [manager.submit("compile", {"job": {}},
                                  tenant=TENANTS[index % len(TENANTS)])
                   for index in range(jobs)]
        for ticket in tickets:
            manager.wait(ticket.job_id, timeout=60)
        return manager.completed
    finally:
        manager.close()


def pop_deep_backlog(depth: int) -> int:
    """Fill a fair-share queue to ``depth``, then pop it dry."""
    queue = JobQueue(capacity=depth, scheduler=FairShareScheduler())
    for index in range(depth):
        job = QueuedJob(f"job-{index:06d}", "compile", {"job": {}})
        job.tenant = TENANTS[index % len(TENANTS)]
        queue.push(job)
    popped = 0
    while queue.pop(timeout=0) is not None:
        popped += 1
    return popped


def replay_wal(root: Path) -> int:
    """Reopen a journal and replay every record (server boot path)."""
    store = JsonlJobStore(root)
    try:
        return len(store.load())
    finally:
        store.close()


def test_bench_fairshare_queue_throughput(benchmark):
    """Queue machinery with fair-share scoring and tenant accounting."""
    completed = run_once(benchmark, drain_fairshare_manager, QUEUE_JOBS,
                         workers=2)
    assert completed == QUEUE_JOBS
    jobs_per_second = QUEUE_JOBS / benchmark.stats.stats.mean
    benchmark.extra_info["jobs_per_second"] = round(jobs_per_second, 1)
    RESULTS["fairshare_queue_jobs_per_second"] = round(jobs_per_second, 1)
    # Catastrophe floor only, as in test_bench_service_throughput: this
    # runs in the default collection and must not flake on slow CI.
    assert jobs_per_second > 20


def test_bench_scheduler_pop_latency(benchmark):
    """Mean pop latency against a deep multi-tenant backlog."""
    popped = run_once(benchmark, pop_deep_backlog, POP_BACKLOG)
    assert popped == POP_BACKLOG
    pop_micros = benchmark.stats.stats.mean / POP_BACKLOG * 1e6
    benchmark.extra_info["pop_latency_us"] = round(pop_micros, 1)
    RESULTS["scheduler_pop_latency_us"] = round(pop_micros, 1)
    # The O(depth) scan must stay far under a worker's job granularity.
    assert pop_micros < 50_000


def test_bench_wal_replay(benchmark, tmp_path):
    """Journal replay throughput on the restart/recovery path."""
    store = JsonlJobStore(tmp_path)
    for index in range(WAL_JOBS):
        job = QueuedJob(f"job-{index:06d}", "compile", {"job": {}})
        job.tenant = TENANTS[index % len(TENANTS)]
        store.record_submit(job)
        job.transition("RUNNING")
        store.record_transition(job)
        job.response = {"ok": True}
        job.transition("DONE")
        store.record_transition(job)
    store.close()

    replayed = run_once(benchmark, replay_wal, tmp_path)
    assert replayed == WAL_JOBS
    jobs_per_second = WAL_JOBS / benchmark.stats.stats.mean
    benchmark.extra_info["replay_jobs_per_second"] = round(jobs_per_second, 1)
    RESULTS["wal_replay_jobs_per_second"] = round(jobs_per_second, 1)
    assert jobs_per_second > 50
