"""Tracing & profiling demo: span waterfalls and the compile-path profiler.

Walks the PR-9 observability story end to end, over real HTTP:

1. start a two-worker fleet and run a cluster sweep under the
   coordinator's single trace id,
2. fetch ``GET /trace/<id>`` from one worker and assert the span
   hierarchy a job leaves behind (``server.handle`` -> ``queue.wait`` +
   ``job.run`` -> ``session.compile`` -> ``compile`` -> ``phase.*``),
3. merge the whole fleet's spans with
   :meth:`~repro.cluster.ClusterCoordinator.collect_trace` and render
   the ASCII waterfall — every shard appears as an ``@worker`` suffix
   and rendering is deterministic,
4. profile the same benchmarks in-process with
   :func:`~repro.profile.profile_benchmarks` and print the ranked
   hotspot table (machine-independent work counters: gates, swaps,
   liveness segments, reclamation ops).

Every step asserts what it claims, so CI can run this file as the
tracing smoke test.  Run with::

    python examples/tracing_demo.py
"""

from __future__ import annotations

import threading

from repro.api import CompileJob, MachineSpec
from repro.cluster import ClusterCoordinator, assign_endpoint
from repro.profile import profile_benchmarks
from repro.service import ServiceClient, make_server
from repro.telemetry import render_waterfall

GRID = MachineSpec.nisq_grid(5, 5)
BENCHMARKS = ("RD53", "6SYM", "2OF5", "ADDER4")


def start_server():
    server = make_server("127.0.0.1", 0, workers=1, queue_size=16)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def sweep_jobs(urls):
    """The square sweep over BENCHMARKS on 5x5, plus the first cheap
    variants (other policies and grid sizes) that give every worker a
    job: rendezvous placement depends on the ephemeral-port URLs, and
    every shard must have a story to tell."""
    pool = [CompileJob.for_benchmark(name, MachineSpec.nisq_grid(size, size),
                                     policy)
            for size in (5, 6, 7, 8) for policy in ("square", "eager", "lazy")
            for name in BENCHMARKS]
    jobs = pool[:len(BENCHMARKS)]
    owners = {assign_endpoint(job.fingerprint(), urls) for job in jobs}
    for job in pool[len(BENCHMARKS):]:
        owner = assign_endpoint(job.fingerprint(), urls)
        if owner not in owners:
            jobs.append(job)
            owners.add(owner)
    if owners != set(urls):
        raise RuntimeError(f"no job variant lands on "
                           f"{sorted(set(urls) - owners)}")
    return jobs


def main() -> None:
    servers, urls = [], []
    for _ in range(2):
        server, url = start_server()
        servers.append(server)
        urls.append(url)
    print(f"fleet up     : {urls[0]} and {urls[1]}")

    try:
        # --- 1. one sweep, one trace id ----------------------------------
        coordinator = ClusterCoordinator(urls)
        result = coordinator.run(sweep_jobs(urls))
        assert all(entry.error is None for entry in result.entries)
        trace_id = coordinator.trace_id
        print(f"sweep        : {len(result.entries)} jobs under trace "
              f"{trace_id}")

        # --- 2. one worker's spans tell the job's whole story ------------
        payload = ServiceClient(urls[0]).trace(trace_id)
        names = {span["name"] for span in payload["spans"]}
        assert {"server.handle", "queue.wait", "job.run",
                "session.compile", "compile"} <= names, names
        assert any(name.startswith("phase.") for name in names), names
        assert {span["trace_id"] for span in payload["spans"]} == {trace_id}
        print(f"worker trace : {payload['count']} spans on shard 1, "
              f"full handle->queue->compile->phase chain present")

        # --- 3. fleet merge + deterministic waterfall ---------------------
        merged = coordinator.collect_trace()
        workers = {span["worker"] for span in merged["spans"]}
        assert workers == set(urls), workers
        assert all(info["reachable"] for info in
                   merged["workers"].values())
        waterfall = render_waterfall(merged["spans"])
        again = render_waterfall(list(reversed(merged["spans"])))
        assert waterfall == again, "waterfall must render deterministically"
        for url in urls:
            assert f"@{url}" in waterfall
        print(f"fleet trace  : {merged['count']} spans merged from "
              f"{len(workers)} shards; waterfall below\n")
        print(waterfall)

        # --- 4. the compile-path profiler ---------------------------------
        report = profile_benchmarks(BENCHMARKS, GRID, policies=("square",),
                                    scale="quick")
        assert len(report) == len(BENCHMARKS)
        top = report.hotspots(top=1)[0]
        assert top["seconds"] > 0 and top["rate"] > 0
        print(report.table("square policy, quick scale"))
        print(f"hotspot      : {top['label']} {top['phase']} "
              f"({top['share']:.0%} of compile time, "
              f"{top['rate']:.0f} {top['unit']}/s)")
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()

    print("tracing demo OK")


if __name__ == "__main__":
    main()
