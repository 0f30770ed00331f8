"""Structured-logging demo: one trace id, the whole fleet's story.

Walks the PR-10 observability story end to end, over real HTTP:

1. start a two-worker fleet and run a cluster sweep under the
   fleet executor's single trace id,
2. query one worker's ``GET /logs?trace=`` and assert the correlated
   event chain a job leaves behind (http access line, queue push/pop,
   worker pickup, manager done — every one stamped with the same
   trace id),
3. merge the whole fleet's events with the executor topology's
   :meth:`~repro.cluster.ClusterTopology.fleet_logs` — both
   workers contribute, every record carries its ``worker`` tag, and
   ``(worker, event_id)`` dedup keeps the merge stable,
4. interleave the merged events into the merged span waterfall and
   assert the rendering is byte-deterministic,
5. reject a bogus API key and find the tenancy auth warning in the
   log, then exercise the rotating JSONL sink and its
   torn-tail-tolerant reader, and restart a server on the torn file:
   its first job's events replay next to the old ones.

Every step asserts what it claims, so CI can run this file as the
logging smoke test.  Run with::

    python examples/logging_demo.py
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.api import CompileJob, MachineSpec, Session
from repro.cluster import FleetExecutor, assign_endpoint
from repro.exceptions import ServiceError
from repro.service import ServiceClient, make_server
from repro.telemetry import read_events, render_waterfall

GRID = MachineSpec.nisq_grid(5, 5)
BENCHMARKS = ("RD53", "6SYM", "2OF5", "ADDER4")


def start_server(**kwargs):
    server = make_server("127.0.0.1", 0, workers=1, queue_size=16,
                         **kwargs)
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
        fleet = FleetExecutor(urls)
        result = Session(fleet, isolate_failures=True).run(sweep_jobs(urls))
        assert all(entry.error is None for entry in result.entries)
        trace_id = fleet.trace_id
        print(f"sweep        : {len(result.entries)} jobs under trace "
              f"{trace_id}")

        # --- 2. one worker's events tell one shard's story ----------------
        payload = ServiceClient(urls[0]).logs(trace_id)
        components = {event["component"] for event in payload["events"]}
        assert {"http", "queue", "worker", "manager"} <= components, \
            components
        assert all(event["trace_id"] == trace_id
                   for event in payload["events"])
        job_ids = {event["job_id"] for event in payload["events"]
                   if event["job_id"]}
        assert job_ids, "queue/worker/manager events must carry job ids"
        print(f"worker logs  : {payload['count']} events on shard 1, "
              f"components {sorted(components)}")

        # --- 3. fleet merge: both shards, worker tags, stable dedup ------
        merged = fleet.topology.fleet_logs()
        workers = {event["worker"] for event in merged["events"]}
        assert workers == set(urls), workers
        assert all(info["reachable"] for info in merged["workers"].values())
        keys = [(event["worker"], event["event_id"])
                for event in merged["events"]]
        assert len(keys) == len(set(keys)), "fleet merge must dedup"
        again = fleet.topology.fleet_logs()
        assert [e["event_id"] for e in merged["events"]] == \
            [e["event_id"] for e in again["events"]], \
            "fleet merge order must be deterministic"
        print(f"fleet logs   : {merged['count']} events merged from "
              f"{len(workers)} shards")

        # --- 4. events interleave into the span waterfall ----------------
        spans = fleet.topology.fleet_trace()["spans"]
        waterfall = render_waterfall(spans, events=merged["events"])
        flipped = render_waterfall(list(reversed(spans)),
                                   events=list(reversed(merged["events"])))
        assert waterfall == flipped, \
            "waterfall + events must render byte-deterministically"
        assert "* info: worker picked up job" in waterfall
        assert "event(s)" in waterfall.splitlines()[0]
        print("waterfall    : events interleaved deterministically\n")
        print(waterfall)

        # --- 5. a rejected key leaves a tenancy warning ------------------
        try:
            ServiceClient(urls[0], api_key="bogus-key").stats()
            raise AssertionError("bogus key must be rejected")
        except ServiceError:
            pass
        warned = ServiceClient(urls[0]).logs("", level="WARNING")
        assert any(event["component"] == "tenancy"
                   for event in warned["events"]), warned["events"]
        print("tenancy      : rejected key narrated as a WARNING event")
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()

    # --- 6. the JSONL sink survives a torn tail --------------------------
    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "events.jsonl")
        server, url = start_server(log_path=log_path)
        try:
            client = ServiceClient(url)
            client.submit(CompileJob.for_benchmark("RD53", GRID, "square"))
        finally:
            server.shutdown()
            server.server_close()
        with open(log_path, "a", encoding="utf-8") as stream:
            stream.write('{"torn": ')  # kill -9 mid-append
        replay = read_events(log_path)
        assert replay["version"] == 1
        assert replay["torn_lines"] == 1
        messages = {event["message"] for event in replay["events"]}
        assert "worker picked up job" in messages, messages
        print(f"jsonl sink   : {len(replay['events'])} events replayed, "
              f"{replay['torn_lines']} torn line tolerated")

        # A restarted server cuts the torn tail before its first event,
        # so the new job's narrative does not fuse with the fragment.
        server, url = start_server(log_path=log_path)
        try:
            ServiceClient(url).submit(
                CompileJob.for_benchmark("ADDER4", GRID, "square"))
        finally:
            server.shutdown()
            server.server_close()
        replay = read_events(log_path)
        assert replay["torn_lines"] == 0, replay["torn_lines"]
        pickups = [event for event in replay["events"]
                   if event["message"] == "worker picked up job"]
        assert len(pickups) == 2, pickups
        print(f"restart      : {len(replay['events'])} events replayed, "
              f"the new job's pickup next to the old one, 0 torn lines")

    print("logging demo OK")


if __name__ == "__main__":
    main()
