"""Compilation-as-a-service demo: HTTP endpoint + async job queue.

Walks the full service story end to end, over real HTTP:

1. start a compilation server backed by an on-disk result cache,
2. submit a job (cold: compiled), then the same job again (warm: served
   from the in-memory memo),
3. run a sweep containing one impossible job — the batch survives, the
   bad job comes back as a structured error entry,
4. submit a sweep *asynchronously* via ``/jobs``: the ticket comes back
   in milliseconds while a worker compiles in the background, a poll
   loop follows it to DONE, and a queued job is cancelled before it
   ever runs,
5. show the async path returns byte-identical payloads to the
   synchronous one,
6. restart the server over the same cache directory and submit the job
   once more: the fresh process reports a *disk* hit and returns a
   byte-identical result payload.

Every step asserts what it claims, so CI runs this file as the service
smoke test (under a hard timeout: a deadlocked worker pool fails the
build instead of hanging it).  Run with::

    python examples/service_demo.py [cache_dir]
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time

from repro.api import CompileJob, MachineSpec, SweepSpec
from repro.service import ServiceClient, make_server


GRID = MachineSpec.nisq_grid(5, 5)
JOB = CompileJob.for_benchmark("RD53", GRID, "square")
IMPOSSIBLE = CompileJob.for_benchmark("RD53", MachineSpec.nisq(2), "square")
#: Mostly-fresh work for the async section, big enough that the single
#: worker stays busy while the demo queues and cancels behind it.
ASYNC_SPEC = (SweepSpec()
              .with_benchmarks("RD53", "ADDER4", "6SYM")
              .with_machines(GRID)
              .with_policies("eager", "lazy", "square"))
CANCEL_ME = CompileJob.for_benchmark("ADDER4", GRID, "lazy")


def start_server(cache_dir: str):
    """Start a service on an ephemeral port; returns (server, client).

    One worker thread, so the demo can deterministically queue work
    behind a running sweep (and cancel it before it runs).
    """
    server = make_server("127.0.0.1", 0, cache_dir=cache_dir, workers=1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, ServiceClient(f"http://{host}:{port}")


def stop_server(server, client) -> None:
    client.close()
    server.shutdown()
    server.server_close()


def main() -> None:
    cache_dir = (sys.argv[1] if len(sys.argv) > 1
                 else tempfile.mkdtemp(prefix="repro-service-demo-"))
    print(f"cache directory: {cache_dir}")

    # --- first server: cold compile, then warm memory hit --------------
    server, client = start_server(cache_dir)
    print(f"server 1 up at {client.base_url}: "
          f"{client.health()['status']}")

    cold = client.compile_job(JOB)
    assert cold["ok"] and not cold["cached"] and not cold["disk_hit"]
    print(f"cold compile : gates={cold['result']['gate_count']} "
          f"cached={cold['cached']} disk_hit={cold['disk_hit']}")

    warm = client.compile_job(JOB)
    assert warm["ok"] and warm["cached"] and not warm["disk_hit"]
    print(f"memory hit   : cached={warm['cached']} "
          f"disk_hit={warm['disk_hit']}")

    # --- a batch with one impossible job still returns the rest --------
    sweep = client.run([JOB, IMPOSSIBLE])
    assert [entry.ok for entry in sweep] == [True, False]
    failure = sweep.failures()[0].error
    print(f"isolated failure: {failure.error_type} on "
          f"{failure.machine_name} (batch of {len(sweep)} survived)")

    # --- async submission: ticket now, results later -------------------
    started = time.perf_counter()
    ticket = client.submit_async(ASYNC_SPEC)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert elapsed_ms < 1000, "ticket must return without compiling"
    print(f"async submit : ticket {ticket} in {elapsed_ms:.1f} ms "
          f"(worker compiles in background)")

    # While the sweep occupies the single worker, queue one more job and
    # cancel it: a cancelled QUEUED job never runs.
    queued = client.submit_async(CANCEL_ME)
    cancelled = client.cancel(queued)
    assert cancelled["cancelled"] and cancelled["state"] == "CANCELLED"
    record = client.poll(queued)
    assert record["state"] == "CANCELLED" and record["started_at"] is None
    print(f"cancelled    : {queued} while QUEUED (never ran)")

    # Poll the sweep ticket to DONE.
    final = client.wait_for(ticket, timeout=300)
    assert final["state"] == "DONE" and final["response"]["ok"]
    print(f"poll loop    : {ticket} DONE after "
          f"{final['run_seconds']:.2f}s run "
          f"({final['response']['count']} jobs)")

    # The async path returns byte-identical payloads to the sync path.
    async_compile = client.result_of(client.submit_async(JOB))
    assert json.dumps(async_compile["result"], sort_keys=True) == \
           json.dumps(cold["result"], sort_keys=True), \
        "async result payload must match the synchronous one"
    print("async==sync  : byte-identical result payloads")

    stats = client.stats()
    print(f"server 1 stats: jobs_run={stats['service']['jobs_run']} "
          f"failures={stats['service']['job_failures']} "
          f"workers={stats['service']['workers']} "
          f"queue={stats['service']['queue_depth']}/"
          f"{stats['service']['queue_capacity']}")
    stop_server(server, client)

    # --- second server, same cache dir: results survive the restart ----
    server2, client2 = start_server(cache_dir)
    print(f"server 2 up at {client2.base_url} (fresh process, same cache)")

    restored = client2.compile_job(JOB)
    assert restored["ok"] and restored["cached"] and restored["disk_hit"], \
        "expected the restarted service to serve the job from disk"
    assert json.dumps(restored["result"], sort_keys=True) == \
           json.dumps(cold["result"], sort_keys=True), \
        "disk-cached payload must be identical to the cold compile"
    print(f"disk hit     : cached={restored['cached']} "
          f"disk_hit={restored['disk_hit']} (payload identical)")
    stop_server(server2, client2)

    print("service demo OK")


if __name__ == "__main__":
    main()
