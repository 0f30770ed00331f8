"""Multi-tenancy demo: API keys, fair-share scheduling, crash recovery.

Walks the tenancy story end to end, over real HTTP:

1. start a server with a tenant registry (``--tenants``-style JSON file)
   and a durable job journal (``--store-dir``),
2. authenticate: an unknown API key is a 401, a keyless client still
   works as the anonymous tenant,
3. fair-share scheduling: while one worker is busy, ``alice`` floods the
   queue and ``bob`` submits a single job afterwards — bob's job runs
   *before* alice's backlog because alice's burst score outweighs her
   head start,
4. per-tenant quotas: alice's flood hits her ``max_queued`` cap and gets
   a structured 429 naming her — bob and anonymous keep submitting,
5. durability: crash the server (journal frozen, no graceful drain) with
   a sweep RUNNING and compiles QUEUED, restart a fresh process on the
   same store directory, and verify every pre-crash ticket completes,
   the pre-crash DONE result is byte-identical, one tenant's recovered
   jobs run in submission order, and ``/stats`` reports the recovery.

Every step asserts what it claims, so CI runs this file as the tenancy
smoke test (under a hard timeout: a wedged recovery fails the build
instead of hanging it).  Run with::

    python examples/tenancy_demo.py [store_dir]
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import CompileJob, MachineSpec, SweepSpec
from repro.exceptions import AuthError, QuotaExceededError
from repro.service import ServiceClient, make_server

GRID = MachineSpec.nisq_grid(5, 5)
QUICK = CompileJob.for_benchmark("RD53", GRID, "square")
FLOOD = [CompileJob.for_benchmark("ADDER4", GRID, "eager"),
         CompileJob.for_benchmark("ADDER4", GRID, "lazy")]
OVERFLOW = CompileJob.for_benchmark("6SYM", GRID, "eager")
AFTER_FLOOD = CompileJob.for_benchmark("RD53", GRID, "lazy")
#: Occupies the single worker while the demo queues work behind it.
BUSY_A = (SweepSpec().with_benchmarks("RD53", "ADDER4")
          .with_machines(GRID).with_policies("eager", "lazy"))
BUSY_B = (SweepSpec().with_benchmarks("6SYM")
          .with_machines(GRID).with_policies("eager", "lazy", "square"))

TENANTS = {
    "tenants": [
        {"name": "alice", "role": "standard", "api_key": "ak-alice",
         "max_queued": 2},
        {"name": "bob", "role": "standard", "api_key": "ak-bob"},
    ],
}


def start_server(tenants_path: str, store_dir: str):
    """One-worker server with a registry file and a durable journal."""
    server = make_server("127.0.0.1", 0, workers=1, queue_size=16,
                         tenants=tenants_path, store_dir=store_dir)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def slow_down_sweeps(service, seconds: float) -> None:
    """Pad sweep jobs so the single worker stays busy deterministically.

    Quick-scale compiles finish in milliseconds — too fast to observe
    queue contention over real HTTP.  Padding the worker (not the wire)
    keeps every queue/scheduler/journal interaction genuine.
    """
    original = service.manager._runner

    def slow_runner(job):
        if job.kind == "sweep":
            time.sleep(seconds)
        return original(job)

    service.manager._runner = slow_runner


def stop_server(server) -> None:
    server.shutdown()
    server.server_close()


def crash_server(server) -> None:
    """Kill without draining: freeze the journal, drop the queue."""
    server.service.close(hard=True)
    server.shutdown()
    server.server_close()  # close() is a no-op after a crash


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else tempfile.mkdtemp(prefix="repro-tenancy-demo-"))
    root.mkdir(parents=True, exist_ok=True)
    store_dir = str(root / "jobs")
    tenants_path = str(root / "tenants.json")
    Path(tenants_path).write_text(json.dumps(TENANTS, indent=2))
    print(f"store directory: {store_dir}")

    server, url = start_server(tenants_path, store_dir)
    slow_down_sweeps(server.service, 0.8)
    alice = ServiceClient(url, api_key="ak-alice")
    bob = ServiceClient(url, api_key="ak-bob")
    anonymous = ServiceClient(url)
    print(f"server 1 up at {url}: {anonymous.health()['status']}")

    # --- authentication ------------------------------------------------
    try:
        ServiceClient(url, api_key="ak-mallory").health()
        raise AssertionError("unknown API key must be rejected")
    except AuthError as error:
        assert error.http_status == 401
        print("auth         : unknown key rejected with 401")
    assert anonymous.compile_job(QUICK)["ok"]
    print("anonymous    : keyless client compiles as 'anonymous'")

    # --- a result to survive the crash, finished up front --------------
    durable = alice.submit_async(QUICK)
    durable_record = alice.wait_for(durable, timeout=120)
    assert durable_record["state"] == "DONE"
    print(f"durable job  : {durable} DONE (will be re-served post-crash)")

    # --- fair share: bob's single job overtakes alice's flood ----------
    # The busy sweep comes from *anonymous* so its burst cost (4 expanded
    # jobs) lands on neither contender; bob stays quiet until the end.
    busy = anonymous.submit_async(BUSY_A)    # occupies the one worker
    flood_tickets = [alice.submit_async(job) for job in FLOOD]
    try:
        alice.submit_async(OVERFLOW)         # 3rd queued job, cap is 2
        raise AssertionError("alice's flood must hit her quota")
    except QuotaExceededError as error:
        assert error.http_status == 429 and error.tenant == "alice"
        assert error.capacity == 2
        print(f"quota        : alice's 3rd queued job -> 429 "
              f"(depth {error.depth}/{error.capacity}); others unaffected")
    bob_ticket = bob.submit_async(AFTER_FLOOD)   # submitted last

    for ticket in [busy, bob_ticket] + flood_tickets:
        record = bob.wait_for(ticket, timeout=300)
        assert record["state"] == "DONE", record
    bob_started = bob.poll(bob_ticket)["started_at"]
    flood_started = [alice.poll(ticket)["started_at"]
                     for ticket in flood_tickets]
    assert all(bob_started < started for started in flood_started), \
        "fair share must run bob's single job before alice's flood"
    print("fair share   : bob's job (submitted last) ran before "
          "alice's flooded backlog")
    burst = bob.stats()["tenants"]["alice"]["burst_score"]
    assert burst > 0, "alice's burst score must still be decaying"
    print(f"burst score  : alice={burst:.2f}, decaying with half-life")

    # --- crash with work in flight ------------------------------------
    running = bob.submit_async(BUSY_B)       # occupies the worker again
    queued = [alice.submit_async(job) for job in FLOOD]
    queued.append(bob.submit_async(AFTER_FLOOD))
    time.sleep(0.2)                          # let the worker pick up BUSY_B
    crash_server(server)
    print(f"crash        : server killed with 1 job RUNNING, "
          f"{len(queued)} QUEUED (journal frozen, no drain)")

    # --- restart on the same store directory ---------------------------
    server2, url2 = start_server(tenants_path, store_dir)
    alice2 = ServiceClient(url2, api_key="ak-alice")
    recovery = alice2.stats()["queue"]["recovery"]
    recovered = (recovery["resumed_queued"] + recovery["requeued_running"]
                 + recovery["recovered_terminal"])
    assert recovered >= 5, recovery
    print(f"server 2 up at {url2} (fresh process, same store): "
          f"resumed_queued={recovery['resumed_queued']} "
          f"requeued_running={recovery['requeued_running']} "
          f"recovered_terminal={recovery['recovered_terminal']}")

    restored = alice2.poll(durable)
    assert json.dumps(restored, sort_keys=True) \
        == json.dumps(durable_record, sort_keys=True), \
        "pre-crash DONE record must be served byte-identically"
    print(f"byte-identical: {durable} re-served from the journal")

    for ticket in [running] + queued:
        record = alice2.wait_for(ticket, timeout=300)
        assert record["state"] == "DONE", record
    requeued = alice2.poll(running)
    assert requeued["retries"] == 1, requeued
    print(f"resumed      : all {1 + len(queued)} pre-crash jobs "
          f"completed after restart ({running} requeued once)")
    # Recovery re-pushes the backlog microseconds apart; alice's two
    # equal-priority jobs must still run in submission order.
    first, second = (alice2.poll(ticket)["started_at"]
                     for ticket in queued[:2])
    assert first < second, \
        "one tenant's recovered jobs must run in submission order"
    print("fifo         : alice's recovered jobs ran in submission order")
    stop_server(server2)

    print("tenancy demo OK")


if __name__ == "__main__":
    main()
