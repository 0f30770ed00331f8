"""Cluster-mode demo: one sweep sharded across two compile servers.

Walks the multi-server story end to end, over real HTTP:

1. run the reference sweep serially in one in-process session,
2. start two compile servers (separate cache directories, as separate
   machines would have),
3. stream a sweep's per-entry results from one server: the first entry
   arrives over ``GET /jobs/<id>/entries`` long-polls *before* the
   whole batch finishes compiling,
4. run the same sweep through a session over a
   :class:`~repro.cluster.FleetExecutor` — jobs shard across both
   servers by fingerprint hash, outcomes stream back as workers finish
   them, and the result exports byte-identical JSON/CSV to the serial
   run,
5. kill one server mid-sweep: the executor re-dispatches its
   unfinished jobs to the survivor and the result is *still*
   byte-identical to the serial run.

Every step asserts what it claims, so CI runs this file as the cluster
smoke test (under a hard timeout: a wedged stream or executor fails
the build instead of hanging it).  Run with::

    python examples/cluster_demo.py [cache_base_dir]
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import MachineSpec, Session, SweepSpec
from repro.cluster import FleetExecutor
from repro.service import ServiceClient, make_server

GRID = MachineSpec.nisq_grid(5, 5)
SPEC = (SweepSpec()
        .with_benchmarks("RD53", "ADDER4", "6SYM")
        .with_machines(GRID)
        .with_policies("lazy", "square"))
#: Fresh work for the kill-a-worker section (different policies, so
#: nothing is served from the servers' now-warm caches).
KILL_SPEC = SPEC.with_policies("eager", "square-laa")


def start_server(cache_dir: str):
    """One compile server on an ephemeral port; returns (server, url)."""
    server = make_server("127.0.0.1", 0, cache_dir=cache_dir, workers=1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def stop_server(server) -> None:
    server.shutdown()
    server.server_close()


def main() -> None:
    base = Path(sys.argv[1] if len(sys.argv) > 1
                else tempfile.mkdtemp(prefix="repro-cluster-demo-"))
    print(f"cache base directory: {base}")

    # --- reference: the same sweep, serially, in one session -----------
    serial = Session().run(SPEC, isolate_failures=True)
    serial_kill = Session().run(KILL_SPEC, isolate_failures=True)
    print(f"serial reference: {len(serial)} + {len(serial_kill)} entries")

    # --- two servers, as two machines would run them -------------------
    server_a, url_a = start_server(str(base / "cache-a"))
    server_b, url_b = start_server(str(base / "cache-b"))
    print(f"servers up at {url_a} and {url_b}")

    # --- streaming: first entry long before the batch finishes ---------
    client = ServiceClient(url_a)
    ticket = client.submit_async(SPEC)
    first_entry_at = None
    streamed = []
    for index, record in client.iter_entries(ticket):
        if first_entry_at is None:
            first_entry_at = time.time()
        streamed.append((index, record["benchmark"], record["policy"]))
    final = client.poll(ticket)
    client.close()
    assert final["state"] == "DONE" and len(streamed) == len(SPEC)
    assert [index for index, *_ in streamed] == list(range(len(SPEC))), \
        "the entry cursor must deliver every entry exactly once, in order"
    lead = final["finished_at"] - first_entry_at
    assert lead > 0, "first entry must arrive before the batch finishes"
    print(f"streaming    : first of {len(streamed)} entries arrived "
          f"{lead * 1000:.0f} ms before the batch finished")

    # --- cluster sweep across both servers -----------------------------
    arrivals = []
    fleet = FleetExecutor([url_a, url_b], on_outcome=lambda job, outcome:
                          arrivals.append(job.fingerprint()))
    sweep = Session(fleet, isolate_failures=True).run(SPEC)
    stats = fleet.stats()
    assert sorted(arrivals) == sorted(job.fingerprint()
                                      for job in SPEC.jobs()), \
        "every job's outcome streams exactly once"
    assert sweep.to_json() == serial.to_json(), \
        "cluster JSON export must be byte-identical to the serial run"
    assert sweep.to_csv() == serial.to_csv(), \
        "cluster CSV export must be byte-identical to the serial run"
    print(f"cluster sweep: {len(sweep)} entries from "
          f"{stats['topology']['alive']} workers in "
          f"{stats['rounds_run']} round(s) — exports byte-identical "
          f"to serial")

    # --- kill one worker mid-sweep: the sweep still completes ----------
    killed = []

    def kill_server_b(job, outcome) -> None:
        if not killed:
            killed.append(True)
            threading.Thread(target=stop_server, args=(server_b,),
                             daemon=True).start()

    survivor = FleetExecutor([url_a, url_b], retry_delay=0.05,
                             on_outcome=kill_server_b)
    healed = Session(survivor, isolate_failures=True).run(KILL_SPEC)
    stats = survivor.stats()
    assert healed.to_json() == serial_kill.to_json(), \
        "the healed sweep must still export byte-identical to serial"
    assert healed.to_csv() == serial_kill.to_csv()
    print(f"worker killed: sweep completed anyway "
          f"({stats['redispatched_jobs']} job(s) re-dispatched, "
          f"{stats['topology']['alive']}/2 workers alive at the end) — "
          f"exports still byte-identical")

    stop_server(server_a)
    print("cluster demo OK")


if __name__ == "__main__":
    main()
