"""Auto-tuning demo: racing policy search, cache-dir resume, cluster session.

Walks the tuner story end to end, asserting every claim (CI runs this
file as the tuner smoke test under a hard timeout):

1. a seeded :class:`~repro.tuner.TuningRun` races a sampled policy
   space over two benchmarks with successive halving — candidates are
   screened at ``quick`` scale and survivors promoted to ``laptop`` —
   and exports a ranked leaderboard whose winner is a
   ``preset()``-compatible config dict,
2. determinism: re-running the same seeded search from scratch yields
   a byte-identical leaderboard JSON export,
3. resume-after-kill: a run killed mid-search resumes on a new session
   over the same cache directory, recompiles **no trial that
   succeeded** (proved by the session's cache accounting) and converges
   to the identical leaderboard,
4. the same seeded search through a 2-server cluster session — trials
   shard across both compile servers — still exports a byte-identical
   leaderboard, and the fleet stats show both workers compiled.

Run with::

    python examples/tuner_demo.py [base_dir]
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

from repro.api import MachineSpec, Session
from repro.cluster import FleetExecutor
from repro.core.compiler import preset
from repro.service import make_server
from repro.tuner import (
    MultiObjective,
    SearchSpace,
    SuccessiveHalving,
    TuningRun,
)

BENCHMARKS = ("RD53", "MUL32")
MACHINE = MachineSpec.nisq_autosize()
#: Trials the kill-resume section lets finish before "crashing".
KILL_AFTER = 4


def make_run(session=None, on_trial=None) -> TuningRun:
    """One seeded tuning run; every section uses this exact config."""
    return TuningRun(
        SearchSpace.policy_space(),
        MultiObjective("aqv", "qubits"),
        SuccessiveHalving(scales=("quick", "laptop"), trials=5, seed=7),
        benchmarks=BENCHMARKS,
        machine=MACHINE,
        session=session,
        on_trial=on_trial,
    )


def start_server(cache_dir: str):
    """One compile server on an ephemeral port; returns (server, url)."""
    server = make_server("127.0.0.1", 0, cache_dir=cache_dir, workers=1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


class KilledMidRun(Exception):
    """Stands in for `kill -9` at a trial boundary."""


def main() -> None:
    base = Path(sys.argv[1] if len(sys.argv) > 1
                else tempfile.mkdtemp(prefix="repro-tuner-demo-"))
    base.mkdir(parents=True, exist_ok=True)
    print(f"base directory: {base}")

    # --- 1. seeded racing search, local session ------------------------
    local = make_run(session=Session())
    report = local.run()
    stats = local.stats()
    print(report.table("tuner demo leaderboard (local session)"))
    print(f"local run    : {stats['trials_executed']} trial(s) compiled, "
          f"{stats['trials_deduped']} deduped by fingerprint")
    assert stats["trials_deduped"] > 0, \
        "promoted candidates whose jobs did not change must dedup"
    best = report.best_config()
    config = preset("square", **best)  # must round-trip into a preset
    assert config.allocation == best["allocation"]
    assert report.to_dict()["leaderboard"][0]["pareto"] is True, \
        "the scalarized winner must sit on the Pareto front"
    print(f"best config  : {best} (preset()-compatible)")

    # --- 2. determinism: same seed, fresh run, identical bytes ---------
    repeat = make_run(session=Session())
    assert repeat.run().to_json() == report.to_json(), \
        "the same seeded search must export a byte-identical leaderboard"
    print("determinism  : fresh rerun exports byte-identical JSON")

    # --- 3. kill mid-run, resume on the same cache directory ----------
    cache_dir = base / "resume-cache"
    finished = []

    def killer(record) -> None:
        finished.append(record)
        if len(finished) >= KILL_AFTER:
            raise KilledMidRun()

    try:
        make_run(session=Session(cache_dir=str(cache_dir)),
                 on_trial=killer).run()
        raise AssertionError("the killed run must not complete")
    except KilledMidRun:
        pass
    # One content-addressed file per trial that succeeded.
    saved = len(list((cache_dir / "results").glob("*.json")))
    print(f"killed       : run stopped after {KILL_AFTER} trial(s) came "
          f"back; {saved} result(s) are in its cache directory")

    session = Session(cache_dir=str(cache_dir))  # fresh memory tier
    resumed = make_run(session=session)
    resumed_report = resumed.run()
    stats = resumed.stats()
    total_unique = local.stats()["trials_executed"]
    assert stats["disk_hits"] == saved, \
        "every trial compiled before the kill must come back from disk"
    assert stats["cache_misses"] == total_unique - saved, \
        "resume must only compile the trials the kill lost"
    assert resumed_report.to_json() == report.to_json(), \
        "a resumed run must converge to the uninterrupted leaderboard"
    print(f"resumed      : {stats['disk_hits']} trial(s) from the disk "
          f"cache, {stats['cache_misses']} compiled (cache accounting "
          f"proves zero repeats)")

    # --- 4. the same search through a 2-server cluster session ---------
    server_a, url_a = start_server(str(base / "cache-a"))
    server_b, url_b = start_server(str(base / "cache-b"))
    executor = FleetExecutor([url_a, url_b])
    cluster = make_run(session=Session(executor))
    cluster_report = cluster.run()
    assert cluster_report.to_json() == report.to_json(), \
        "cluster leaderboard must be byte-identical to the local run"
    fleet = executor.topology.fleet_stats()
    jobs_per_worker = {row["url"]: row["jobs_run"]
                       for row in fleet["workers"]}
    assert fleet["reachable"] == 2
    assert all(count > 0 for count in jobs_per_worker.values()), \
        "both workers must have compiled part of the search"
    assert fleet["fleet"]["jobs_run"] >= total_unique
    print(f"cluster      : leaderboard byte-identical to local; trials "
          f"split across workers {jobs_per_worker}")
    for server in (server_a, server_b):
        server.shutdown()
        server.server_close()

    print("tuner demo OK")


if __name__ == "__main__":
    main()
