"""Auto-tuning demo: racing policy search, journal resume, cluster backend.

Walks the tuner story end to end, asserting every claim (CI runs this
file as the tuner smoke test under a hard timeout):

1. a seeded :class:`~repro.tuner.TuningRun` races a sampled policy
   space over two benchmarks with successive halving — candidates are
   screened at ``quick`` scale and survivors promoted to ``laptop`` —
   and exports a ranked leaderboard whose winner is a
   ``preset()``-compatible config dict,
2. determinism: re-running the same seeded search from scratch yields
   a byte-identical leaderboard JSON export,
3. resume-after-kill: a run killed mid-search resumes from its JSONL
   trial journal with **zero repeat compilations** (proved by the
   fresh session's cache accounting) and converges to the identical
   leaderboard,
4. the same seeded search through a 2-server cluster backend — trials
   shard across both compile servers — still exports a byte-identical
   leaderboard, and the fleet stats show both workers compiled.

Run with::

    python examples/tuner_demo.py [journal_base_dir]
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


def make_run(backend=None, journal_path=None, on_trial=None) -> TuningRun:
    """One seeded tuning run; every section uses this exact config."""
    return TuningRun(
        SearchSpace.policy_space(),
        MultiObjective("aqv", "qubits"),
        SuccessiveHalving(scales=("quick", "laptop"), trials=5, seed=7),
        benchmarks=BENCHMARKS,
        machine=MACHINE,
        backend=backend,
        journal_path=journal_path,
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
    print(f"journal base directory: {base}")

    # --- 1. seeded racing search, local session ------------------------
    local = make_run(backend=Session(), journal_path=base / "local.jsonl")
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
    repeat = make_run(backend=Session())
    assert repeat.run().to_json() == report.to_json(), \
        "the same seeded search must export a byte-identical leaderboard"
    print("determinism  : fresh rerun exports byte-identical JSON")

    # --- 3. kill mid-run, resume from the journal ----------------------
    journal = base / "resume.jsonl"
    finished = []

    def killer(record) -> None:
        finished.append(record)
        if len(finished) >= KILL_AFTER:
            raise KilledMidRun()

    try:
        make_run(backend=Session(), journal_path=journal,
                 on_trial=killer).run()
        raise AssertionError("the killed run must not complete")
    except KilledMidRun:
        pass
    print(f"killed       : run stopped after {KILL_AFTER} journaled "
          f"trial(s)")

    session = Session()  # fresh caches: any repeat compile would show
    resumed = make_run(backend=session, journal_path=journal)
    resumed_report = resumed.run()
    stats = resumed.stats()
    total_unique = local.stats()["trials_executed"]
    assert stats["journal_restored"] == KILL_AFTER
    assert stats["trials_executed"] == total_unique - KILL_AFTER, \
        "resume must only compile the trials the kill lost"
    assert session.cache_misses == stats["trials_executed"] \
        and session.cache_hits == 0, \
        "zero repeat compilations: every executed trial was fresh work"
    assert resumed_report.to_json() == report.to_json(), \
        "a resumed run must converge to the uninterrupted leaderboard"
    print(f"resumed      : {stats['journal_restored']} trial(s) restored "
          f"from the journal, {stats['trials_executed']} compiled "
          f"(cache accounting proves zero repeats)")

    # --- 4. the same search through a 2-server cluster backend ---------
    server_a, url_a = start_server(str(base / "cache-a"))
    server_b, url_b = start_server(str(base / "cache-b"))
    executor = FleetExecutor([url_a, url_b])
    cluster = make_run(backend=Session(executor),
                       journal_path=base / "cluster.jsonl")
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
