"""Sharded multi-server sweeps with streaming per-entry results.

The horizontal-scaling layer above :mod:`repro.service`: where one
compile server absorbs a sweep through its job queue, a
:class:`FleetExecutor` splits a batch across a *fleet* of servers and
streams their results back.  It is a plain
:class:`~repro.api.session.Session` executor, so the session still owns
sweep expansion, dedup, both cache tiers, the failure mode and verify:

* :mod:`repro.cluster.topology` — :class:`WorkerEndpoint` /
  :class:`ClusterTopology`: fleet membership, ``/health`` probing,
  liveness bookkeeping.
* :mod:`repro.cluster.sharding` — deterministic rendezvous hashing of
  job fingerprints to endpoints, so repeated sweeps hit the same
  servers' warm disk caches and a dead worker only moves its own jobs.
* :mod:`repro.cluster.streaming` — :class:`ShardConsumer`: one thread
  per shard long-polling ``GET /jobs/<id>/entries``, delivering entries
  the moment workers finish them.
* :mod:`repro.cluster.executor` — :class:`FleetExecutor`: shard →
  submit → stream → heal (re-dispatch after worker death or 503
  back-pressure), one outcome per job in job order.  A two-worker
  fleet sweep exports byte-identical JSON/CSV to a serial
  single-session run.

Quick start (servers already listening)::

    from repro.api import MachineSpec, Session, SweepSpec
    from repro.cluster import FleetExecutor

    spec = (SweepSpec()
            .with_benchmarks("RD53", "ADDER4", "6SYM")
            .with_machines(MachineSpec.nisq_grid(5, 5))
            .with_policies("lazy", "square"))
    fleet = FleetExecutor(
        ["http://127.0.0.1:8731", "http://127.0.0.1:8732"],
        on_outcome=lambda job, outcome: print(job.program_label))
    sweep = Session(fleet, isolate_failures=True).run(spec)
    sweep.to_csv("cluster.csv")

Or from the command line: ``python -m repro.experiments cluster-sweep
RD53 ADDER4 --endpoint http://127.0.0.1:8731 --endpoint
http://127.0.0.1:8732``.
"""

from repro.cluster.executor import FleetExecutor
from repro.cluster.sharding import (
    assign_endpoint,
    shard_counts,
    shard_jobs,
    shard_score,
    shard_weight,
)
from repro.cluster.streaming import (
    COMPLETED,
    CRASHED,
    DIED,
    UNFINISHED,
    ShardConsumer,
)
from repro.cluster.topology import ClusterTopology, WorkerEndpoint

__all__ = [
    "COMPLETED",
    "CRASHED",
    "ClusterTopology",
    "DIED",
    "FleetExecutor",
    "ShardConsumer",
    "UNFINISHED",
    "WorkerEndpoint",
    "assign_endpoint",
    "shard_counts",
    "shard_jobs",
    "shard_score",
    "shard_weight",
]
