"""The fleet executor: one batch of jobs, many compile servers.

:class:`FleetExecutor` is a :class:`~repro.api.session.Session`
executor, like :class:`~repro.api.executors.SerialExecutor`: ``run(jobs)``
returns one :class:`~repro.core.result.CompilationResult` or
:class:`~repro.core.result.JobFailure` per job, in job order.  The
session around it expands sweeps, dedups, consults its memory and disk
tiers, applies the failure mode, verifies and assembles entries, exactly
as it does for a local executor.  A fleet sweep is therefore::

    Session(FleetExecutor(urls), isolate_failures=True).run(spec)

What the executor adds is only what is fleet-specific:

1. **Shard**: jobs partition across live endpoints by rendezvous
   fingerprint hashing (:mod:`repro.cluster.sharding`), so repeated
   sweeps land on the same servers' warm disk caches; endpoint
   ``weight=`` factors in, so a heterogeneous fleet shards
   proportionally to capacity.  Jobs sharing a fingerprint go out once.
2. **Submit + stream**: each shard goes up as one async ``POST /jobs``
   sweep; a :class:`~repro.cluster.streaming.ShardConsumer` thread per
   shard long-polls ``GET /jobs/<id>/entries``, handing every outcome
   to the ``on_outcome`` callback the moment it lands — the first
   results arrive while most of the batch is still compiling.
3. **Heal**: a worker that dies mid-stream (transport failure) or
   rejects its shard with 503 back-pressure has its unfinished jobs
   re-dispatched to the surviving endpoints on the next round.  A
   worker whose shard job *fails server-side* (FAILED/CANCELLED with
   entries missing) keeps its delivered entries, but the remainder is
   retried on an **alternate** worker — the failing endpoint is
   excluded from the next dispatch round, so a server with a sick
   queue cannot eat the same jobs round after round.
   :class:`~repro.exceptions.ClusterError` is raised only when no live
   workers remain or the round budget runs out.

Job-level failures are *not* cluster failures: an impossible machine
comes back as a :class:`~repro.core.result.JobFailure` from whichever
worker ran it, exactly as in a single-server sweep.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import (
    BackPressureError,
    ClusterError,
    ServiceError,
    UnknownJobError,
)
from repro.api.job import CompileJob
from repro.cluster.sharding import shard_jobs
from repro.cluster.streaming import (
    COMPLETED,
    CRASHED,
    DIED,
    UNFINISHED,
    ShardConsumer,
)
from repro.cluster.topology import ClusterTopology, WorkerEndpoint
from repro.core.result import CompilationResult, JobFailure
from repro.telemetry import EventLog

Outcome = Union[CompilationResult, JobFailure]

#: ``on_outcome`` callback: (job, outcome) once per job the fleet runs.
OutcomeCallback = Callable[[CompileJob, Outcome], None]


def _outcome(record: dict) -> Outcome:
    """The result or failure a worker's entry record carries."""
    if record.get("ok"):
        return CompilationResult.from_dict(record["result"])
    return JobFailure.from_dict(record["error"])


class FleetExecutor:
    """Runs job batches across a fleet of compile-service endpoints.

    Args:
        endpoints: Worker service roots (URLs or
            :class:`~repro.cluster.topology.WorkerEndpoint` records); at
            least one.
        client_factory: ``factory(url) -> client`` override for building
            endpoint clients — the seam deterministic failure tests
            inject fake workers through.
        api_key: Tenant credential forwarded to every shard as the
            ``X-Repro-Key`` header, so a fleet sweep runs as one
            principal fleet-wide (each worker resolves the key against
            its own registry); None makes keyless (anonymous) requests.
        max_rounds: Dispatch-round budget; None sizes it to the fleet
            (two healing opportunities per endpoint, minimum 4).
        retry_delay: Pause before a round that only exists because every
            usable endpoint back-pressured, giving queues time to drain.
        on_outcome: Streaming callback fired once per job the executor
            runs, as its outcome arrives; called from consumer threads,
            one at a time.  An exception it raises propagates out of
            :meth:`run`.
    """

    def __init__(self,
                 endpoints: Sequence[Union[str, WorkerEndpoint]], *,
                 client_factory=None,
                 api_key: Optional[str] = None,
                 max_rounds: Optional[int] = None,
                 retry_delay: float = 0.2,
                 on_outcome: Optional[OutcomeCallback] = None) -> None:
        self.topology = ClusterTopology(endpoints,
                                        client_factory=client_factory,
                                        api_key=api_key)
        self.max_rounds = max_rounds or max(4, 2 * len(self.topology))
        self.retry_delay = retry_delay
        self.on_outcome = on_outcome
        self.rounds_run = 0
        self.redispatched_jobs = 0
        self.shed_jobs = 0
        self.failed_shard_retries = 0
        #: Executor-local event log: dispatch rounds, sheds, worker
        #: deaths, and failed-shard retries, correlated to the fleet-wide
        #: trace id.  Worker-side events are collected separately via
        #: ``topology.fleet_logs()``.
        self.events = EventLog()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[CompileJob]) -> List[Outcome]:
        """Run ``jobs`` across the fleet; one outcome per job, in order.

        Raises:
            ClusterError: No live endpoints, or the round budget ran
                out with jobs still unfinished.
            ExperimentError: ``jobs`` contains in-memory program jobs
                (they cannot cross the service boundary).
        """
        fingerprints = [job.fingerprint() for job in jobs]
        pending = list(dict(zip(fingerprints, jobs)).items())
        for _, job in pending:
            job.to_dict()  # fail fast on unserializable program jobs
        self.topology.probe_all()

        outcomes: Dict[str, Outcome] = {}

        def record_result(fingerprint: str, job: CompileJob,
                          record: dict) -> None:
            outcome = _outcome(record)
            with self._lock:
                if fingerprint in outcomes:
                    return  # a re-dispatched duplicate landed twice
                outcomes[fingerprint] = outcome
                if self.on_outcome is not None:
                    self.on_outcome(job, outcome)

        total = len(pending)
        rounds = 0
        exclude: frozenset = frozenset()
        while pending:
            rounds += 1
            self.rounds_run += 1
            if rounds > self.max_rounds:
                raise ClusterError(
                    f"sweep incomplete after {self.max_rounds} dispatch "
                    f"round(s): {len(pending)} of {total} job(s) "
                    f"unfinished; cluster: {self.topology.stats()}")
            pending, exclude, saturated_only = self._dispatch_round(
                pending, record_result, exclude)
            if pending and saturated_only:
                time.sleep(self.retry_delay)
        return [outcomes[fingerprint] for fingerprint in fingerprints]

    # ------------------------------------------------------------------
    def _dispatch_round(self, pending: List[Tuple[str, CompileJob]],
                        record_result, exclude: frozenset
                        ) -> Tuple[List[Tuple[str, CompileJob]],
                                   frozenset, bool]:
        """One shard/submit/stream round; returns (still pending, the
        endpoints the next round excludes, bool "the only obstacle this
        round was back-pressure")."""
        alive = self.topology.alive()
        if not alive:
            raise ClusterError(
                f"no live worker endpoints remain "
                f"({len(pending)} job(s) unfinished); "
                f"cluster: {self.topology.stats()}")
        # Endpoints that back-pressured (or failed their shard job)
        # last round shed to siblings this round — unless that would
        # leave nobody to dispatch to.  Weights flow into the
        # rendezvous hash, so heterogeneous fleets shard by capacity.
        usable = [endpoint for endpoint in alive
                  if endpoint.url not in exclude] or alive
        shards = shard_jobs(pending, {endpoint.url: endpoint.weight
                                      for endpoint in usable})
        self.events.info(
            "dispatch round", component="cluster",
            trace_id=self.trace_id,
            fields={"round": self.rounds_run, "pending": len(pending),
                    "workers": len(usable)})

        consumers: List[ShardConsumer] = []
        saturated: set = set()
        died_at_submit = False
        fatal: Optional[BaseException] = None
        for url, shard in shards.items():
            if fatal is not None:
                break  # don't submit work whose results will be thrown away
            endpoint = self.topology.get(url)
            descriptors = [job.to_dict() for _, job in shard]
            try:
                job_id = endpoint.client.submit_async({"jobs": descriptors})
            except BackPressureError:
                saturated.add(endpoint.url)
                self.shed_jobs += len(shard)
                self.events.warning(
                    "shard shed: worker back-pressure", component="cluster",
                    trace_id=self.trace_id,
                    fields={"worker": endpoint.url, "jobs": len(shard)})
                continue  # shard re-dispatches to siblings next round
            except (UnknownJobError, ServiceError) as error:
                status = getattr(error, "http_status", None)
                if status is not None and 400 <= status < 500:
                    # A deterministic rejection (e.g. a benchmark or
                    # policy registered here but not on the workers):
                    # every server would answer the same, so marking
                    # the endpoint dead and re-dispatching would only
                    # cascade.  Surface the real message — after the
                    # already-started consumers drain, so on_outcome
                    # never fires after run() has raised.
                    fatal = fatal or ClusterError(
                        f"worker {endpoint.url} rejected the shard "
                        f"submission: {error}")
                    continue
                self.topology.mark_dead(
                    endpoint, f"shard submission failed: {error}")
                self.events.warning(
                    "worker marked dead: shard submission failed",
                    component="cluster", trace_id=self.trace_id,
                    fields={"worker": endpoint.url, "jobs": len(shard),
                            "error": str(error)})
                died_at_submit = True
                continue
            consumers.append(ShardConsumer(
                endpoint, job_id, shard, record_result).start())

        completed: set = set()
        failed_shard: set = set()
        for consumer in consumers:
            consumer.join()
            if consumer.outcome == COMPLETED:
                completed.update(
                    fingerprint for fingerprint, _ in consumer.shard)
                continue
            completed.update(fingerprint for fingerprint, _
                             in consumer.shard[:consumer.received])
            self.redispatched_jobs += len(consumer.unfinished())
            if consumer.outcome == DIED:
                self.topology.mark_dead(
                    consumer.endpoint,
                    f"entry stream died: {consumer.error}")
                self.events.warning(
                    "worker marked dead: entry stream died",
                    component="cluster", trace_id=self.trace_id,
                    fields={"worker": consumer.endpoint.url,
                            "unfinished": len(consumer.unfinished()),
                            "error": str(consumer.error)})
            elif consumer.outcome == UNFINISHED:
                # The worker is reachable but its shard job ended
                # FAILED/CANCELLED server-side.  Retry the remainder on
                # an *alternate* worker: excluding this endpoint from
                # the next round re-routes the jobs instead of handing
                # them straight back to the same sick queue.
                failed_shard.add(consumer.endpoint.url)
                self.failed_shard_retries += len(consumer.unfinished())
                self.events.warning(
                    "shard failed server-side; retrying on alternates",
                    component="cluster", trace_id=self.trace_id,
                    fields={"worker": consumer.endpoint.url,
                            "unfinished": len(consumer.unfinished())})
            elif consumer.outcome == CRASHED:
                # Not the worker's fault (typically the caller's
                # on_outcome raising); re-raise the original exception
                # instead of burning healing rounds on it.
                fatal = fatal or consumer.exception
        if fatal is not None:
            raise fatal

        still_pending = [(fingerprint, job) for fingerprint, job in pending
                         if fingerprint not in completed]
        saturated_only = bool(saturated) and not died_at_submit \
            and all(consumer.outcome == COMPLETED for consumer in consumers)
        return still_pending, frozenset(saturated | failed_shard), \
            saturated_only

    @property
    def trace_id(self) -> str:
        """The trace id every shard of this executor's fan-outs carries
        (minted by the topology)."""
        return self.topology.trace_id

    def stats(self) -> Dict[str, object]:
        """JSON-compatible executor + fleet telemetry."""
        return {
            "topology": self.topology.stats(),
            "rounds_run": self.rounds_run,
            "redispatched_jobs": self.redispatched_jobs,
            "shed_jobs": self.shed_jobs,
            "failed_shard_retries": self.failed_shard_retries,
            "max_rounds": self.max_rounds,
            "events": self.events.stats(),
        }

    def __repr__(self) -> str:
        return (f"FleetExecutor(endpoints={len(self.topology)}, "
                f"alive={len(self.topology.alive())}, "
                f"rounds_run={self.rounds_run})")
