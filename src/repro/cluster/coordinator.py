"""The cluster coordinator: one sweep, many compile servers.

:class:`ClusterCoordinator` takes the same work a
:class:`~repro.api.session.Session` does — a
:class:`~repro.api.sweep.SweepSpec` or an explicit job list — and
executes it across a fleet of compile servers:

1. **Expand + dedup**: the sweep expands to its ordered job list; jobs
   sharing a fingerprint compile once cluster-wide.
2. **Shard**: unique jobs partition across live endpoints by rendezvous
   fingerprint hashing (:mod:`repro.cluster.sharding`), so repeated
   sweeps land on the same servers' warm disk caches; endpoint
   ``weight=`` factors in, so a heterogeneous fleet shards
   proportionally to capacity.
3. **Submit + stream**: each shard goes up as one async ``POST /jobs``
   sweep; a :class:`~repro.cluster.streaming.ShardConsumer` thread per
   shard long-polls ``GET /jobs/<id>/entries``, handing every entry to
   the caller's ``on_entry`` callback the moment it lands — the first
   results arrive while most of the batch is still compiling.
4. **Heal**: a worker that dies mid-stream (transport failure) or
   rejects its shard with 503 back-pressure has its unfinished jobs
   re-dispatched to the surviving endpoints on the next round.  A
   worker whose shard job *fails server-side* (FAILED/CANCELLED with
   entries missing) keeps its delivered entries, but the remainder is
   retried on an **alternate** worker — the failing endpoint is
   excluded from the next dispatch round, so a server with a sick
   queue cannot eat the same jobs round after round.
   :class:`~repro.exceptions.ClusterError` is raised only when no live
   workers remain or the round budget runs out.
5. **Merge deterministically**: results key by fingerprint and the final
   :class:`~repro.api.sweep.SweepResult` is assembled in original job
   order with session-identical cached/disk-hit accounting, so a
   cluster sweep exports byte-identical JSON/CSV to the same sweep run
   serially in one session.

Job-level failures are *not* cluster failures: an impossible machine
comes back as a structured failure entry from whichever worker ran it,
exactly as in a single-server sweep.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import (
    BackPressureError,
    ClusterError,
    ServiceError,
    UnknownJobError,
)
from repro.api.job import CompileJob
from repro.api.sweep import SweepEntry, SweepResult, SweepSpec
from repro.cluster.sharding import shard_jobs
from repro.cluster.streaming import (
    COMPLETED,
    CRASHED,
    DIED,
    UNFINISHED,
    ShardConsumer,
)
from repro.cluster.topology import ClusterTopology, WorkerEndpoint
from repro.telemetry import EventLog

#: ``on_entry`` callback: (first original index, entry) per unique job.
EntryCallback = Callable[[int, SweepEntry], None]


class ClusterCoordinator:
    """Drives a sweep across a fleet of compile-service endpoints.

    Args:
        endpoints: Worker service roots (URLs or
            :class:`~repro.cluster.topology.WorkerEndpoint` records); at
            least one.
        client_factory: ``factory(url) -> client`` override for building
            endpoint clients — the seam deterministic failure tests
            inject fake workers through.
        api_key: Tenant credential forwarded to every shard as the
            ``X-Repro-Key`` header, so a cluster sweep runs as one
            principal fleet-wide (each worker resolves the key against
            its own registry); None makes keyless (anonymous) requests.
        trace_id: Trace id forwarded to every shard as the
            ``X-Repro-Trace`` header, so one sweep's job records share
            an id fleet-wide; None mints one per endpoint client.
        poll_timeout: Per-long-poll park time for entry streams.
        shard_timeout: Overall per-shard streaming deadline, seconds.
        max_rounds: Dispatch-round budget; None sizes it to the fleet
            (two healing opportunities per endpoint, minimum 4).
        retry_delay: Pause before a round that only exists because every
            usable endpoint back-pressured, giving queues time to drain.
    """

    def __init__(self,
                 endpoints: Sequence[Union[str, WorkerEndpoint]], *,
                 client_factory=None,
                 api_key: Optional[str] = None,
                 trace_id: Optional[str] = None,
                 poll_timeout: float = 10.0,
                 shard_timeout: Optional[float] = None,
                 max_rounds: Optional[int] = None,
                 retry_delay: float = 0.2) -> None:
        self.topology = ClusterTopology(endpoints,
                                        client_factory=client_factory,
                                        api_key=api_key,
                                        trace_id=trace_id)
        self.poll_timeout = poll_timeout
        self.shard_timeout = shard_timeout
        self.max_rounds = max_rounds or max(4, 2 * len(self.topology))
        self.retry_delay = retry_delay
        self.rounds_run = 0
        self.redispatched_jobs = 0
        self.shed_jobs = 0
        self.failed_shard_retries = 0
        #: Coordinator-local event log: dispatch rounds, sheds, worker
        #: deaths, and failed-shard retries, correlated to the sweep's
        #: fleet-wide trace id.  Worker-side events are collected
        #: separately via ``topology.fleet_logs()``.
        self.events = EventLog()

    # ------------------------------------------------------------------
    def run(self, work: Union[SweepSpec, Sequence[CompileJob]], *,
            on_entry: Optional[EntryCallback] = None,
            probe: bool = True) -> SweepResult:
        """Execute a sweep across the fleet; returns the merged result.

        Args:
            work: A :class:`~repro.api.sweep.SweepSpec` or explicit job
                list (benchmark jobs only — in-memory programs cannot
                cross the service boundary).
            on_entry: Streaming callback fired once per unique job as
                its entry arrives, with the job's first index in the
                original order; called from consumer threads (one at a
                time — the coordinator serializes it).
            probe: Health-probe the fleet before dispatching (skips
                known-dead endpoints without burning a round on them).

        Raises:
            ClusterError: No live endpoints, or the round budget ran
                out with jobs still unfinished.
            ExperimentError: ``work`` contains in-memory program jobs.
        """
        jobs = work.jobs() if isinstance(work, SweepSpec) else list(work)
        if not jobs:
            return SweepResult([])
        fingerprints = [job.fingerprint() for job in jobs]
        for job in jobs:
            job.to_dict()  # fail fast on unserializable program jobs

        # Unique work in first-occurrence order; duplicates merge back
        # as cache hits, mirroring Session's in-batch dedup.
        unique: "OrderedDict[str, CompileJob]" = OrderedDict()
        first_index: Dict[str, int] = {}
        for index, (job, fingerprint) in enumerate(zip(jobs, fingerprints)):
            if fingerprint not in unique:
                unique[fingerprint] = job
                first_index[fingerprint] = index

        if probe:
            self.topology.probe_all()

        results: Dict[str, dict] = {}
        callback_lock = threading.Lock()

        def record_result(fingerprint: str, job: CompileJob,
                          record: dict) -> None:
            with callback_lock:
                if fingerprint in results:
                    return  # a re-dispatched duplicate landed twice
                results[fingerprint] = record
                if on_entry is not None:
                    on_entry(first_index[fingerprint],
                             SweepEntry.from_record(job, record))

        pending: List[Tuple[str, CompileJob]] = list(unique.items())
        rounds = 0
        while pending:
            rounds += 1
            self.rounds_run += 1
            if rounds > self.max_rounds:
                raise ClusterError(
                    f"sweep incomplete after {self.max_rounds} dispatch "
                    f"round(s): {len(pending)} of {len(unique)} job(s) "
                    f"unfinished; cluster: {self.topology.stats()}")
            pending, saturated_only = self._dispatch_round(
                pending, record_result, exclude=frozenset()
                if rounds == 1
                else self._last_saturated | self._last_failed)
            if pending and saturated_only:
                time.sleep(self.retry_delay)

        return self._merge(jobs, fingerprints, results)

    # ------------------------------------------------------------------
    def _dispatch_round(self, pending: List[Tuple[str, CompileJob]],
                        record_result, exclude: frozenset
                        ) -> Tuple[List[Tuple[str, CompileJob]], bool]:
        """One shard/submit/stream round; returns (still pending, bool
        "the only obstacle this round was back-pressure")."""
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
                    # already-started consumers drain, so the caller's
                    # on_entry never fires after run() has raised.
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
                endpoint, job_id, shard, record_result,
                poll_timeout=self.poll_timeout,
                timeout=self.shard_timeout).start())

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
                # on_entry raising); re-raise the original exception
                # instead of burning healing rounds on it.
                fatal = fatal or consumer.exception
        if fatal is not None:
            raise fatal

        self._last_saturated = frozenset(saturated)
        self._last_failed = frozenset(failed_shard)
        still_pending = [(fingerprint, job) for fingerprint, job in pending
                         if fingerprint not in completed]
        saturated_only = bool(saturated) and not died_at_submit \
            and all(consumer.outcome == COMPLETED for consumer in consumers)
        return still_pending, saturated_only

    #: Endpoints that 503'd in the previous round (shed next round).
    _last_saturated: frozenset = frozenset()

    #: Endpoints whose shard job failed server-side in the previous
    #: round (their retried jobs go to alternates next round).
    _last_failed: frozenset = frozenset()

    # ------------------------------------------------------------------
    def _merge(self, jobs: Sequence[CompileJob],
               fingerprints: Sequence[str],
               results: Dict[str, dict]) -> SweepResult:
        """Assemble the final result in original job order.

        First occurrence of each fingerprint keeps the worker-reported
        provenance; repeats count as cache hits with no disk credit —
        the same accounting a serial session produces, so exports are
        byte-identical.
        """
        entries: List[SweepEntry] = []
        seen: set = set()
        for job, fingerprint in zip(jobs, fingerprints):
            record = results.get(fingerprint)
            if record is None:  # pragma: no cover - run() guarantees it
                raise ClusterError(
                    f"merge is missing a result for {job.program_label} "
                    f"({fingerprint[:12]}...)")
            entry = SweepEntry.from_record(job, record)
            if fingerprint in seen and entry.ok:
                entry = replace(entry, cached=True, disk_hit=False)
            entries.append(entry)
            seen.add(fingerprint)
        return SweepResult(entries)

    @property
    def trace_id(self) -> str:
        """The trace id every shard of this coordinator's fan-outs
        carries (minted by the topology when the caller passed none)."""
        return self.topology.trace_id

    def stats(self) -> Dict[str, object]:
        """JSON-compatible coordinator + fleet telemetry."""
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
        return (f"ClusterCoordinator(endpoints={len(self.topology)}, "
                f"alive={len(self.topology.alive())}, "
                f"rounds_run={self.rounds_run})")


def cluster_sweep(endpoints: Sequence[str],
                  work: Union[SweepSpec, Sequence[CompileJob]], *,
                  on_entry: Optional[EntryCallback] = None) -> SweepResult:
    """One-shot convenience: build a coordinator, run one sweep."""
    return ClusterCoordinator(endpoints).run(work, on_entry=on_entry)
