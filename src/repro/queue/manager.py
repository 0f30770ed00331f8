"""The job manager: submit/status/result/cancel/list over a worker pool.

:class:`JobManager` is the piece that turns a blocking compilation
backend into an asynchronous service core: :meth:`submit` validates
nothing itself (the caller does), registers a
:class:`~repro.queue.jobs.QueuedJob` ticket, and pushes it onto the
bounded :class:`~repro.queue.queue.JobQueue` — returning in microseconds
while the :class:`~repro.queue.workers.WorkerPool` drains the queue
through the ``runner`` callable (normally a
:class:`~repro.service.server.CompilationService` method that executes
against the shared session and its cache tiers).

Lifecycle bookkeeping all happens under one manager lock, which makes
the critical cancellation guarantee cheap to state: a job observed
``QUEUED`` by :meth:`cancel` transitions to ``CANCELLED`` atomically and
is discarded from the queue, so its payload *never runs*; once a worker
has moved it to ``RUNNING`` the cancel is refused.

Three collaborators, each with a default, serve multi-tenant production
use (see :mod:`repro.tenancy`):

* the **scheduler** (:class:`~repro.tenancy.fairshare.FairShareScheduler`)
  orders the queue's pops by a fair-share composite score;
* the **store** (:class:`~repro.tenancy.store.JobStore`) journals every
  accepted submission, lifecycle transition and streamed entry, and is
  replayed at construction time: QUEUED jobs re-enqueue, orphaned
  RUNNING jobs requeue (at most ``max_requeues`` times, then FAILED),
  and terminal jobs are served byte-identically to before the restart.
  The default base-class store persists nothing and replays nothing;
* the **event log** (:class:`~repro.telemetry.events.EventLog`) narrates
  queue and lifecycle transitions as structured events.

Finished records are kept for polling and then garbage-collected by a
retention cap (oldest-finished first) — which also ``forget``s them
from the store, so the journal's compacted size stays bounded too.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError, ServiceError, UnknownJobError
from repro.core.result import JobFailure
from repro.queue.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    QueuedJob,
)
from repro.queue.queue import JobQueue
from repro.queue.workers import WorkerPool
from repro.telemetry.events import EventLog
from repro.telemetry.spans import current_span
from repro.telemetry.timing import EwmaRate
from repro.tenancy.fairshare import FairShareScheduler
from repro.tenancy.store import JobStore

#: Per-tenant lifecycle counter keys (the ``tenants`` stats section).
_TENANT_COUNTERS = ("submitted", "completed", "failed", "cancelled",
                    "rejected")


class JobManager:
    """Owns the queue, the workers, and every job record's lifecycle.

    Args:
        runner: ``runner(job) -> response payload`` — executes one job's
            work; library errors (:class:`~repro.exceptions.ReproError`)
            mark the job FAILED with a structured
            :class:`~repro.core.result.JobFailure` record instead of
            leaking out of the worker.
        workers: Worker thread count.
        queue_size: Queue capacity (back-pressure threshold).
        retention: Maximum number of *finished* records kept for
            polling; the oldest-finished beyond it are dropped.
        name: Thread-name prefix for the pool.
        scheduler: The queue's fair-share scheduler (default: a
            :class:`~repro.tenancy.fairshare.FairShareScheduler` on
            ``clock``).
        store: The :class:`~repro.tenancy.store.JobStore` (default: the
            no-persistence base class); its journal is replayed *before*
            the worker pool starts, so recovered QUEUED work is already
            waiting when workers spin up.
        max_requeues: How many times a job orphaned RUNNING by a crash
            is requeued before being marked FAILED instead (guards
            against a poison job crash-looping the server forever).
        events: The :class:`~repro.telemetry.events.EventLog` shared
            with the queue (default: a private log): push/pop/shed and
            job lifecycle transitions are narrated as structured events.
        clock: Monotonic time source for the entries/sec EWMA gauge and
            the default scheduler; injectable so frozen-clock tests get
            deterministic rates.
    """

    def __init__(self, runner: Callable[[QueuedJob], Dict[str, object]], *,
                 workers: int = 2, queue_size: int = 64,
                 retention: int = 256, name: str = "repro",
                 scheduler: Optional[FairShareScheduler] = None,
                 store: Optional[JobStore] = None, max_requeues: int = 1,
                 events: Optional[EventLog] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if retention < 0:
            raise ServiceError(f"retention must be >= 0, got {retention}")
        if max_requeues < 0:
            raise ServiceError(
                f"max_requeues must be >= 0, got {max_requeues}")
        self._runner = runner
        self.retention = retention
        self.max_requeues = max_requeues
        self.scheduler = scheduler or FairShareScheduler(clock=clock)
        self.store = store or JobStore()
        self.events = events or EventLog()
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, QueuedJob]" = OrderedDict()
        self._ids = itertools.count(1)
        self.queue = JobQueue(capacity=queue_size, scheduler=self.scheduler,
                              events=self.events)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.gc_dropped = 0
        self.entries_recorded = 0
        self.resumed_queued = 0
        self.requeued_running = 0
        self.recovered_terminal = 0
        self.orphans_failed = 0
        self._tenant_counters: Dict[str, Dict[str, int]] = {}
        self._entry_rate = EwmaRate(half_life=30.0, clock=clock)
        self._crashed = False
        self._recover()
        # Started last: workers may pop as soon as this line runs.
        self.pool = WorkerPool(self._run_job, self.queue, workers=workers,
                               name=name)

    # ------------------------------------------------------------------
    # Durable-store recovery (constructor only, pre-pool)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the store's journal into the live job table.

        Runs before the worker pool exists, so no lock is contended;
        recovered QUEUED jobs are re-enqueued *without* a burst charge
        (a restart's surviving backlog is not new demand), orphaned
        RUNNING jobs requeue at most ``max_requeues`` times, and
        terminal records come back verbatim — their journaled response
        is what ``GET /jobs/<id>`` serves, byte-identical to pre-crash.
        """
        snapshot = self.store.load_burst()
        if snapshot:
            # Seed the journaled burst scores, decayed by the downtime.
            # Wall clock by design: the snapshot stamp predates this
            # process, so a monotonic delta would be meaningless.
            now = time.time()  # lint: wall-clock (journal stamp delta)
            elapsed = now - float(snapshot.get("at") or 0.0)
            self.scheduler.restore_burst(snapshot.get("scores") or {},
                                         max(0.0, elapsed))
        max_id = 0
        for record in self.store.load():
            job = QueuedJob.from_snapshot(record)
            self._jobs[job.job_id] = job
            suffix = job.job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                max_id = max(max_id, int(suffix))
            # Rebuild the per-tenant lifecycle counters the crash lost,
            # so a restarted server's /stats and /metrics tenant series
            # agree with the journal instead of starting from zero.
            self._tenant_bump(job.tenant, "submitted")
            if job.state == DONE:
                self._tenant_bump(job.tenant, "completed")
            elif job.state == FAILED:
                self._tenant_bump(job.tenant, "failed")
            elif job.state == CANCELLED:
                self._tenant_bump(job.tenant, "cancelled")
            if job.is_terminal:
                self.recovered_terminal += 1
                continue
            if job.state == RUNNING:
                # Orphaned mid-run by the crash: the worker died with it.
                if job.retries >= self.max_requeues:
                    self._fail_orphan(job)
                    continue
                job.retries += 1
                job.state = QUEUED
                job.started_at = None
                self.requeued_running += 1
                self.store.record_transition(job)
            else:
                self.resumed_queued += 1
            self.queue.push(job, record_burst=False)
        if max_id:
            self._ids = itertools.count(max_id + 1)

    def _fail_orphan(self, job: QueuedJob) -> None:
        """Mark a repeatedly-orphaned job FAILED instead of requeuing.

        A job found RUNNING after ``max_requeues`` earlier recoveries is
        treated as a poison payload: requeuing it again would just crash
        the next server too.
        """
        failure = JobFailure(
            program_name=job.kind,
            machine_name="-",
            policy_name="-",
            error_type="ServiceError",
            message=(f"job {job.job_id} was orphaned RUNNING by a server "
                     f"restart {job.retries + 1} time(s); giving up after "
                     f"{self.max_requeues} requeue(s)"),
        )
        job.error = failure.to_dict()
        job.transition(FAILED)
        self.orphans_failed += 1
        self._tenant_bump(job.tenant, "failed")
        self.store.record_transition(job)

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------
    def submit(self, kind: str, payload: Dict[str, object],
               priority: int = 0, tenant=None,
               deadline_seconds: Optional[float] = None,
               trace_id: Optional[str] = None) -> QueuedJob:
        """Register and enqueue one job; returns its ticket immediately.

        Args:
            kind: Work type (``"compile"`` or ``"sweep"``).
            payload: The JSON-compatible work descriptor.
            priority: Higher runs sooner (one input to the fair-share
                score).
            tenant: The submitting
                :class:`~repro.tenancy.tenants.Tenant`, or None for
                pre-tenancy callers; drives quotas and fair share.
            deadline_seconds: Optional client-declared time budget; the
                scheduler raises urgency as the job burns through it.
            trace_id: Request-trace correlation id attached to the
                record (and its journal entry) for cross-fleet tracing.

        Raises:
            QuotaExceededError: The tenant is at its ``max_queued`` cap.
            BackPressureError: The queue is full; nothing was registered.
            ServiceError: The manager is closed.
        """
        with self._lock:
            job = QueuedJob(f"job-{next(self._ids):06d}", kind, payload,
                            priority=priority)
            job.tenant = tenant
            job.deadline_seconds = deadline_seconds
            job.trace_id = trace_id
            # Stamp the submitting span (if any) before the push: a
            # worker may pop and run the job before submit() returns,
            # so this cannot wait until after the ticket comes back.
            active = current_span()
            job.span_parent = active.span_id if active is not None else None
            self._jobs[job.job_id] = job
            try:
                self.queue.push(job)
            except ServiceError:
                # Rejected (back-pressure, quota, or closed): the ticket
                # never existed as far as clients are concerned.
                del self._jobs[job.job_id]
                self._tenant_bump(tenant, "rejected")
                raise
            self.submitted += 1
            self._tenant_bump(tenant, "submitted")
            self.store.record_submit(job)
            # Journal the burst-score table alongside the submission
            # that just charged it, stamped with wall time — the only
            # clock that survives a restart — so a flooding tenant
            # cannot reset its penalty by crashing the server.
            self.store.record_burst(
                self.scheduler.burst.scores(),
                time.time())  # lint: wall-clock (journal stamp)
            self._gc_locked()
            return job

    def _emit(self, level: str, message: str, job: QueuedJob,
              fields: Optional[Mapping[str, object]] = None) -> None:
        """Narrate one job lifecycle event.

        Correlation is explicit — lifecycle transitions happen on
        worker threads after the job's span has closed, so nothing can
        be pulled from the span context here.
        """
        tenant = job.tenant
        self.events.emit(level, message, component="manager",
                         tenant=tenant.name if tenant is not None else None,
                         job_id=job.job_id, trace_id=job.trace_id,
                         fields=fields)

    def _tenant_bump(self, tenant, key: str) -> None:
        """Increment one per-tenant lifecycle counter (lock held)."""
        if tenant is None:
            return
        bucket = self._tenant_counters.setdefault(
            tenant.name, {counter: 0 for counter in _TENANT_COUNTERS})
        bucket[key] += 1

    def get(self, job_id: str) -> QueuedJob:
        """The live record for ``job_id``.

        Raises:
            UnknownJobError: Unknown id, or already garbage-collected.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown job id {job_id!r} (never submitted, or already "
                f"garbage-collected by the retention policy)")
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        """JSON status payload for one job (result inline once DONE)."""
        return self.get(job_id).to_dict()

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> QueuedJob:
        """Block until the job is terminal; raises ServiceError on timeout."""
        job = self.get(job_id)
        if not job.wait(timeout):
            raise ServiceError(
                f"timed out after {timeout}s waiting for {job_id} "
                f"(state={job.state})")
        return job

    def result(self, job_id: str) -> Dict[str, object]:
        """The DONE response payload; failed/unfinished jobs raise.

        A FAILED job re-raises its original exception (the same type the
        synchronous path would have raised); QUEUED/RUNNING raise
        :class:`~repro.exceptions.ServiceError`; CANCELLED likewise.
        """
        job = self.get(job_id)
        if job.state == DONE:
            return job.response
        if job.state == FAILED:
            raise self.failure_exception(job)
        raise ServiceError(
            f"job {job_id} has no result (state={job.state})")

    def jobs(self, state: Optional[str] = None,
             limit: Optional[int] = None) -> List[QueuedJob]:
        """Snapshot of records in submission order, optionally filtered.

        Args:
            state: Keep only records currently in this lifecycle state.
            limit: Keep only the *most recently submitted* ``limit``
                records (applied after the state filter), so a busy
                server's job listing stays cheap to fetch.
        """
        if state is not None and state not in STATES:
            raise ServiceError(f"unknown job state {state!r}; "
                               f"expected one of {list(STATES)}")
        if limit is not None and limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
        with self._lock:
            records = list(self._jobs.values())
        if state is not None:
            records = [job for job in records if job.state == state]
        if limit is not None:
            records = records[len(records) - min(limit, len(records)):]
        return records

    # ------------------------------------------------------------------
    # Per-entry streaming
    # ------------------------------------------------------------------
    def record_entry(self, job: QueuedJob,
                     record: Mapping[str, object]) -> None:
        """Publish one finished-entry record on a job's progress stream.

        Called by the runner (worker thread) as each sweep entry
        completes; long-pollers blocked in :meth:`entries_since` wake
        immediately.  The record is journaled too, so a restarted
        server's entry cursors resume exactly where the stream stopped.
        """
        job.add_entry(record)
        with self._lock:
            self.entries_recorded += 1
            self._entry_rate.mark()
            self.store.record_entry(job.job_id, record)

    def entries_since(self, job_id: str, since: int = 0,
                      timeout: Optional[float] = None) -> Dict[str, object]:
        """Long-poll payload for entries beyond the ``since`` cursor.

        Blocks until new entries exist, the job is terminal, or
        ``timeout`` elapses.  The payload's ``state`` is read atomically
        with the entry slice, so a terminal state means the slice
        completes the stream; ``next`` is the cursor to resume from.

        Raises:
            UnknownJobError: Unknown or garbage-collected job id.
            ServiceError: Negative ``since`` cursor.
        """
        job = self.get(job_id)
        state, entries, total = job.entries_since(since, timeout)
        return {
            "job_id": job.job_id,
            "state": state,
            "since": since,
            "next": since + len(entries),
            "total": total,
            "entries": entries,
        }

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Tuple[QueuedJob, bool]:
        """Cancel a QUEUED job; returns ``(job, cancelled)``.

        The QUEUED check, the CANCELLED transition and the queue discard
        happen under one lock, so a cancelled job can never be picked up
        afterwards: either the cancel wins (the job never runs) or the
        worker already moved it to RUNNING (the cancel is refused).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"unknown job id {job_id!r}")
            if job.state != QUEUED:
                return job, False
            self.queue.discard(job_id)
            job.transition(CANCELLED)
            self.cancelled += 1
            self._tenant_bump(job.tenant, "cancelled")
            self.store.record_transition(job)
        self._emit("INFO", "job cancelled", job)
        return job, True

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run_job(self, job: QueuedJob) -> None:
        """Worker handler: lifecycle around one ``runner`` invocation."""
        with self._lock:
            if job.state != QUEUED:
                return  # lost the race against a cancel
            job.transition(RUNNING)
            self.store.record_transition(job)
        try:
            response = self._runner(job)
        except ReproError as error:
            self._finish_failed(job, error)
        except Exception as error:  # pragma: no cover - runner bug guard
            self._finish_failed(job, error)
        else:
            with self._lock:
                job.response = response
                job.transition(DONE)
                self.completed += 1
                self._tenant_bump(job.tenant, "completed")
                self.store.record_transition(job)
            self._emit("INFO", "job done", job,
                       fields={"kind": job.kind,
                               "entries": len(job.entries)})

    def _finish_failed(self, job: QueuedJob, error: BaseException) -> None:
        """Record a runner-raised error as a structured FAILED state.

        Job coordinates come from the submitted descriptor where the
        payload shape exposes them (``{"job": {...}}`` submissions);
        sweep-shaped payloads fall back to the job kind.
        """
        descriptor = job.payload.get("job")
        if not isinstance(descriptor, dict):
            descriptor = {}
        machine = descriptor.get("machine")
        policy = descriptor.get("policy")
        failure = JobFailure(
            program_name=str(descriptor.get("benchmark", job.kind)),
            machine_name=json.dumps(machine, sort_keys=True)
            if isinstance(machine, dict) else str(machine or "-"),
            policy_name=str(policy or "-"),
            error_type=type(error).__name__,
            message=str(error),
        )
        with self._lock:
            job.error = failure.to_dict()
            job.exception = error
            job.transition(FAILED)
            self.failed += 1
            self._tenant_bump(job.tenant, "failed")
            self.store.record_transition(job)
        self._emit("ERROR", f"job failed: {type(error).__name__}", job,
                   fields={"kind": job.kind, "message": str(error)})

    def failure_exception(self, job: QueuedJob) -> Exception:
        """Rebuild the exception behind a FAILED job, preserving type."""
        if isinstance(job.exception, Exception):
            return job.exception
        if job.error is not None:
            return JobFailure.from_dict(job.error).to_exception()
        return ServiceError(f"job {job.job_id} failed without a record")

    # ------------------------------------------------------------------
    # Retention GC and shutdown
    # ------------------------------------------------------------------
    def _gc_locked(self) -> int:
        """Drop oldest-finished records beyond ``retention`` (lock held).

        Dropped ids are ``forget``-ten from the store too, so the
        journal's live set — and therefore its compacted size — tracks
        the retention cap instead of growing with server lifetime.
        """
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.is_terminal]
        dropped_ids = finished[:max(0, len(finished) - self.retention)]
        for job_id in dropped_ids:
            del self._jobs[job_id]
        self.gc_dropped += len(dropped_ids)
        if dropped_ids:
            self.store.forget(dropped_ids)
        return len(dropped_ids)

    def gc(self) -> int:
        """Apply the retention policy now; returns records dropped."""
        with self._lock:
            return self._gc_locked()

    def close(self, drain: bool = False,
              timeout: Optional[float] = 10.0) -> bool:
        """Shut the subsystem down; returns True on a clean join.

        Args:
            drain: When True, workers finish the queued backlog first;
                when False (default) queued jobs are dropped and their
                records marked CANCELLED.
            timeout: Per-thread join timeout.
        """
        if self._crashed:
            return True  # a "crashed" manager is already gone
        dropped = self.queue.close(drain=drain)
        with self._lock:
            for job in dropped:
                if job.state == QUEUED:
                    job.transition(CANCELLED)
                    self.cancelled += 1
                    self._tenant_bump(job.tenant, "cancelled")
                    self.store.record_transition(job)
        joined = self.pool.close(timeout)
        self.store.close()
        return joined

    def crash(self) -> None:
        """Simulate a process kill (test/demo seam — no real SIGKILL).

        Ordering is the whole point: the store is frozen *first*, so
        nothing that happens afterwards is journaled — exactly like a
        process that died.  Queued jobs are dropped without CANCELLED
        transitions (a crash cancels nothing; the journal still says
        QUEUED, which is what recovery replays), and worker threads are
        not joined (a busy "dead" worker finishing later mutates only
        in-memory state that a real crash would have lost anyway).
        """
        self._crashed = True
        self.store.close()
        self.queue.close(drain=False)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-compatible queue/worker/lifecycle telemetry."""
        with self._lock:
            states = {state: 0 for state in STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            retained = len(self._jobs)
            tenants = {name: dict(bucket)
                       for name, bucket in self._tenant_counters.items()}
            entries_per_second = self._entry_rate.rate()
        return {
            "queue": self.queue.stats(),
            "pool": self.pool.stats(),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "retained": retained,
            "retention": self.retention,
            "gc_dropped": self.gc_dropped,
            "entries_recorded": self.entries_recorded,
            "entries_per_second": entries_per_second,
            "states": states,
            "tenants": tenants,
            "fair_share": self.scheduler.stats(),
            "store": self.store.stats(),
            "recovery": {
                "resumed_queued": self.resumed_queued,
                "requeued_running": self.requeued_running,
                "recovered_terminal": self.recovered_terminal,
                "orphans_failed": self.orphans_failed,
                "max_requeues": self.max_requeues,
            },
        }

    def __repr__(self) -> str:
        return (f"JobManager(workers={self.pool.workers}, "
                f"queue={len(self.queue)}/{self.queue.capacity}, "
                f"submitted={self.submitted})")
