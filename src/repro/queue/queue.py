"""Bounded, fair-share-ordered, thread-safe job queue with back-pressure.

The queue is the service's pressure valve: submissions beyond
``capacity`` are rejected *immediately* with a structured
:class:`~repro.exceptions.BackPressureError` (HTTP 503 on the wire)
instead of letting an unbounded backlog eat the server.  On top of the
global cap sit *per-tenant* quotas: a job whose tenant already has
``max_queued`` jobs waiting is rejected with
:class:`~repro.exceptions.QuotaExceededError` (HTTP 429) while every
other tenant keeps submitting — one noisy tenant back-pressures only
itself.

Pop order is fair share: the waiting job with the highest
:class:`~repro.tenancy.fairshare.FairShareScheduler` composite score
pops — priority, role weight, queue age, deadline urgency, and the
tenant's decaying burst penalty all factor in.  Every waiting job is
scored at one ``now`` per pop, so the backlog keeps reordering as bursts
decay and jobs age, and score ties pop in submission order (FIFO).

Workers block in :meth:`JobQueue.pop` until a job or shutdown arrives;
:meth:`JobQueue.close` wakes every worker, and a closed, drained queue
pops ``None`` — the worker-pool shutdown signal.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.exceptions import (
    BackPressureError,
    QuotaExceededError,
    ServiceError,
)
from repro.queue.jobs import QueuedJob
from repro.telemetry.events import EventLog
from repro.tenancy.fairshare import FairShareScheduler


class JobQueue:
    """A bounded, fair-share-ordered queue of :class:`QueuedJob` records.

    Args:
        capacity: Maximum number of waiting jobs; pushes beyond it raise
            :class:`~repro.exceptions.BackPressureError`.
        scheduler: The fair-share scheduler that scores pops and charges
            each push to the submitting tenant's burst score (default: a
            fresh :class:`~repro.tenancy.fairshare.FairShareScheduler`).
        events: The :class:`~repro.telemetry.events.EventLog` every
            push/pop/shed is narrated to as a structured event
            (correlated to the submitting request's span when one is
            active); default: a private log.
    """

    def __init__(self, capacity: int = 64,
                 scheduler: Optional[FairShareScheduler] = None,
                 events: Optional[EventLog] = None) -> None:
        if capacity < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.scheduler = scheduler or FairShareScheduler()
        self.events = events or EventLog()
        self._cond = threading.Condition()
        #: Waiting jobs in push order; list order breaks score ties.
        self._waiting: List[QueuedJob] = []
        self._closed = False
        self._tenant_depth: Dict[str, int] = {}
        self.pushed = 0
        self.rejected = 0
        self.quota_rejected = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _tenant_name(job: QueuedJob) -> Optional[str]:
        return job.tenant.name if job.tenant is not None else None

    def _depth_add(self, job: QueuedJob, delta: int) -> None:
        name = self._tenant_name(job)
        if name is None:
            return
        depth = self._tenant_depth.get(name, 0) + delta
        if depth > 0:
            self._tenant_depth[name] = depth
        else:
            self._tenant_depth.pop(name, None)

    def push(self, job: QueuedJob, record_burst: bool = True) -> int:
        """Enqueue a job; returns the queue depth after the push.

        Args:
            job: The record to enqueue.
            record_burst: Charge the push to the tenant's burst score
                (False on the store-recovery path — re-enqueuing a
                restart's surviving backlog is not new demand).

        Raises:
            QuotaExceededError: The job's tenant is at its per-tenant
                ``max_queued`` cap (other tenants are unaffected).
            BackPressureError: The queue is at global capacity.
            ServiceError: The queue has been closed.
        """
        with self._cond:
            if self._closed:
                raise ServiceError("job queue is closed; no new submissions")
            tenant = job.tenant
            if tenant is not None and tenant.max_queued is not None:
                depth = self._tenant_depth.get(tenant.name, 0)
                if depth >= tenant.max_queued:
                    self.quota_rejected += 1
                    self.events.warning(
                        "job shed: tenant quota", component="queue",
                        tenant=tenant.name, job_id=job.job_id,
                        trace_id=job.trace_id,
                        fields={"depth": depth,
                                "max_queued": tenant.max_queued})
                    raise QuotaExceededError(
                        f"tenant {tenant.name!r} already has {depth}/"
                        f"{tenant.max_queued} job(s) waiting; retry "
                        f"after some finish",
                        tenant=tenant.name, depth=depth,
                        capacity=tenant.max_queued,
                    )
            depth = len(self._waiting)
            if depth >= self.capacity:
                self.rejected += 1
                self.events.warning(
                    "job shed: back-pressure", component="queue",
                    tenant=self._tenant_name(job), job_id=job.job_id,
                    trace_id=job.trace_id,
                    fields={"depth": depth, "capacity": self.capacity})
                raise BackPressureError(
                    f"job queue is full ({depth}/{self.capacity} "
                    f"jobs waiting); retry later",
                    depth=depth, capacity=self.capacity,
                )
            self._waiting.append(job)
            self._depth_add(job, +1)
            self.scheduler.on_push(job, record_burst)
            self.pushed += 1
            self.events.debug(
                "job queued", component="queue",
                tenant=self._tenant_name(job), job_id=job.job_id,
                trace_id=job.trace_id,
                fields={"depth": depth + 1, "priority": job.priority})
            self._cond.notify()
            return depth + 1

    def _pop_locked(self) -> QueuedJob:
        """Remove and return the next job (lock held, queue non-empty).

        Every waiting job is scored at the same ``now``; ``max`` keeps
        the first of equal scores, so ties pop in push order.
        """
        now = self.scheduler.clock()
        score = self.scheduler.score
        waiting = self._waiting
        best = max(range(len(waiting)),
                   key=lambda index: score(waiting[index], now))
        return waiting.pop(best)

    def pop(self, timeout: Optional[float] = None) -> Optional[QueuedJob]:
        """Dequeue the highest-scoring waiting job, blocking while empty.

        Returns ``None`` when the queue is closed and drained (shutdown
        signal), or when ``timeout`` elapses with nothing to pop.
        """
        with self._cond:
            while not self._waiting and not self._closed:
                if not self._cond.wait(timeout):
                    return None
            if self._waiting:
                job = self._pop_locked()
                self._depth_add(job, -1)
                self.events.debug(
                    "job popped", component="queue",
                    tenant=self._tenant_name(job), job_id=job.job_id,
                    trace_id=job.trace_id,
                    fields={"depth": len(self._waiting)})
                return job
            return None  # closed and drained

    def discard(self, job_id: str) -> bool:
        """Remove a waiting job by id (cancellation support).

        Returns True when the job was waiting and is now gone — after
        which no worker can ever pop it; False when it was not in the
        queue (already popped, or never pushed).
        """
        with self._cond:
            for position, job in enumerate(self._waiting):
                if job.job_id == job_id:
                    del self._waiting[position]
                    self._depth_add(job, -1)
                    return True
            return False

    def close(self, drain: bool = True) -> List[QueuedJob]:
        """Stop accepting pushes and wake every blocked worker.

        Args:
            drain: When True (default) already-queued jobs stay poppable
                so workers finish the backlog; when False the backlog is
                dropped and returned (the manager cancels those records).
        """
        with self._cond:
            self._closed = True
            dropped: List[QueuedJob] = []
            if not drain:
                dropped = self._waiting
                self._waiting = []
                self._tenant_depth.clear()
            self._cond.notify_all()
            return dropped

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        """Current depth (number of waiting jobs)."""
        with self._cond:
            return len(self._waiting)

    def tenant_depths(self) -> Dict[str, int]:
        """Waiting-job count per tenant (tenants with jobs only)."""
        with self._cond:
            return dict(self._tenant_depth)

    def stats(self) -> dict:
        """JSON-compatible counters for service telemetry."""
        with self._cond:
            return {
                "depth": len(self._waiting),
                "capacity": self.capacity,
                "pushed": self.pushed,
                "rejected": self.rejected,
                "quota_rejected": self.quota_rejected,
                "tenant_depths": dict(self._tenant_depth),
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (f"JobQueue(depth={len(self)}, capacity={self.capacity}, "
                f"closed={self._closed})")
