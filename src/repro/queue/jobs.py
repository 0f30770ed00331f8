"""Queued-job records: lifecycle states, timestamps, serialization.

A :class:`QueuedJob` is the ticket a client gets back from an
asynchronous submission: a monotonic id, the work payload, a priority,
and a state that walks the lifecycle::

    QUEUED ──▶ RUNNING ──▶ DONE
       │           └─────▶ FAILED
       └─────────────────▶ CANCELLED

``DONE``/``FAILED``/``CANCELLED`` are terminal; a record never leaves a
terminal state.  State transitions are validated here but *synchronized*
by the owning :class:`~repro.queue.manager.JobManager` (every transition
happens under the manager's lock), so the record itself stays a plain
mutable object.  A :class:`threading.Event` fires exactly once, when the
job reaches any terminal state, which is what synchronous waiters and
``wait_for`` poll loops block on.

Long-running jobs (sweeps) additionally stream *per-entry* progress: the
worker appends one record per finished entry via :meth:`QueuedJob.add_entry`,
and :meth:`QueuedJob.entries_since` is the long-poll primitive behind the
``GET /jobs/<id>/entries?since=N`` endpoint — the entry list is
append-only, so a ``since`` cursor can never skip or duplicate entries.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ServiceError

#: Lifecycle states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: Every state, in lifecycle order.
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: Legal state transitions; terminal states allow none.
_TRANSITIONS = {
    QUEUED: frozenset((RUNNING, CANCELLED, FAILED)),
    RUNNING: frozenset((DONE, FAILED)),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class QueuedJob:
    """One asynchronous work item and its full lifecycle record.

    Attributes:
        job_id: Monotonic id assigned by the manager (``"job-000001"``).
        kind: Work type, ``"compile"`` or ``"sweep"``.
        payload: The JSON-compatible work descriptor, as submitted.
        priority: Higher runs sooner; ties break in submission order.
        state: Current lifecycle state (one of :data:`STATES`).
        submitted_at: Wall-clock submission time (``time.time()``).
        started_at: When a worker picked the job up, or None.
        finished_at: When the job reached a terminal state, or None.
        tenant: The :class:`~repro.tenancy.tenants.Tenant` principal
            the job was submitted as, or None (pre-tenancy callers);
            drives per-tenant quotas and fair-share scheduling.
        trace_id: Request-trace correlation id (the ``X-Repro-Trace``
            header value, server-minted when absent).  Carried on the
            record, journaled with it, and propagated to cluster shards
            so one client request can be followed across the fleet.
        span_parent: Span id of the submitting handler's span, or None.
            Stamped by the manager at submission (under its lock) so the
            worker can parent its ``queue.wait``/``job.run`` spans to
            the handler — contextvars do not cross the queue.  Never
            journaled: spans live in a process-local ring buffer, so
            after a restart there is no parent span to link to.
        deadline_seconds: Optional client-declared time budget; the
            fair-share scheduler raises a job's urgency as it burns
            through it.
        retries: Times the job has been requeued after being orphaned
            RUNNING by a server crash (durable-store recovery).
        enqueued_at: Scheduler-clock enqueue stamp (set by the queue's
            fair-share scheduler at push); the age basis.
        response: The endpoint-shaped result payload once ``DONE``.
        error: Structured error record (``{"error_type", "message"}``
            shape, normally :meth:`~repro.core.result.JobFailure.to_dict`
            output) once ``FAILED``.
        exception: The in-process exception object behind ``error`` —
            never serialized, used by the synchronous submit-and-wait
            path to re-raise the original type.
        entries: Append-only per-entry progress records, published by the
            worker as each sweep entry finishes (streaming surface).
    """

    def __init__(self, job_id: str, kind: str,
                 payload: Mapping[str, object], priority: int = 0) -> None:
        self.job_id = job_id
        self.kind = kind
        self.payload = dict(payload)
        self.priority = priority
        self.state = QUEUED
        self.tenant = None
        self.trace_id: Optional[str] = None
        self.span_parent: Optional[str] = None
        self.deadline_seconds: Optional[float] = None
        self.retries = 0
        self.enqueued_at: Optional[float] = None
        self.submitted_at = time.time()  # lint: wall-clock (wire timestamp)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.response: Optional[Dict[str, object]] = None
        self.error: Optional[Dict[str, object]] = None
        self.exception: Optional[BaseException] = None
        self.entries: List[Dict[str, object]] = []
        self._done = threading.Event()
        self._entries_cond = threading.Condition()

    # ------------------------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in TERMINAL_STATES

    @property
    def wait_seconds(self) -> Optional[float]:
        """Queue residence time: submission to pickup (or cancel)."""
        end = self.started_at if self.started_at is not None \
            else self.finished_at
        return None if end is None else end - self.submitted_at

    @property
    def run_seconds(self) -> Optional[float]:
        """Execution time: pickup to terminal state."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True unless timed out."""
        return self._done.wait(timeout)

    # ------------------------------------------------------------------
    # Per-entry streaming
    # ------------------------------------------------------------------
    def add_entry(self, record: Mapping[str, object]) -> int:
        """Append one finished-entry record; returns the new entry count.

        Called by the worker as each sweep entry completes, *before* the
        job's terminal transition, so a reader that observes a terminal
        state is guaranteed to see the complete entry list.
        """
        with self._entries_cond:
            self.entries.append(dict(record))
            self._entries_cond.notify_all()
            return len(self.entries)

    def entries_since(self, since: int = 0,
                      timeout: Optional[float] = None
                      ) -> Tuple[str, List[Dict[str, object]], int]:
        """Long-poll for entries beyond the ``since`` cursor.

        Blocks until at least one entry past ``since`` exists, the job is
        terminal, or ``timeout`` elapses; returns ``(state, entries[since:],
        total)`` read atomically, so a terminal ``state`` means the
        returned slice completes the stream.  The list is append-only:
        consecutive calls with ``since`` advanced by the slice length
        never skip or duplicate an entry.
        """
        if since < 0:
            raise ServiceError(f"entry cursor must be >= 0, got {since}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._entries_cond:
            while len(self.entries) <= since and not self.is_terminal:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                if not self._entries_cond.wait(remaining):
                    break
            return self.state, list(self.entries[since:]), len(self.entries)

    # ------------------------------------------------------------------
    def transition(self, state: str) -> None:
        """Move to ``state``, enforcing the lifecycle diagram.

        Caller must hold the owning manager's lock; the terminal event
        fires here so waiters wake exactly once.
        """
        if state not in _TRANSITIONS:
            raise ServiceError(f"unknown job state {state!r}; "
                               f"expected one of {list(STATES)}")
        if state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id} cannot move {self.state} -> {state}")
        self.state = state
        now = time.time()  # lint: wall-clock (journaled timestamps)
        if state == RUNNING:
            self.started_at = now
        if state in TERMINAL_STATES:
            self.finished_at = now
            self._done.set()
            # Entry-stream long-pollers must wake on the terminal
            # transition too: it is their end-of-stream signal.
            with self._entries_cond:
                self._entries_cond.notify_all()

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible status payload (what ``GET /jobs/<id>`` serves).

        Terminal jobs carry their ``response`` (DONE) or ``error``
        (FAILED) inline, so one poll fetches status and result together.
        """
        record: Dict[str, object] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "tenant": self.tenant.name if self.tenant is not None else None,
            "trace_id": self.trace_id,
            "retries": self.retries,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wait_seconds": self.wait_seconds,
            "run_seconds": self.run_seconds,
            "entry_count": len(self.entries),
        }
        if self.response is not None:
            record["response"] = self.response
        if self.error is not None:
            record["error"] = self.error
        return record

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, record: Mapping[str, object]) -> "QueuedJob":
        """Rebuild a job from a durable-store snapshot (recovery path).

        The record is the :func:`repro.tenancy.store.job_snapshot`
        shape.  State is restored *directly* (no lifecycle transitions
        re-fire), timestamps/entries/response/error come back verbatim,
        and the terminal event is pre-fired for already-finished jobs
        so waiters never block on work that ended before the restart.
        """
        job = cls(str(record["job_id"]), str(record["kind"]),
                  record.get("payload") or {},
                  priority=int(record.get("priority", 0)))
        tenant = record.get("tenant")
        if isinstance(tenant, Mapping):
            from repro.tenancy.tenants import Tenant

            job.tenant = Tenant.from_dict(tenant)
        job.trace_id = record.get("trace_id")
        job.deadline_seconds = record.get("deadline_seconds")
        job.retries = int(record.get("retries", 0))
        state = record.get("state", QUEUED)
        if state not in _TRANSITIONS:
            raise ServiceError(f"snapshot of {job.job_id} carries unknown "
                               f"state {state!r}")
        job.state = state
        job.submitted_at = float(record.get("submitted_at",
                                            job.submitted_at))
        job.started_at = record.get("started_at")
        job.finished_at = record.get("finished_at")
        job.response = record.get("response")
        job.error = record.get("error")
        job.entries = [dict(entry) for entry in record.get("entries", [])]
        if job.is_terminal:
            job._done.set()
        return job

    def __repr__(self) -> str:
        return (f"QueuedJob(id={self.job_id!r}, kind={self.kind!r}, "
                f"state={self.state}, priority={self.priority})")
