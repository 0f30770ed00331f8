"""Asynchronous job-queue subsystem: tickets, back-pressure, workers.

This package is the layer between a network transport and the blocking
compilation backend (:class:`~repro.api.session.Session`): submissions
return a ticket immediately, a worker pool drains a bounded fair-share
queue, and clients poll the ticket for status and results — the shape
that lets one server absorb large sweeps without blocking small
requests.

* :mod:`repro.queue.jobs` — :class:`QueuedJob` lifecycle records
  (QUEUED → RUNNING → DONE/FAILED/CANCELLED).
* :mod:`repro.queue.queue` — :class:`JobQueue`, bounded and popped in
  :class:`~repro.tenancy.fairshare.FairShareScheduler` composite-score
  order (score ties in submission order), rejecting with
  :class:`~repro.exceptions.BackPressureError` when full (and with
  :class:`~repro.exceptions.QuotaExceededError` when one tenant's
  ``max_queued`` cap is hit).
* :mod:`repro.queue.workers` — :class:`WorkerPool` threads draining the
  queue with per-job failure isolation and graceful shutdown.
* :mod:`repro.queue.manager` — :class:`JobManager` tying them together:
  submit/status/result/cancel/list plus retention-based GC and the
  per-entry progress stream (``record_entry``/``entries_since``) that
  long-poll endpoints and the fleet executor consume; every
  lifecycle event goes to its :class:`~repro.tenancy.store.JobStore`,
  and a durable one (:class:`~repro.tenancy.store.JsonlJobStore`) is
  replayed on restart (QUEUED resumes, orphaned RUNNING requeues, DONE
  serves byte-identically).

:mod:`repro.service` mounts a :class:`JobManager` behind its HTTP
endpoints (``/jobs``, ``/jobs/<id>``, ``/jobs/<id>/cancel``); the
subsystem itself is transport-free and usable in-process::

    from repro.queue import JobManager

    manager = JobManager(runner, workers=4, queue_size=128)
    ticket = manager.submit("compile", {"benchmark": "RD53"})
    manager.wait(ticket.job_id)
    payload = manager.result(ticket.job_id)
"""

from repro.queue.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    QueuedJob,
)
from repro.queue.manager import JobManager
from repro.queue.queue import JobQueue
from repro.queue.workers import WorkerPool

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JobManager",
    "JobQueue",
    "QUEUED",
    "QueuedJob",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "WorkerPool",
]
