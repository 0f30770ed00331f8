"""Durable job state: pluggable stores + an append-only JSONL WAL.

Before this module, every queued job lived only in the
:class:`~repro.queue.manager.JobManager`'s in-memory table — a server
crash lost the whole backlog and every un-polled result.  A
:class:`JobStore` journals each lifecycle event as it happens:

* ``submit``  — the full job snapshot (payload, tenant, priority), the
  moment a submission is accepted;
* ``state``   — every lifecycle transition, carrying the DONE response
  or FAILED error record inline;
* ``entry``   — each streamed sweep-entry record, so the long-poll
  cursor survives too;
* ``forget``  — retention GC dropping a terminal record;
* ``burst``   — the fair-share burst-score table with a wall-clock
  snapshot stamp, journaled at every accepted submission, so a
  flooding tenant cannot reset its penalty by crashing the server
  (recovery decays the scores by the downtime and re-seeds them).

On restart the manager replays :meth:`JobStore.load` and recovers:
QUEUED jobs re-enqueue, orphaned RUNNING jobs requeue (exactly once —
a job orphaned twice is marked FAILED instead of crash-looping), and
terminal jobs are served from the journal byte-identically to before
the crash.

:class:`JsonlJobStore` is the durable implementation: one append-only
``jobs.wal`` :mod:`repro.journal`, flushed per event, torn-tail
tolerant (the next open cuts the tail) and **compacting** — past
``compact_threshold`` lines it is atomically rewritten as one snapshot
per live job, so a long-lived server's journal stays proportional to
its retained job table instead of its lifetime submission count.
The :class:`JobStore` base class is the no-persistence store (records
nothing, loads nothing) that a server without ``--store-dir`` runs on;
:class:`MemoryJobStore` keeps records in memory so tests can hand one
manager's journal to the next.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro import journal
from repro.exceptions import ServiceError

#: Journal schema version (header line of every WAL).
STORE_VERSION = 1

#: Default WAL line count that triggers an automatic compaction.
DEFAULT_COMPACT_THRESHOLD = 4096


def job_snapshot(job) -> Dict[str, object]:
    """Serialize a :class:`~repro.queue.jobs.QueuedJob` for the store.

    Unlike ``QueuedJob.to_dict`` (the wire status payload) this is the
    *complete* durable record: payload, tenant, entries, response and
    error all included, so a job can be rebuilt from it alone.
    """
    tenant = job.tenant
    return {
        "job_id": job.job_id,
        "kind": job.kind,
        "payload": job.payload,
        "priority": job.priority,
        "tenant": tenant.to_dict() if tenant is not None else None,
        "trace_id": job.trace_id,
        "deadline_seconds": job.deadline_seconds,
        "state": job.state,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "retries": job.retries,
        "response": job.response,
        "error": job.error,
        "entries": list(job.entries),
    }


class JobStore:
    """The store interface, and the no-persistence store itself.

    The manager calls the ``record_*`` methods under its own lock, in
    event order; implementations only need to be safe against their own
    internal state.  ``load()`` is called once, before the worker pool
    starts, and returns complete job records (the
    :func:`job_snapshot` shape).  This base class records nothing and
    loads nothing — a manager without ``--store-dir`` keeps job state
    in memory only.
    """

    def load(self) -> List[Dict[str, object]]:
        """Replay the journal; returns records in submission order."""
        return []

    def record_submit(self, job) -> None:
        """Persist an accepted submission."""

    def record_transition(self, job) -> None:
        """Persist a lifecycle transition (response/error inline)."""

    def record_entry(self, job_id: str, record: Mapping[str, object]) -> None:
        """Persist one streamed sweep-entry record."""

    def forget(self, job_ids) -> None:
        """Drop retention-GC'd jobs from the journal's live set."""

    def record_burst(self, scores: Mapping[str, float],
                     at: float) -> None:
        """Persist a fair-share burst-score snapshot.

        ``at`` is the wall-clock stamp the snapshot was taken at, so
        recovery can decay the scores by the downtime.
        """

    def load_burst(self) -> Optional[Dict[str, object]]:
        """The latest burst snapshot ``{"scores": {...}, "at": ...}``,
        or None when none was ever journaled."""
        return None

    def close(self) -> None:
        """Stop persisting (further ``record_*`` calls are no-ops)."""

    def stats(self) -> Dict[str, object]:
        """JSON-compatible store telemetry."""
        return {"kind": "none"}


class MemoryJobStore(JobStore):
    """In-memory :class:`JobStore`: the full interface, no durability.

    Useful for tests of the recovery machinery (hand one instance's
    records to a second manager); a fresh instance always loads empty.
    """

    def __init__(self) -> None:
        self._records: "Dict[str, Dict[str, object]]" = {}
        self._burst: Optional[Dict[str, object]] = None
        self._lock = threading.Lock()
        self._closed = False

    def load(self) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(record, entries=list(record["entries"]))
                    for record in self._records.values()]

    def record_submit(self, job) -> None:
        if self._closed:
            return
        with self._lock:
            self._records[job.job_id] = job_snapshot(job)

    def record_transition(self, job) -> None:
        if self._closed:
            return
        with self._lock:
            if job.job_id in self._records:
                self._records[job.job_id] = job_snapshot(job)

    def record_entry(self, job_id: str,
                     record: Mapping[str, object]) -> None:
        if self._closed:
            return
        with self._lock:
            snapshot = self._records.get(job_id)
            if snapshot is not None:
                snapshot["entries"].append(dict(record))

    def forget(self, job_ids) -> None:
        with self._lock:
            for job_id in job_ids:
                self._records.pop(job_id, None)

    def record_burst(self, scores: Mapping[str, float],
                     at: float) -> None:
        if self._closed:
            return
        with self._lock:
            self._burst = {"scores": {tenant: float(score)
                                      for tenant, score in scores.items()},
                           "at": float(at)}

    def load_burst(self) -> Optional[Dict[str, object]]:
        with self._lock:
            if self._burst is None:
                return None
            return {"scores": dict(self._burst["scores"]),
                    "at": self._burst["at"]}

    def close(self) -> None:
        self._closed = True

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"kind": "memory", "live_jobs": len(self._records),
                    "closed": self._closed}


class JsonlJobStore(JobStore):
    """Append-only JSONL write-ahead log with automatic compaction.

    Layout: ``<root>/jobs.wal`` — line 1 a header, every further line
    one event.  Appends flush before returning, so any event the
    manager observed as recorded survives a crash; a torn final line
    (a killed writer's wound) is counted on load, then cut.

    Args:
        root: Store directory (created if missing); the server's
            ``--store-dir``.
        compact_threshold: WAL line count that triggers an automatic
            rewrite to one snapshot per live job.  Retention GC calls
            :meth:`forget`, so the compacted size is bounded by the
            manager's retention cap, not server lifetime.
    """

    WAL_NAME = "jobs.wal"

    def __init__(self, root, *,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD) -> None:
        if compact_threshold < 2:
            raise ServiceError(f"compact_threshold must be >= 2, "
                               f"got {compact_threshold}")
        self.root = Path(root)
        self.path = self.root / self.WAL_NAME
        self.compact_threshold = compact_threshold
        self._lock = threading.Lock()
        self._records: "Dict[str, Dict[str, object]]" = {}
        self._burst: Optional[Dict[str, object]] = None
        self._closed = False
        self.replayed = 0
        self.compactions = 0
        self.appended = 0
        events, self.torn_lines = journal.read(self.path)
        if events:
            header = events[0]
            if header.get("type") != "header":
                raise ServiceError(
                    f"job journal {self.path} has no header line; refusing "
                    f"to recover from it (move it aside to start fresh)")
            if header.get("version") != STORE_VERSION:
                raise ServiceError(
                    f"job journal {self.path} has schema version "
                    f"{header.get('version')!r}, expected {STORE_VERSION}")
            for event in events[1:]:
                self._apply(event)
            self.replayed = len(self._records)
        # Opened after the read, so the torn tail it cuts is counted.
        self._journal = journal.Journal(self.path, journal.encode(
            {"type": "header", "version": STORE_VERSION}))
        self._lines = len(events) or 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _apply(self, event: Mapping[str, object]) -> None:
        """Fold one journal event into the live-record mirror."""
        kind = event.get("type")
        if kind == "burst":
            # Last write wins: only the newest snapshot matters, and
            # compaction re-emits exactly one.  _apply runs during
            # __init__ replay or under the caller's lock.
            self._burst = {  # lint: unlocked
                "scores": dict(event.get("scores") or {}),
                "at": event.get("at")}
            return
        if kind in ("submit", "snapshot"):
            record = {key: value for key, value in event.items()
                      if key != "type"}
            record.setdefault("entries", [])
            record.setdefault("retries", 0)
            self._records[record["job_id"]] = record
            return
        job_id = event.get("job_id")
        record = self._records.get(job_id)
        if kind == "forget":
            self._records.pop(job_id, None)
            return
        if record is None:
            return  # event for an already-forgotten job
        if kind == "state":
            record["state"] = event.get("state", record["state"])
            for key in ("started_at", "finished_at", "retries",
                        "response", "error"):
                if key in event:
                    record[key] = event[key]
        elif kind == "entry":
            record["entries"].append(event.get("record", {}))

    def load(self) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(record, entries=list(record["entries"]))
                    for record in self._records.values()]

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _append(self, event: Dict[str, object]) -> None:
        """Write one event line, flushed; auto-compacts past threshold.

        Caller holds no lock or the store lock; this method takes the
        lock itself only from public entry points — internal callers
        already hold it.
        """
        self._journal.append(event)
        self._lines += 1
        self.appended += 1
        if self._lines >= self.compact_threshold:
            self._compact_locked()

    def record_submit(self, job) -> None:
        with self._lock:
            if self._closed:
                return
            snapshot = job_snapshot(job)
            self._records[job.job_id] = snapshot
            self._append(dict(snapshot, type="submit"))

    def record_transition(self, job) -> None:
        with self._lock:
            if self._closed:
                return
            record = self._records.get(job.job_id)
            if record is None:
                return
            event: Dict[str, object] = {
                "type": "state",
                "job_id": job.job_id,
                "state": job.state,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "retries": job.retries,
            }
            if job.response is not None:
                event["response"] = job.response
            if job.error is not None:
                event["error"] = job.error
            self._apply(event)
            self._append(event)

    def record_entry(self, job_id: str,
                     record: Mapping[str, object]) -> None:
        with self._lock:
            if self._closed:
                return
            if job_id not in self._records:
                return
            event = {"type": "entry", "job_id": job_id,
                     "record": dict(record)}
            self._apply(event)
            self._append(event)

    def forget(self, job_ids) -> None:
        """GC hook: drop jobs from the live set, journaling the drop.

        Without this the WAL would grow one DONE payload per job the
        manager has long since garbage-collected; the forget events let
        the next compaction discard them for good.
        """
        with self._lock:
            if self._closed:
                return
            for job_id in job_ids:
                if job_id in self._records:
                    self._records.pop(job_id, None)
                    self._append({"type": "forget", "job_id": job_id})

    def record_burst(self, scores: Mapping[str, float],
                     at: float) -> None:
        with self._lock:
            if self._closed:
                return
            snapshot = {"scores": {tenant: float(score)
                                   for tenant, score in scores.items()},
                        "at": float(at)}
            self._burst = snapshot
            self._append(dict(snapshot, type="burst"))

    def load_burst(self) -> Optional[Dict[str, object]]:
        with self._lock:
            if self._burst is None:
                return None
            return {"scores": dict(self._burst["scores"]),
                    "at": self._burst["at"]}

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _compact_locked(self) -> None:
        """Atomically rewrite the WAL as header + one snapshot per live
        job (+ the latest burst snapshot)."""
        snapshots = [dict(record, type="snapshot")
                     for record in self._records.values()]
        if self._burst is not None:
            snapshots.append(dict(self._burst, type="burst"))
        self._journal.rewrite(snapshots)
        self._lines = 1 + len(snapshots)
        self.compactions += 1

    def compact(self) -> int:
        """Force a compaction now; returns the resulting line count."""
        with self._lock:
            if self._closed:
                return self._lines
            self._compact_locked()
            return self._lines

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Freeze the journal: further events are dropped.

        Also the crash-simulation seam — a "crashed" manager closes its
        store first, so nothing its still-running workers do afterwards
        is journaled (exactly like a process that died)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._journal.close()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "kind": "jsonl",
                "path": str(self.path),
                "live_jobs": len(self._records),
                "wal_lines": self._lines,
                "compact_threshold": self.compact_threshold,
                "compactions": self.compactions,
                "appended": self.appended,
                "replayed": self.replayed,
                "torn_lines": self.torn_lines,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (f"JsonlJobStore({str(self.path)!r}, "
                f"live_jobs={len(self._records)}, lines={self._lines})")
