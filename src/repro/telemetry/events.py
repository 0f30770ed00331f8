"""Structured event log: the third observability pillar.

Metrics (PR 8) aggregate, spans (PR 9) time — this module *narrates*.
A :class:`LogEvent` is one discrete thing that happened (a request
arrived, a job was shed, a cache tier hit, a finding was raised),
stamped with the same monotonic-anchored wall clock spans use and
correlated automatically: when a span is active in the current context,
the event inherits its ``trace_id`` and ``span_id``, so the ``trace``
CLI can interleave events into the span waterfall and ``logs --trace``
answers "what happened to this job" with one query.

Recording shares the span layer's bounded ring
(:class:`~repro.telemetry.spans.BoundedRing`): an :class:`EventLog`
keeps the most recent events in memory (evictions are counted as
*drops*, exported on ``/metrics``), and optional sinks fan each event out as it is emitted —
:func:`stderr_sink` for the classic human-readable server log line,
:class:`JsonlSink` for a durable JSONL file with size-capped rotation
and a torn-tail-tolerant reader (:func:`read_events`), both on
:mod:`repro.journal` (the next open cuts a torn tail).

Event ids come from the span-id minter (random per-process prefix + a
counter) so fleet merges can dedup on ``(worker, event_id)`` without
per-event ``uuid4()`` cost on the hot path.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    TextIO)

from repro import journal
from repro.telemetry.spans import (_ANCHOR_MONO, _ANCHOR_WALL,
                                   DEFAULT_CAPACITY, BoundedRing, _new_id,
                                   current_span)

__all__ = [
    "LEVELS",
    "LogEvent",
    "EventLog",
    "JsonlSink",
    "stderr_sink",
    "format_event",
    "read_events",
]

#: Severity levels, in ascending order of severity.
LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

#: JSONL sink schema version (header line of every log file).
EVENTS_VERSION = 1

#: Default ``json.dumps`` spacing: existing logs start with this line.
_EVENTS_HEADER = json.dumps({"events_version": EVENTS_VERSION})

#: Default size cap before a :class:`JsonlSink` rotates its file.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

def _coerce_level(level: str) -> str:
    name = str(level).upper()
    if name not in _LEVEL_RANK:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {LEVELS}")
    return name


class LogEvent:
    """One immutable structured log record.

    The timestamp is derived from ``perf_counter`` through the span
    layer's per-process wall-clock anchor — events never read the wall
    clock themselves, so their ordering is immune to NTP steps and
    merges cleanly with span ``start`` stamps on one time axis.
    """

    __slots__ = ("event_id", "ts", "level", "component", "message",
                 "fields", "trace_id", "span_id", "tenant", "job_id")

    def __init__(self, level: str, message: str, *,
                 component: str = "repro",
                 fields: Optional[Mapping[str, object]] = None,
                 trace_id: Optional[str] = None,
                 span_id: Optional[str] = None,
                 tenant: Optional[str] = None,
                 job_id: Optional[str] = None,
                 ts: Optional[float] = None,
                 event_id: Optional[str] = None) -> None:
        mono = time.perf_counter()
        object.__setattr__(self, "event_id", event_id or _new_id())
        object.__setattr__(self, "ts", float(
            _ANCHOR_WALL + (mono - _ANCHOR_MONO) if ts is None else ts))
        object.__setattr__(self, "level", _coerce_level(level))
        object.__setattr__(self, "component", str(component))
        object.__setattr__(self, "message", str(message))
        object.__setattr__(self, "fields", dict(fields or {}))
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "tenant", tenant)
        object.__setattr__(self, "job_id", job_id)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LogEvent is immutable")

    def to_dict(self) -> Dict[str, object]:
        return {
            "event_id": self.event_id,
            "ts": round(self.ts, 6),
            "level": self.level,
            "component": self.component,
            "message": self.message,
            "fields": dict(sorted(self.fields.items())),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "tenant": self.tenant,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "LogEvent":
        return cls(
            str(record.get("level") or "INFO"),
            str(record.get("message") or ""),
            component=str(record.get("component") or "repro"),
            fields=record.get("fields") or {},  # type: ignore[arg-type]
            trace_id=record.get("trace_id"),  # type: ignore[arg-type]
            span_id=record.get("span_id"),  # type: ignore[arg-type]
            tenant=record.get("tenant"),  # type: ignore[arg-type]
            job_id=record.get("job_id"),  # type: ignore[arg-type]
            ts=float(record.get("ts") or 0.0),
            event_id=str(record.get("event_id") or "") or None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogEvent({self.level}, {self.message!r}, "
                f"trace={self.trace_id}, tenant={self.tenant}, "
                f"job={self.job_id})")


def format_event(event: LogEvent) -> str:
    """The human-readable single-line form (the stderr sink format).

    ``<iso-utc> LEVEL component: message key=value ...`` with the
    correlation ids appended last, so a plain ``grep trace=<id>``
    still works on a text log.
    """
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(event.ts))
    micros = int(round((event.ts - int(event.ts)) * 1e6)) % 1000000
    parts = [f"{stamp}.{micros:06d}Z", f"{event.level:<7}",
             f"{event.component}:", event.message]
    for key in sorted(event.fields):
        parts.append(f"{key}={event.fields[key]}")
    if event.trace_id:
        parts.append(f"trace={event.trace_id}")
    if event.tenant:
        parts.append(f"tenant={event.tenant}")
    if event.job_id:
        parts.append(f"job={event.job_id}")
    return " ".join(parts)


def stderr_sink(stream: Optional[TextIO] = None
                ) -> Callable[[LogEvent], None]:
    """A sink writing :func:`format_event` lines to ``stream``
    (default: whatever ``sys.stderr`` is at emission time)."""

    def sink(event: LogEvent) -> None:
        out = stream if stream is not None else sys.stderr
        out.write(format_event(event) + "\n")

    return sink


class EventLog(BoundedRing):
    """Bounded, thread-safe ring of structured log events.

    ``emit()`` pulls trace/span correlation from the active span
    context automatically; ``tenant``/``job_id`` are passed explicitly
    at the emission site (with a fallback to the active span's labels,
    which the server stamps on ``job.run`` spans).  Sinks run outside
    the ring lock on the emitting thread; a raising sink is counted,
    never propagated — logging must not break the logged path.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 sinks: Iterable[Callable[[LogEvent], None]] = ()) -> None:
        super().__init__(capacity)
        self._sink_errors = 0
        self._by_level: Dict[str, int] = {name: 0 for name in LEVELS}
        self._sinks: List[Callable[[LogEvent], None]] = list(sinks)

    def add_sink(self, sink: Callable[[LogEvent], None]) -> None:
        with self._lock:
            self._sinks = self._sinks + [sink]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, level: str, message: str, *,
             component: str = "repro",
             fields: Optional[Mapping[str, object]] = None,
             trace_id: Optional[str] = None,
             span_id: Optional[str] = None,
             tenant: Optional[str] = None,
             job_id: Optional[str] = None,
             ts: Optional[float] = None) -> LogEvent:
        active = current_span()
        if active is not None:
            if trace_id is None:
                trace_id = active.trace_id
            if span_id is None:
                span_id = active.span_id
            if job_id is None:
                job_id = active.labels.get("job_id")
            if tenant is None:
                tenant = active.labels.get("tenant")
        event = LogEvent(level, message, component=component,
                         fields=fields, trace_id=trace_id, span_id=span_id,
                         tenant=tenant, job_id=job_id, ts=ts)
        with self._lock:
            self._push(event)
            self._by_level[event.level] += 1
            sinks = self._sinks
        for sink in sinks:
            try:
                sink(event)
            except Exception:
                with self._lock:
                    self._sink_errors += 1
        return event

    def debug(self, message: str, **kwargs) -> LogEvent:
        return self.emit("DEBUG", message, **kwargs)

    def info(self, message: str, **kwargs) -> LogEvent:
        return self.emit("INFO", message, **kwargs)

    def warning(self, message: str, **kwargs) -> LogEvent:
        return self.emit("WARNING", message, **kwargs)

    def error(self, message: str, **kwargs) -> LogEvent:
        return self.emit("ERROR", message, **kwargs)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def events(self, *, trace: Optional[str] = None,
               tenant: Optional[str] = None,
               level: Optional[str] = None,
               since: Optional[float] = None,
               limit: Optional[int] = None) -> List[LogEvent]:
        """Filtered view, deterministically ordered by (ts, event_id).

        ``level`` is a minimum severity; ``since`` a wall-clock lower
        bound (exclusive); ``limit`` keeps the **newest** N matches.
        """
        floor = _LEVEL_RANK[_coerce_level(level)] if level else 0
        out = []
        for event in self.snapshot():
            if trace and event.trace_id != trace:
                continue
            if tenant and event.tenant != tenant:
                continue
            if _LEVEL_RANK[event.level] < floor:
                continue
            # Compare in the microsecond-rounded domain clients see on
            # the wire (``to_dict`` rounds ``ts``): a caller paging with
            # a ``ts`` taken from a previous response must never get an
            # event that serializes equal to its cursor.
            if since is not None and round(event.ts, 6) <= since:
                continue
            out.append(event)
        out.sort(key=lambda e: (e.ts, e.event_id))
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {**self._counts(),
                    "dropped": self._evicted,
                    "sink_errors": self._sink_errors,
                    "by_level": dict(self._by_level)}


# ----------------------------------------------------------------------
# Durable JSONL sink
# ----------------------------------------------------------------------
class JsonlSink:
    """Append-only JSONL disk sink with size-capped rotation.

    A :mod:`repro.journal` file: a version header, one JSON object per
    event, flushed per append so a crash loses at most the torn tail
    (:func:`read_events` counts it, the next sink cuts it).  Past
    ``max_bytes`` the file is rotated to ``<path>.1`` (replacing any
    previous rotation), bounding disk use at ~``2 * max_bytes``.
    """

    def __init__(self, path, *, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._journal = journal.Journal(self.path, _EVENTS_HEADER)

    def __call__(self, event: LogEvent) -> None:
        with self._lock:
            if self._journal is None:
                raise ValueError("sink is closed")
            self._journal.append(event.to_dict())
            if self._journal.bytes > self.max_bytes:
                self._journal.close()
                os.replace(self.path, f"{self.path}.1")
                self._journal = journal.Journal(self.path, _EVENTS_HEADER)

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None


def read_events(path) -> Dict[str, object]:
    """Torn-tail-tolerant reader for a :class:`JsonlSink` file.

    Returns ``{"version", "events", "torn_lines"}``; unparseable lines
    (a crash mid-append) are skipped and counted, never fatal.  The
    header line is consumed as the version; a file written before the
    header existed replays as version 0.
    """
    events, torn = journal.read(path)
    version = 0
    if events and "events_version" in events[0]:
        version = int(events.pop(0)["events_version"])
    return {"version": version, "events": events, "torn_lines": torn}
