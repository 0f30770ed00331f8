"""Span layer: end-to-end waterfalls on top of the PR-8 trace ids.

A :class:`Span` is one timed operation inside a trace — client request,
server handler, queue wait, worker execution, cache tier, compile
phase.  Spans carry the ``(trace_id, span_id, parent_id)`` triple that
lets the ``trace`` CLI reassemble a waterfall across process and
machine boundaries, because every shard of a fan-out already shares one
trace id (PR 8).

Clock model
-----------
Spans time themselves with ``time.perf_counter()`` (monotonic — the
LR005 rule applies to this file) and are aligned to the wall clock only
at serialization, through **one wall-clock anchor per process** taken
at import.  That keeps durations immune to NTP steps while giving
cross-process merges a common (approximate) time base.

Recording
---------
Finished spans land in a bounded, thread-safe :class:`SpanRecorder`
ring buffer; when full, the oldest spans are evicted (and counted), so
a long-lived server keeps the most recent traces and never grows
without bound.  The active span travels in a :mod:`contextvars`
variable: :func:`child_span` is a no-op context manager when no span is
active, which is what keeps the instrumented compile path at zero cost
for plain library use (asserted < 2 % in
``benchmarks/test_bench_telemetry.py``).

Spans must be closed via context manager (``with recorder.span(...)``)
or built pre-finished via :meth:`SpanRecorder.add`; the LR006 lint rule
flags manual ``Span.start()`` calls that have no ``finally`` closing
them.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import itertools
import time
import uuid
from collections import deque
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.telemetry.trace import coerce_trace_id, new_trace_id

__all__ = [
    "Span",
    "SpanRecorder",
    "child_span",
    "current_span",
    "record_compile_spans",
    "render_waterfall",
]

#: One wall-clock anchor per process: wall time and monotonic time read
#: back-to-back at import.  ``Span.start_wall`` is derived as
#: ``anchor_wall + (start_mono - anchor_mono)`` so spans never read the
#: wall clock themselves.
_ANCHOR_WALL = time.time()  # lint: wall-clock  (one-time anchor, by design)
_ANCHOR_MONO = time.perf_counter()

#: Default ring-buffer capacity; at ~6 spans per compile job this keeps
#: several hundred recent jobs inspectable on a busy server.
DEFAULT_CAPACITY = 4096

_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None)


#: Random per-process prefix + a counter: span and event ids stay
#: unique across processes (fleet merges dedup on them) at a fraction of
#: a per-id ``uuid4()`` — id minting sits on the hot compile path.
_ID_PREFIX = uuid.uuid4().hex[:8]
_ID_COUNTER = itertools.count(1)


def _new_id() -> str:
    """16-hex span/event id, unique across processes and threads."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


def current_span() -> Optional["Span"]:
    """The span active in this execution context, or ``None``."""
    return _CURRENT.get()


class Span:
    """One timed operation inside a trace.

    Times are monotonic (``perf_counter``); ``start_wall`` aligns the
    span to the process wall-clock anchor for cross-process merging.
    Close spans with ``with recorder.span(...)`` — the LR006 lint rule
    flags a manual :meth:`start` that has no ``finally`` closing it.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "labels",
                 "start_mono", "duration", "recorder", "_clock")

    def __init__(self, name: str, *, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None,
                 labels: Optional[Mapping[str, str]] = None,
                 recorder: Optional["SpanRecorder"] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.name = name
        self.trace_id = coerce_trace_id(trace_id)
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.labels: Dict[str, str] = dict(labels or {})
        self.recorder = recorder
        self.start_mono: Optional[float] = None
        self.duration: Optional[float] = None
        self._clock = clock

    def start(self) -> "Span":
        self.start_mono = self._clock()
        return self

    def finish(self) -> "Span":
        """Stamp the duration and hand the span to its recorder.

        Idempotent: a second call (context-manager exit after an
        explicit ``finish()``) neither re-stamps nor double-records.
        """
        if self.duration is None and self.start_mono is not None:
            self.duration = self._clock() - self.start_mono
            if self.recorder is not None:
                self.recorder.record(self)
        return self

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    @property
    def start_wall(self) -> Optional[float]:
        """Start as wall-clock seconds via the process anchor."""
        if self.start_mono is None:
            return None
        return _ANCHOR_WALL + (self.start_mono - _ANCHOR_MONO)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start_wall or 0.0, 6),
            "duration": round(self.duration or 0.0, 6),
            "labels": dict(sorted(self.labels.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id}, "
                f"duration={self.duration})")


class BoundedRing:
    """Bounded, thread-safe ring of the most recent items.

    Appending to a full ring evicts the oldest item and counts it.
    Owners append with :meth:`_push` while holding ``_lock``, so they
    can update their own counters in the same critical section.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: deque = deque(maxlen=capacity)
        self._recorded = 0
        self._evicted = 0

    def _push(self, item: object) -> None:
        """Append ``item``; the caller holds ``_lock``."""
        if len(self._items) == self.capacity:
            self._evicted += 1
        self._items.append(item)
        self._recorded += 1

    def snapshot(self) -> list:
        with self._lock:
            return list(self._items)

    def _counts(self) -> Dict[str, int]:
        """Capacity, fill and lifetime appends; the caller holds ``_lock``."""
        return {"capacity": self.capacity,
                "buffered": len(self._items),
                "recorded": self._recorded}


class SpanRecorder(BoundedRing):
    """Bounded, thread-safe ring buffer of finished spans."""

    def record(self, span: Span) -> None:
        with self._lock:
            self._push(span)

    @contextlib.contextmanager
    def span(self, name: str, *, trace_id: Optional[str] = None,
             parent: Optional[Span] = None,
             parent_id: Optional[str] = None,
             labels: Optional[Mapping[str, str]] = None) -> Iterator[Span]:
        """Open a child span as the current context's active span.

        Trace id and parent default to the active span's; an explicit
        ``parent``/``parent_id`` (cross-thread handoff, e.g. queue
        worker picking up a handler-submitted job) overrides both.
        """
        active = _CURRENT.get()
        if parent is None and parent_id is None and active is not None:
            parent = active
        if parent is not None:
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        if trace_id is None:
            trace_id = active.trace_id if active is not None \
                else new_trace_id()
        span = Span(name, trace_id=trace_id, parent_id=parent_id,
                    labels=labels, recorder=self)
        token = _CURRENT.set(span)
        try:
            yield span.start()
        finally:
            span.finish()
            _CURRENT.reset(token)

    def add(self, name: str, *, trace_id: str,
            parent_id: Optional[str] = None,
            start_mono: Optional[float] = None,
            duration: float = 0.0,
            labels: Optional[Mapping[str, str]] = None) -> Span:
        """Record a synthesized, pre-finished span.

        For intervals measured elsewhere — queue wait reconstructed at
        worker pickup, compile phases bridged from ``PhaseTimer``
        self-times — where there was no live span object to close.
        """
        span = Span(name, trace_id=trace_id, parent_id=parent_id,
                    labels=labels, recorder=None)
        span.start_mono = (time.perf_counter() if start_mono is None
                           else start_mono)
        span.duration = max(0.0, duration)
        self.record(span)
        return span

    def for_trace(self, trace_id: str) -> List[Span]:
        """All recorded spans of one trace, deterministically ordered
        by (start, name, span_id)."""
        spans = [span for span in self.snapshot()
                 if span.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start_wall or 0.0, s.name, s.span_id))
        return spans

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._counts(), "evicted": self._evicted}


@contextlib.contextmanager
def child_span(name: str,
               labels: Optional[Mapping[str, str]] = None
               ) -> Iterator[Optional[Span]]:
    """Child of the active span, or a no-op when tracing is inactive.

    This is the instrumentation hook for code that must stay zero-cost
    in plain library use (the Session compile path): one contextvar
    read when no span is active, a real child span when one is.
    """
    active = _CURRENT.get()
    if active is None or active.recorder is None:
        yield None
        return
    with active.recorder.span(name, labels=labels) as span:
        yield span


def record_compile_spans(parent: Span,
                         results: Sequence[Tuple[str, object]]) -> None:
    """Bridge ``PhaseTimer`` output into the waterfall.

    For each ``(label, CompilationResult)`` pair, synthesize one
    ``compile`` span under ``parent`` with a ``phase.<name>`` child per
    entry of ``result.phase_seconds``.  Jobs are laid out sequentially
    from the parent's start and phases at cumulative offsets in sorted
    phase order — phase self-times are exclusive, so the layout is a
    faithful serial schedule even though the timer measured a stack.
    """
    recorder = parent.recorder
    if recorder is None or parent.start_mono is None:
        return
    cursor = parent.start_mono
    for label, result in results:
        if result is None:
            continue
        compile_seconds = float(getattr(result, "compile_seconds", 0.0)
                                or 0.0)
        phase_seconds = dict(getattr(result, "phase_seconds", {}) or {})
        if not compile_seconds and phase_seconds:
            compile_seconds = sum(phase_seconds.values())
        span = recorder.add(
            "compile", trace_id=parent.trace_id, parent_id=parent.span_id,
            start_mono=cursor, duration=compile_seconds,
            labels={"benchmark": label})
        offset = cursor
        for phase in sorted(phase_seconds):
            seconds = float(phase_seconds[phase])
            recorder.add(f"phase.{phase}", trace_id=parent.trace_id,
                         parent_id=span.span_id, start_mono=offset,
                         duration=seconds, labels={"phase": phase})
            offset += seconds
        cursor += compile_seconds


# ----------------------------------------------------------------------
# Waterfall rendering
# ----------------------------------------------------------------------
def _as_record(span: object) -> Dict[str, object]:
    if isinstance(span, Span):
        return span.to_dict()
    return dict(span)  # type: ignore[call-overload]


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = [f"{key}={labels[key]}" for key in sorted(labels)]
    return " {" + ", ".join(parts) + "}"


def _event_row(event: object) -> Dict[str, object]:
    """Shape a log-event record like a span record for the waterfall.

    Events are instants: zero duration, an empty ``span_id`` (so the
    tree walk never recurses into them), and a parent of the span they
    were emitted under — an event whose span is outside the buffer
    renders as a root, like an orphan span.
    """
    record = (event.to_dict() if hasattr(event, "to_dict")
              else dict(event))  # type: ignore[call-overload]
    level = str(record.get("level") or "INFO")
    message = str(record.get("message") or "")
    return {
        "span_id": "",
        "parent_id": record.get("span_id"),
        "trace_id": record.get("trace_id"),
        "name": f"* {level.lower()}: {message}",
        "start": float(record.get("ts") or 0.0),
        "duration": 0.0,
        "labels": record.get("fields") or {},
        "worker": record.get("worker"),
        "_sort": (float(record.get("ts") or 0.0),
                  str(record.get("event_id") or "")),
        "_event": True,
    }


def render_waterfall(spans: Iterable[object], *,
                     events: Optional[Iterable[object]] = None,
                     width: int = 32) -> str:
    """Deterministic ASCII waterfall of one trace's spans (and events).

    Accepts :class:`Span` objects or their ``to_dict()`` records (the
    wire form returned by ``GET /trace/<id>``).  Orphans — spans whose
    parent is outside the buffer or on another worker — render as
    roots.  Output is a pure function of the span records: siblings
    sort by (start, name, span_id) and the time scale is derived from
    the records alone.

    ``events`` optionally interleaves log-event records (the wire form
    of ``GET /logs``) onto the same time axis: each event renders as a
    ``*`` marker line indented under the span it was emitted in, sorted
    among that span's children by timestamp.  With no events the output
    is byte-identical to the spans-only form.
    """
    records = [_as_record(span) for span in spans]
    event_rows = [_event_row(event) for event in (events or [])]
    if not records and not event_rows:
        return "(no spans)\n"
    records.sort(key=lambda r: (r.get("start") or 0.0,
                                str(r.get("name") or ""),
                                str(r.get("span_id") or "")))
    by_id = {r["span_id"]: r for r in records if r.get("span_id")}
    rows = records + sorted(event_rows, key=lambda r: r["_sort"])
    rows.sort(key=lambda r: (r.get("start") or 0.0,
                             str(r.get("name") or ""),
                             str(r.get("span_id") or "")))
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    for record in rows:
        parent = record.get("parent_id")
        if parent not in by_id:
            parent = None  # orphan: render as root
        children.setdefault(parent, []).append(record)

    begin = min(float(r.get("start") or 0.0) for r in rows)
    end = max(float(r.get("start") or 0.0) + float(r.get("duration") or 0.0)
              for r in rows)
    total = max(end - begin, 1e-9)

    ids = {str(r.get("trace_id")) for r in records}
    ids.update(str(r.get("trace_id")) for r in event_rows
               if r.get("trace_id"))
    trace_ids = sorted(ids or {"None"})
    head = f"trace {', '.join(trace_ids)} — {len(records)} span(s)"
    if event_rows:
        head += f" + {len(event_rows)} event(s)"
    lines = [head + f", {total:.6f}s"]

    name_width = max(
        len("  " * depth + str(r.get("name") or "?"))
        for depth, r in _walk(children, None, 0)) if rows else 8

    for depth, record in _walk(children, None, 0):
        start = float(record.get("start") or 0.0) - begin
        duration = float(record.get("duration") or 0.0)
        left = int(round(start / total * width))
        left = min(left, width - 1)
        name = "  " * depth + str(record.get("name") or "?")
        worker = record.get("worker")
        suffix = _label_text(record.get("labels") or {})
        if worker:
            suffix += f" @{worker}"
        if record.get("_event"):
            bar = "." * left + "*" + "." * (width - left - 1)
            lines.append(f"{name:<{name_width}} |{bar}| "
                         f"{start:>9.6f}s{suffix}")
            continue
        length = max(1, int(round(duration / total * width)))
        length = min(length, width - left)
        bar = "." * left + "#" * length + "." * (width - left - length)
        lines.append(f"{name:<{name_width}} |{bar}| "
                     f"{start:>9.6f}s +{duration:.6f}s{suffix}")
    return "\n".join(lines) + "\n"


def _walk(children: Dict[Optional[str], List[Dict[str, object]]],
          parent: Optional[str], depth: int
          ) -> Iterator[Tuple[int, Dict[str, object]]]:
    for record in children.get(parent, []):
        yield depth, record
        span_id = record.get("span_id")
        if span_id:
            yield from _walk(children, span_id, depth + 1)
