"""Shared benchmark plumbing: spans, statistics, host fingerprint.

Spans are recorded by the benchmark around its calls into each layer of
``repro``; nothing inside the program is instrumented.  A disabled
:class:`Tracer` costs one attribute check per span, so the untraced run
measures the same code path as the traced one.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    """In-memory span store: ``(name, start, end, parent)`` per span.

    Spans nest through a per-thread stack, so concurrent client threads
    each build their own tree.  ``add`` records a span whose interval was
    measured elsewhere (server spans, compiler phase seconds).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> Optional[int]:
        if not self.enabled:
            return None
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append([name, start, end, parent])
            return len(self.spans) - 1

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            own = max(0.0, (end - start) - child_time[index])
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def root_time(self, root: str) -> float:
        """Seconds covered by the direct children of spans named ``root``."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == root}
        return sum(end - start for _, start, end, parent in self.spans
                   if parent in roots)

    def dump(self, path: str, header: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 9),
                                         round(end, 9), parent]) + "\n")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Share of a sample, from the slowest, that :func:`tail_mean` averages.
TAIL_SHARE = 0.2


def tail_mean(values: Sequence[float]) -> float:
    """Mean of the slowest ``TAIL_SHARE`` of a non-empty sample.

    Averaging the whole tail, rather than reading one order statistic,
    keeps the figure steady when a few slow operations trade places.
    """
    ordered = sorted(values, reverse=True)
    tail = ordered[:max(1, math.ceil(TAIL_SHARE * len(ordered)))]
    return sum(tail) / len(tail)


def per_unit(records: Iterable[Dict[str, object]], statistic) -> float:
    """Median over measurement units (blocks, passes) of ``statistic``
    of each unit's normalised job times.

    Every unit holds the same jobs, so the statistic reads the same jobs
    in each unit however many units a run completes.
    """
    groups: Dict[int, List[float]] = {}
    for record in records:
        groups.setdefault(record["unit"], []).append(record["scaled"])
    return statistics.median(statistic(times) for times in groups.values())


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


#: Seconds :func:`speed_kernel` takes on the reference host (2-vCPU
#: x86_64 VM, CPython 3.11, unloaded).  Normalised times are expressed
#: in seconds of that host.
REFERENCE_KERNEL_S = 0.0033


def speed_kernel() -> int:
    """A fixed ~3 ms pure-Python mix of dict, sort, set and loop work.

    It does not touch ``repro``, so no change to the program moves it;
    only the speed of the host does.
    """
    table = {}
    for i in range(6000):
        table[(i * 7919) % 10007] = i
    ordered = sorted(table.items(), key=lambda kv: kv[1] ^ 0x55)
    total = 0
    for key, value in ordered:
        total += key if value & 1 else -key
    stack, seen = [0], {0}
    while stack:
        node = stack.pop()
        for child in (node + 1, node * 2):
            if child < 3000 and child not in seen:
                seen.add(child)
                stack.append(child)
    return total + len(seen)


def pin(pid: int, cpu: int) -> None:
    """Run ``pid`` (0: the calling thread) on ``cpu`` only, where supported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu})


class SpeedProbe:
    """Samples the host's current speed between timed operations.

    Shared hosts slow down and speed up by tens of percent over seconds
    as neighbours come and go, each virtual CPU on its own, and CPU time
    slows with wall time, so neither removes it.  The benchmark pins its
    work to known CPUs; every timed operation is followed by one
    :func:`speed_kernel` run on each of them (:meth:`mark`), and its
    duration is scaled by ``REFERENCE_KERNEL_S`` over the median kernel
    time of the samples around it (:meth:`scale`): the result is the
    duration the operation would have had on the reference host at the
    moment it ran.  The raw durations are reported alongside.
    """

    #: Samples on each side of an operation that set its scale.
    WINDOW = 3

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = tuple(cpus)
        self.samples: List[float] = []

    @staticmethod
    def _kernel_seconds() -> float:
        # Without collections the kernel's cost does not grow with the
        # size of the heap the benchmark has built up.
        gc.disable()
        try:
            started = time.perf_counter()
            speed_kernel()
            return time.perf_counter() - started
        finally:
            gc.enable()

    def mark(self) -> int:
        """Sample the speed of every probed CPU now; returns the index."""
        if len(self.cpus) < 2 or not hasattr(os, "sched_getaffinity"):
            self.samples.append(self._kernel_seconds())
        else:
            mask = os.sched_getaffinity(0)
            try:
                seconds = []
                for cpu in self.cpus:
                    pin(0, cpu)
                    seconds.append(self._kernel_seconds())
            finally:
                os.sched_setaffinity(0, mask)
            self.samples.append(sum(seconds) / len(seconds))
        return len(self.samples) - 1

    def scale(self, after: int) -> float:
        """Scale for the operation that ended just before sample ``after``."""
        window = self.samples[max(0, after - self.WINDOW):after + self.WINDOW]
        return REFERENCE_KERNEL_S / statistics.median(window)


#: :func:`timed_median` repeats at least ``SETUP_MIN_REPEATS`` times and
#: until ``SETUP_MIN_SECONDS`` have been spent, at most
#: ``SETUP_MAX_REPEATS`` times.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 200


def timed_median(setup, probe: SpeedProbe):
    """Time ``setup()`` repeatedly; return (median seconds, last value).

    The repeat limits above give a set-up of a few milliseconds a steady
    median.  Durations are normalised by ``probe``.  Every value but the
    last is torn down through its ``close`` method when it has one.
    """
    durations: List[Tuple[float, int]] = []
    spent = 0.0
    value = None
    while (len(durations) < SETUP_MIN_REPEATS
           or (spent < SETUP_MIN_SECONDS
               and len(durations) < SETUP_MAX_REPEATS)):
        if value is not None and hasattr(value, "close"):
            value.close()
        probe.mark()
        started = time.perf_counter()
        value = setup()
        elapsed = time.perf_counter() - started
        spent += elapsed
        durations.append((elapsed, probe.mark()))
    probe.mark()
    return statistics.median(elapsed * probe.scale(after)
                             for elapsed, after in durations), value


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "executable": os.path.basename(sys.executable),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
