"""Qubit liveness tracking for the Active Quantum Volume metric.

AQV (Section III-B) is the sum over qubits of the lengths of their usage
segments, where a segment opens when a qubit is allocated and closes when
it is reclaimed (returned to |0> and pushed onto the ancilla heap).  Time
a qubit spends reclaimed in the heap does not count.  The tracker records
segments as the compiler allocates / reclaims qubits and the scheduler
advances their clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class UsageSegment:
    """One allocation-to-reclamation interval of a qubit.

    Attributes:
        qubit: Virtual qubit id.
        start: Allocation time (time of the first gate after allocation).
        end: Reclamation time (completion of the last gate before the qubit
            was reclaimed, or the end of the program if never reclaimed).
    """

    qubit: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Length of the segment."""
        return max(self.end - self.start, 0)


@dataclass
class _OpenSegment:
    qubit: int
    opened_at: int
    first_gate_start: Optional[int] = None
    last_gate_finish: Optional[int] = None


class LivenessTracker:
    """Records per-qubit usage segments as compilation proceeds."""

    def __init__(self) -> None:
        self._open: Dict[int, _OpenSegment] = {}
        self._segments: List[UsageSegment] = []
        self._peak_live = 0

    # ------------------------------------------------------------------
    @property
    def num_live(self) -> int:
        """Number of qubits currently live (allocated, not reclaimed)."""
        return len(self._open)

    @property
    def peak_live(self) -> int:
        """Maximum number of simultaneously live qubits seen so far."""
        return self._peak_live

    def live_qubits(self) -> Tuple[int, ...]:
        """Ids of currently live qubits."""
        return tuple(self._open)

    # ------------------------------------------------------------------
    def allocate(self, qubit: int, time: int) -> None:
        """Open a usage segment for ``qubit`` at ``time``.

        Allocating an already-live qubit is a no-op (parameters of nested
        calls stay live across the call boundary).
        """
        if qubit in self._open:
            return
        self._open[qubit] = _OpenSegment(qubit=qubit, opened_at=time)
        self._peak_live = max(self._peak_live, len(self._open))

    def record_gate(self, qubit: int, start: int, finish: int) -> None:
        """Note that a gate ran on ``qubit`` between ``start`` and ``finish``."""
        segment = self._open.get(qubit)
        if segment is None:
            return
        if segment.first_gate_start is None:
            segment.first_gate_start = start
        segment.last_gate_finish = (
            finish if segment.last_gate_finish is None
            else max(segment.last_gate_finish, finish)
        )

    def reclaim(self, qubit: int, time: int) -> None:
        """Close the usage segment of ``qubit`` at ``time``."""
        segment = self._open.pop(qubit, None)
        if segment is None:
            return
        start = segment.first_gate_start
        if start is None:
            start = segment.opened_at
        end = max(time, segment.last_gate_finish or start, start)
        self._segments.append(UsageSegment(qubit=qubit, start=start, end=end))

    def finalize(self, end_time: int) -> None:
        """Close every still-open segment at the end of the program."""
        for qubit in list(self._open):
            self.reclaim(qubit, end_time)

    # ------------------------------------------------------------------
    @property
    def segments(self) -> Tuple[UsageSegment, ...]:
        """All closed usage segments."""
        return tuple(self._segments)

    def active_quantum_volume(self) -> int:
        """Sum of segment durations over every qubit (the AQV metric)."""
        return sum(segment.duration for segment in self._segments)

    def usage_series(self) -> List[Tuple[int, int]]:
        """Piecewise-constant (time, live-qubit-count) series (Figure 1)."""
        return usage_series(self._segments)


def usage_series(segments: Iterable[UsageSegment]) -> List[Tuple[int, int]]:
    """Piecewise-constant (time, live-qubit-count) series of ``segments``.

    This is the curve plotted in Figure 1; the area under it equals the
    active quantum volume.
    """
    events: List[Tuple[int, int]] = []
    for segment in segments:
        if segment.duration <= 0:
            continue
        events.append((segment.start, 1))
        events.append((segment.end, -1))
    events.sort()
    series: List[Tuple[int, int]] = [(0, 0)]
    live = 0
    for time, delta in events:
        live += delta
        if series and series[-1][0] == time:
            series[-1] = (time, live)
        else:
            series.append((time, live))
    return series
