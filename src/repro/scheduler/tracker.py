"""Qubit liveness tracking for the Active Quantum Volume metric.

AQV (Section III-B) is the sum over qubits of the lengths of their usage
segments, where a segment opens when a qubit is allocated and closes when
it is reclaimed (returned to |0> and pushed onto the ancilla heap).  Time
a qubit spends reclaimed in the heap does not count.  The tracker records
segments as the compiler allocates / reclaims qubits and the scheduler
reports each segment's first gate.

A segment starts at its first gate (or at allocation if it never has
one) and ends at the time it is reclaimed.  The compiler reclaims a
qubit at its scheduler clock, and the program end (``finalize``) is the
makespan; a qubit's clock never decreases and every gate on the qubit
has advanced it to at least that gate's finish, so no later gate needs
recording.  The scheduler therefore calls ``record_gate`` only for the
qubits in ``awaiting_first_gate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Set, Tuple


@dataclass(frozen=True)
class UsageSegment:
    """One allocation-to-reclamation interval of a qubit.

    Attributes:
        qubit: Virtual qubit id.
        start: Start of the first gate after allocation (the allocation
            time if the qubit had no gate).
        end: Reclamation time: the qubit's clock when it was reclaimed
            (the completion of its last gate, or later), or the end of
            the program if never reclaimed; never before ``start``.
    """

    qubit: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Length of the segment."""
        return max(self.end - self.start, 0)


class LivenessTracker:
    """Records per-qubit usage segments as compilation proceeds."""

    def __init__(self) -> None:
        # Live qubit -> its segment's start so far: the allocation time
        # until its first gate, that gate's start from then on.
        self._start: Dict[int, int] = {}
        self._awaiting: Set[int] = set()
        self._segments: List[UsageSegment] = []
        self._peak_live = 0

    # ------------------------------------------------------------------
    @property
    def num_live(self) -> int:
        """Number of qubits currently live (allocated, not reclaimed)."""
        return len(self._start)

    @property
    def peak_live(self) -> int:
        """Maximum number of simultaneously live qubits seen so far."""
        return self._peak_live

    def live_qubits(self) -> Tuple[int, ...]:
        """Ids of currently live qubits."""
        return tuple(self._start)

    @property
    def live(self) -> AbstractSet[int]:
        """Ids of currently live qubits, as a view of the tracker's own
        state that stays up to date (a scheduler may hold on to it)."""
        return self._start.keys()

    @property
    def awaiting_first_gate(self) -> AbstractSet[int]:
        """Live qubits whose segment has had no gate yet.

        This is the tracker's own set, updated in place, so a scheduler
        may hold on to it; :meth:`record_gate` is a no-op for any other
        qubit.
        """
        return self._awaiting

    # ------------------------------------------------------------------
    def allocate(self, qubit: int, time: int) -> None:
        """Open a usage segment for ``qubit`` at ``time``.

        Allocating an already-live qubit is a no-op (parameters of nested
        calls stay live across the call boundary).
        """
        if qubit in self._start:
            return
        self._start[qubit] = time
        self._awaiting.add(qubit)
        self._peak_live = max(self._peak_live, len(self._start))

    def record_gate(self, qubit: int, start: int, finish: int) -> None:
        """Note that a gate ran on ``qubit`` between ``start`` and ``finish``.

        Only a segment's first gate is kept: ``finish`` is not needed,
        because the segment ends at the clock ``reclaim`` is given, which
        the gate has already advanced past ``finish``.
        """
        if qubit in self._awaiting:
            self._awaiting.remove(qubit)
            self._start[qubit] = start

    def reclaim(self, qubit: int, time: int) -> None:
        """Close the usage segment of ``qubit`` at ``time``.

        ``time`` must not precede the finish of the segment's last gate
        (the compiler passes the qubit's scheduler clock).
        """
        start = self._start.pop(qubit, None)
        if start is None:
            return
        self._awaiting.discard(qubit)
        self._segments.append(UsageSegment(qubit=qubit, start=start,
                                           end=max(time, start)))

    def finalize(self, end_time: int) -> None:
        """Close every still-open segment at the end of the program."""
        for qubit in list(self._start):
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
