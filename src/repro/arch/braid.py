"""Braid routing simulator for surface-code fault-tolerant machines.

On a surface-code machine (Section II-C1 and V-E of the paper), logical
qubits are laid out on a 2-D grid with routing channels between them.  A
logical CNOT is performed by *braiding*: a path is opened between the two
operand qubits through the channels.  A braid can have arbitrary length
and completes in (roughly) constant time, but two braids may not cross:
a braid whose route intersects an ongoing braid must wait.  The key
difference from swap chains is therefore that braid latency scales with
the number of crossings, not with distance.

The simulator tracks active braids as sets of channel segments with a
time window, detects crossings, queues conflicting braids and reports the
number of conflicts per gate (the ``S`` estimate for FT machines).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.arch.topology import Topology

#: A channel segment: an undirected edge between two lattice coordinates.
Segment = Tuple[Tuple[int, int], Tuple[int, int]]


def _segment(a: Tuple[int, int], b: Tuple[int, int]) -> Segment:
    return (a, b) if a <= b else (b, a)


def manhattan_route(start: Tuple[int, int], end: Tuple[int, int]) -> List[Segment]:
    """L-shaped channel route: move along the row first, then the column."""
    segments: List[Segment] = []
    row, col = start
    end_row, end_col = end
    while col != end_col:
        next_col = col + (1 if end_col > col else -1)
        segments.append(_segment((row, col), (row, next_col)))
        col = next_col
    while row != end_row:
        next_row = row + (1 if end_row > row else -1)
        segments.append(_segment((row, col), (next_row, col)))
        row = next_row
    return segments


def route_vertices(start: Tuple[int, int], end: Tuple[int, int]
                   ) -> FrozenSet[Tuple[int, int]]:
    """All lattice coordinates an L-shaped route passes through (inclusive)."""
    row, col = start
    end_row, end_col = end
    step = 1 if end_col >= col else -1
    vertices = [(row, c) for c in range(col, end_col + step, step)]
    step = 1 if end_row >= row else -1
    vertices += [(r, end_col) for r in range(row, end_row + step, step)]
    return frozenset(vertices)


@dataclass(frozen=True)
class Braid:
    """An active (or completed) braid.

    Attributes:
        start: Start time of the braid.
        finish: Completion time of the braid.
        vertices: Lattice coordinates the braid's route passes through.
            Two braids conflict ("cross") when their routes share a
            coordinate while their time windows overlap — this catches both
            overlapping and perpendicular routes.
        endpoints: The two lattice coordinates being connected.
    """

    start: int
    finish: int
    vertices: FrozenSet[Tuple[int, int]]
    endpoints: Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class BraidRequest:
    """Outcome of routing one braid.

    Attributes:
        start: Time at which the braid could begin (after waiting for
            conflicting braids to clear).
        finish: Completion time.
        crossings: Number of ongoing braids the route conflicted with.
        vertices: Lattice coordinates occupied by the route.
    """

    start: int
    finish: int
    crossings: int
    vertices: FrozenSet[Tuple[int, int]]


class BraidTracker:
    """Tracks ongoing braids, detects crossings and queues conflicts.

    Args:
        topology: Logical-qubit grid topology (provides coordinates).
        braid_duration: Base completion time of a braid, in time units.
        prune_window: Completed braids older than this window (relative to
            the latest finish time seen) are dropped to bound memory.
    """

    def __init__(self, topology: Topology, braid_duration: int = 2,
                 prune_window: int = 512) -> None:
        self._topology = topology
        self._braid_duration = braid_duration
        self._prune_window = prune_window
        self._active: List[Braid] = []
        # The same braids sorted by start time.  Every braid lasts
        # braid_duration, so only those starting within one duration of
        # a new braid's start can overlap it in time.
        self._starts: List[int] = []
        self._by_start: List[Braid] = []
        self._latest_finish = 0
        self.total_braids = 0
        self.total_crossings = 0

    # ------------------------------------------------------------------
    @property
    def braid_duration(self) -> int:
        """Base braid completion time."""
        return self._braid_duration

    @property
    def active_braids(self) -> Tuple[Braid, ...]:
        """Currently tracked braids (recent window)."""
        return tuple(self._active)

    def reset(self) -> None:
        """Forget all braids and statistics."""
        self._active.clear()
        self._starts.clear()
        self._by_start.clear()
        self._latest_finish = 0
        self.total_braids = 0
        self.total_crossings = 0

    # ------------------------------------------------------------------
    def request(self, site_a: int, site_b: int, earliest_start: int) -> BraidRequest:
        """Route a braid between two logical sites.

        The braid starts no earlier than ``earliest_start``; if its route
        crosses ongoing braids it is queued until the latest conflicting
        braid completes (the route is not re-planned, matching the paper's
        "queued until its route has been cleared" description).
        """
        coord_a = self._topology.coordinate(site_a)
        coord_b = self._topology.coordinate(site_b)
        vertices = route_vertices(coord_a, coord_b)
        duration = self._braid_duration
        start = earliest_start
        finish = start + duration

        # A conflict overlaps [start, finish) in time, so it starts in
        # (start - duration, finish), and shares a coordinate; the braid
        # waits for the last one to complete.
        starts = self._starts
        crossings = 0
        cleared = start
        for index in range(bisect_right(starts, start - duration),
                           bisect_left(starts, finish)):
            braid = self._by_start[index]
            if not braid.vertices.isdisjoint(vertices):
                crossings += 1
                if braid.finish > cleared:
                    cleared = braid.finish
        if crossings:
            start = cleared
            finish = start + duration

        braid = Braid(start=start, finish=finish, vertices=vertices,
                      endpoints=(coord_a, coord_b))
        self._active.append(braid)
        index = bisect_right(starts, start)
        starts.insert(index, start)
        self._by_start.insert(index, braid)
        self._latest_finish = max(self._latest_finish, finish)
        self.total_braids += 1
        self.total_crossings += crossings
        self._prune()
        return BraidRequest(start=start, finish=finish, crossings=crossings,
                            vertices=vertices)

    def average_crossings(self) -> float:
        """Mean crossings per braid routed so far."""
        if self.total_braids == 0:
            return 0.0
        return self.total_crossings / self.total_braids

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        horizon = self._latest_finish - self._prune_window
        if horizon <= 0:
            return
        if len(self._active) > 256:
            self._active = [b for b in self._active if b.finish >= horizon]
            kept = bisect_left(self._starts, horizon - self._braid_duration)
            del self._starts[:kept]
            del self._by_start[:kept]
