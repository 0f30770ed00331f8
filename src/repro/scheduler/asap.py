"""ASAP gate scheduler with communication resolution.

The scheduler owns the virtual-to-physical :class:`~repro.arch.mapping.Layout`
and a per-qubit clock.  Each gate the compiler emits is scheduled at the
earliest time allowed by its operands; two-qubit gates between non-adjacent
sites first receive the swap chain (NISQ) or braid delay (FT) returned by
the machine model.  A swap chain arrives as the site path its moving qubit
walks, and the scheduler applies it in one pass over that path.

The scheduler also drives the liveness tracker, so that usage segments
reflect actual scheduled times.  A segment needs only its first gate
(see :mod:`repro.scheduler.tracker`), so the tracker is called only for
the qubits in its ``awaiting_first_gate`` set.

Qubits become live and are reclaimed through the scheduler
(:meth:`GateScheduler.allocate`, :meth:`GateScheduler.reclaim`), which
keeps the *live region*: the count and the row and column sums of the
live qubits' sites, updated as swap chains move them.  Locality-aware
allocation reads the region's centroid from it in O(1).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CompilationError
from repro.arch.machine import Machine
from repro.arch.mapping import Layout
from repro.scheduler.events import GateExecution, ScheduledGate
from repro.scheduler.tracker import LivenessTracker


class GateScheduler:
    """Schedules gates on a machine, inserting communication as needed.

    Args:
        machine: The target machine model.
        tracker: Liveness tracker updated as gates are scheduled.
        record_schedule: When True every scheduled gate (including
            router-inserted swaps) is kept in :attr:`events`; turn off for
            very large workloads to save memory.
    """

    def __init__(
        self,
        machine: Machine,
        tracker: Optional[LivenessTracker] = None,
        record_schedule: bool = False,
    ) -> None:
        self.machine = machine
        self.layout = Layout(machine.topology)
        self.tracker = tracker if tracker is not None else LivenessTracker()
        self._record = record_schedule
        self.events: List[ScheduledGate] = []
        self._placement = self.layout.placement
        self._awaiting = self.tracker.awaiting_first_gate
        self._live = self.tracker.live
        self._rows = machine.topology.site_rows
        self._cols = machine.topology.site_cols
        self._live_count = self._live_row_sum = self._live_col_sum = 0
        self._qubit_time: Dict[int, int] = {}
        self._site_time: List[int] = [0] * machine.topology.num_sites
        self.makespan = 0
        self.gate_count = 0
        self.swap_count = 0
        self.comm_cost_total = 0.0

    # ------------------------------------------------------------------
    # Qubit management
    # ------------------------------------------------------------------
    def register_qubit(self, virtual: int, site: int) -> None:
        """Place a freshly created virtual qubit on ``site``."""
        self.layout.place(virtual, site)
        self._qubit_time[virtual] = self._site_time[site]

    def allocate(self, virtual: int, time: int) -> None:
        """Make the placed qubit ``virtual`` live from ``time`` (a no-op
        for a qubit already live), adding its site to the live region."""
        if virtual not in self._live:
            site = self._placement[virtual]
            self._live_count += 1
            self._live_row_sum += self._rows[site]
            self._live_col_sum += self._cols[site]
        self.tracker.allocate(virtual, time)

    def reclaim(self, virtual: int) -> None:
        """Close the live segment of ``virtual`` at its clock (a no-op for
        a qubit not live), taking its site out of the live region."""
        if virtual in self._live:
            site = self._placement[virtual]
            self._live_count -= 1
            self._live_row_sum -= self._rows[site]
            self._live_col_sum -= self._cols[site]
        self.tracker.reclaim(virtual, self._qubit_time.get(virtual, 0))

    @property
    def live_region(self) -> Tuple[int, int, int]:
        """``(count, row sum, column sum)`` of the live qubits' sites.

        Kept up to date by :meth:`allocate`, :meth:`reclaim` and every
        swap chain, so reading it is O(1) however many qubits are live.
        """
        return self._live_count, self._live_row_sum, self._live_col_sum

    def qubit_time(self, virtual: int) -> int:
        """Current availability time of a virtual qubit."""
        return self._qubit_time.get(virtual, 0)

    def frontier_time(self, virtual_qubits: Sequence[int]) -> int:
        """Earliest time a gate on ``virtual_qubits`` could start."""
        return max(map(self._qubit_time.get, virtual_qubits, repeat(0)), default=0)

    def current_time(self) -> int:
        """The makespan so far (used as the allocation timestamp)."""
        return self.makespan

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_gate(self, name: str, virtual_qubits: Sequence[int]) -> GateExecution:
        """Schedule one logical gate, resolving connectivity first.

        Returns:
            A :class:`GateExecution` with the gate's time window, the number
            of swaps inserted and the communication cost units.

        Raises:
            CompilationError: If an operand is not placed on the machine.
        """
        qubits = tuple(virtual_qubits)
        placement = self._placement
        try:
            sites = [placement[qubit] for qubit in qubits]
        except KeyError as missing:
            raise CompilationError(
                f"gate {name!r} references unplaced virtual qubit {missing.args[0]}"
            ) from None
        qubit_time = self._qubit_time
        total_swaps = 0
        total_cost = 0.0
        extra_latency = 0

        if len(qubits) >= 2:
            # Resolve connectivity pairwise against the last operand (the
            # target): each control is routed next to the target in turn.
            # A chain never moves the target, but it may move another
            # control, so later controls and (after the loop) earlier
            # ones are looked up again.
            resolve = self.machine.resolve_interaction
            last = len(qubits) - 1
            target = qubits[last]
            target_site = sites[last]
            for index in range(last):
                control = qubits[index]
                if index:
                    sites[index] = placement[control]
                result = resolve(sites[index], target_site,
                                 max(qubit_time.get(control, 0),
                                     qubit_time.get(target, 0)))
                path = result.path
                if path:
                    self._walk(path)
                    total_swaps += len(path) - 1
                    sites[index] = path[-1]
                total_cost += result.cost_units
                extra_latency += result.extra_latency
            if last > 1:
                sites = [placement[qubit] for qubit in qubits]

        start = 0
        for qubit in qubits:
            busy = qubit_time.get(qubit, 0)
            if busy > start:
                start = busy
        start += extra_latency
        finish = start + self.machine.gate_duration(name)
        site_time = self._site_time
        awaiting = self._awaiting
        for qubit, site in zip(qubits, sites):
            qubit_time[qubit] = finish
            site_time[site] = finish
            if qubit in awaiting:
                self.tracker.record_gate(qubit, start, finish)
        if finish > self.makespan:
            self.makespan = finish
        if self._record:
            self.events.append(ScheduledGate(
                name=name,
                virtual_qubits=qubits,
                sites=tuple(sites),
                start=start,
                finish=finish,
                routed=False,
            ))
        self.gate_count += 1
        self.comm_cost_total += total_cost
        return GateExecution(start=start, finish=finish, swaps=total_swaps,
                             comm_cost=total_cost)

    def _walk(self, path: Sequence[int]) -> None:
        """Apply the swap chain along ``path`` in one pass.

        The occupant of ``path[0]`` moves to ``path[-1]``, one SWAP gate
        per step; each step starts once both of its sites and both
        occupants are free, and every other occupant ends one site back.
        """
        occupants = self.layout.move_along(path)
        qubit_time = self._qubit_time
        site_time = self._site_time
        awaiting = self._awaiting
        live = self._live
        rows = self._rows
        cols = self._cols
        record = self._record
        duration = self.machine.swap_duration
        moving = occupants[0]
        # Row and column shift of the live region.  A chain rotates the
        # contents of its sites, so the live qubits move by the opposite
        # of the rest: the empty sites and the reclaimed qubits.
        shift_row = shift_col = 0
        # Before each step, `finish` is when the previous step released
        # the moving qubit and the site it now occupies.
        previous = path[0]
        finish = site_time[previous]
        if moving is not None:
            finish = max(finish, qubit_time.get(moving, 0))
        first_start = finish
        for index in range(1, len(path)):
            site = path[index]
            occupant = occupants[index]
            start = site_time[site]
            if finish > start:
                start = finish
            if occupant is not None:
                busy = qubit_time.get(occupant, 0)
                if busy > start:
                    start = busy
            if index == 1:
                first_start = start
            finish = start + duration
            site_time[previous] = finish
            site_time[site] = finish
            if occupant is not None:
                qubit_time[occupant] = finish
                if occupant in awaiting:
                    self.tracker.record_gate(occupant, start, finish)
            if occupant is None or occupant not in live:
                shift_row += rows[site] - rows[previous]
                shift_col += cols[site] - cols[previous]
            if record:
                self.events.append(ScheduledGate(
                    name="swap",
                    virtual_qubits=tuple(q for q in (moving, occupant)
                                         if q is not None),
                    sites=(previous, site),
                    start=start,
                    finish=finish,
                    routed=True,
                ))
            previous = site
        if moving is not None:
            qubit_time[moving] = finish
            if moving in awaiting:
                self.tracker.record_gate(moving, first_start, finish)
        if moving is None or moving not in live:
            shift_row += rows[path[0]] - rows[previous]
            shift_col += cols[path[0]] - cols[previous]
        self._live_row_sum += shift_row
        self._live_col_sum += shift_col
        if finish > self.makespan:
            self.makespan = finish
        self.swap_count += len(path) - 1
