"""ASAP gate scheduler with communication resolution.

The scheduler owns the virtual-to-physical :class:`~repro.arch.mapping.Layout`
and a per-qubit clock.  Each gate the compiler emits is scheduled at the
earliest time allowed by its operands; two-qubit gates between non-adjacent
sites first receive the swap chain (NISQ) or braid delay (FT) returned by
the machine model.  The scheduler also drives the liveness tracker so that
usage segments reflect actual scheduled times.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CompilationError
from repro.arch.machine import CommunicationResult, Machine
from repro.arch.mapping import Layout
from repro.arch.routing import SwapStep
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
        self._qubit_time: Dict[int, int] = {}
        self._site_time: List[int] = [0] * machine.topology.num_sites
        self.makespan = 0
        self.gate_count = 0
        self.swap_count = 0
        self.comm_cost_total = 0.0
        self.two_qubit_gate_count = 0

    # ------------------------------------------------------------------
    # Qubit management
    # ------------------------------------------------------------------
    def register_qubit(self, virtual: int, site: int) -> None:
        """Place a freshly created virtual qubit on ``site``."""
        self.layout.place(virtual, site)
        self._qubit_time[virtual] = self._site_time[site]

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
        """
        qubits = tuple(virtual_qubits)
        if len(self.layout.sites_of(qubits)) != len(qubits):
            unplaced = next(q for q in qubits if not self.layout.is_placed(q))
            raise CompilationError(
                f"gate {name!r} references unplaced virtual qubit {unplaced}"
            )
        total_swaps = 0
        total_cost = 0.0
        extra_latency = 0

        if len(qubits) >= 2:
            # Resolve connectivity pairwise against the last operand (the
            # target): each control is routed next to the target in turn.
            target = qubits[-1]
            for control in qubits[:-1]:
                result = self._resolve_pair(control, target)
                total_swaps += len(result.swaps)
                total_cost += result.cost_units
                extra_latency += result.extra_latency

        start = self.frontier_time(qubits) + extra_latency
        duration = self.machine.gate_duration(name)
        finish = start + duration
        self._commit(name, qubits, start, finish, routed=False)
        self.gate_count += 1
        if len(qubits) >= 2:
            self.two_qubit_gate_count += 1
        self.comm_cost_total += total_cost
        return GateExecution(start=start, finish=finish, swaps=total_swaps,
                             comm_cost=total_cost)

    # ------------------------------------------------------------------
    def _resolve_pair(self, moving: int, stationary: int) -> CommunicationResult:
        """Make ``moving`` adjacent to ``stationary``, applying swaps."""
        site_a = self.layout.site_of(moving)
        site_b = self.layout.site_of(stationary)
        qubit_time = self._qubit_time
        earliest = max(qubit_time.get(moving, 0), qubit_time.get(stationary, 0))
        result = self.machine.resolve_interaction(site_a, site_b, earliest)
        if result.swaps:
            self._apply_swaps(result.swaps)
        return result

    def _apply_swaps(self, swaps: Sequence[SwapStep]) -> None:
        """Walk a swap chain in one pass.

        The chain moves the occupant of its first site step by step; each
        step is one SWAP gate that starts once both sites and both
        occupants are free, and every other occupant ends one site back.

        Raises:
            CompilationError: If a step does not start where the previous
                one ended.
        """
        path = [swaps[0][0]]
        for site_a, site_b in swaps:
            if site_a != path[-1]:
                raise CompilationError(
                    f"swap step {(site_a, site_b)} does not continue the "
                    f"chain at site {path[-1]}"
                )
            path.append(site_b)
        occupants = self.layout.move_along(path)
        qubit_time = self._qubit_time
        site_time = self._site_time
        record_gate = self.tracker.record_gate
        duration = self.machine.swap_duration
        moving = occupants[0]
        # Before each step, `finish` is when the previous step released
        # the moving qubit and the site it now occupies.
        finish = site_time[path[0]]
        if moving is not None:
            finish = max(finish, qubit_time.get(moving, 0))
        first_start = None
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
            if first_start is None:
                first_start = start
            finish = start + duration
            site_time[path[index - 1]] = finish
            site_time[site] = finish
            if occupant is not None:
                qubit_time[occupant] = finish
                record_gate(occupant, start, finish)
            if self._record:
                self.events.append(ScheduledGate(
                    name="swap",
                    virtual_qubits=tuple(q for q in (moving, occupant)
                                         if q is not None),
                    sites=(path[index - 1], site),
                    start=start,
                    finish=finish,
                    routed=True,
                ))
        if moving is not None:
            qubit_time[moving] = finish
            record_gate(moving, first_start, finish)
        self.makespan = max(self.makespan, finish)
        self.swap_count += len(swaps)

    def _commit(self, name: str, qubits: Tuple[int, ...], start: int,
                finish: int, routed: bool) -> None:
        sites = tuple(self.layout.sites_of(qubits))
        qubit_time = self._qubit_time
        site_time = self._site_time
        record_gate = self.tracker.record_gate
        for qubit, site in zip(qubits, sites):
            qubit_time[qubit] = finish
            site_time[site] = finish
            record_gate(qubit, start, finish)
        self.makespan = max(self.makespan, finish)
        if self._record:
            self.events.append(ScheduledGate(
                name=name,
                virtual_qubits=qubits,
                sites=sites,
                start=start,
                finish=finish,
                routed=routed,
            ))

    # ------------------------------------------------------------------
    def average_comm_cost(self) -> float:
        """Mean communication cost units per two-qubit gate so far."""
        if self.two_qubit_gate_count == 0:
            return 0.0
        return self.comm_cost_total / self.two_qubit_gate_count
