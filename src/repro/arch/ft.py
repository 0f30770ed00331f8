"""Fault-tolerant (surface code) machine model with braid communication.

Logical qubits are laid out on a 2-D grid with one site per qubit and
channels between sites wide enough for braids to pass (Section V-E).
Two-qubit gates are resolved by the :class:`~repro.arch.braid.BraidTracker`;
the communication cost fed back to the CER heuristic is the number of
braid crossings per gate, following Section IV-D.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.arch.braid import BraidTracker
from repro.arch.machine import CommunicationResult, Machine
from repro.arch.topology import Topology

#: Fault-tolerant logical gate durations (in logical cycles).  Clifford
#: gates are cheap; T gates require magic-state consumption and are slower;
#: logical measurement costs about one gate time (Section II-E).
FT_GATE_DURATIONS: Mapping[str, int] = {
    "x": 1, "y": 1, "z": 1, "h": 2, "s": 2, "sdg": 2, "t": 8, "tdg": 8,
    "cx": 2, "cz": 2, "swap": 6, "ccx": 12,
    "measure": 2, "reset": 2, "barrier": 0,
}


class FTMachine(Machine):
    """A surface-code machine whose CNOTs are implemented by braiding."""

    communication = "braid"

    def __init__(
        self,
        topology: Topology,
        gate_durations: Optional[Mapping[str, int]] = None,
        braid_duration: int = 2,
        crossing_penalty: int = 2,
        name: Optional[str] = None,
    ) -> None:
        durations = dict(FT_GATE_DURATIONS)
        if gate_durations:
            durations.update(gate_durations)
        super().__init__(topology, durations, name=name or f"ft-{topology.name}")
        self._crossing_penalty = crossing_penalty
        self._braids = BraidTracker(topology, braid_duration=braid_duration)

    # ------------------------------------------------------------------
    @classmethod
    def grid(cls, rows: int, cols: int, **kwargs) -> "FTMachine":
        """An FT machine with a ``rows x cols`` logical-qubit grid."""
        return cls(Topology.grid(rows, cols), **kwargs)

    @classmethod
    def with_qubits(cls, num_qubits: int, **kwargs) -> "FTMachine":
        """An FT machine on the smallest near-square grid of that size."""
        return cls(Topology.square_grid_for(num_qubits), **kwargs)

    # ------------------------------------------------------------------
    @property
    def braid_tracker(self) -> BraidTracker:
        """The braid simulator attached to this machine."""
        return self._braids

    @property
    def crossing_penalty(self) -> int:
        """Extra latency per braid crossing, in time units."""
        return self._crossing_penalty

    def resolve_interaction(
        self, site_a: int, site_b: int, earliest_start: int
    ) -> CommunicationResult:
        """Resolve a logical CNOT by routing a braid.

        The gate is delayed until conflicting braids clear; the reported
        cost unit is the number of crossings (the FT estimate of ``S``).
        """
        request = self._braids.request(site_a, site_b, earliest_start)
        queue_delay = request.start - earliest_start
        extra = queue_delay + request.crossings * self._crossing_penalty
        return CommunicationResult(
            extra_latency=extra,
            cost_units=float(request.crossings),
        )

    def reset_communication_state(self) -> None:
        """Clear the braid tracker between compilations."""
        self._braids.reset()
