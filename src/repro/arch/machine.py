"""Abstract machine model shared by the NISQ and FT back-ends.

A machine couples a :class:`~repro.arch.topology.Topology` with a gate
duration table and a communication model.  The scheduler asks the machine
to *resolve* every two-qubit interaction: on a NISQ machine that yields a
swap chain, given as the site path the moving qubit walks; on a
fault-tolerant machine a braid with possible crossing delays; on an ideal
machine nothing at all.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.arch.topology import Topology
from repro.ir.gates import gate_spec

#: Default logical gate durations, in scheduler time units (one unit is
#: roughly one single-qubit gate time).
DEFAULT_GATE_DURATIONS: Mapping[str, int] = {
    "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "cx": 2, "cz": 2, "swap": 6, "ccx": 6,
    "measure": 10, "reset": 10, "barrier": 0,
}


class CommunicationResult(NamedTuple):
    """Outcome of resolving one two-qubit interaction (a named tuple:
    cheap to build, since routing makes one per non-adjacent pair).

    Attributes:
        path: The swap chain the scheduler must apply before the gate
            (NISQ), as the distinct sites the moving qubit walks: it
            starts on ``path[0]``, swaps with each next site's occupant in
            turn and ends on ``path[-1]``, next to its partner.  A chain
            of ``len(path) - 1`` swaps; empty when no swap is needed.
        extra_latency: Additional latency (time units) beyond the swap chain
            itself, e.g. braid queueing delay on an FT machine.
        cost_units: The communication quantity fed to the CER cost model's
            running average ``S`` — swap-chain length on NISQ, number of
            braid crossings on FT.
    """

    path: Tuple[int, ...] = ()
    extra_latency: int = 0
    cost_units: float = 0.0


#: The result of an interaction that needs no communication at all.
NO_COMMUNICATION = CommunicationResult()


class Machine(abc.ABC):
    """Base class for machine models.

    Args:
        topology: Physical site connectivity.
        gate_durations: Optional per-gate duration overrides.
        name: Machine name used in reports.
    """

    #: Communication mechanism, one of "none", "swap", "braid".
    communication = "none"

    def __init__(
        self,
        topology: Topology,
        gate_durations: Optional[Mapping[str, int]] = None,
        name: str = "machine",
    ) -> None:
        self.topology = topology
        self.name = name
        self._durations: Dict[str, int] = dict(DEFAULT_GATE_DURATIONS)
        if gate_durations:
            self._durations.update(gate_durations)

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Maximum number of qubits the machine offers."""
        return self.topology.num_sites

    def gate_duration(self, name: str) -> int:
        """Logical duration of gate ``name`` in time units."""
        if name in self._durations:
            return self._durations[name]
        return gate_spec(name).duration

    @property
    def swap_duration(self) -> int:
        """Duration of one SWAP gate."""
        return self.gate_duration("swap")

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def resolve_interaction(
        self, site_a: int, site_b: int, earliest_start: int
    ) -> CommunicationResult:
        """Resolve a two-qubit interaction between two physical sites.

        Args:
            site_a: Site of the first operand (the one allowed to move).
            site_b: Site of the second operand.
            earliest_start: Earliest time the interaction could begin given
                data dependencies.

        Returns:
            The communication actions and costs for this interaction.
        """

    def reset_communication_state(self) -> None:
        """Clear any internal communication state (e.g. active braids)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, qubits={self.num_qubits})"


class IdealMachine(Machine):
    """A fully-connected machine with no communication cost.

    Used as the reference point (the "no locality constraint" model that
    prior ancilla-reuse work assumes) and for the fully-connected bars of
    Figure 5.
    """

    communication = "none"

    def __init__(self, num_qubits: int,
                 gate_durations: Optional[Mapping[str, int]] = None) -> None:
        super().__init__(
            Topology.fully_connected(num_qubits),
            gate_durations,
            name=f"ideal-{num_qubits}",
        )

    def resolve_interaction(
        self, site_a: int, site_b: int, earliest_start: int
    ) -> CommunicationResult:
        """All sites are adjacent: no swaps, no delay, zero cost."""
        return NO_COMMUNICATION
