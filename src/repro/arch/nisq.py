"""NISQ machine model: 2-D lattice with swap-chain communication.

Models the superconducting-style devices of Section V-C: nearest-neighbour
connectivity on a lattice, long-distance CNOTs resolved by chains of SWAP
gates (three CNOTs each), and per-gate error rates / coherence times taken
from Table IV for the success-rate analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.arch.machine import NO_COMMUNICATION, CommunicationResult, Machine
from repro.arch.topology import Topology


@dataclass(frozen=True)
class NoiseParameters:
    """Device noise figures used by the analytical success-rate model.

    Attributes:
        single_qubit_error: Depolarizing error probability per 1-qubit gate.
        two_qubit_error: Depolarizing error probability per 2-qubit gate.
        t1_us: Amplitude-damping (relaxation) time constant, microseconds.
        t2_us: Dephasing time constant, microseconds.
        gate_time_us: Wall-clock duration of one scheduler time unit,
            microseconds (superconducting gates are tens of nanoseconds).
    """

    single_qubit_error: float = 0.001
    two_qubit_error: float = 0.01
    t1_us: float = 50.0
    t2_us: float = 70.0
    gate_time_us: float = 0.05


#: Noise model used by "Our Simulation" in Table IV.
SIMULATION_NOISE = NoiseParameters()

#: Published figures for the IBM superconducting device row of Table IV.
IBM_SUPERCONDUCTING = NoiseParameters(
    single_qubit_error=0.01, two_qubit_error=0.02, t1_us=55.0, t2_us=60.0,
    gate_time_us=0.05,
)

#: Published figures for the IonQ trapped-ion device row of Table IV.
IONQ_TRAPPED_ION = NoiseParameters(
    single_qubit_error=0.01, two_qubit_error=0.02, t1_us=1e6, t2_us=1e6,
    gate_time_us=10.0,
)


class NISQMachine(Machine):
    """A lattice-connected NISQ device with swap-based communication."""

    communication = "swap"

    def __init__(
        self,
        topology: Topology,
        gate_durations: Optional[Mapping[str, int]] = None,
        noise: NoiseParameters = SIMULATION_NOISE,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(topology, gate_durations,
                         name=name or f"nisq-{topology.name}")
        self.noise = noise

    # ------------------------------------------------------------------
    @classmethod
    def grid(cls, rows: int, cols: int, **kwargs) -> "NISQMachine":
        """A NISQ machine on a ``rows x cols`` lattice."""
        return cls(Topology.grid(rows, cols), **kwargs)

    @classmethod
    def with_qubits(cls, num_qubits: int, **kwargs) -> "NISQMachine":
        """A NISQ machine on the smallest near-square lattice of that size."""
        return cls(Topology.square_grid_for(num_qubits), **kwargs)

    @classmethod
    def fully_connected(cls, num_qubits: int, **kwargs) -> "NISQMachine":
        """A NISQ machine with all-to-all connectivity (no swaps needed)."""
        return cls(Topology.fully_connected(num_qubits), **kwargs)

    # ------------------------------------------------------------------
    def resolve_interaction(
        self, site_a: int, site_b: int, earliest_start: int
    ) -> CommunicationResult:
        """Resolve a long-distance CNOT by a swap chain.

        The qubit at ``site_a`` walks a shortest path until it sits next
        to ``site_b``; the qubit at ``site_b`` stays put.  Adjacent (or
        identical) sites need no swap and share one empty result.  The
        returned cost unit is the swap-chain length, which the compiler
        averages into the ``S`` factor of Equations 1 and 2.
        """
        topology = self.topology
        if topology.are_adjacent(site_a, site_b):
            return NO_COMMUNICATION
        path = topology.shortest_path(site_a, site_b)
        path.pop()
        return CommunicationResult(path=tuple(path),
                                   cost_units=float(len(path) - 1))

    def swap_distance(self, site_a: int, site_b: int) -> int:
        """Swaps needed for a gate between two sites right now."""
        return max(self.topology.distance(site_a, site_b) - 1, 0)
