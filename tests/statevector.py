"""Dense state-vector simulator (pure NumPy), a test reference.

A small but complete simulator supporting the full gate set of the IR,
used by the tests for unitary-equivalence checks (e.g. the Toffoli
decomposition) and as an exact model of very small noisy circuits.  The
library's noise runs use the stochastic bit-level simulator in
:mod:`repro.noise.monte_carlo`, which is exact for the classical
reversible circuits the benchmarks compile to.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate

_SQRT2 = 1.0 / math.sqrt(2.0)

_SINGLE_QUBIT_MATRICES: Dict[str, np.ndarray] = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


class StateVector:
    """A dense quantum state on ``num_qubits`` wires (little-endian)."""

    def __init__(self, num_qubits: int,
                 initial_bits: Optional[Mapping[int, int]] = None) -> None:
        if num_qubits < 1:
            raise SimulationError("num_qubits must be positive")
        if num_qubits > 24:
            raise SimulationError(
                f"{num_qubits} qubits is too large for the dense simulator"
            )
        self.num_qubits = num_qubits
        index = 0
        if initial_bits:
            for wire, bit in initial_bits.items():
                if not 0 <= wire < num_qubits:
                    raise SimulationError(f"wire {wire} out of range")
                if bit:
                    index |= 1 << wire
        self._amplitudes = np.zeros(1 << num_qubits, dtype=complex)
        self._amplitudes[index] = 1.0

    # ------------------------------------------------------------------
    @property
    def amplitudes(self) -> np.ndarray:
        """The state amplitudes (read-only view)."""
        return self._amplitudes

    def copy(self) -> "StateVector":
        """Deep copy of the state."""
        clone = StateVector(self.num_qubits)
        clone._amplitudes = self._amplitudes.copy()
        return clone

    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate) -> None:
        """Apply one gate in place."""
        name = gate.name
        if name == "barrier":
            return
        if name in _SINGLE_QUBIT_MATRICES:
            self._apply_single(_SINGLE_QUBIT_MATRICES[name], gate.qubits[0])
        elif name == "cx":
            self._apply_controlled_x([gate.qubits[0]], gate.qubits[1])
        elif name == "cz":
            self._apply_controlled_z(gate.qubits[0], gate.qubits[1])
        elif name == "ccx":
            self._apply_controlled_x([gate.qubits[0], gate.qubits[1]], gate.qubits[2])
        elif name == "swap":
            self._apply_swap(gate.qubits[0], gate.qubits[1])
        elif name in ("measure", "reset"):
            raise SimulationError(
                "use sample()/probabilities() instead of mid-circuit "
                f"{name!r} in the dense simulator"
            )
        else:
            raise SimulationError(f"unsupported gate {name!r}")

    def run(self, circuit: Circuit) -> "StateVector":
        """Apply every gate of ``circuit`` and return self."""
        if circuit.num_qubits > self.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits, state has "
                f"{self.num_qubits}"
            )
        for gate in circuit:
            self.apply_gate(gate)
        return self

    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Measurement probabilities over all basis states."""
        return np.abs(self._amplitudes) ** 2

    def marginal_probabilities(self, wires: Sequence[int]) -> Dict[int, float]:
        """Probability distribution over a subset of wires."""
        probabilities = self.probabilities()
        marginal: Dict[int, float] = {}
        for index, probability in enumerate(probabilities):
            if probability <= 0.0:
                continue
            key = 0
            for position, wire in enumerate(wires):
                if index & (1 << wire):
                    key |= 1 << position
            marginal[key] = marginal.get(key, 0.0) + float(probability)
        return marginal

    def sample(self, shots: int, rng: Optional[np.random.Generator] = None
               ) -> Dict[int, int]:
        """Sample measurement outcomes over all wires."""
        if shots < 1:
            raise SimulationError("shots must be positive")
        rng = rng or np.random.default_rng()
        probabilities = self.probabilities()
        outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
        counts: Dict[int, int] = {}
        for outcome in outcomes:
            counts[int(outcome)] = counts.get(int(outcome), 0) + 1
        return counts

    def fidelity_with(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        if self.num_qubits != other.num_qubits:
            raise SimulationError("states have different sizes")
        return float(abs(np.vdot(self._amplitudes, other._amplitudes)) ** 2)

    # ------------------------------------------------------------------
    def _apply_single(self, matrix: np.ndarray, wire: int) -> None:
        amplitudes = self._amplitudes.reshape(
            (1 << (self.num_qubits - wire - 1), 2, 1 << wire)
        )
        updated = np.einsum("ab,ibj->iaj", matrix, amplitudes)
        self._amplitudes = np.ascontiguousarray(updated).reshape(-1)

    def _basis_mask(self, wire: int) -> np.ndarray:
        indices = np.arange(self._amplitudes.size)
        return (indices >> wire) & 1 == 1

    def _apply_controlled_x(self, controls: Sequence[int], target: int) -> None:
        indices = np.arange(self._amplitudes.size)
        mask = np.ones(self._amplitudes.size, dtype=bool)
        for control in controls:
            mask &= ((indices >> control) & 1) == 1
        source = indices[mask]
        flipped = source ^ (1 << target)
        swap_mask = source < flipped
        src = source[swap_mask]
        dst = flipped[swap_mask]
        self._amplitudes[src], self._amplitudes[dst] = (
            self._amplitudes[dst].copy(), self._amplitudes[src].copy()
        )

    def _apply_controlled_z(self, control: int, target: int) -> None:
        indices = np.arange(self._amplitudes.size)
        mask = (((indices >> control) & 1) == 1) & (((indices >> target) & 1) == 1)
        self._amplitudes[mask] *= -1

    def _apply_swap(self, a: int, b: int) -> None:
        indices = np.arange(self._amplitudes.size)
        bit_a = (indices >> a) & 1
        bit_b = (indices >> b) & 1
        differs = bit_a != bit_b
        swapped = indices ^ ((1 << a) | (1 << b))
        mask = differs & (indices < swapped)
        src = indices[mask]
        dst = swapped[mask]
        self._amplitudes[src], self._amplitudes[dst] = (
            self._amplitudes[dst].copy(), self._amplitudes[src].copy()
        )


def simulate_statevector(circuit: Circuit,
                         initial_bits: Optional[Mapping[int, int]] = None
                         ) -> StateVector:
    """Run ``circuit`` from a basis-state input and return the final state."""
    state = StateVector(max(circuit.num_qubits, 1), initial_bits)
    return state.run(circuit)
