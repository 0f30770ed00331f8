"""Tests for Clifford+T decomposition and gate-parallelism analysis."""

import pytest

from repro.exceptions import UnknownGateError
from repro.ir.circuit import Circuit
from repro.ir.dag import asap_layers, parallelism_profile
from repro.ir.decompose import (
    clifford_t_counts,
    cnot_count,
    decompose_circuit,
    decompose_gate,
    decompose_swap,
    decompose_toffoli,
    t_count,
)
from repro.ir.gates import make_gate
from tests.statevector import simulate_statevector


class TestDecomposition:
    def test_toffoli_decomposition_length(self):
        assert len(decompose_toffoli(0, 1, 2)) == 15

    def test_toffoli_decomposition_is_equivalent_on_all_basis_states(self):
        reference = Circuit(3)
        reference.ccx(0, 1, 2)
        decomposed = decompose_circuit(reference)
        for basis in range(8):
            init = {w: (basis >> w) & 1 for w in range(3)}
            expected = simulate_statevector(reference, init)
            actual = simulate_statevector(decomposed, init)
            assert expected.fidelity_with(actual) == pytest.approx(1.0)

    def test_swap_is_three_cnots(self):
        assert [g.name for g in decompose_swap(0, 1)] == ["cx", "cx", "cx"]

    def test_native_gate_passthrough(self):
        gate = make_gate("h", (0,))
        assert decompose_gate(gate) == [gate]

    def test_counts_without_materialising(self):
        circuit = Circuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 1)
        counts = clifford_t_counts(circuit)
        assert counts["cx"] == 9
        assert t_count(circuit) == 7
        assert cnot_count(circuit) == 9

    def test_counts_match_materialised_decomposition(self):
        circuit = Circuit(4)
        circuit.ccx(0, 1, 2)
        circuit.cx(2, 3)
        circuit.swap(0, 3)
        materialised = decompose_circuit(circuit).gate_counts()
        assert dict(materialised) == clifford_t_counts(circuit)

    def test_measure_and_reset_pass_through(self):
        circuit = Circuit(1)
        circuit.measure(0)
        assert clifford_t_counts(circuit)["measure"] == 1
        gate = make_gate("reset", (0,))
        assert decompose_gate(gate) == [gate]


class TestDag:
    def _chain(self):
        circuit = Circuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.x(0)
        return circuit

    def test_asap_layers(self):
        layers = asap_layers(self._chain())
        assert layers[0] == [0]
        assert sorted(layers[1]) == [1, 2]

    def test_parallelism_profile(self):
        profile = parallelism_profile(self._chain())
        assert profile.total_gates == 3
        assert profile.depth == 2
        assert profile.max_width == 2

    def test_empty_circuit(self):
        profile = parallelism_profile(Circuit(2))
        assert profile.depth == 0
        assert Circuit(2).depth() == 0
