"""Tests for the noise models, simulators and success-rate estimation."""

import math
import random

import pytest

from repro.exceptions import SimulationError
from repro.arch.nisq import NISQMachine, NoiseParameters
from repro.core.compiler import compile_program
from repro.ir.circuit import Circuit
from repro.ir.classical_sim import apply_classical_gate, bits_to_int, int_to_bits
from repro.noise.analytical import estimate_success, success_rates
from repro.noise.models import NoiseModel, TABLE_IV_DEVICES, table_iv_rows
from repro.noise.monte_carlo import (
    BATCH_SHOTS,
    MonteCarloSimulator,
    total_variation_distance,
    tvd_from_ideal,
)
from repro.workloads import rd53
from tests.statevector import StateVector, simulate_statevector


class TestNoiseModel:
    def test_gate_error_by_arity(self):
        model = NoiseModel()
        assert model.gate_error(1) == model.single_qubit_error
        assert model.gate_error(2) == model.two_qubit_error
        assert model.gate_error(3) == pytest.approx(6 * model.two_qubit_error)

    def test_idle_flip_probability_monotone(self):
        model = NoiseModel()
        assert model.idle_flip_probability(0) == 0.0
        assert model.idle_flip_probability(10) < model.idle_flip_probability(1000)

    def test_table_iv_rows(self):
        rows = table_iv_rows()
        assert len(rows) == len(TABLE_IV_DEVICES) == 3
        assert any(row["device"] == "Our Simulation" for row in rows)


class TestStateVector:
    def test_bell_state_probabilities(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        state = simulate_statevector(circuit)
        probabilities = state.probabilities()
        assert probabilities[0b00] == pytest.approx(0.5)
        assert probabilities[0b11] == pytest.approx(0.5)

    def test_classical_circuit_gives_basis_state(self):
        circuit = Circuit(3)
        circuit.x(0)
        circuit.ccx(0, 1, 2)
        circuit.cx(0, 1)
        state = simulate_statevector(circuit)
        probabilities = state.probabilities()
        assert probabilities[0b011] == pytest.approx(1.0)

    def test_marginal_probabilities(self):
        circuit = Circuit(2)
        circuit.h(0)
        state = simulate_statevector(circuit)
        marginal = state.marginal_probabilities([0])
        assert marginal[0] == pytest.approx(0.5)
        assert marginal[1] == pytest.approx(0.5)

    def test_sampling_matches_distribution(self):
        import numpy as np

        circuit = Circuit(1)
        circuit.x(0)
        state = simulate_statevector(circuit)
        counts = state.sample(100, rng=np.random.default_rng(1))
        assert counts == {1: 100}

    def test_fidelity_of_same_state_is_one(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        a = simulate_statevector(circuit)
        assert a.fidelity_with(a.copy()) == pytest.approx(1.0)

    def test_too_many_qubits_rejected(self):
        with pytest.raises(SimulationError):
            StateVector(30)

    def test_measure_rejected(self):
        circuit = Circuit(1)
        circuit.measure(0)
        with pytest.raises(SimulationError):
            simulate_statevector(circuit)


class TestMonteCarlo:
    def _noisefree_model(self):
        from repro.arch.nisq import NoiseParameters

        return NoiseModel(parameters=NoiseParameters(
            single_qubit_error=0.0, two_qubit_error=0.0,
            t1_us=1e12, t2_us=1e12, gate_time_us=0.05))

    def test_zero_noise_gives_ideal_outcome(self):
        circuit = Circuit(3)
        circuit.x(0)
        circuit.ccx(0, 1, 2)
        simulator = MonteCarloSimulator(noise_model=self._noisefree_model(), seed=3)
        result = simulator.run(circuit, shots=64)
        assert result.success_probability() == 1.0
        assert tvd_from_ideal(result) == 0.0

    def test_noise_increases_tvd_with_circuit_size(self):
        small = Circuit(2)
        small.cx(0, 1)
        large = Circuit(2)
        for _ in range(200):
            large.cx(0, 1)
        simulator = MonteCarloSimulator(seed=5)
        tvd_small = tvd_from_ideal(simulator.run(small, shots=512))
        tvd_large = tvd_from_ideal(simulator.run(large, shots=512))
        assert tvd_large > tvd_small

    def test_measured_wires_subset(self):
        circuit = Circuit(3)
        circuit.x(2)
        simulator = MonteCarloSimulator(noise_model=self._noisefree_model())
        result = simulator.run(circuit, shots=16, measured_wires=[2])
        assert result.ideal_outcome == 1

    def test_nonclassical_circuit_rejected(self):
        circuit = Circuit(1)
        circuit.h(0)
        with pytest.raises(SimulationError):
            MonteCarloSimulator().run(circuit, shots=8)

    def test_reproducible_with_seed(self):
        circuit = Circuit(2)
        for _ in range(20):
            circuit.cx(0, 1)
        first = MonteCarloSimulator(seed=11).run(circuit, shots=128)
        second = MonteCarloSimulator(seed=11).run(circuit, shots=128)
        assert first.counts == second.counts

    @pytest.mark.parametrize("kwargs, wire", [
        ({"measured_wires": [-1]}, -1),
        ({"measured_wires": [0, 3]}, 3),
        ({"initial_bits": {-3: 1}}, -3),
        ({"initial_bits": {3: 1}}, 3),
    ])
    def test_out_of_range_wires_rejected(self, kwargs, wire):
        circuit = Circuit(3)
        circuit.cx(0, 1)
        with pytest.raises(SimulationError, match=f"wire {wire} out of range"):
            MonteCarloSimulator().run(circuit, shots=8, **kwargs)

    def test_readout_wider_than_64_wires(self):
        circuit = Circuit(70)
        circuit.x(69)
        simulator = MonteCarloSimulator(noise_model=self._noisefree_model())
        shots = BATCH_SHOTS + 3  # a full batch and a partial one
        result = simulator.run(circuit, shots=shots,
                               measured_wires=range(70))
        assert result.ideal_outcome == 1 << 69
        assert result.counts == {1 << 69: shots}
        assert all(type(key) is int for key in result.counts)
        reversed_wires = simulator.run(circuit, shots=4,
                                       measured_wires=range(69, -1, -1))
        assert reversed_wires.counts == {1: 4}
        for wire in range(0, 69, 3):
            circuit.cx(wire, wire + 1)
        noisy = MonteCarloSimulator(seed=4).run(circuit, shots=300)
        assert sum(noisy.counts.values()) == 300
        assert len(noisy.counts) > 1
        assert all(type(key) is int and 0 <= key < 1 << 70
                   for key in noisy.counts)

    def test_total_variation_distance_bounds(self):
        assert total_variation_distance({0: 1.0}, {0: 1.0}) == 0.0
        assert total_variation_distance({0: 1.0}, {1: 1.0}) == 1.0
        assert total_variation_distance({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)


#: High error rates so every event kind shows in a small circuit: Toffoli
#: flips and long idles exceed the simulator's dense threshold, X / CNOT /
#: SWAP flips and short idles stay below it.
HEAVY_NOISE = NoiseModel(parameters=NoiseParameters(
    single_qubit_error=0.36, two_qubit_error=0.1,
    t1_us=0.4, t2_us=0.4, gate_time_us=0.05))


def exact_distribution(circuit, model, initial_bits, measured_wires):
    """Exact readout distribution: a 2^n probability vector pushed through
    the relaxation, gate and flip events of the noise model."""
    n = circuit.num_qubits
    state = [0.0] * (1 << n)
    state[sum(bit << wire for wire, bit in initial_bits.items())] = 1.0
    last_active = [0] * n
    clock = 0
    for gate in circuit:
        for wire in gate.qubits:
            p = model.idle_flip_probability(clock - last_active[wire])
            mask = 1 << wire
            for index in range(1 << n):
                if index & mask:
                    moved = p * state[index]
                    state[index] -= moved
                    state[index ^ mask] += moved
        permuted = [0.0] * (1 << n)
        for index, weight in enumerate(state):
            bits = int_to_bits(index, n)
            apply_classical_gate(bits, gate)
            permuted[bits_to_int(bits)] += weight
        state = permuted
        clock += gate.duration
        flip = model.gate_error(gate.num_qubits) * (2.0 / 3.0)
        for wire in gate.qubits:
            last_active[wire] = clock
            mask = 1 << wire
            state = [(1 - flip) * state[index] + flip * state[index ^ mask]
                     for index in range(1 << n)]
    readout = {}
    for index, weight in enumerate(state):
        key = sum(((index >> wire) & 1) << position
                  for position, wire in enumerate(measured_wires))
        readout[key] = readout.get(key, 0.0) + weight
    return readout


def reference_run(circuit, model, shots, seed, measured_wires):
    """The per-shot simulator: one pure-Python trajectory per shot."""
    rng = random.Random(seed)
    counts = {}
    for _ in range(shots):
        bits = [0] * circuit.num_qubits
        last_active = [0] * circuit.num_qubits
        clock = 0
        for gate in circuit:
            for wire in gate.qubits:
                idle = clock - last_active[wire]
                if bits[wire] and idle > 0:
                    if rng.random() < model.idle_flip_probability(idle):
                        bits[wire] = 0
            apply_classical_gate(bits, gate)
            clock += gate.duration
            flip = model.gate_error(gate.num_qubits) * (2.0 / 3.0)
            for wire in gate.qubits:
                last_active[wire] = clock
                if rng.random() < flip:
                    bits[wire] ^= 1
        outcome = bits_to_int(bits[wire] for wire in measured_wires)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def _small_circuits():
    """Circuits of at most 4 wires with x / cx / ccx / swap and idle gaps."""
    chain = Circuit(3)
    chain.x(0)
    chain.cx(0, 1)
    chain.ccx(0, 1, 2)
    chain.swap(1, 2)
    chain.cx(2, 0)
    idle = Circuit(4)
    idle.x(0)
    idle.x(3)
    for _ in range(4):
        idle.cx(1, 2)  # wires 0 and 3 idle, holding 1
    idle.ccx(0, 3, 1)
    idle.swap(0, 2)
    idle.x(2)
    idle.cx(3, 2)
    gaps = Circuit(4)
    gaps.swap(0, 3)
    gaps.ccx(3, 1, 2)
    gaps.x(1)
    gaps.ccx(1, 2, 0)
    gaps.swap(2, 3)
    gaps.cx(0, 3)
    # Short idles on a wire holding 1 and lone X flips: the sparse events.
    sparse = Circuit(2)
    sparse.x(0)
    for _ in range(3):
        sparse.x(1)
        sparse.cx(0, 1)
    return [(chain, {}, (0, 1, 2)),
            (idle, {1: 1}, (0, 1, 2, 3)),
            (gaps, {1: 1, 3: 1}, (3, 0)),
            (sparse, {}, (0, 1))]


@pytest.mark.parametrize("case", range(4))
def test_monte_carlo_matches_exact_distribution(case):
    circuit, initial, measured = _small_circuits()[case]
    shots = 1 << 16
    result = MonteCarloSimulator(noise_model=HEAVY_NOISE, seed=case).run(
        circuit, shots=shots, initial_bits=initial, measured_wires=measured)
    exact = exact_distribution(circuit, HEAVY_NOISE, initial, measured)
    assert sum(result.counts.values()) == shots
    assert total_variation_distance(result.distribution(), exact) < 0.015
    assert result.success_probability() == pytest.approx(
        exact[result.ideal_outcome], abs=0.01)


def test_monte_carlo_matches_per_shot_reference_on_compiled_benchmark():
    result = compile_program(rd53(), NISQMachine.grid(5, 5), policy="square",
                             record_schedule=True)
    circuit = result.to_circuit(physical=True)
    measured = result.entry_param_sites()
    model = NoiseModel()
    reference_shots, shots = 1 << 12, 1 << 16
    reference = reference_run(circuit, model, reference_shots, 1, measured)
    run = MonteCarloSimulator(noise_model=model, seed=1).run(
        circuit, shots=shots, measured_wires=measured)
    p_reference = reference.get(run.ideal_outcome, 0) / reference_shots
    p_run = run.success_probability()
    pooled = (p_reference * reference_shots + p_run * shots) / (
        reference_shots + shots)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / reference_shots + 1 / shots))
    assert 0.05 < pooled < 0.95
    assert abs(p_run - p_reference) < 4 * sigma


class TestAnalyticalSuccess:
    def test_estimate_components_in_unit_interval(self):
        program = rd53()
        result = compile_program(program, NISQMachine.grid(5, 5), policy="square")
        estimate = estimate_success(result)
        assert 0.0 < estimate.gate_success <= 1.0
        assert 0.0 < estimate.coherence <= 1.0
        assert 0.0 < estimate.total <= 1.0

    def test_success_rates_ranking_tracks_depth(self):
        program = rd53()
        results = {}
        for policy in ("lazy", "eager", "square"):
            machine = NISQMachine.grid(5, 5)
            results[policy] = compile_program(program, machine, policy=policy,
                                              decompose_toffoli=True)
        rates = success_rates(results)
        assert set(rates) == {"lazy", "eager", "square"}
        shallowest = min(results, key=lambda p: results[p].circuit_depth)
        assert rates[shallowest] == max(rates.values())

    def test_lower_noise_gives_higher_success(self):
        from repro.arch.nisq import NoiseParameters

        program = rd53()
        result = compile_program(program, NISQMachine.grid(5, 5), policy="square")
        noisy = estimate_success(result, NoiseModel()).total
        clean = estimate_success(result, NoiseModel(parameters=NoiseParameters(
            single_qubit_error=1e-6, two_qubit_error=1e-5,
            t1_us=1e9, t2_us=1e9, gate_time_us=0.05))).total
        assert clean > noisy
