"""Stochastic (Monte-Carlo) noisy simulation of compiled circuits.

The paper's noise simulations (Section V-C3) run each compiled benchmark
through Qiskit Aer with depolarizing gate noise and T1/T2 thermal
relaxation, then compare the noisy output distribution with the ideal one
via total variation distance.

The benchmarks compile to *classical reversible* circuits (X / CNOT /
Toffoli / SWAP).  For such circuits, a Pauli-twirled depolarizing +
relaxation model admits an exact stochastic bit-level simulation: phase
errors never affect computational-basis measurement statistics, so only
the bit-flip components matter, and each noisy shot is a classical
propagation with randomly injected flips.  This bit-level simulation
stands in for Qiskit Aer.

All shots of a batch move through the circuit together.  The bits are a
``(wires, shots)`` boolean array and each gate is one row operation.  A
noise event is one vectorised draw over the shots: a Bernoulli draw per
shot when it is likely, and otherwise a Poisson number of arrivals
scattered over the shots, which costs time per hit rather than per shot
and gives the same per-shot probability exactly.  Relaxation gaps come
from the program-order clock, which is the same for every shot, so the
events are computed once per circuit; a SWAP only relabels rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.ir.circuit import Circuit
from repro.ir.classical_sim import bits_to_int, simulate_classical
from repro.noise.models import NoiseModel

#: Shots simulated together, so memory does not grow with ``shots``.
BATCH_SHOTS = 8192
#: Noise events whose probability exceeds this are drawn for every shot;
#: rarer ones are sampled sparsely (see :func:`_arrivals`).  Sparse
#: sampling needs p < 1/2 for a flip and p < 1 for a relaxation, and
#: near those limits a per-shot draw is the cheaper of the two.
DENSE_ABOVE = 0.25
#: Sparse events whose arrivals are drawn at once.
ARRIVAL_CHUNK = 256

#: A noise event on one row: its probability when drawn for every shot,
#: or None when its arrivals come from :func:`_arrivals`.
_Event = Tuple[int, Optional[float]]
#: One gate: name, operand rows, relaxation events before it and flip
#: events after it.
_Step = Tuple[str, Tuple[int, ...], Tuple[_Event, ...], Tuple[_Event, ...]]


@dataclass(frozen=True)
class NoisyRunResult:
    """Outcome of a Monte-Carlo noisy simulation.

    Attributes:
        counts: Measured bitstring (as integer) -> number of shots.
        shots: Total number of shots.
        ideal_outcome: The noiseless outcome bitstring (as an integer).
        measured_wires: The wires included in the readout.
    """

    counts: Mapping[int, int]
    shots: int
    ideal_outcome: int
    measured_wires: Tuple[int, ...]

    def distribution(self) -> Dict[int, float]:
        """Normalised outcome distribution."""
        return {key: value / self.shots for key, value in self.counts.items()}

    def success_probability(self) -> float:
        """Fraction of shots that produced the ideal outcome."""
        return self.counts.get(self.ideal_outcome, 0) / self.shots


class MonteCarloSimulator:
    """Bit-level stochastic noise simulator for classical circuits.

    Args:
        noise_model: Gate error and relaxation parameters.
        seed: RNG seed for reproducible runs.
    """

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 seed: int = 2020) -> None:
        self.noise_model = noise_model or NoiseModel()
        self._seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        shots: int = 1024,
        initial_bits: Optional[Mapping[int, int]] = None,
        measured_wires: Optional[Sequence[int]] = None,
    ) -> NoisyRunResult:
        """Simulate ``shots`` noisy executions of ``circuit``.

        Args:
            circuit: A classical reversible circuit (router swaps included).
            shots: Number of noisy trajectories.
            initial_bits: Basis-state input assignment (default all zero).
            measured_wires: Wires to read out (default: every wire).

        Raises:
            SimulationError: If the circuit contains non-classical gates,
                ``shots`` is not positive, or a wire is out of range.
        """
        if not circuit.is_classical():
            raise SimulationError(
                "the Monte-Carlo simulator only handles classical reversible "
                "circuits; decompose or use the dense state-vector simulator"
            )
        if shots < 1:
            raise SimulationError("shots must be positive")
        num_wires = circuit.num_qubits
        wires = tuple(measured_wires) if measured_wires is not None else tuple(
            range(num_wires)
        )
        for wire in wires:
            if not 0 <= wire < num_wires:
                raise SimulationError(f"measured wire {wire} out of range")
        initial_bits = initial_bits or {}
        ideal = simulate_classical(circuit, initial_bits)
        ideal_outcome = bits_to_int(ideal[wire] for wire in wires)

        steps, rates, rows = self._schedule(circuit)
        readout = [rows[wire] for wire in wires]
        ones = [wire for wire, bit in initial_bits.items() if bit]
        rng = np.random.default_rng(self._seed)
        counts: Counter = Counter()
        for start in range(0, shots, BATCH_SHOTS):
            size = min(BATCH_SHOTS, shots - start)
            bits = np.zeros((num_wires, size), dtype=bool)
            bits[ones] = True
            view = list(bits)  # one view per row, indexed cheaply
            hits = _arrivals(rng, rates, size)
            for name, qubits, relax, flips in steps:
                for row, probability in relax:
                    if probability is None:
                        view[row][next(hits)] = False
                    else:
                        view[row] &= rng.random(size) >= probability
                if name == "cx":
                    view[qubits[1]] ^= view[qubits[0]]
                elif name == "ccx":
                    view[qubits[2]] ^= view[qubits[0]] & view[qubits[1]]
                elif name == "x":
                    view[qubits[0]] ^= True
                for row, probability in flips:
                    if probability is None:
                        np.logical_xor.at(view[row], next(hits), True)
                    else:
                        view[row] ^= rng.random(size) < probability
            counts.update(_outcomes(bits[readout]))
        return NoisyRunResult(counts=dict(counts), shots=shots,
                              ideal_outcome=ideal_outcome, measured_wires=wires)

    # ------------------------------------------------------------------
    def _schedule(self, circuit: Circuit
                  ) -> Tuple[List[_Step], np.ndarray, List[int]]:
        """The shot-independent noise events of ``circuit``.

        Returns the steps, the per-shot Poisson rate of each sparse event
        in step order, and the final wire -> row map.

        Before a gate, each operand that reads 1 relaxes to 0 with the
        probability of its idle time since its previous gate on the
        program-order clock.  After it, each operand flips with 2/3 of
        the gate's depolarizing probability: the Pauli errors with a
        bit-flip component (phase-only errors are invisible for classical
        circuits).  A SWAP exchanges its wires' rows, so the noise after
        it lands on the swapped rows.

        A sparse event hits a shot as often as a Poisson process of rate
        ``lambda`` does.  A relaxation clears the bit on any arrival, so
        ``p = 1 - exp(-lambda)``; a flip toggles it on each arrival, so
        it takes effect on an odd count, ``p = (1 - exp(-2 lambda)) / 2``.
        """
        model = self.noise_model
        rows = list(range(circuit.num_qubits))
        last_active = [0] * circuit.num_qubits
        clock = 0
        steps: List[_Step] = []
        rates: List[float] = []
        # Memoised: idle time -> (probability, rate) and gate name ->
        # (duration, probability, rate).
        relax_odds: Dict[int, Tuple[float, float]] = {}
        gate_odds: Dict[str, Tuple[int, float, float]] = {}

        def odds(probability: float, flip: bool) -> Tuple[float, float]:
            """The probability and, for a sparse event, its Poisson rate."""
            if probability > DENSE_ABOVE:
                return probability, 0.0
            if flip:
                return probability, -math.log1p(-2.0 * probability) / 2.0
            return probability, -math.log1p(-probability)

        def add(events: List[_Event], row: int, probability: float,
                rate: float) -> None:
            if probability > DENSE_ABOVE:
                events.append((row, probability))
            elif probability:
                events.append((row, None))
                rates.append(rate)

        for gate in circuit:
            name, qubits = gate.name, gate.qubits
            relax: List[_Event] = []
            for wire in qubits:
                idle = clock - last_active[wire]
                if idle not in relax_odds:
                    relax_odds[idle] = odds(model.idle_flip_probability(idle),
                                            flip=False)
                add(relax, rows[wire], *relax_odds[idle])
            if name == "swap":
                a, b = qubits
                rows[a], rows[b] = rows[b], rows[a]
            if name not in gate_odds:
                flip = model.gate_error(len(qubits)) * (2.0 / 3.0)
                gate_odds[name] = (gate.duration, *odds(flip, flip=True))
            duration, probability, rate = gate_odds[name]
            clock += duration
            flips: List[_Event] = []
            for wire in qubits:
                last_active[wire] = clock
                add(flips, rows[wire], probability, rate)
            steps.append((name, tuple(rows[wire] for wire in qubits),
                          tuple(relax), tuple(flips)))
        return steps, np.array(rates), rows


def _arrivals(rng: np.random.Generator, rates: np.ndarray,
              size: int) -> Iterator[np.ndarray]:
    """Yield, per sparse event, the shots its Poisson process reaches.

    Event ``i`` sends Poisson(``size * rates[i]``) arrivals to shots drawn
    uniformly with repeats, so each of the ``size`` shots independently
    receives Poisson(``rates[i]``) of them.  Draws are made
    ``ARRIVAL_CHUNK`` events at a time, which bounds memory.
    """
    for start in range(0, len(rates), ARRIVAL_CHUNK):
        counts = rng.poisson(size * rates[start:start + ARRIVAL_CHUNK])
        targets = rng.integers(0, size, int(counts.sum()))
        cut = 0
        for count in counts.tolist():
            yield targets[cut:cut + count]
            cut += count


def _outcomes(measured: np.ndarray) -> List[int]:
    """Per-shot readout integers of a ``(wires, shots)`` bit array.

    Bit ``i`` of an outcome is row ``i``.  The rows are packed into
    little-endian 64-bit words, so readouts wider than 64 wires still give
    exact Python ints.
    """
    packed = np.packbits(measured, axis=0, bitorder="little")
    words = np.zeros((measured.shape[1], 8 * max(1, -(-len(packed) // 8))),
                     dtype=np.uint8)
    words[:, :len(packed)] = packed.T
    words = words.view("<u8")
    outcomes = words[:, 0].tolist()
    for index in range(1, words.shape[1]):
        shift = 64 * index
        outcomes = [low | high << shift for low, high
                    in zip(outcomes, words[:, index].tolist())]
    return outcomes


def total_variation_distance(distribution_a: Mapping[int, float],
                             distribution_b: Mapping[int, float]) -> float:
    """Total variation distance between two outcome distributions.

    d_TV(P, Q) = 1/2 * sum_x |P(x) - Q(x)|, the measure used in
    Section V-C3 to compare noisy and ideal measurement outcomes.
    """
    keys = set(distribution_a) | set(distribution_b)
    return 0.5 * sum(
        abs(distribution_a.get(key, 0.0) - distribution_b.get(key, 0.0))
        for key in keys
    )


def tvd_from_ideal(result: NoisyRunResult) -> float:
    """TVD between a noisy run and its (deterministic) ideal outcome."""
    ideal = {result.ideal_outcome: 1.0}
    return total_variation_distance(result.distribution(), ideal)
