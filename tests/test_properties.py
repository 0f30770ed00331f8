"""Property-based tests on cross-cutting invariants.

These use hypothesis to generate random modular programs and check the
invariants the whole system relies on:

* every policy produces a circuit that computes the same function on the
  entry module's parameters (uncomputation never changes program output);
* the Eager policy leaves every non-top-level ancilla clean;
* AQV equals the area under the usage curve and never exceeds
  peak-live-qubits x circuit-depth;
* the program walk's stream counts exactly what the compile does;
* deeper programs whose Store blocks call (on the caller's ancillas)
  keep their function when those calls are inverted inside a replay.
"""

from __future__ import annotations

import itertools
import random
from typing import List

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import autosize_compile
from repro.arch.nisq import NISQMachine
from repro.core.compiler import CompilerConfig, SquareCompiler, compile_program
from repro.core.plan import ALLOC, END_UNCOMPUTE, RELEASE, RUN, ProgramWalk
from repro.core.policies import create_reclamation_policy
from repro.ir.classical_sim import simulate_classical
from repro.ir.flatten import flatten_program
from repro.ir.gates import inverse_gate_name
from repro.ir.program import CallStmt, GateStmt, Program, QModule


def _random_leaf(rng: random.Random, index: int) -> QModule:
    """A random gate-only module with 2 inputs, 1 output and 1-2 ancillas.

    The Compute block follows the Bennett discipline the paper's
    Compute-Store-Uncompute construct assumes: it only *writes* to the
    module's own ancillas (inputs are used as controls), so deferring the
    uncomputation never changes values the caller later reads.
    """
    num_ancilla = rng.randint(1, 2)
    module = QModule(f"leaf{index}", num_inputs=2, num_outputs=1,
                     num_ancilla=num_ancilla)
    controls: List = list(module.inputs) + list(module.ancillas)
    targets: List = list(module.ancillas)
    for _ in range(rng.randint(2, 5)):
        kind = rng.random()
        target = rng.choice(targets)
        if kind < 0.3:
            module.x(target)
        elif kind < 0.7:
            control = rng.choice([q for q in controls if q is not target])
            module.cx(control, target)
        else:
            options = [q for q in controls if q is not target]
            if len(options) >= 2:
                a, b = rng.sample(options, 2)
                module.ccx(a, b, target)
    module.begin_store()
    module.cx(module.ancillas[0], module.outputs[0])
    return module


def _random_program(seed: int) -> Program:
    """A random 2-3 level modular program with 3 entry inputs, 2 outputs."""
    rng = random.Random(seed)
    leaves = [_random_leaf(rng, i) for i in range(rng.randint(1, 2))]
    middle = QModule("middle", num_inputs=2, num_outputs=1, num_ancilla=2)
    mid_pool = list(middle.inputs) + list(middle.ancillas)
    for index, leaf in enumerate(leaves):
        args = rng.sample(mid_pool, 2) + [middle.ancillas[index % 2]]
        if len(set(args)) == 3:
            middle.call(leaf, *args)
    middle.cx(middle.inputs[0], middle.ancillas[0])
    middle.begin_store()
    middle.cx(middle.ancillas[0], middle.outputs[0])

    top = QModule("top", num_inputs=3, num_outputs=2, num_ancilla=1)
    top.call(middle, top.inputs[0], top.inputs[1], top.ancillas[0])
    top.cx(top.inputs[2], top.ancillas[0])
    top.begin_store()
    top.cx(top.ancillas[0], top.outputs[0])
    top.cx(top.inputs[2], top.outputs[1])
    return Program(top, name=f"random-{seed}")


def _random_deep_module(rng: random.Random, name: str,
                        lower: List[QModule]) -> QModule:
    """A 2-input, 1-output module that may call ``lower`` modules from
    its Compute block (onto its ancillas) and from its Store block (onto
    its output, with its ancillas among the arguments); a call-free one
    sometimes spells out its Uncompute block."""
    module = QModule(name, num_inputs=2, num_outputs=1,
                     num_ancilla=rng.randint(1, 2))
    controls: List = list(module.inputs) + list(module.ancillas)
    gates = []
    for _ in range(rng.randint(1, 4)):
        target = rng.choice(list(module.ancillas))
        options = [q for q in controls if q is not target]
        kind = rng.random()
        if kind < 0.3:
            gates.append(GateStmt("x", (target,)))
        elif kind < 0.7 or len(options) < 2:
            gates.append(GateStmt("cx", (rng.choice(options), target)))
        else:
            gates.append(GateStmt("ccx", (*rng.sample(options, 2), target)))
    for gate in gates:
        module.gate(gate.name, *gate.qubits)
    calls = rng.randint(0, 2) if lower else 0
    for _ in range(calls):
        target = rng.choice(list(module.ancillas))
        options = [q for q in controls if q is not target]
        module.call(rng.choice(lower), *rng.sample(options, 2), target)
    module.begin_store()
    if lower and rng.random() < 0.6:
        module.call(rng.choice(lower), *rng.sample(controls, 2),
                    module.outputs[0])
    module.cx(module.ancillas[0], module.outputs[0])
    if not calls and rng.random() < 0.5:
        module.set_explicit_uncompute(
            [GateStmt(inverse_gate_name(gate.name), gate.qubits)
             for gate in reversed(gates)])
    return module


def _random_deep_program(seed: int) -> Program:
    """A random 2-6 level program whose Store blocks call."""
    rng = random.Random(seed)
    modules: List[QModule] = []
    for level in range(rng.randint(2, 6)):
        modules += [_random_deep_module(rng, f"m{level}_{index}",
                                        modules[-3:])
                    for index in range(rng.randint(1, 2))]
    top = QModule("top", num_inputs=3, num_outputs=2, num_ancilla=1)
    top.call(modules[-1], top.inputs[0], top.inputs[1], top.ancillas[0])
    if len(modules) > 1:
        top.call(modules[-2], top.inputs[1], top.inputs[2], top.ancillas[0])
    top.begin_store()
    top.cx(top.ancillas[0], top.outputs[0])
    top.cx(top.inputs[2], top.outputs[1])
    return Program(top, name=f"deep-{seed}")


def _reference_table(program: Program, width: int):
    """Expected values of the entry module's output parameters."""
    flat = flatten_program(program)
    num_outputs = len(program.entry.outputs)
    output_wires = flat.param_wires[width - num_outputs:]
    table = {}
    for bits in itertools.product([0, 1], repeat=width):
        out = simulate_classical(flat.circuit, dict(zip(flat.param_wires, bits)))
        table[bits] = tuple(out[w] for w in output_wires)
    return table


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_policies_preserve_program_semantics(seed):
    """Compiled output parameters are policy-independent.

    Garbage may differ (that is the whole point of deferring), but the
    values the Store blocks write onto the entry module's outputs must be
    identical under every policy.
    """
    program = _random_program(seed)
    width = program.entry.num_params
    num_outputs = len(program.entry.outputs)
    output_wires = range(width - num_outputs, width)
    reference = _reference_table(program, width)
    for policy in ("eager", "lazy", "square"):
        machine = NISQMachine.grid(4, 4)
        result = compile_program(program, machine, policy=policy,
                                 record_schedule=True)
        circuit = result.to_circuit()
        for bits, expected in reference.items():
            out = simulate_classical(circuit, dict(zip(range(width), bits)))
            assert tuple(out[w] for w in output_wires) == expected


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_eager_cleans_every_child_ancilla(seed):
    """Under Eager every reclaimed ancilla really is back in |0>.

    The only qubits allowed to end dirty are the entry module's own
    ancillas (the top level never uncomputes).
    """
    program = _random_program(seed)
    width = program.entry.num_params
    machine = NISQMachine.grid(4, 4)
    result = compile_program(program, machine, policy="eager",
                             record_schedule=True)
    circuit = result.to_circuit()
    top_ancilla_count = program.entry.num_ancilla
    # Virtual ids: params first, then the entry ancillas, then everything else.
    allowed_dirty = set(range(width, width + top_ancilla_count))
    for bits in itertools.product([0, 1], repeat=width):
        out = simulate_classical(circuit, dict(zip(range(width), bits)))
        dirty = {w for w in range(width, circuit.num_qubits) if out[w]}
        assert dirty <= allowed_dirty


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["eager", "lazy", "square", "square-laa"]))
def test_aqv_bounds(seed, policy):
    """AQV equals the usage-curve area and is bounded by qubits x depth."""
    program = _random_program(seed)
    machine = NISQMachine.grid(4, 4)
    result = compile_program(program, machine, policy=policy)
    series = result.usage_series()
    area = sum(live * (t1 - t0)
               for (t0, live), (t1, _) in zip(series, series[1:]))
    assert area == result.active_quantum_volume
    assert result.active_quantum_volume <= (
        result.peak_live_qubits * result.circuit_depth
    )
    assert result.peak_live_qubits <= result.num_qubits_used


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.booleans(),
       st.booleans())
def test_reclamation_plan_is_what_the_compile_does(seed, decompose,
                                                   store_call):
    """The walk's stream counts the compile's decisions, peak live
    qubits, gates and uncompute gates, with and without Toffoli
    decomposition and with a Store block that calls (its garbage
    outlives the caller's uncompute)."""
    program = _random_program(seed)
    middle = program.entry.compute[0].module
    if store_call and isinstance(middle.compute[0], CallStmt):
        middle.store.append(middle.compute[0])
    for reclamation in ("eager", "lazy", "cer"):
        walk = ProgramWalk(program, decompose_toffoli=decompose,
                           locality_constrained=True)
        plan = walk.plan(create_reclamation_policy(reclamation))
        live = peak = program.entry.num_params
        gates = uncompute_gates = 0
        for item in walk.stream(plan):
            if item[0] == RUN:
                gates += len(item[1])
            elif item[0] == ALLOC:
                live += len(item[2]) - item[1].num_params
                peak = max(peak, live)
            elif item[0] == RELEASE:
                live -= len(item[1])
            elif item[0] == END_UNCOMPUTE:
                uncompute_gates += item[1]
        config = CompilerConfig(reclamation=reclamation,
                                decompose_toffoli=decompose)
        result = SquareCompiler(NISQMachine.grid(5, 5), config).compile(program)
        assert result.reclamation_events == plan.events
        assert result.peak_live_qubits == plan.peak_live == peak
        assert result.gate_count == plan.gate_count == gates
        assert result.uncompute_gate_count == uncompute_gates


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=5)   # miscompiled silently under eager
@example(seed=7)   # a gate on one qubit twice under eager
def test_store_calls_inverted_in_a_replay_keep_the_function(seed):
    """A Store-block call inverted while its caller is replayed
    (``C ; S^-1 ; C^-1`` on fresh ancillas) acts on the replay's
    ancillas, not on the freed originals: every policy computes the
    program's function, and with Toffolis decomposed (which the
    classical simulator cannot run) no gate lands twice on one qubit."""
    program = _random_deep_program(seed)
    width = program.entry.num_params
    num_outputs = len(program.entry.outputs)
    output_wires = range(width - num_outputs, width)
    reference = _reference_table(program, width)
    def compile_on_a_lattice(**config):
        # A 12x12 grid, grown when a program holds more qubits at once.
        return autosize_compile(program, NISQMachine.with_qubits,
                                CompilerConfig(**config), start_qubits=144)

    for reclamation in ("eager", "lazy", "cer"):
        compile_on_a_lattice(reclamation=reclamation, decompose_toffoli=True)
        result = compile_on_a_lattice(reclamation=reclamation,
                                      record_schedule=True)
        circuit = result.to_circuit()
        for bits, expected in reference.items():
            out = simulate_classical(circuit,
                                     dict(zip(range(width), bits)))
            assert tuple(out[w] for w in output_wires) == expected
