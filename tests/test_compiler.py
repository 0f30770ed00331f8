"""Integration tests for the SQUARE compiler.

These exercise the full instrumentation-driven walk: allocation,
scheduling with routing, reclamation decisions, uncomputation replay and
the resulting metrics, for every policy preset.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CompileJob, autosize_compile, execute_job
from repro.exceptions import CompilationError, ResourceExhaustedError
from repro.arch.ft import FTMachine
from repro.arch.machine import IdealMachine
from repro.arch.nisq import NISQMachine
from repro.core.compiler import (
    POLICY_PRESETS,
    CompilerConfig,
    SquareCompiler,
    compile_program,
    preset,
)
from repro.ir.classical_sim import simulate_classical
from repro.ir.flatten import flatten_program
from repro.ir.program import CallStmt, Program, QModule
from repro.scheduler.asap import GateScheduler
from repro.workloads.registry import (
    benchmark_names,
    benchmark_overrides,
    load_benchmark,
)
from repro.workloads.synthetic import SyntheticGenerator, SyntheticSpec

from tests.conftest import build_two_level_program
from tests.test_golden import MACHINES, POLICIES, quick_corpus

ALL_POLICIES = tuple(POLICY_PRESETS)


def reference_outputs(program, num_params):
    """Expected values of the entry module's *output* parameters.

    Only the output parameters are compared across policies: deferring
    policies legitimately leave garbage on input parameters and ancillas
    (that is exactly the "qubit reservation" the paper describes), but the
    values written by Store blocks must be identical for every policy.
    """
    flat = flatten_program(program)
    num_outputs = len(program.entry.outputs)
    output_wires = flat.param_wires[num_params - num_outputs:]
    table = {}
    for bits in itertools.product([0, 1], repeat=num_params):
        out = simulate_classical(flat.circuit, dict(zip(flat.param_wires, bits)))
        table[bits] = tuple(out[w] for w in output_wires)
    return table


class TestPresets:
    def test_known_presets(self):
        assert set(POLICY_PRESETS) == {"eager", "lazy", "square", "square-laa"}

    def test_preset_overrides(self):
        config = preset("square", record_schedule=True)
        assert config.record_schedule
        assert config.reclamation == "cer"

    def test_unknown_preset_rejected(self):
        with pytest.raises(CompilationError):
            preset("greedy")

    def test_unknown_policy_names_rejected(self):
        machine = NISQMachine.grid(3, 3)
        with pytest.raises(CompilationError):
            SquareCompiler(machine, CompilerConfig(allocation="nope"))
        with pytest.raises(CompilationError):
            SquareCompiler(machine, CompilerConfig(reclamation="nope"))


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_two_level_program_outputs_preserved(self, policy, two_level_program):
        reference = reference_outputs(two_level_program, 5)
        machine = NISQMachine.grid(4, 4)
        result = compile_program(two_level_program, machine, policy=policy,
                                 record_schedule=True)
        circuit = result.to_circuit()
        output_wires = range(3, 5)  # entry outputs are the last two params
        for bits, expected in reference.items():
            out = simulate_classical(circuit, dict(zip(range(5), bits)))
            assert tuple(out[w] for w in output_wires) == expected

    @pytest.mark.parametrize("policy", ("eager", "lazy", "square"))
    def test_three_level_program_outputs_preserved(self, policy):
        # leaf -> middle -> top, each level with its own ancilla, to exercise
        # recursive recomputation and deferred-garbage cleanup.
        leaf = QModule("leaf", num_inputs=2, num_outputs=1, num_ancilla=1)
        leaf.ccx(leaf.inputs[0], leaf.inputs[1], leaf.ancillas[0])
        leaf.begin_store()
        leaf.cx(leaf.ancillas[0], leaf.outputs[0])

        middle = QModule("middle", num_inputs=2, num_outputs=1, num_ancilla=1)
        middle.call(leaf, middle.inputs[0], middle.inputs[1], middle.ancillas[0])
        middle.begin_store()
        middle.cx(middle.ancillas[0], middle.outputs[0])

        top = QModule("top", num_inputs=2, num_outputs=1, num_ancilla=1)
        top.call(middle, top.inputs[0], top.inputs[1], top.ancillas[0])
        top.begin_store()
        top.cx(top.ancillas[0], top.outputs[0])
        program = Program(top, name="three-level")

        reference = reference_outputs(program, 3)
        machine = NISQMachine.grid(4, 4)
        result = compile_program(program, machine, policy=policy,
                                 record_schedule=True)
        circuit = result.to_circuit()
        for bits, expected in reference.items():
            out = simulate_classical(circuit, dict(zip(range(3), bits)))
            assert (out[2],) == expected


class TestPolicyBehaviour:
    def test_eager_emits_more_gates_than_lazy(self, two_level_program):
        machine_a = NISQMachine.grid(4, 4)
        machine_b = NISQMachine.grid(4, 4)
        eager = compile_program(two_level_program, machine_a, policy="eager")
        lazy = compile_program(two_level_program, machine_b, policy="lazy")
        assert eager.gate_count > lazy.gate_count
        assert eager.uncompute_gate_count > 0
        assert lazy.uncompute_gate_count == 0

    def test_lazy_defers_and_eager_reclaims(self, two_level_program):
        eager = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                policy="eager")
        lazy = compile_program(two_level_program, NISQMachine.grid(4, 4),
                               policy="lazy")
        assert eager.num_reclaimed >= 1
        assert lazy.num_reclaimed == 0
        assert lazy.num_deferred >= 1

    def test_eager_reuses_qubits_on_repeated_calls(self):
        # Two sequential calls to the same ancilla-hungry child: Eager should
        # reuse the reclaimed ancillas, Lazy must allocate fresh ones.
        child = QModule("child", num_inputs=2, num_outputs=1, num_ancilla=3)
        a = child.ancillas
        child.ccx(child.inputs[0], child.inputs[1], a[0])
        child.cx(a[0], a[1])
        child.cx(a[1], a[2])
        child.begin_store()
        child.cx(a[2], child.outputs[0])

        top = QModule("top", num_inputs=2, num_outputs=2, num_ancilla=0)
        top.call(child, top.inputs[0], top.inputs[1], top.outputs[0])
        top.call(child, top.inputs[0], top.inputs[1], top.outputs[1])
        program = Program(top)

        eager = compile_program(program, NISQMachine.grid(4, 4), policy="eager")
        lazy = compile_program(program, NISQMachine.grid(4, 4), policy="lazy")
        assert eager.num_qubits_used < lazy.num_qubits_used

    def test_aqv_positive_and_consistent_with_segments(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square")
        assert result.active_quantum_volume > 0
        assert result.active_quantum_volume == sum(
            segment.duration for segment in result.usage_segments
        )

    def test_usage_series_matches_peak(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="lazy")
        series = result.usage_series()
        assert max(count for _, count in series) <= result.peak_live_qubits

    def test_square_records_cost_annotated_decisions(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square")
        cer_events = [e for e in result.reclamation_events if e.costs is not None]
        assert cer_events, "CER should have evaluated Equations 1 and 2"

    def test_ideal_machine_has_no_swaps(self, two_level_program):
        result = compile_program(two_level_program, IdealMachine(16),
                                 policy="square")
        assert result.swap_count == 0

    def test_ft_machine_compiles(self, two_level_program):
        result = compile_program(two_level_program, FTMachine.grid(4, 4),
                                 policy="square")
        assert result.swap_count == 0
        assert result.gate_count > 0

    def test_resource_exhaustion(self, two_level_program):
        tiny = NISQMachine.grid(2, 2)  # 4 qubits < 7 needed
        with pytest.raises(ResourceExhaustedError):
            compile_program(two_level_program, tiny, policy="lazy")

    def test_max_qubits_budget(self, two_level_program):
        machine = NISQMachine.grid(4, 4)
        with pytest.raises(ResourceExhaustedError):
            compile_program(two_level_program, machine, policy="lazy",
                            max_qubits=3)

    def test_decompose_toffoli_removes_ccx(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="eager", decompose_toffoli=True,
                                 record_schedule=True)
        assert all(event.name != "ccx" for event in result.scheduled_gates)

    def test_result_summary_keys(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square")
        summary = result.summary()
        for key in ("program", "policy", "gates", "qubits", "depth", "swaps", "aqv"):
            assert key in summary

    def test_physical_circuit_includes_swaps(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="eager", record_schedule=True)
        if result.swap_count:
            physical = result.to_circuit(physical=True)
            assert physical.count("swap") >= 1

    def test_to_circuit_requires_recorded_schedule(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="eager")
        with pytest.raises(ValueError):
            result.to_circuit()

    def test_entry_param_sites_available(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square", record_schedule=True)
        sites = result.entry_param_sites()
        assert len(sites) == 5
        assert len(set(sites)) == 5


class TestLiveQubitFloor:
    """Program.live_qubit_floor is a lower bound no compile can beat."""

    def test_floor_bounds_peak_live_on_the_golden_matrix(self):
        checked = 0
        for name in benchmark_names():
            overrides = benchmark_overrides(name, "quick")
            floor = load_benchmark(name, **overrides).live_qubit_floor()
            for policy in POLICIES:
                for machine in MACHINES:
                    job = CompileJob.for_benchmark(name, machine, policy,
                                                   overrides=overrides)
                    try:
                        result = execute_job(job)
                    except ResourceExhaustedError:
                        continue
                    assert result.peak_live_qubits >= floor, job
                    checked += 1
        assert checked == sum(digest != "ResourceExhaustedError"
                              for digest in quick_corpus().values())

    def test_budget_below_the_floor_fails_before_any_gate(self, monkeypatch,
                                                         two_level_program):
        floor = two_level_program.live_qubit_floor()
        assert floor == 5 + 1 + 1  # entry params, main and fun1 ancillas

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was scheduled")

        monkeypatch.setattr(GateScheduler, "schedule_gate", no_gates)
        for policy in ALL_POLICIES:
            with pytest.raises(ResourceExhaustedError, match="at least 7"):
                compile_program(two_level_program,
                                NISQMachine.fully_connected(floor - 1), policy)
            with pytest.raises(ResourceExhaustedError, match="at least 7"):
                compile_program(two_level_program, NISQMachine.grid(5, 5),
                                policy, max_qubits=floor - 1)

    def test_calls_only_in_explicit_uncompute_do_not_count(self):
        big = QModule("big", num_inputs=1, num_outputs=1, num_ancilla=10)
        big.cx(big.inputs[0], big.ancillas[0])
        big.begin_store()
        big.cx(big.ancillas[0], big.outputs[0])
        mid = QModule("mid", num_inputs=1, num_outputs=1, num_ancilla=1)
        mid.cx(mid.inputs[0], mid.ancillas[0])
        mid.begin_store()
        mid.cx(mid.ancillas[0], mid.outputs[0])
        mid.set_explicit_uncompute([CallStmt(big, (mid.ancillas[0],
                                                   mid.inputs[0]))])
        top = QModule("top", num_inputs=1, num_outputs=1, num_ancilla=1)
        top.call(mid, top.inputs[0], top.ancillas[0])
        top.begin_store()
        top.cx(top.ancillas[0], top.outputs[0])
        program = Program(top)
        assert program.live_qubit_floor() == 2 + 1 + 1
        # Lazy never runs mid's Uncompute, so it fits on exactly the floor.
        result = compile_program(program, NISQMachine.fully_connected(4), "lazy")
        assert result.peak_live_qubits == 4
        # A Compute call to the same module does count.
        mid.compute.append(CallStmt(big, (mid.ancillas[0], mid.inputs[0])))
        assert program.live_qubit_floor() == 2 + 1 + 1 + 10

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(levels=st.integers(1, 4), callees=st.integers(1, 3),
           inputs=st.integers(2, 6), ancilla=st.integers(1, 4),
           gates=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_floor_never_exceeds_peak_live(self, levels, callees, inputs,
                                           ancilla, gates, seed):
        program = SyntheticGenerator(SyntheticSpec(
            "floor", levels=levels, max_callees=callees, max_inputs=inputs,
            max_ancilla=ancilla, max_gates=gates, seed=seed)).generate()
        floor = program.live_qubit_floor()
        for policy in ("eager", "lazy", "square-laa", "square"):
            result = autosize_compile(program, NISQMachine.with_qubits,
                                      POLICY_PRESETS[policy], start_qubits=4)
            assert result.peak_live_qubits >= floor
            assert result.num_qubits_used >= floor
