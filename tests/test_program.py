"""Unit tests for the modular program IR (QModule / Program / builder)."""

import pytest

from repro.arch.nisq import NISQMachine
from repro.core.compiler import compile_program
from repro.exceptions import IRError, QubitBindingError, ValidationError
from repro.ir.builder import ModuleBuilder
from repro.ir.program import CallStmt, GateStmt, Program, QModule, QubitRegister

from tests.conftest import build_fun1, build_two_level_program


def _name_collision_program(inner_name: str) -> Program:
    """``step -> helper -> inner``, where ``inner`` is named ``inner_name``."""
    inner = QModule(inner_name, num_inputs=2, num_outputs=1, num_ancilla=1)
    inner.ccx(inner.inputs[0], inner.inputs[1], inner.ancillas[0])
    inner.begin_store()
    inner.cx(inner.ancillas[0], inner.outputs[0])
    helper = QModule("helper", num_inputs=2, num_outputs=1, num_ancilla=1)
    helper.call(inner, *helper.inputs, helper.ancillas[0])
    helper.begin_store()
    helper.cx(helper.ancillas[0], helper.outputs[0])
    step = QModule("step", num_inputs=2, num_outputs=1, num_ancilla=1)
    step.call(helper, *step.inputs, step.ancillas[0])
    step.begin_store()
    step.cx(step.ancillas[0], step.outputs[0])
    return Program(step)


class TestQubitRegister:
    def test_register_indexing(self):
        register = QubitRegister("r", 3)
        assert len(register) == 3
        assert register[1].index == 1

    def test_register_requires_positive_size(self):
        with pytest.raises(IRError):
            QubitRegister("r", 0)


class TestQModule:
    def test_params_are_inputs_then_outputs(self):
        module = QModule("m", num_inputs=2, num_outputs=1, num_ancilla=1)
        assert module.num_params == 3
        assert module.params[:2] == module.inputs
        assert module.params[2] == module.outputs[0]

    def test_requires_at_least_one_parameter(self):
        with pytest.raises(IRError):
            QModule("m", num_inputs=0, num_outputs=0)

    def test_gate_scope_checking(self):
        module = QModule("m", num_inputs=2)
        other = QModule("other", num_inputs=1)
        with pytest.raises(QubitBindingError):
            module.x(other.inputs[0])

    def test_gate_arity_checked(self):
        module = QModule("m", num_inputs=3)
        with pytest.raises(IRError):
            module.gate("cx", module.inputs[0])

    def test_gate_rejects_duplicate_operands(self):
        module = QModule("m", num_inputs=3)
        with pytest.raises(IRError, match="duplicate operands"):
            module.gate("cx", module.inputs[0], module.inputs[0])
        with pytest.raises(IRError, match="duplicate operands"):
            module.ccx(module.inputs[0], module.inputs[1], module.inputs[0])
        assert module.compute == []

    def test_call_arity_checked(self):
        child = QModule("child", num_inputs=2)
        parent = QModule("parent", num_inputs=3)
        with pytest.raises(IRError):
            parent.call(child, parent.inputs[0])

    def test_call_rejects_duplicate_args(self):
        child = QModule("child", num_inputs=2)
        parent = QModule("parent", num_inputs=3)
        with pytest.raises(IRError):
            parent.call(child, parent.inputs[0], parent.inputs[0])

    def test_blocks_routing(self):
        module = QModule("m", num_inputs=2, num_ancilla=1)
        module.cx(module.inputs[0], module.ancillas[0])
        module.begin_store()
        module.cx(module.ancillas[0], module.inputs[1])
        assert len(module.compute) == 1
        assert len(module.store) == 1

    def test_child_modules_deduplicated(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        parent = QModule("parent", num_inputs=2)
        parent.call(child, parent.inputs[0])
        parent.call(child, parent.inputs[1])
        assert parent.child_modules() == (child,)

    def test_static_gate_count_recurses(self):
        program = build_two_level_program()
        # fun1 has 4 gates; main adds 1 compute gate + 2 store gates.
        assert program.static_gate_count() == 7

    def test_validate_rejects_ancilla_without_compute(self):
        module = QModule("m", num_inputs=1, num_ancilla=1)
        with pytest.raises(ValidationError):
            module.validate()


class TestProgram:
    def test_call_graph_and_levels(self):
        program = build_two_level_program()
        assert program.num_levels() == 2

    def test_modules_entry_first(self):
        program = build_two_level_program()
        assert program.modules()[0] is program.entry

    def test_total_declared_ancilla(self):
        program = build_two_level_program()
        assert program.total_declared_ancilla() == 2

    def test_validate_passes(self):
        build_two_level_program().validate()

    @pytest.mark.parametrize("policy", ["eager", "lazy", "square"])
    def test_distinct_modules_sharing_a_name_are_not_recursive(self, policy):
        # step -> helper -> step', where step' is a different module that
        # happens to share the name "step": acyclic, so it must compile
        # exactly like the same program with step' renamed.
        program = _name_collision_program("step")
        program.validate()
        shared = compile_program(program, NISQMachine.grid(3, 3),
                                 policy).to_dict()
        renamed = compile_program(_name_collision_program("inner"),
                                  NISQMachine.grid(3, 3), policy).to_dict()
        for data in (shared, renamed):
            del data["compile_seconds"]
        for event in renamed["reclamation_events"]:
            if event[0] == "inner":
                event[0] = "step"
        assert shared == renamed

    def test_true_cycle_is_rejected(self):
        a = QModule("a", num_inputs=2)
        b = QModule("b", num_inputs=2)
        a.cx(a.inputs[0], a.inputs[1])
        a.call(b, *a.inputs)
        b.call(a, *b.inputs)
        with pytest.raises(ValidationError, match="cyclic"):
            Program(a).validate()


class TestModuleBuilder:
    def test_builder_produces_fun1(self):
        module = build_fun1()
        assert module.name == "fun1"
        assert len(module.compute) == 3
        assert len(module.store) == 1

    def test_builder_contexts_restore_block(self):
        builder = ModuleBuilder("m", num_inputs=2, num_ancilla=1)
        with builder.store():
            builder.cx(builder.inputs[0], builder.inputs[1])
        builder.cx(builder.inputs[0], builder.ancillas[0])
        module = builder.build()
        assert len(module.store) == 1
        assert len(module.compute) == 1

    def test_build_twice_rejected(self):
        builder = ModuleBuilder("m", num_inputs=1)
        builder.x(builder.inputs[0])
        builder.build()
        with pytest.raises(IRError):
            builder.build()

    def test_auto_uncompute_gate_only(self):
        builder = ModuleBuilder("m", num_inputs=2, num_ancilla=1)
        with builder.compute():
            builder.ccx(builder.inputs[0], builder.inputs[1], builder.ancillas[0])
        builder.auto_uncompute()
        module = builder.build()
        assert module.has_explicit_uncompute
        assert len(module.uncompute) == 1

    def test_auto_uncompute_rejects_calls(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        builder = ModuleBuilder("m", num_inputs=1, num_ancilla=1)
        with builder.compute():
            builder.call(child, builder.ancillas[0])
        with pytest.raises(IRError):
            builder.auto_uncompute()

    def test_build_program_wraps_entry(self):
        builder = ModuleBuilder("m", num_inputs=1)
        builder.x(builder.inputs[0])
        program = builder.build_program(name="demo")
        assert isinstance(program, Program)
        assert program.name == "demo"


class TestStatements:
    def test_gate_stmt_repr(self):
        module = QModule("m", num_inputs=2)
        module.cx(module.inputs[0], module.inputs[1])
        assert "cx" in repr(module.compute[0])

    def test_call_stmt_repr(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        parent = QModule("parent", num_inputs=1)
        parent.call(child, parent.inputs[0])
        assert "child" in repr(parent.compute[0])

    def test_statement_types(self):
        program = build_two_level_program()
        kinds = [type(stmt) for _, stmt in program.entry.statements()]
        assert CallStmt in kinds
        assert GateStmt in kinds
