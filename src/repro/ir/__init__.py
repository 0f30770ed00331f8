"""Quantum intermediate representation: gates, circuits and modular programs."""

from repro.ir.builder import ModuleBuilder
from repro.ir.circuit import Circuit, concatenate
from repro.ir.classical_sim import (
    bits_to_int,
    int_to_bits,
    simulate_classical,
    truth_table,
)
from repro.ir.dag import (
    ParallelismProfile,
    asap_layers,
    parallelism_profile,
)
from repro.ir.decompose import (
    CLIFFORD_T_BASIS,
    clifford_t_counts,
    cnot_count,
    decompose_circuit,
    decompose_gate,
    decompose_swap,
    decompose_toffoli,
    t_count,
)
from repro.ir.flatten import FlatCircuit, Flattener, flatten_module, flatten_program
from repro.ir.gates import (
    CLASSICAL_GATES,
    GATE_SPECS,
    Gate,
    GateSpec,
    gate_spec,
    inverse_gate_name,
    is_classical_gate,
    make_gate,
)
from repro.ir.inverse import (
    check_uncomputable,
    inverse_module,
    invert_statements,
    uncompute_block,
)
from repro.ir.program import (
    CallStmt,
    GateStmt,
    Program,
    QModule,
    Qubit,
    QubitRegister,
    Statement,
)
from repro.ir.validate import (
    validate_program,
    verify_ancilla_restored,
    verify_explicit_uncompute,
)

__all__ = [
    "CLASSICAL_GATES",
    "CLIFFORD_T_BASIS",
    "CallStmt",
    "Circuit",
    "FlatCircuit",
    "Flattener",
    "GATE_SPECS",
    "Gate",
    "GateSpec",
    "GateStmt",
    "ModuleBuilder",
    "ParallelismProfile",
    "Program",
    "QModule",
    "Qubit",
    "QubitRegister",
    "Statement",
    "asap_layers",
    "bits_to_int",
    "check_uncomputable",
    "clifford_t_counts",
    "cnot_count",
    "concatenate",
    "decompose_circuit",
    "decompose_gate",
    "decompose_swap",
    "decompose_toffoli",
    "flatten_module",
    "flatten_program",
    "gate_spec",
    "int_to_bits",
    "inverse_gate_name",
    "inverse_module",
    "invert_statements",
    "is_classical_gate",
    "make_gate",
    "parallelism_profile",
    "simulate_classical",
    "t_count",
    "truth_table",
    "uncompute_block",
    "validate_program",
    "verify_ancilla_restored",
    "verify_explicit_uncompute",
]
