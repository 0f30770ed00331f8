"""repro: a from-scratch reproduction of SQUARE (ISCA 2020).

SQUARE (Strategic QUantum Ancilla REuse) is a compiler that decides where
in a modular reversible quantum program to perform uncomputation so that
scratch (ancilla) qubits can be reclaimed and reused, balancing gate cost
against qubit cost on both NISQ and fault-tolerant machines.

Compilation is a service: describe *what* to compile (benchmark or
program, machine spec, policy) and submit it to a :class:`Session`, which
memoizes repeated jobs and can fan batches out over worker processes::

    from repro import MachineSpec, Session, SweepSpec

    session = Session(jobs=4)            # 4 worker processes

    # One benchmark, one policy:
    result = session.compile("ADDER4", machine=MachineSpec.nisq_grid(5, 5),
                             policy="square", decompose_toffoli=True)
    print(result.summary())

    # A full sweep — benchmarks x policies, tabulated and exportable:
    sweep = session.run(SweepSpec()
                        .with_benchmarks("RD53", "6SYM", "ADDER4")
                        .with_machines(MachineSpec.nisq_grid(5, 5))
                        .with_policies("lazy", "eager", "square")
                        .with_config(decompose_toffoli=True))
    print(sweep.table("NISQ benchmarks"))
    sweep.to_csv("results.csv")

Sessions scale past one process: ``Session(cache_dir=...)`` persists
results on disk across restarts, and :mod:`repro.service` serves the
same session over HTTP (``python -m repro.experiments serve``) with a
session-shaped :class:`~repro.service.ServiceClient` on the other end.
Past one *machine*, ``Session(FleetExecutor(urls))`` (see
:mod:`repro.cluster`) shards a sweep across a fleet of servers by
fingerprint hash and streams results back as workers finish them
(``python -m repro.experiments cluster-sweep``).
And because the paper's central finding is that the best policy is
workload-dependent, :mod:`repro.tuner` searches the policy/config
space automatically — racing strategies, Pareto objectives, runs that
resume from the session's disk cache — through any of those sessions
(``python -m repro.experiments tune``).

Policies and benchmarks are open registries — see
:func:`repro.core.policies.register_allocation_policy`,
:func:`repro.core.policies.register_reclamation_policy` and
:func:`repro.workloads.register_benchmark`.  The one-shot
:func:`compile_program` helper remains for single compilations of
in-memory programs.
"""

from repro.api import (
    CompileJob,
    MachineSpec,
    ParallelExecutor,
    SerialExecutor,
    Session,
    SweepResult,
    SweepSpec,
)
from repro.arch import (
    FTMachine,
    IdealMachine,
    Machine,
    NISQMachine,
    Topology,
)
from repro.core import (
    POLICY_PRESETS,
    CompilationResult,
    CompilerConfig,
    SquareCompiler,
    compile_program,
    preset,
    register_allocation_policy,
    register_reclamation_policy,
)
from repro.ir import Circuit, ModuleBuilder, Program, QModule
from repro.workloads import register_benchmark

__version__ = "1.2.0"

__all__ = [
    "Circuit",
    "CompilationResult",
    "CompileJob",
    "CompilerConfig",
    "FTMachine",
    "IdealMachine",
    "Machine",
    "MachineSpec",
    "ModuleBuilder",
    "NISQMachine",
    "POLICY_PRESETS",
    "ParallelExecutor",
    "Program",
    "QModule",
    "SerialExecutor",
    "Session",
    "SquareCompiler",
    "SweepResult",
    "SweepSpec",
    "Topology",
    "__version__",
    "compile_program",
    "preset",
    "register_allocation_policy",
    "register_benchmark",
    "register_reclamation_policy",
]
