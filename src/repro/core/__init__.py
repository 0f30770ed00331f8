"""SQUARE core: ancilla heap, allocation/reclamation heuristics, compiler."""

from repro.core.allocation import (
    AllocationPolicy,
    AllocationRequest,
    LifoAllocation,
    LocalityAwareAllocation,
)
from repro.core.compiler import (
    POLICY_PRESETS,
    CompilerConfig,
    SquareCompiler,
    compile_program,
    preset,
)
from repro.core.cost_model import (
    ReclamationCosts,
    reclamation_costs,
    reservation_cost,
    uncompute_cost,
)
from repro.core.heap import AncillaHeap
from repro.core.plan import ProgramWalk, ReclamationPlan
from repro.core.policies import (
    allocation_policy_names,
    create_allocation_policy,
    create_reclamation_policy,
    reclamation_policy_names,
    register_allocation_policy,
    register_reclamation_policy,
)
from repro.core.reclamation import (
    CostEffectiveReclamation,
    EagerReclamation,
    LazyReclamation,
    ReclamationDecision,
    ReclamationPolicy,
    ReclamationRequest,
)
from repro.core.result import CompilationResult, JobFailure, ReclamationEvent

__all__ = [
    "AllocationPolicy",
    "AllocationRequest",
    "AncillaHeap",
    "CompilationResult",
    "CompilerConfig",
    "CostEffectiveReclamation",
    "EagerReclamation",
    "JobFailure",
    "LazyReclamation",
    "LifoAllocation",
    "LocalityAwareAllocation",
    "POLICY_PRESETS",
    "ProgramWalk",
    "ReclamationCosts",
    "ReclamationDecision",
    "ReclamationEvent",
    "ReclamationPlan",
    "ReclamationPolicy",
    "ReclamationRequest",
    "SquareCompiler",
    "allocation_policy_names",
    "compile_program",
    "create_allocation_policy",
    "create_reclamation_policy",
    "preset",
    "reclamation_policy_names",
    "register_allocation_policy",
    "register_reclamation_policy",
    "reclamation_costs",
    "reservation_cost",
    "uncompute_cost",
]
