"""Qubit reclamation policies: Eager, Lazy and Cost-Effective Reclamation.

At every ``Free`` the compiler asks the reclamation policy whether to
execute the module's Uncompute block (returning the ancillas to the heap)
or to skip it and transfer the garbage to the caller.  Table I of the
paper lists the three configurations evaluated:

* **Eager** — reclaim at every function, paying recursive recomputation;
* **Lazy** — reclaim only at the top level, paying qubit reservation;
* **SQUARE (CER)** — compare Equations 1 and 2 at each point and pick the
  cheaper side.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.cost_model import ReclamationCosts, reclamation_costs


@dataclass(frozen=True)
class ReclamationRequest:
    """Inputs available to a reclamation decision.

    Attributes:
        module_name: Name of the module whose ``Free`` is being processed.
        level: Depth of the call in the call graph (0 = entry module).
        num_active: Number of live qubits at this point (``N_active``).
        num_ancilla: Ancilla/garbage qubits held by this call, including
            garbage deferred from its children (``N_anc``).
        uncompute_gates: Estimated gate count of the uncompute block,
            including children contributions (``G_uncomp``).
        gates_to_parent_uncompute: Estimated gates between this point and
            the parent's uncompute block (``G_p``).
        locality_constrained: False on fully-connected machines.
        is_top_level: True for the entry module's ``Free``.  The program
            ends immediately afterwards, so uncomputing there buys nothing;
            every policy skips it (this is what makes Lazy's gate count the
            forward-only count in Table III).
    """

    module_name: str
    level: int
    num_active: int
    num_ancilla: int
    uncompute_gates: int
    gates_to_parent_uncompute: int
    locality_constrained: bool = True
    is_top_level: bool = False


@dataclass(frozen=True)
class ReclamationDecision:
    """Outcome of one reclamation decision.

    Attributes:
        reclaim: True to execute the Uncompute block and free the ancillas.
        costs: The evaluated C1/C0 pair when the CER model was consulted.
    """

    reclaim: bool
    costs: Optional[ReclamationCosts] = None


class ReclamationPolicy(abc.ABC):
    """Strategy deciding whether to uncompute at a ``Free`` point."""

    name = "abstract"

    def decide(self, request: ReclamationRequest) -> ReclamationDecision:
        """Decide whether to reclaim; the top-level free is never uncomputed."""
        if request.is_top_level:
            return ReclamationDecision(reclaim=False)
        return self._decide(request)

    @abc.abstractmethod
    def _decide(self, request: ReclamationRequest) -> ReclamationDecision:
        """Policy-specific decision for non-top-level frees."""


class EagerReclamation(ReclamationPolicy):
    """Reclaim qubits at the end of every function (Baseline 1)."""

    name = "eager"

    def _decide(self, request: ReclamationRequest) -> ReclamationDecision:
        """Always uncompute."""
        return ReclamationDecision(reclaim=True)


class LazyReclamation(ReclamationPolicy):
    """Reclaim qubits only at the top-level function (Baseline 2)."""

    name = "lazy"

    def _decide(self, request: ReclamationRequest) -> ReclamationDecision:
        """Never uncompute below the top level."""
        return ReclamationDecision(reclaim=False)


class CostEffectiveReclamation(ReclamationPolicy):
    """SQUARE's Cost-Effective Reclamation heuristic (Algorithm 2).

    Compares the uncomputation cost ``C1`` (Equation 1) against the
    reservation cost ``C0`` (Equation 2) and reclaims when ``C1 <= C0``.
    """

    name = "cer"

    def _decide(self, request: ReclamationRequest) -> ReclamationDecision:
        """Reclaim exactly when Equation 1 does not exceed Equation 2."""
        if request.num_ancilla == 0:
            # Nothing to reclaim; skipping the (empty) uncompute is free.
            return ReclamationDecision(reclaim=False)
        costs = reclamation_costs(
            num_active=request.num_active,
            num_ancilla=request.num_ancilla,
            uncompute_gates=request.uncompute_gates,
            gates_to_parent_uncompute=request.gates_to_parent_uncompute,
            level=request.level,
            locality_constrained=request.locality_constrained,
        )
        return ReclamationDecision(reclaim=costs.should_reclaim, costs=costs)
