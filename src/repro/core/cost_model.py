"""The Cost-Effective Reclamation cost model (Equations 1 and 2).

At every potential reclamation point (a ``Free`` at the end of a module
call) the compiler compares:

* ``C1`` — the cost of uncomputing and reclaiming the ancillas now
  (Equation 1):  ``C1 = N_active * G_uncomp * S * 2**level``.
  The ``2**level`` term accounts for *recursive recomputation*: gates spent
  uncomputing a deeply nested function may be replayed by every ancestor
  that later uncomputes.

* ``C0`` — the cost of leaving the garbage for the caller (Equation 2):
  ``C0 = N_anc * G_p * S * sqrt((N_active + N_anc) / N_active)``.
  The square-root term models *area expansion*: holding extra live qubits
  spreads the active region and lengthens swap chains / braids for every
  other gate executed until the parent's uncompute block runs.

``S`` is the communication factor (Section IV-D): the average swap-chain
length per gate on a NISQ machine, or braid crossings per gate on an FT
machine.  Both equations multiply by the same ``S``, so it cancels out
of the comparison ``C1 <= C0`` and is left out here: the functions below
return ``C1 / S`` and ``C0 / S``.  What remains (live counts, logical
gate counts, the call level and ``G_p``) does not depend on where qubits
are placed, which is what lets :mod:`repro.core.plan` take every
decision before placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ReclamationCosts:
    """The two costs compared at a reclamation point.

    Attributes:
        uncompute_cost: ``C1 / S`` of Equation 1.
        reservation_cost: ``C0 / S`` of Equation 2.
    """

    uncompute_cost: float
    reservation_cost: float

    @property
    def should_reclaim(self) -> bool:
        """True when uncomputing now is the cheaper option (C1 <= C0)."""
        return self.uncompute_cost <= self.reservation_cost


def uncompute_cost(
    num_active: int,
    uncompute_gates: int,
    level: int,
    max_level_exponent: int = 30,
) -> float:
    """Equation 1 over ``S``: cost of uncomputing and reclaiming now.

    Args:
        num_active: Number of currently active (live) qubits ``N_active``.
        uncompute_gates: Gates needed for the uncompute block, including
            those contributed by children (``G_uncomp``).
        level: Depth of the function in the call graph (0 = entry module).
        max_level_exponent: Clamp on the exponent to avoid overflow on
            pathologically deep call graphs.
    """
    exponent = min(max(level, 0), max_level_exponent)
    return max(num_active, 1) * max(uncompute_gates, 0) * float(2 ** exponent)


def reservation_cost(
    num_ancilla: int,
    gates_to_parent_uncompute: int,
    num_active: int,
    locality_constrained: bool = True,
) -> float:
    """Equation 2 over ``S``: cost of holding garbage until the parent
    uncomputes.

    Args:
        num_ancilla: Ancilla (garbage) qubits this function would hold
            (``N_anc``), including garbage deferred from its own children.
        gates_to_parent_uncompute: Estimated gates between this point and
            the parent's uncompute block (``G_p``).
        num_active: Number of currently active qubits ``N_active``.
        locality_constrained: False for fully-connected machines, where
            area expansion has no communication consequence and the
            square-root factor is dropped.
    """
    active = max(num_active, 1)
    expansion = 1.0
    if locality_constrained and num_ancilla > 0:
        expansion = math.sqrt((active + num_ancilla) / active)
    return max(num_ancilla, 0) * max(gates_to_parent_uncompute, 0) * expansion


def reclamation_costs(
    num_active: int,
    num_ancilla: int,
    uncompute_gates: int,
    gates_to_parent_uncompute: int,
    level: int,
    locality_constrained: bool = True,
) -> ReclamationCosts:
    """Evaluate both sides of the CER comparison at one reclamation point."""
    return ReclamationCosts(
        uncompute_cost=uncompute_cost(num_active, uncompute_gates, level),
        reservation_cost=reservation_cost(num_ancilla, gates_to_parent_uncompute,
                                          num_active, locality_constrained),
    )

