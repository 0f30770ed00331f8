"""Scheduled-event records produced by the gate scheduler."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple


@dataclass(frozen=True)
class ScheduledGate:
    """One gate placed on the machine timeline.

    Attributes:
        name: Gate name (``"swap"`` entries are router-inserted swaps).
        virtual_qubits: Machine-level (virtual) qubit ids the gate acts on.
        sites: Physical sites occupied by the operands when the gate ran.
        start: Start time in scheduler units.
        finish: Completion time in scheduler units.
        routed: True for communication operations inserted by the router.
    """

    name: str
    virtual_qubits: Tuple[int, ...]
    sites: Tuple[int, ...]
    start: int
    finish: int
    routed: bool = False

    @property
    def duration(self) -> int:
        """Gate duration in scheduler units."""
        return self.finish - self.start


class GateExecution(NamedTuple):
    """Summary returned to the compiler for each logical gate it emits (a
    named tuple: cheap to build, since every gate returns one).

    Attributes:
        start: Start time of the logical gate itself.
        finish: Completion time of the logical gate.
        swaps: Number of swap gates inserted to make the operands adjacent.
        comm_cost: Communication cost units (swap-chain length on NISQ,
            braid crossings on FT) fed into the running ``S`` estimate.
    """

    start: int
    finish: int
    swaps: int
    comm_cost: float
