"""Count-only reclamation plan: every ``Free`` decided before placement.

The CER inputs (live and logical gate counts, the call level, ``G_p``,
whether the machine is locality constrained) do not depend on where
qubits sit (:mod:`repro.core.cost_model`).  So :func:`plan_reclamation`
walks calls, ``Free`` points and uncomputation exactly as
:class:`~repro.core.compiler.SquareCompiler` does (``C ; S^-1 ; C^-1``
replays, explicit Uncompute blocks and Toffoli decomposition included),
placing nothing: it counts live qubits and gates and asks the policy once
per decision point.  The compiler plans right after validation, refuses a
budget below the plan's peak, and checks its walk against the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reclamation import ReclamationPolicy, ReclamationRequest
from repro.core.result import ReclamationEvent
from repro.ir.decompose import decompose_toffoli
from repro.ir.program import GateStmt, Program, QModule, Statement

#: Gates one Toffoli becomes when the compile decomposes it.
_TOFFOLI_GATES = len(decompose_toffoli(0, 1, 2))


@dataclass(frozen=True)
class ReclamationPlan:
    """Every reclamation decision of one compile, and what the walk counts.

    Attributes:
        events: The decisions in program order, one per ``Free`` below
            the entry module whose call still holds garbage.
        live_at: Live qubits (``N_active``) at each event.
        peak_live: Most qubits live at once over the whole compile.
        gate_count: Logical gates the compile emits (router swaps excluded).
    """

    events: Tuple[ReclamationEvent, ...]
    live_at: Tuple[int, ...]
    peak_live: int
    gate_count: int


@dataclass(frozen=True)
class _Block:
    """Gate runs around a block's calls: one ``(gates before, call,
    static gates after)`` triple per call."""

    calls: Tuple[tuple, ...]
    tail: int
    static: int


@dataclass
class _Record:
    """What one call instance did (the plan's :class:`CallRecord`)."""

    module: QModule
    level: int
    held: int = 0
    compute_records: List["_Record"] = field(default_factory=list)
    store_records: List["_Record"] = field(default_factory=list)
    reclaimed: Optional[bool] = None
    cleaned: bool = False

    def garbage(self) -> int:
        if self.cleaned or self.reclaimed:
            return 0
        return self.module.num_ancilla + sum(
            child.garbage() for child in self.compute_records + self.store_records)


@dataclass
class _Frame:
    """A call while it executes; inverse and replay frames stay in
    ``"uncompute"`` with no Compute gates, so their callees see
    ``G_p = 0``, as in the compiler."""

    level: int
    start: int
    store_static: int = 0
    block: str = "uncompute"
    after: int = 0
    compute_gates: int = 0

    def gates_to_uncompute(self, now: int) -> int:
        """``G_p`` for a callee's ``Free``: static gates left in this
        frame's forward blocks, plus (below the entry module) the Compute
        gates its own Uncompute would replay."""
        if self.block == "compute":
            remaining = self.after + self.store_static
            replay = now - self.start + self.after
        else:
            remaining = self.after if self.block == "store" else 0
            replay = self.compute_gates
        return remaining if self.level == 0 else remaining + replay


class _Planner:
    def __init__(self, policy: ReclamationPolicy, decompose: bool,
                 locality_constrained: bool) -> None:
        self.policy = policy
        self.decompose = decompose
        self.locality_constrained = locality_constrained
        self.live = self.peak = self.gates = 0
        self.events: List[ReclamationEvent] = []
        self.live_at: List[int] = []
        self._shapes: Dict[int, Tuple[_Block, _Block, Optional[_Block]]] = {}

    def _block(self, statements: Sequence[Statement]) -> _Block:
        calls = []
        gates = static = 0
        for stmt in statements:
            if isinstance(stmt, GateStmt):
                gates += _TOFFOLI_GATES if self.decompose and stmt.name == "ccx" else 1
                static += 1
            else:
                compute, store, _ = self._shape(stmt.module)
                static += compute.static + store.static
                calls.append((gates, stmt, static))
                gates = 0
        return _Block(tuple((before, stmt, static - through)
                            for before, stmt, through in calls), gates, static)

    def _shape(self, module: QModule) -> Tuple[_Block, _Block, Optional[_Block]]:
        shape = self._shapes.get(id(module))
        if shape is None:
            shape = self._shapes[id(module)] = (
                self._block(module.compute), self._block(module.store),
                None if module.uncompute is None
                else self._block(module.uncompute))
        return shape

    def _allocate(self, record: _Record) -> None:
        record.held = record.module.num_ancilla
        self.live += record.held
        self.peak = max(self.peak, self.live)

    def _release(self, record: _Record) -> None:
        self.live -= record.held
        record.held = 0

    def _forward(self, block: _Block, frame: _Frame,
                 records: List[_Record]) -> None:
        for before, stmt, after in block.calls:
            self.gates += before
            frame.after = after
            records.append(self.call(stmt.module, frame.level + 1, frame))
        self.gates += block.tail

    def _inverse(self, block: _Block, records: List[_Record]) -> None:
        self.gates += block.tail
        for (before, _, _), record in zip(reversed(block.calls),
                                          reversed(records)):
            self._invert(record)
            self.gates += before

    def call(self, module: QModule, level: int,
             parent: Optional[_Frame]) -> _Record:
        compute, store, uncompute = self._shape(module)
        record = _Record(module, level)
        frame = _Frame(level, self.gates, store.static, "compute")
        self._allocate(record)
        self._forward(compute, frame, record.compute_records)
        frame.compute_gates = self.gates - frame.start
        frame.block = "store"
        self._forward(store, frame, record.store_records)
        if parent is None:
            # The program ends at the entry module's Free: nothing to gain.
            record.reclaimed = False
            return record
        num_ancilla = record.garbage()
        if not num_ancilla:
            return record
        decision = self.policy.decide(ReclamationRequest(
            module_name=module.name,
            level=level,
            num_active=self.live,
            num_ancilla=num_ancilla,
            uncompute_gates=frame.compute_gates,
            gates_to_parent_uncompute=parent.gates_to_uncompute(self.gates),
            locality_constrained=self.locality_constrained,
        ))
        self.events.append(ReclamationEvent(
            module=module.name, level=level, reclaimed=decision.reclaim,
            num_ancilla=num_ancilla, costs=decision.costs))
        self.live_at.append(self.live)
        if decision.reclaim:
            frame.block = "uncompute"
            if uncompute is not None and not compute.calls:
                self._forward(uncompute, frame, [])
            else:
                self._inverse(compute, record.compute_records)
            self._release(record)
        record.reclaimed = decision.reclaim
        return record

    def _invert(self, record: _Record) -> None:
        compute, store, _ = self._shape(record.module)
        if not record.reclaimed:
            # Still on the machine: Store^-1 ; Compute^-1 in place.
            self._inverse(store, record.store_records)
            self._inverse(compute, record.compute_records)
            self._release(record)
            record.cleaned = True
            return
        replay = _Record(record.module, record.level)
        frame = _Frame(record.level, self.gates)
        self._allocate(replay)
        self._forward(compute, frame, replay.compute_records)
        self._inverse(store, record.store_records)
        self._inverse(compute, replay.compute_records)
        self._release(replay)


def plan_reclamation(program: Program, policy: ReclamationPolicy, *,
                     decompose_toffoli: bool,
                     locality_constrained: bool) -> ReclamationPlan:
    """Decide every ``Free`` of ``program`` under ``policy`` without
    placing a qubit; see the module docstring."""
    planner = _Planner(policy, decompose_toffoli, locality_constrained)
    planner.live = planner.peak = program.entry.num_params
    planner.call(program.entry, 0, None)
    return ReclamationPlan(tuple(planner.events), tuple(planner.live_at),
                           planner.peak, planner.gates)
