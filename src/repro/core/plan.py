"""One program walk: the compile's stream of allocations, gates and releases.

The paper's instrumentation-driven flow (Section IV-B) walks a modular
program once: every ``Allocate`` asks the allocation policy and every
``Free`` asks the reclamation policy whether to uncompute.  A
:class:`ProgramWalk` is that walk with placement left out.  It binds each
call's qubits to *slots* (the entry parameters are ``0..n-1`` and every
allocation takes the next consecutive ids) and yields, in program order:

* ``(ALLOC, shape, slots)`` where a call allocates its ancillas;
  ``slots`` binds the call's parameters, then its new ancillas;
* ``(RUN, gates, slots)`` for the gates between two calls, each
  ``(name, operand indices into slots)``, Toffolis decomposed if asked;
* ``(RELEASE, slots)`` where ancillas return to the heap;
* ``(UNCOMPUTE,)`` and ``(END_UNCOMPUTE, gates)`` around each reclaiming
  ``Free``'s uncompute and release; a nested reclaiming ``Free``'s gates
  count in its own and in its caller's ``gates``.

Uncomputation follows what each call actually did.  A reclaiming ``Free``
runs the explicit Uncompute block (when Compute calls nothing) or the
inverse of Compute.  Inverting a child call that reclaimed replays it as
``C ; S^-1 ; C^-1`` on fresh slots (the 2**level recomputation).  A child
that deferred still holds its ancillas, so its inverse is ``S^-1 ; C^-1``
on its own slots, with its parameters bound to the caller's arguments as
they are now: a caller being replayed holds fresh ancillas.

The CER inputs (live and logical gate counts, the call level, ``G_p``,
whether the machine is locality constrained) do not depend on where
qubits sit (:mod:`repro.core.cost_model`).  So :meth:`ProgramWalk.plan`
drains one stream that asks the policy at every ``Free`` and counts; the
compiler plans right after validation, refuses a budget below the plan's
peak, and places a second stream that replays the plan's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.reclamation import ReclamationPolicy, ReclamationRequest
from repro.core.result import ReclamationEvent
from repro.ir.decompose import decompose_toffoli
from repro.ir.gates import inverse_gate_name
from repro.ir.program import GateStmt, Program, QModule, Statement

#: Stream item kinds (the first element of every item).
RUN, ALLOC, RELEASE, UNCOMPUTE, END_UNCOMPUTE = range(5)


@dataclass(frozen=True)
class ReclamationPlan:
    """Every reclamation decision of one compile, and what its stream counts.

    Attributes:
        events: The decisions in program order, one per ``Free`` below
            the entry module whose call still holds garbage.
        peak_live: Most qubits live at once over the whole compile.
        gate_count: Logical gates the compile emits (router swaps excluded).
    """

    events: Tuple[ReclamationEvent, ...]
    peak_live: int
    gate_count: int


class _Block:
    """A block as gate runs around its calls: one ``(run before, callee
    shape, argument indices, static gates after)`` per call, then the tail
    run."""

    __slots__ = ("calls", "tail", "static", "_raw", "_inverse")

    def __init__(self, calls, tail, static, raw) -> None:
        self.calls = calls
        self.tail = tail
        self.static = static
        self._raw = raw
        self._inverse = None

    def inverse(self, decompose: bool) -> Tuple[tuple, Tuple[tuple, ...]]:
        """The inverted tail, then each call's inverted run before it."""
        if self._inverse is None:
            inverted = [_lower(tuple((inverse_gate_name(name), operands)
                                     for name, operands in reversed(run)),
                               decompose)
                        for run in self._raw]
            self._inverse = inverted[-1], tuple(inverted[:-1])
        return self._inverse


class _Shape:
    """What every call of one module shares: its blocks over local qubit
    indices (parameters, then ancillas), and each ancilla's allocation
    anchors (``get_interact_qubits`` in Algorithm 1): the parameters it
    shares a Compute or Store gate or call with, in order of first
    appearance, or every parameter when it shares none."""

    __slots__ = ("module", "num_params", "num_ancilla", "compute", "store",
                 "uncompute", "_anchors")

    def __init__(self, module: QModule, compute: _Block, store: _Block,
                 uncompute: Optional[_Block]) -> None:
        self.module = module
        self.num_params = module.num_params
        self.num_ancilla = module.num_ancilla
        self.compute = compute
        self.store = store
        self.uncompute = uncompute
        self._anchors = None

    @property
    def anchors(self) -> Tuple[Sequence[int], ...]:
        """Per ancilla, the local indices of its anchor parameters
        (built on first use: a count-only pass never reads them)."""
        if self._anchors is None:
            self._anchors = _ancilla_anchors(self.module)
        return self._anchors


def _ancilla_anchors(module: QModule) -> Tuple[Sequence[int], ...]:
    ancillas = set(module.ancillas)
    partners: Dict[object, list] = {}
    for block in (module.compute, module.store):
        for stmt in block:
            operands = stmt.qubits if isinstance(stmt, GateStmt) else stmt.args
            for ancilla in operands:
                if ancilla in ancillas:
                    bucket = partners.setdefault(ancilla, [])
                    for qubit in operands:
                        if qubit not in ancillas and qubit not in bucket:
                            bucket.append(qubit)
    local = {qubit: i for i, qubit in enumerate(module.params)}
    every = range(module.num_params)
    return tuple(tuple(map(local.__getitem__, partners.get(ancilla, ()))) or every
                 for ancilla in module.ancillas)


def _lower(run: tuple, decompose: bool) -> tuple:
    if not decompose:
        return run
    lowered = []
    for name, operands in run:
        if name == "ccx":
            lowered.extend((gate.name, gate.qubits)
                           for gate in decompose_toffoli(*operands))
        else:
            lowered.append((name, operands))
    return tuple(lowered)


@dataclass
class _Record:
    """What one call instance did, as its inverse must undo it."""

    shape: _Shape
    level: int
    slots: Tuple[int, ...]
    compute_records: List["_Record"] = field(default_factory=list)
    store_records: List["_Record"] = field(default_factory=list)
    reclaimed: Optional[bool] = None
    cleaned: bool = False

    def garbage(self) -> int:
        if self.cleaned or self.reclaimed:
            return 0
        return self.shape.num_ancilla + sum(
            child.garbage() for child in self.compute_records + self.store_records)


@dataclass
class _Frame:
    """A call while it executes; inverse and replay frames stay in
    ``"uncompute"`` with no Compute gates, so their callees see
    ``G_p = 0``."""

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


class ProgramWalk:
    """The walk of one program; its per-module shapes serve every stream.

    Args:
        program: A validated program.
        decompose_toffoli: Emit each Toffoli as its Clifford+T gates.
        locality_constrained: Passed to every reclamation request.
    """

    def __init__(self, program: Program, *, decompose_toffoli: bool,
                 locality_constrained: bool) -> None:
        self.program = program
        self.decompose = decompose_toffoli
        self.locality_constrained = locality_constrained
        self._shapes: Dict[int, _Shape] = {}

    def plan(self, policy: ReclamationPolicy) -> ReclamationPlan:
        """Drain one stream, asking ``policy`` once per ``Free``."""
        stream = _Stream(self, policy, ())
        for _ in stream:
            pass
        return ReclamationPlan(tuple(stream.events), stream.peak, stream.gates)

    def stream(self, plan: ReclamationPlan) -> Iterator[tuple]:
        """The compile's stream, taking ``plan``'s decisions in order."""
        return iter(_Stream(self, None, plan.events))

    def _shape(self, module: QModule) -> _Shape:
        shape = self._shapes.get(id(module))
        if shape is None:
            local = {qubit: i for i, qubit in
                     enumerate(module.params + module.ancillas)}
            shape = self._shapes[id(module)] = _Shape(
                module, self._block(local, module.compute),
                self._block(local, module.store),
                None if module.uncompute is None
                else self._block(local, module.uncompute))
        return shape

    def _block(self, local: Dict[object, int],
               statements: Sequence[Statement]) -> _Block:
        calls, raw, run = [], [], []
        static = 0
        for stmt in statements:
            if isinstance(stmt, GateStmt):
                run.append((stmt.name, tuple(map(local.__getitem__, stmt.qubits))))
                static += 1
            else:
                callee = self._shape(stmt.module)
                static += callee.compute.static + callee.store.static
                raw.append(tuple(run))
                calls.append((callee, tuple(map(local.__getitem__, stmt.args)),
                              static))
                run = []
        raw.append(tuple(run))
        runs = [_lower(gates, self.decompose) for gates in raw]
        return _Block(tuple((before, callee, args, static - through)
                            for before, (callee, args, through)
                            in zip(runs, calls)),
                      runs[-1], static, raw)


class _Stream:
    """One pass of a :class:`ProgramWalk`: iterate it for the stream.

    With a ``policy`` it asks it at every ``Free`` and records the
    events; without one it takes the ``planned`` events in order.
    """

    def __init__(self, walk: ProgramWalk, policy: Optional[ReclamationPolicy],
                 planned: Sequence[ReclamationEvent]) -> None:
        self.walk = walk
        self.policy = policy
        self._planned = iter(planned)
        self.events: List[ReclamationEvent] = []
        entry = walk.program.entry
        self.live = self.peak = self.next_slot = entry.num_params
        self.gates = 0

    def __iter__(self) -> Iterator[tuple]:
        entry = self.walk.program.entry
        yield from self._call(self.walk._shape(entry),
                              tuple(range(entry.num_params)), 0, None)

    def _allocate(self, shape: _Shape, params: Tuple[int, ...]):
        count = shape.num_ancilla
        slots = params + tuple(range(self.next_slot, self.next_slot + count))
        self.next_slot += count
        self.live += count
        if self.live > self.peak:
            self.peak = self.live
        return slots

    def _release(self, shape: _Shape, slots: Tuple[int, ...]):
        if shape.num_ancilla:
            self.live -= shape.num_ancilla
            yield RELEASE, slots[shape.num_params:]

    def _forward(self, block: _Block, frame: _Frame, slots: Tuple[int, ...],
                 records: List[_Record]):
        for before, callee, args, after in block.calls:
            if before:
                self.gates += len(before)
                yield RUN, before, slots
            frame.after = after
            records.append((yield from self._call(
                callee, tuple(map(slots.__getitem__, args)),
                frame.level + 1, frame)))
        if block.tail:
            self.gates += len(block.tail)
            yield RUN, block.tail, slots

    def _inverse(self, block: _Block, slots: Tuple[int, ...],
                 records: List[_Record]):
        tail, befores = block.inverse(self.walk.decompose)
        if tail:
            self.gates += len(tail)
            yield RUN, tail, slots
        for (_, _, args, _), before, record in zip(
                reversed(block.calls), reversed(befores), reversed(records)):
            yield from self._invert(record, tuple(map(slots.__getitem__, args)))
            if before:
                self.gates += len(before)
                yield RUN, before, slots

    def _call(self, shape: _Shape, params: Tuple[int, ...], level: int,
              parent: Optional[_Frame]):
        frame = _Frame(level, self.gates, shape.store.static, "compute")
        slots = self._allocate(shape, params)
        record = _Record(shape, level, slots)
        if shape.num_ancilla:
            yield ALLOC, shape, slots
        yield from self._forward(shape.compute, frame, slots,
                                 record.compute_records)
        frame.compute_gates = self.gates - frame.start
        frame.block = "store"
        yield from self._forward(shape.store, frame, slots, record.store_records)
        if parent is None:
            # The program ends at the entry module's Free: nothing to gain.
            record.reclaimed = False
            return record
        num_ancilla = record.garbage()
        if not num_ancilla:
            return record
        if self.policy is None:
            reclaim = next(self._planned).reclaimed
        else:
            name = shape.module.name
            decision = self.policy.decide(ReclamationRequest(
                module_name=name,
                level=level,
                num_active=self.live,
                num_ancilla=num_ancilla,
                uncompute_gates=frame.compute_gates,
                gates_to_parent_uncompute=parent.gates_to_uncompute(self.gates),
                locality_constrained=self.walk.locality_constrained,
            ))
            self.events.append(ReclamationEvent(
                module=name, level=level, reclaimed=decision.reclaim,
                num_ancilla=num_ancilla, costs=decision.costs))
            reclaim = decision.reclaim
        if reclaim:
            yield (UNCOMPUTE,)
            start = self.gates
            frame.block = "uncompute"
            if shape.uncompute is not None and not shape.compute.calls:
                yield from self._forward(shape.uncompute, frame, slots, [])
            else:
                yield from self._inverse(shape.compute, slots,
                                         record.compute_records)
            yield from self._release(shape, slots)
            yield END_UNCOMPUTE, self.gates - start
        record.reclaimed = reclaim
        return record

    def _invert(self, record: _Record, args: Tuple[int, ...]):
        shape = record.shape
        if not record.reclaimed:
            # Still on the machine: Store^-1 ; Compute^-1 in place.
            slots = args + record.slots[len(args):]
            yield from self._inverse(shape.store, slots, record.store_records)
            yield from self._inverse(shape.compute, slots,
                                     record.compute_records)
            yield from self._release(shape, slots)
            record.cleaned = True
            return
        slots = self._allocate(shape, args)
        replay = _Record(shape, record.level, slots)
        if shape.num_ancilla:
            yield ALLOC, shape, slots
        yield from self._forward(shape.compute, _Frame(record.level, self.gates),
                                 slots, replay.compute_records)
        yield from self._inverse(shape.store, slots, record.store_records)
        yield from self._inverse(shape.compute, slots, replay.compute_records)
        yield from self._release(shape, slots)
