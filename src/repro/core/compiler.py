"""The SQUARE compiler: instrumentation-driven allocation and reclamation.

The compiler walks a modular program in program order, exactly as the
paper's instrumentation-driven flow does (Section IV-B): every gate is
routed and scheduled immediately, every ``Allocate`` invokes the allocation
policy against the live machine state, and every ``Free`` invokes the
reclamation policy, which either executes the Uncompute block (returning
the ancillas to the heap) or skips it (transferring the garbage to the
caller — "qubit reservation").

Every ``Free`` decision is taken before placement by the count-only
:func:`~repro.core.plan.plan_reclamation`, so a qubit budget below the
plan's peak live count fails before any gate is placed, and the walk
takes the plan's decisions in order, checking each against its own state.

The walk keeps a :class:`CallRecord` per call instance so that when an
ancestor later uncomputes, the inverse of each child call replays exactly
what that child actually did:

* a child that reclaimed is replayed as ``C ; S^-1 ; C^-1`` on freshly
  allocated ancillas (recursive recomputation, the 2**level blow-up);
* a child that deferred still holds its ancillas, so its inverse is
  ``S^-1 ; C^-1`` on those same qubits, after which they are finally freed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CompilationError, ResourceExhaustedError
from repro.arch.machine import Machine
from repro.arch.mapping import entry_sites
from repro.core.allocation import AllocationPolicy, AllocationRequest
from repro.core.heap import AncillaHeap
from repro.core.plan import plan_reclamation
from repro.core.policies import (
    create_allocation_policy,
    create_reclamation_policy,
)
from repro.core.reclamation import ReclamationPolicy
from repro.core.result import CompilationResult
from repro.ir.decompose import decompose_toffoli
from repro.ir.gates import inverse_gate_name
from repro.ir.program import CallStmt, GateStmt, Program, QModule, Qubit, Statement
from repro.scheduler.asap import GateScheduler
from repro.scheduler.tracker import LivenessTracker
from repro.telemetry.timing import PhaseTimer


@dataclass(frozen=True)
class CompilerConfig:
    """Configuration of one compilation run.

    Attributes:
        allocation: Allocation policy name, resolved through
            :mod:`repro.core.policies` (built-ins: ``"lifo"``, ``"laa"``).
        reclamation: Reclamation policy name, resolved through
            :mod:`repro.core.policies` (built-ins: ``"eager"``, ``"lazy"``,
            ``"cer"``).
        decompose_toffoli: Decompose Toffoli gates into Clifford+T before
            scheduling (used for the small NISQ benchmarks; large workloads
            keep Toffolis whole for compilation speed).
        record_schedule: Keep every scheduled gate so the result can be
            replayed through the noise simulator.
        max_qubits: Optional cap on machine qubits (defaults to the full
            machine size).
        label: Optional human-readable policy label for reports.
    """

    allocation: str = "laa"
    reclamation: str = "cer"
    decompose_toffoli: bool = False
    record_schedule: bool = False
    max_qubits: Optional[int] = None
    label: str = ""

    @property
    def policy_name(self) -> str:
        """Label used in result tables."""
        return self.label or f"{self.allocation}+{self.reclamation}"


#: Compiler configurations matching Table I plus the LAA-only ablation of
#: Figures 8a, 9 and 10.
POLICY_PRESETS: Dict[str, CompilerConfig] = {
    "eager": CompilerConfig(allocation="lifo", reclamation="eager", label="eager"),
    "lazy": CompilerConfig(allocation="lifo", reclamation="lazy", label="lazy"),
    "square-laa": CompilerConfig(allocation="laa", reclamation="eager",
                                 label="square-laa"),
    "square": CompilerConfig(allocation="laa", reclamation="cer", label="square"),
}


def preset(name: str, **overrides) -> CompilerConfig:
    """Return a named policy preset, optionally overriding fields.

    Raises:
        CompilationError: If the preset name is unknown, or an override
            does not name a :class:`CompilerConfig` field.
    """
    try:
        config = POLICY_PRESETS[name]
    except KeyError:
        raise CompilationError(
            f"unknown policy preset {name!r}; choose from {sorted(POLICY_PRESETS)}"
        ) from None
    if not overrides:
        return config
    valid = {f.name for f in fields(CompilerConfig)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise CompilationError(
            f"unknown CompilerConfig field(s) {unknown}; "
            f"valid fields: {sorted(valid)}"
        )
    return replace(config, **overrides)


@dataclass
class CallRecord:
    """What one call instance actually executed (needed for inversion)."""

    module: QModule
    level: int
    binding: Dict[Qubit, int]
    ancilla_virtuals: List[int]
    compute_records: List["CallRecord"] = field(default_factory=list)
    store_records: List["CallRecord"] = field(default_factory=list)
    reclaimed: Optional[bool] = None
    cleaned: bool = False

    def garbage_qubits(self) -> List[int]:
        """Ancilla qubits still holding garbage under this record."""
        if self.cleaned or self.reclaimed:
            return []
        garbage = list(self.ancilla_virtuals)
        for child in self.compute_records + self.store_records:
            garbage.extend(child.garbage_qubits())
        return garbage


@dataclass
class _Frame:
    """Live state of a module call while it executes."""

    module: QModule
    level: int
    binding: Dict[Qubit, int]
    ancilla_virtuals: List[int]


class SquareCompiler:
    """Compiles a modular program onto a machine under a reuse policy.

    Args:
        machine: Target machine model (NISQ, FT or ideal).
        config: Compiler configuration; defaults to the full SQUARE preset.
        allocation_policy: Optional explicit allocation policy instance
            (overrides ``config.allocation``).
        reclamation_policy: Optional explicit reclamation policy instance
            (overrides ``config.reclamation``).
        phase_timing: Record per-phase compile seconds into
            :attr:`CompilationResult.phase_seconds` (on by default; the
            timer costs well under a percent of compile time, and the
            flag is deliberately *not* part of :class:`CompilerConfig`
            so toggling it never changes a job fingerprint).
    """

    def __init__(
        self,
        machine: Machine,
        config: Optional[CompilerConfig] = None,
        allocation_policy: Optional[AllocationPolicy] = None,
        reclamation_policy: Optional[ReclamationPolicy] = None,
        *,
        phase_timing: bool = True,
    ) -> None:
        self.machine = machine
        self.config = config or POLICY_PRESETS["square"]
        if allocation_policy is None:
            allocation_policy = create_allocation_policy(self.config.allocation)
        if reclamation_policy is None:
            reclamation_policy = create_reclamation_policy(self.config.reclamation)
        self.allocation_policy = allocation_policy
        self.reclamation_policy = reclamation_policy
        self.phase_timing = phase_timing
        self._timer: Optional[PhaseTimer] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compile(self, program: Program) -> CompilationResult:
        """Compile ``program`` and return the scheduled-resource summary.

        Raises:
            ResourceExhaustedError: If the program runs out of machine
                qubits.  A qubit budget (``max_qubits`` or the machine
                size) below the reclamation plan's peak live count fails
                right after planning, before any gate is placed.
            CompilationError: If the walk disagrees with the plan.
        """
        started = _time.perf_counter()
        # Exclusive-attribution phase profile (see PhaseTimer): planning
        # is "reclamation", the walk runs under "mapping_routing", and
        # _allocate_ancillas / uncompute emission carve their own spans
        # out of it, so the phases sum to ~the whole compile.
        timer = PhaseTimer() if self.phase_timing else None
        self._timer = timer
        if timer is not None:
            timer.push("validate")
        program.validate()
        if timer is not None:
            timer.pop()
            timer.push("reclamation")
        plan = plan_reclamation(
            program, self.reclamation_policy,
            decompose_toffoli=self.config.decompose_toffoli,
            locality_constrained=self.machine.communication != "none"
            and not self.machine.topology.is_fully_connected)
        if timer is not None:
            timer.pop()
        self._qubit_budget = self.config.max_qubits or self.machine.num_qubits
        capacity = min(self._qubit_budget, self.machine.num_qubits)
        if capacity < plan.peak_live:
            raise ResourceExhaustedError(
                f"program {program.name!r} holds {plan.peak_live} qubits "
                f"live at once under {self.config.policy_name}; "
                f"{self.machine.name} offers {capacity}"
            )
        self.machine.reset_communication_state()
        self._tracker = LivenessTracker()
        self._scheduler = GateScheduler(
            self.machine, self._tracker,
            record_schedule=self.config.record_schedule,
        )
        self._heap = AncillaHeap()
        self._next_virtual = 0
        self._planned = iter(zip(plan.events, plan.live_at))
        self._uncompute_gates = 0
        self._partner_cache: Dict[int, Dict[Qubit, List[Qubit]]] = {}

        entry = program.entry
        if timer is not None:
            timer.push("mapping_routing")
        param_virtuals = self._place_entry_params(entry)
        binding = dict(zip(entry.params, param_virtuals))
        self._exec_call_with_binding(entry, binding, level=0, parent=None)
        if (next(self._planned, None) is not None
                or self._scheduler.gate_count != plan.gate_count
                or self._tracker.peak_live != plan.peak_live):
            raise CompilationError(
                f"program {program.name!r}: the walk emitted "
                f"{self._scheduler.gate_count} gates with "
                f"{self._tracker.peak_live} qubits live at peak, but its "
                f"reclamation plan counted {plan.gate_count} and "
                f"{plan.peak_live}")
        if timer is not None:
            timer.pop()
            timer.push("liveness")
        self._tracker.finalize(self._scheduler.makespan)

        final_sites = tuple(
            (virtual, self._scheduler.layout.site_of(virtual))
            for virtual in range(self._next_virtual)
            if self._scheduler.layout.is_placed(virtual)
        )
        if timer is not None:
            timer.pop()
            # Reported like every phase, also when no Free reclaims.
            timer.seconds.setdefault("uncompute", 0.0)
        phase_seconds = ({name: timer.seconds[name]
                          for name in sorted(timer.seconds)}
                         if timer is not None else {})
        elapsed = _time.perf_counter() - started
        return CompilationResult(
            program_name=program.name,
            machine_name=self.machine.name,
            policy_name=self.config.policy_name,
            num_qubits_used=self._next_virtual,
            peak_live_qubits=self._tracker.peak_live,
            gate_count=self._scheduler.gate_count,
            swap_count=self._scheduler.swap_count,
            circuit_depth=self._scheduler.makespan,
            active_quantum_volume=self._tracker.active_quantum_volume(),
            total_comm_cost=self._scheduler.comm_cost_total,
            uncompute_gate_count=self._uncompute_gates,
            reclamation_events=plan.events,
            usage_segments=self._tracker.segments,
            scheduled_gates=tuple(self._scheduler.events),
            final_sites=final_sites,
            num_entry_params=len(entry.params),
            compile_seconds=elapsed,
            phase_seconds=phase_seconds,
        )

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _place_entry_params(self, entry: QModule) -> List[int]:
        """Create the entry module's parameter qubits near the machine centre."""
        virtuals: List[int] = []
        for site in entry_sites(self.machine.topology, len(entry.params)):
            virtual = self._create_qubit(site)
            self._scheduler.allocate(virtual, 0)
            virtuals.append(virtual)
        return virtuals

    def _create_qubit(self, site: int) -> int:
        if self._next_virtual >= self._qubit_budget:
            raise ResourceExhaustedError(
                f"qubit budget of {self._qubit_budget} exhausted"
            )
        virtual = self._next_virtual
        self._next_virtual += 1
        self._scheduler.register_qubit(virtual, site)
        return virtual

    # ------------------------------------------------------------------
    # Program walk
    # ------------------------------------------------------------------
    def _exec_call(self, stmt: CallStmt, parent: _Frame) -> CallRecord:
        binding = dict(zip(stmt.module.params,
                           map(parent.binding.__getitem__, stmt.args)))
        return self._exec_call_with_binding(
            stmt.module, binding, level=parent.level + 1, parent=parent
        )

    def _exec_call_with_binding(
        self,
        module: QModule,
        binding: Dict[Qubit, int],
        level: int,
        parent: Optional[_Frame],
    ) -> CallRecord:
        record = CallRecord(module=module, level=level, binding=dict(binding),
                            ancilla_virtuals=[])
        frame = _Frame(module=module, level=level, binding=binding,
                       ancilla_virtuals=[])

        if module.num_ancilla:
            ancillas = self._allocate_ancillas(module, frame)
            frame.ancilla_virtuals = ancillas
            record.ancilla_virtuals = list(ancillas)
            frame.binding.update(zip(module.ancillas, ancillas))
            record.binding.update(zip(module.ancillas, ancillas))

        self._exec_block(module.compute, frame, record.compute_records)
        self._exec_block(module.store, frame, record.store_records)

        self._process_free(module, frame, record, parent)
        return record

    def _exec_block(self, statements: Sequence[Statement], frame: _Frame,
                    records: List[CallRecord]) -> None:
        for stmt in statements:
            if isinstance(stmt, GateStmt):
                qubits = tuple(map(frame.binding.__getitem__, stmt.qubits))
                self._emit_gate(stmt.name, qubits)
            elif isinstance(stmt, CallStmt):
                records.append(self._exec_call(stmt, frame))
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown statement {stmt!r}")

    def _exec_block_inverse(self, statements: Sequence[Statement], frame: _Frame,
                            records: Sequence[CallRecord]) -> None:
        record_index = len(records)
        for stmt in reversed(statements):
            if isinstance(stmt, GateStmt):
                qubits = tuple(map(frame.binding.__getitem__, stmt.qubits))
                self._emit_gate(inverse_gate_name(stmt.name), qubits)
            elif isinstance(stmt, CallStmt):
                record_index -= 1
                self._exec_call_inverse(records[record_index])
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Gate emission
    # ------------------------------------------------------------------
    def _emit_gate(self, name: str, qubits: Tuple[int, ...]) -> None:
        if self.config.decompose_toffoli and name == "ccx":
            for gate in decompose_toffoli(*qubits):
                self._scheduler.schedule_gate(gate.name, gate.qubits)
            return
        self._scheduler.schedule_gate(name, qubits)

    # ------------------------------------------------------------------
    # Allocation and reclamation
    # ------------------------------------------------------------------
    def _allocate_ancillas(self, module: QModule, frame: _Frame) -> List[int]:
        """Place ``module``'s ancillas; the allocation span carves out of
        whatever phase is active (the walk, or an uncompute replay)."""
        timer = self._timer
        if timer is not None:
            timer.push("allocation")
        per_ancilla, fallback = self._interaction_anchors(module, frame)
        now = self._scheduler.current_time()
        allocated: List[int] = []
        for ancilla in module.ancillas:
            anchors = per_ancilla.get(ancilla) or fallback
            request = AllocationRequest(
                count=1,
                interacting_qubits=tuple(anchors),
                heap=self._heap,
                scheduler=self._scheduler,
                create_qubit=self._create_qubit,
                module_name=module.name,
            )
            virtual = self.allocation_policy.allocate(request)[0]
            self._scheduler.allocate(virtual, now)
            allocated.append(virtual)
        if timer is not None:
            timer.pop()
        return allocated

    def _interaction_anchors(
        self, module: QModule, frame: _Frame
    ) -> Tuple[Dict[Qubit, List[int]], List[int]]:
        """Look-ahead interaction sets (``get_interact_qubits`` in Algorithm 1).

        Returns a per-ancilla map of the caller-visible qubits that ancilla
        directly shares a gate or call with, plus a fallback anchor list
        (all bound parameters) for ancillas with no direct interaction in
        this module's own statements.
        """
        partners = self._partner_cache.get(id(module))
        if partners is None:
            partners = self._partner_cache[id(module)] = _ancilla_partners(module)
        binding = frame.binding
        per_ancilla = {ancilla: [binding[q] for q in params]
                       for ancilla, params in partners.items()}
        fallback = [binding[q] for q in module.params if q in binding]
        return per_ancilla, fallback

    def _process_free(self, module: QModule, frame: _Frame, record: CallRecord,
                      parent: Optional[_Frame]) -> None:
        """Take the plan's next decision, checking it against the walk."""
        if parent is None:
            # Top level: the program ends here, so there is nothing to gain
            # from uncomputing — the remaining garbage is simply measured
            # away / reset when the machine is released.  This matches the
            # Table I semantics in which Lazy's only reclamation point is
            # the end of the program (and explains why Lazy's gate count is
            # roughly the forward-only count in Table III).
            record.reclaimed = False
            return
        num_ancilla = len(record.garbage_qubits())
        if num_ancilla == 0:
            # Nothing to reclaim: the call has no scratch state to clean.
            record.reclaimed = None
            return
        event, live = next(self._planned, (None, None))
        if (event is None or event.module != module.name
                or event.level != frame.level
                or event.num_ancilla != num_ancilla
                or live != self._tracker.num_live):
            raise CompilationError(
                f"the reclamation plan disagrees with the walk at the Free of "
                f"module {module.name!r} (level {frame.level}, {num_ancilla} "
                f"garbage, {self._tracker.num_live} live): planned {event!r}, "
                f"{live} live")
        if not event.reclaimed:
            # Garbage is transferred to the caller simply by keeping the
            # record referenced from the parent's record list; the ancestor
            # that eventually uncomputes will clean and free it.
            record.reclaimed = False
            return
        timer = self._timer
        if timer is not None:
            timer.push("uncompute")
        self._emit_uncompute(frame, record)
        self._reclaim_record(record)
        if timer is not None:
            timer.pop()

    def _emit_uncompute(self, frame: _Frame, record: CallRecord) -> None:
        """Execute the Uncompute block (inverse of Compute) for this frame."""
        module = frame.module
        gates_before = self._scheduler.gate_count
        use_explicit = (
            module.has_explicit_uncompute
            and not any(isinstance(s, CallStmt) for s in module.compute)
            and not record.compute_records
        )
        if use_explicit:
            self._exec_block(module.uncompute, frame, [])
        else:
            self._exec_block_inverse(module.compute, frame, record.compute_records)
        self._uncompute_gates += self._scheduler.gate_count - gates_before
        record.reclaimed = True

    def _reclaim_record(self, record: CallRecord) -> None:
        """Free this record's own ancillas (children free theirs when inverted)."""
        for virtual in record.ancilla_virtuals:
            self._scheduler.reclaim(virtual)
            self._heap.push(virtual)
        record.reclaimed = True

    # ------------------------------------------------------------------
    # Inverse execution (uncomputation of calls)
    # ------------------------------------------------------------------
    def _exec_call_inverse(self, record: CallRecord) -> None:
        module = record.module
        if record.reclaimed:
            self._replay_reclaimed_inverse(record)
            return
        # Deferred (or ancilla-free) call: its state is still on the machine,
        # so its inverse is Store^-1 ; Compute^-1 on the original qubits.
        frame = _Frame(module=module, level=record.level, binding=dict(record.binding),
                       ancilla_virtuals=list(record.ancilla_virtuals))
        self._exec_block_inverse(module.store, frame, record.store_records)
        self._exec_block_inverse(module.compute, frame, record.compute_records)
        for virtual in record.ancilla_virtuals:
            self._scheduler.reclaim(virtual)
            self._heap.push(virtual)
        record.cleaned = True

    def _replay_reclaimed_inverse(self, record: CallRecord) -> None:
        """Invert a call that had reclaimed: C ; S^-1 ; C^-1 on fresh ancillas."""
        module = record.module
        binding = {param: record.binding[param] for param in module.params}
        frame = _Frame(module=module, level=record.level, binding=binding,
                       ancilla_virtuals=[])
        if module.num_ancilla:
            ancillas = self._allocate_ancillas(module, frame)
            frame.ancilla_virtuals = ancillas
            frame.binding.update(zip(module.ancillas, ancillas))
        replay_records: List[CallRecord] = []
        self._exec_block(module.compute, frame, replay_records)
        self._exec_block_inverse(module.store, frame, record.store_records)
        self._exec_block_inverse(module.compute, frame, replay_records)
        for virtual in frame.ancilla_virtuals:
            self._scheduler.reclaim(virtual)
            self._heap.push(virtual)


def _ancilla_partners(module: QModule) -> Dict[Qubit, List[Qubit]]:
    """For each ancilla that shares a Compute or Store gate or call with
    a parameter, those parameters in order of first appearance."""
    ancilla_set = set(module.ancillas)
    partners: Dict[Qubit, List[Qubit]] = {}
    for block in (module.compute, module.store):
        for stmt in block:
            operands = stmt.qubits if isinstance(stmt, GateStmt) else stmt.args
            involved = [q for q in operands if q in ancilla_set]
            for ancilla in involved:
                bucket = partners.setdefault(ancilla, [])
                for qubit in operands:
                    if qubit not in ancilla_set and qubit not in bucket:
                        bucket.append(qubit)
    return partners


def compile_program(
    program: Program,
    machine: Machine,
    policy: str = "square",
    **config_overrides,
) -> CompilationResult:
    """One-call convenience API: compile ``program`` under a named policy.

    Kept as a thin compatibility shim over :class:`SquareCompiler`; new
    code that compiles more than one (program, machine, policy) triple
    should prefer the batch front door in :mod:`repro.api`
    (``Session``/``SweepSpec``), which adds memoization and parallelism.
    """
    config = preset(policy, **config_overrides)
    return SquareCompiler(machine, config).compile(program)
