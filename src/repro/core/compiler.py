"""The SQUARE compiler: instrumentation-driven allocation and reclamation.

The compiler follows the paper's instrumentation-driven flow (Section
IV-B): in program order, every gate is routed and scheduled immediately,
every ``Allocate`` invokes the allocation policy against the live machine
state, and every ``Free`` either executes the Uncompute block (returning
the ancillas to the heap) or skips it (transferring the garbage to the
caller — "qubit reservation").

The program walk itself is :class:`~repro.core.plan.ProgramWalk`, and
:meth:`SquareCompiler.compile` runs it twice.  The first, count-only pass
asks the reclamation policy once per ``Free`` and yields the plan's exact
peak live count, so a qubit budget below it fails before any gate is
placed.  The second pass replays the plan's decisions, and the compiler
places what it yields: each slot's virtual qubit is chosen by the
allocation policy at ``alloc``, each gate goes to the scheduler, and each
``release`` returns its qubits to the heap.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.exceptions import CompilationError, ResourceExhaustedError
from repro.arch.machine import Machine
from repro.arch.mapping import entry_sites
from repro.core.allocation import AllocationPolicy, AllocationRequest
from repro.core.heap import AncillaHeap
from repro.core.plan import ALLOC, RELEASE, RUN, UNCOMPUTE, ProgramWalk
from repro.core.policies import (
    create_allocation_policy,
    create_reclamation_policy,
)
from repro.core.reclamation import ReclamationPolicy
from repro.core.result import CompilationResult
from repro.ir.program import Program
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

    def compile(self, program: Program) -> CompilationResult:
        """Compile ``program`` and return the scheduled-resource summary.

        Raises:
            ResourceExhaustedError: If the program runs out of machine
                qubits.  A qubit budget (``max_qubits`` or the machine
                size) below the reclamation plan's peak live count fails
                right after planning, before any gate is placed.
        """
        started = _time.perf_counter()
        # Exclusive-attribution phase profile (see PhaseTimer): planning
        # is "reclamation", placing the stream is "mapping_routing", and
        # its allocations and uncompute spans carve their own time out of
        # it, so the phases sum to ~the whole compile.
        timer = PhaseTimer() if self.phase_timing else None
        self._timer = timer
        if timer is not None:
            timer.push("validate")
        program.validate()
        if timer is not None:
            timer.pop()
            timer.push("reclamation")
        walk = ProgramWalk(
            program, decompose_toffoli=self.config.decompose_toffoli,
            locality_constrained=self.machine.communication != "none"
            and not self.machine.topology.is_fully_connected)
        plan = walk.plan(self.reclamation_policy)
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
        self._scheduler = scheduler = GateScheduler(
            self.machine, self._tracker,
            record_schedule=self.config.record_schedule,
        )
        self._heap = heap = AncillaHeap()
        self._next_virtual = 0

        entry = program.entry
        if timer is not None:
            timer.push("mapping_routing")
        # The virtual qubit of every slot the stream binds; the entry's
        # parameters are slots 0..n-1, placed near the machine centre.
        virtual_of: List[int] = []
        for site in entry_sites(self.machine.topology, entry.num_params):
            virtual = self._create_qubit(site)
            scheduler.allocate(virtual, 0)
            virtual_of.append(virtual)
        schedule_gate = scheduler.schedule_gate
        uncompute_gates = 0
        for item in walk.stream(plan):
            kind = item[0]
            if kind == RUN:
                binding = list(map(virtual_of.__getitem__, item[2]))
                for name, operands in item[1]:
                    schedule_gate(name, tuple(map(binding.__getitem__, operands)))
            elif kind == ALLOC:
                self._allocate(item[1], item[2], virtual_of)
            elif kind == RELEASE:
                for slot in item[1]:
                    virtual = virtual_of[slot]
                    scheduler.reclaim(virtual)
                    heap.push(virtual)
            elif kind == UNCOMPUTE:
                if timer is not None:
                    timer.push("uncompute")
            else:
                uncompute_gates += item[1]
                if timer is not None:
                    timer.pop()
        if timer is not None:
            timer.pop()
            timer.push("liveness")
        self._tracker.finalize(scheduler.makespan)

        final_sites = tuple(
            (virtual, scheduler.layout.site_of(virtual))
            for virtual in range(self._next_virtual)
            if scheduler.layout.is_placed(virtual)
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
            gate_count=scheduler.gate_count,
            swap_count=scheduler.swap_count,
            circuit_depth=scheduler.makespan,
            active_quantum_volume=self._tracker.active_quantum_volume(),
            total_comm_cost=scheduler.comm_cost_total,
            uncompute_gate_count=uncompute_gates,
            reclamation_events=plan.events,
            usage_segments=self._tracker.segments,
            scheduled_gates=tuple(scheduler.events),
            final_sites=final_sites,
            num_entry_params=entry.num_params,
            compile_seconds=elapsed,
            phase_seconds=phase_seconds,
        )

    def _create_qubit(self, site: int) -> int:
        if self._next_virtual >= self._qubit_budget:
            raise ResourceExhaustedError(
                f"qubit budget of {self._qubit_budget} exhausted"
            )
        virtual = self._next_virtual
        self._next_virtual += 1
        self._scheduler.register_qubit(virtual, site)
        return virtual

    def _allocate(self, shape, slots: Tuple[int, ...],
                  virtual_of: List[int]) -> None:
        """Place a call's ancillas, the ``slots`` after its parameters; the
        allocation span carves out of whatever phase is active (the walk,
        or an uncompute replay)."""
        timer = self._timer
        if timer is not None:
            timer.push("allocation")
        params = list(map(virtual_of.__getitem__, slots[:shape.num_params]))
        now = self._scheduler.current_time()
        for anchors in shape.anchors:
            request = AllocationRequest(
                count=1,
                interacting_qubits=tuple(map(params.__getitem__, anchors)),
                heap=self._heap,
                scheduler=self._scheduler,
                create_qubit=self._create_qubit,
                module_name=shape.module.name,
            )
            virtual = self.allocation_policy.allocate(request)[0]
            self._scheduler.allocate(virtual, now)
            virtual_of.append(virtual)
        if timer is not None:
            timer.pop()

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
