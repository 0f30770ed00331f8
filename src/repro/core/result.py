"""Compilation results and summary metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cost_model import ReclamationCosts
from repro.ir.circuit import Circuit
from repro.ir.gates import make_gate
from repro.scheduler.events import ScheduledGate
from repro.scheduler.tracker import UsageSegment, usage_series


@dataclass(frozen=True)
class ReclamationEvent:
    """One reclamation decision made during compilation.

    Attributes:
        module: Module whose ``Free`` was processed.
        level: Call-graph depth of the call.
        reclaimed: Whether the Uncompute block was executed.
        num_ancilla: Ancilla/garbage qubits covered by the decision.
        costs: The C1/C0 costs when the CER model was consulted.
    """

    module: str
    level: int
    reclaimed: bool
    num_ancilla: int
    costs: Optional[ReclamationCosts] = None


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a compile job that raised instead of finishing.

    When a :class:`~repro.api.session.Session` runs with failure
    isolation (the mode the network service uses), a job that raises a
    library error does not kill its batch; it yields one of these
    instead, carrying the job's coordinates and the error.  The record is
    JSON-serializable, so it travels across process and HTTP boundaries
    exactly like a :class:`CompilationResult`.

    Attributes:
        program_name: Display name of the job's program/benchmark.
        machine_name: The job's machine spec label
            (:meth:`~repro.api.job.MachineSpec.describe`).
        policy_name: The job's policy label.
        error_type: Class name of the raised exception, e.g.
            ``"ResourceExhaustedError"``.
        message: The exception message.
    """

    program_name: str
    machine_name: str
    policy_name: str
    error_type: str
    message: str

    #: Failures answer False where results answer True, so service
    #: consumers can branch on ``entry.ok`` without type checks.
    ok: ClassVar[bool] = False

    def describe(self) -> str:
        """Short ``ErrorType: message`` label for tables and logs."""
        return f"{self.error_type}: {self.message}"

    def to_exception(self) -> Exception:
        """Rebuild a raisable exception carrying the job's coordinates.

        The original exception class is recovered from
        :mod:`repro.exceptions` by name, so callers catching e.g.
        :class:`~repro.exceptions.ResourceExhaustedError` behave the same
        whether the job ran in-process, in a worker pool, or on a remote
        service; unknown types degrade to
        :class:`~repro.exceptions.ExperimentError`.
        """
        import repro.exceptions as _exceptions

        exc_class = getattr(_exceptions, self.error_type, None)
        if not (isinstance(exc_class, type)
                and issubclass(exc_class, _exceptions.ReproError)):
            exc_class = _exceptions.ExperimentError
        return exc_class(
            f"{self.message} [job: benchmark={self.program_name}, "
            f"policy={self.policy_name}, machine={self.machine_name}]"
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "program_name": self.program_name,
            "machine_name": self.machine_name,
            "policy_name": self.policy_name,
            "error_type": self.error_type,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobFailure":
        """Rebuild a failure record from :meth:`to_dict` output."""
        return cls(
            program_name=data["program_name"],
            machine_name=data["machine_name"],
            policy_name=data["policy_name"],
            error_type=data["error_type"],
            message=data["message"],
        )


@dataclass
class CompilationResult:
    """Everything the SQUARE compiler reports for one program.

    The headline metrics mirror Table III of the paper: gate count
    (excluding router swaps), qubit footprint, circuit depth and swap
    count, plus the Active Quantum Volume used throughout the evaluation.
    """

    #: Mirror of :attr:`JobFailure.ok` so mixed batches branch uniformly.
    ok: ClassVar[bool] = True

    program_name: str
    machine_name: str
    policy_name: str
    num_qubits_used: int
    peak_live_qubits: int
    gate_count: int
    swap_count: int
    circuit_depth: int
    active_quantum_volume: int
    total_comm_cost: float
    uncompute_gate_count: int
    reclamation_events: Tuple[ReclamationEvent, ...] = ()
    usage_segments: Tuple[UsageSegment, ...] = ()
    scheduled_gates: Tuple[ScheduledGate, ...] = ()
    final_sites: Tuple[Tuple[int, int], ...] = ()
    num_entry_params: int = 0
    compile_seconds: float = 0.0
    #: Exclusive per-phase compile seconds from the compiler's
    #: :class:`~repro.telemetry.PhaseTimer` (``validate`` /
    #: ``reclamation`` (the plan) / ``allocation`` / ``uncompute`` /
    #: ``liveness`` / ``mapping_routing``).  Pure telemetry: excluded from equality
    #: and from :meth:`to_dict` — like verification timing, repeat
    #: compiles must compare equal and serialize byte-identically no
    #: matter how long each phase took.
    phase_seconds: Dict[str, float] = field(default_factory=dict,
                                            compare=False)

    # ------------------------------------------------------------------
    @property
    def total_gate_count(self) -> int:
        """Gates including router-inserted swaps."""
        return self.gate_count + self.swap_count

    def site_of(self, virtual: int) -> int:
        """Final physical site of a virtual qubit (for physical readout)."""
        for qubit, site in self.final_sites:
            if qubit == virtual:
                return site
        raise KeyError(f"virtual qubit {virtual} has no recorded site")

    def entry_param_sites(self) -> Tuple[int, ...]:
        """Final sites of the entry module's parameters, in declaration order."""
        return tuple(self.site_of(v) for v in range(self.num_entry_params))

    @property
    def num_reclamation_points(self) -> int:
        """Number of ``Free`` decisions taken."""
        return len(self.reclamation_events)

    @property
    def num_reclaimed(self) -> int:
        """Number of decisions that executed the Uncompute block."""
        return sum(1 for event in self.reclamation_events if event.reclaimed)

    @property
    def num_deferred(self) -> int:
        """Number of decisions that deferred garbage to the caller."""
        return sum(1 for event in self.reclamation_events if not event.reclaimed)

    def usage_series(self) -> List[Tuple[int, int]]:
        """Piecewise-constant (time, live qubits) curve (Figure 1)."""
        return usage_series(self.usage_segments)

    def to_circuit(self, physical: bool = False) -> Circuit:
        """Rebuild the scheduled gate stream as a flat :class:`Circuit`.

        Requires the compiler to have been run with ``record_schedule=True``.

        Args:
            physical: When False (default) the circuit is expressed on
                *virtual* qubit wires — wire ``i`` is virtual qubit ``i``, so
                the entry module's parameters occupy the first wires — and
                router-inserted swaps are dropped (they only relabel sites,
                they do not act on virtual values).  This view is the one to
                use for functional-equivalence checks.  When True the circuit
                is expressed on *physical site* wires with every router swap
                included, which is what the noise simulator should run.
        """
        if not self.scheduled_gates:
            raise ValueError(
                "no recorded schedule; compile with record_schedule=True"
            )
        if physical:
            num_wires = 1 + max(
                (max(event.sites) for event in self.scheduled_gates if event.sites),
                default=0,
            )
            circuit = Circuit(
                num_wires, name=f"{self.program_name}-{self.policy_name}-physical"
            )
            for event in self.scheduled_gates:
                if not event.sites:
                    continue
                circuit.append(make_gate(event.name, event.sites))
            return circuit

        circuit = Circuit(self.num_qubits_used,
                          name=f"{self.program_name}-{self.policy_name}")
        for event in self.scheduled_gates:
            if event.routed:
                continue
            if not event.virtual_qubits:
                continue
            circuit.append(make_gate(event.name, event.virtual_qubits))
        return circuit

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dictionary.

        Nested records use compact list encodings so that results stay
        cheap to pickle across process boundaries (the parallel executor
        ships every result through this representation) and cheap to dump
        as JSON.  :meth:`from_dict` restores a fully equivalent result.
        """
        return {
            "program_name": self.program_name,
            "machine_name": self.machine_name,
            "policy_name": self.policy_name,
            "num_qubits_used": self.num_qubits_used,
            "peak_live_qubits": self.peak_live_qubits,
            "gate_count": self.gate_count,
            "swap_count": self.swap_count,
            "circuit_depth": self.circuit_depth,
            "active_quantum_volume": self.active_quantum_volume,
            "total_comm_cost": self.total_comm_cost,
            "uncompute_gate_count": self.uncompute_gate_count,
            "reclamation_events": [
                [
                    event.module,
                    event.level,
                    event.reclaimed,
                    event.num_ancilla,
                    None if event.costs is None else
                    [event.costs.uncompute_cost, event.costs.reservation_cost],
                ]
                for event in self.reclamation_events
            ],
            "usage_segments": [
                [segment.qubit, segment.start, segment.end]
                for segment in self.usage_segments
            ],
            "scheduled_gates": [
                [
                    event.name,
                    list(event.virtual_qubits),
                    list(event.sites),
                    event.start,
                    event.finish,
                    event.routed,
                ]
                for event in self.scheduled_gates
            ],
            "final_sites": [list(pair) for pair in self.final_sites],
            "num_entry_params": self.num_entry_params,
            "compile_seconds": self.compile_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CompilationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            program_name=data["program_name"],
            machine_name=data["machine_name"],
            policy_name=data["policy_name"],
            num_qubits_used=data["num_qubits_used"],
            peak_live_qubits=data["peak_live_qubits"],
            gate_count=data["gate_count"],
            swap_count=data["swap_count"],
            circuit_depth=data["circuit_depth"],
            active_quantum_volume=data["active_quantum_volume"],
            total_comm_cost=data["total_comm_cost"],
            uncompute_gate_count=data["uncompute_gate_count"],
            reclamation_events=tuple(
                ReclamationEvent(
                    module=module,
                    level=level,
                    reclaimed=reclaimed,
                    num_ancilla=num_ancilla,
                    costs=None if costs is None else
                    ReclamationCosts(uncompute_cost=costs[0],
                                     reservation_cost=costs[1]),
                )
                for module, level, reclaimed, num_ancilla, costs
                in data.get("reclamation_events", ())
            ),
            usage_segments=tuple(
                UsageSegment(qubit=qubit, start=start, end=end)
                for qubit, start, end in data.get("usage_segments", ())
            ),
            scheduled_gates=tuple(
                ScheduledGate(
                    name=name,
                    virtual_qubits=tuple(virtual_qubits),
                    sites=tuple(sites),
                    start=start,
                    finish=finish,
                    routed=routed,
                )
                for name, virtual_qubits, sites, start, finish, routed
                in data.get("scheduled_gates", ())
            ),
            final_sites=tuple(
                (virtual, site) for virtual, site in data.get("final_sites", ())
            ),
            num_entry_params=data.get("num_entry_params", 0),
            compile_seconds=data.get("compile_seconds", 0.0),
        )

    def summary(self) -> Dict[str, object]:
        """Flat dictionary of the headline metrics (for report tables)."""
        return {
            "program": self.program_name,
            "machine": self.machine_name,
            "policy": self.policy_name,
            "gates": self.gate_count,
            "qubits": self.num_qubits_used,
            "peak_live": self.peak_live_qubits,
            "depth": self.circuit_depth,
            "swaps": self.swap_count,
            "aqv": self.active_quantum_volume,
            "uncompute_gates": self.uncompute_gate_count,
            "reclaim_points": self.num_reclamation_points,
            "reclaimed": self.num_reclaimed,
            "deferred": self.num_deferred,
        }
