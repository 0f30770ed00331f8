"""Compile jobs: the unit of work submitted to a :class:`~repro.api.Session`.

A :class:`CompileJob` bundles everything one compilation needs — the
program (by benchmark name or as an in-memory :class:`~repro.ir.program.Program`),
a declarative :class:`MachineSpec`, and a
:class:`~repro.core.compiler.CompilerConfig` — in a frozen, picklable
form, so jobs can be fanned out to worker processes and memoized by a
stable :meth:`~CompileJob.fingerprint`.

:func:`execute_job` is the single place a job turns into a
:class:`~repro.core.result.CompilationResult`; both executors call it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.exceptions import (
    ExperimentError,
    ReproError,
    ResourceExhaustedError,
)
from repro.arch.ft import FTMachine
from repro.arch.machine import IdealMachine, Machine
from repro.arch.nisq import NISQMachine
from repro.core.compiler import (
    POLICY_PRESETS,
    CompilerConfig,
    SquareCompiler,
    preset,
)
from repro.core.result import CompilationResult, JobFailure
from repro.ir.program import CallStmt, GateStmt, Program, QModule
from repro.workloads.registry import canonical_benchmark_name, load_benchmark

#: Machine kinds a :class:`MachineSpec` can describe.
MACHINE_KINDS = ("nisq", "nisq-full", "ft", "ideal")


@dataclass(frozen=True)
class MachineSpec:
    """Declarative, picklable description of a target machine.

    Unlike a live :class:`~repro.arch.machine.Machine` (which carries
    routers, braid trackers and other mutable state), a spec is pure data:
    it can cross process boundaries and participate in job fingerprints,
    and every job builds a fresh machine from it so concurrent
    compilations never share communication state.

    Attributes:
        kind: ``"nisq"`` (lattice, swap chains), ``"nisq-full"``
            (all-to-all NISQ), ``"ft"`` (surface code, braiding) or
            ``"ideal"`` (fully connected, zero-cost communication).
        num_qubits: Machine size for the near-square/full topologies.
        rows: Explicit lattice rows (with ``cols``, NISQ/FT only).
        cols: Explicit lattice columns.
        autosize: Grow the machine (doubling from ``start_qubits``) until
            the program fits, like the paper's machine-size sweeps.
        start_qubits: First size tried when autosizing.
        max_qubits: Autosize gives up (re-raising
            :class:`~repro.exceptions.ResourceExhaustedError`) beyond this.
    """

    kind: str = "nisq"
    num_qubits: Optional[int] = None
    rows: Optional[int] = None
    cols: Optional[int] = None
    autosize: bool = False
    start_qubits: int = 32
    max_qubits: int = 1 << 16

    def __post_init__(self) -> None:
        if self.kind not in MACHINE_KINDS:
            raise ExperimentError(
                f"unknown machine kind {self.kind!r}; choose from "
                f"{list(MACHINE_KINDS)}"
            )
        if (self.rows is None) != (self.cols is None):
            raise ExperimentError(
                "MachineSpec needs both rows and cols (or neither)"
            )
        if self.num_qubits is not None and self.rows is not None:
            raise ExperimentError(
                "MachineSpec takes num_qubits or rows+cols, not both"
            )
        if not self.autosize and self.num_qubits is None and self.rows is None:
            raise ExperimentError(
                "MachineSpec needs num_qubits, rows+cols, or autosize=True"
            )
        if self.kind in ("nisq-full", "ideal") and self.rows is not None:
            raise ExperimentError(
                f"machine kind {self.kind!r} is fully connected; "
                f"use num_qubits instead of rows/cols"
            )
        if self.autosize and (self.rows is not None or
                              self.num_qubits is not None):
            raise ExperimentError(
                "autosize=True conflicts with a fixed size; drop "
                "num_qubits/rows/cols or drop autosize"
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def nisq_grid(cls, rows: int, cols: int) -> "MachineSpec":
        """A fixed ``rows x cols`` NISQ lattice."""
        return cls(kind="nisq", rows=rows, cols=cols)

    @classmethod
    def nisq(cls, num_qubits: int) -> "MachineSpec":
        """A NISQ lattice on the smallest near-square grid of that size."""
        return cls(kind="nisq", num_qubits=num_qubits)

    @classmethod
    def nisq_full(cls, num_qubits: int) -> "MachineSpec":
        """A fully-connected NISQ machine (no swaps needed)."""
        return cls(kind="nisq-full", num_qubits=num_qubits)

    @classmethod
    def ft(cls, num_qubits: int) -> "MachineSpec":
        """A surface-code FT machine of at least that many logical qubits."""
        return cls(kind="ft", num_qubits=num_qubits)

    @classmethod
    def ideal(cls, num_qubits: int) -> "MachineSpec":
        """A fully-connected machine with zero communication cost."""
        return cls(kind="ideal", num_qubits=num_qubits)

    @classmethod
    def nisq_autosize(cls, start_qubits: int = 32,
                      max_qubits: int = 1 << 16) -> "MachineSpec":
        """NISQ lattices grown until the program fits."""
        return cls(kind="nisq", autosize=True, start_qubits=start_qubits,
                   max_qubits=max_qubits)

    @classmethod
    def ft_autosize(cls, start_qubits: int = 32,
                    max_qubits: int = 1 << 16) -> "MachineSpec":
        """FT machines grown until the program fits."""
        return cls(kind="ft", autosize=True, start_qubits=start_qubits,
                   max_qubits=max_qubits)

    # ------------------------------------------------------------------
    def build(self, num_qubits: Optional[int] = None) -> Machine:
        """Instantiate a live machine of this spec.

        Args:
            num_qubits: Size override used by the autosize loop; defaults
                to the spec's own fixed size.
        """
        size = num_qubits if num_qubits is not None else self.num_qubits
        if size is None and self.rows is None:
            raise ExperimentError(
                "autosize MachineSpec needs an explicit num_qubits to build; "
                "the autosize search in execute_job supplies one per attempt"
            )
        if self.kind == "nisq":
            if self.rows is not None and self.cols is not None:
                return NISQMachine.grid(self.rows, self.cols)
            return NISQMachine.with_qubits(size)
        if self.kind == "nisq-full":
            return NISQMachine.fully_connected(size)
        if self.kind == "ft":
            if self.rows is not None and self.cols is not None:
                return FTMachine.grid(self.rows, self.cols)
            return FTMachine.with_qubits(size)
        return IdealMachine(size)

    def describe(self) -> str:
        """Short human-readable label for reports."""
        if self.autosize:
            return f"{self.kind}-auto(start={self.start_qubits})"
        if self.rows is not None:
            return f"{self.kind}-{self.rows}x{self.cols}"
        return f"{self.kind}-{self.num_qubits}"

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dictionary of spec fields."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a subset of it).

        Raises:
            ExperimentError: On unknown keys, or any combination the
                constructor itself rejects.
        """
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ExperimentError(
                f"unknown MachineSpec field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        return cls(**dict(data))


def config_to_dict(config: CompilerConfig) -> Dict[str, object]:
    """Serialize a :class:`~repro.core.compiler.CompilerConfig` to a dict."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_dict(data: Mapping[str, object]) -> CompilerConfig:
    """Rebuild a :class:`~repro.core.compiler.CompilerConfig` from a dict.

    Raises:
        ExperimentError: If the dict names unknown config fields.
    """
    valid = {f.name for f in fields(CompilerConfig)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ExperimentError(
            f"unknown CompilerConfig field(s) {unknown}; "
            f"valid fields: {sorted(valid)}"
        )
    return CompilerConfig(**dict(data))


def _program_signature(program: Program) -> str:
    """Content hash of a program's full statement tree.

    Walks every module reachable from the entry, serialising gates and
    calls with module-local qubit indices, so two in-memory programs get
    the same signature exactly when they describe the same computation —
    matching names/counts alone are not enough to collide a fingerprint.
    """
    parts: list = []
    refs: Dict[int, int] = {}

    def visit(module: QModule) -> int:
        if id(module) in refs:
            return refs[id(module)]
        ref = len(refs)
        refs[id(module)] = ref
        local = {id(qubit): index for index, qubit in
                 enumerate(tuple(module.params) + tuple(module.ancillas))}
        header = (f"m{ref}={module.name}/{len(module.params)}"
                  f"/{module.num_ancilla}")
        body = [header]
        for tag, block in (("C", module.compute), ("S", module.store),
                           ("U", module.uncompute or ())):
            body.append(tag)
            for stmt in block:
                if isinstance(stmt, GateStmt):
                    operands = ",".join(str(local[id(q)]) for q in stmt.qubits)
                    body.append(f"g:{stmt.name}:{operands}")
                else:
                    child = visit(stmt.module)
                    operands = ",".join(str(local[id(q)]) for q in stmt.args)
                    body.append(f"c:{child}:{operands}")
        parts.append("|".join(body))
        return ref

    visit(program.entry)
    digest = hashlib.sha256(";".join(parts).encode("utf-8"))
    return digest.hexdigest()


def autosize_compile(program: Program,
                     machine_for: Callable[[int], Machine],
                     config: CompilerConfig,
                     start_qubits: int = 32,
                     max_qubits: int = 1 << 16) -> CompilationResult:
    """Compile, growing the machine until the program fits.

    The single implementation of the paper's machine-size search, run
    by :func:`execute_job` for autosizing specs: start at
    ``max(start_qubits, entry params + 4)`` and double on
    :class:`~repro.exceptions.ResourceExhaustedError` up to ``max_qubits``
    (beyond which the error propagates).

    Every attempted size is clamped to ``max_qubits``: when a doubling
    overshoots the cap (say ``start_qubits=64, max_qubits=100``), the
    search tries exactly ``max_qubits`` rather than compiling on a
    machine larger than the caller allowed, and only re-raises after
    that capped attempt fails.

    A rung whose machine is smaller than the program's
    :meth:`~repro.ir.program.Program.live_qubit_floor` is still built
    and attempted, but its compile fails right after validation, before
    the program walk, so the ladder, the chosen machine and the number
    of attempts are the same as if it had been walked.
    """
    qubits = min(max(start_qubits, program.entry.num_params + 4), max_qubits)
    while True:
        machine = machine_for(qubits)
        try:
            return SquareCompiler(machine, config).compile(program)
        except ResourceExhaustedError:
            if qubits >= max_qubits:
                raise
            qubits = min(qubits * 2, max_qubits)


@dataclass(frozen=True)
class CompileJob:
    """One compilation request: program x machine x compiler config.

    Exactly one of ``benchmark`` / ``program`` must be set.  Benchmark
    jobs are fully declarative — the worker process loads the program
    itself — while program jobs carry the in-memory
    :class:`~repro.ir.program.Program` (still picklable, but heavier to
    ship to workers).

    Attributes:
        benchmark: Registered benchmark name (case insensitive).
        program: In-memory program, for workloads outside the registry.
        machine: Target machine spec.
        config: Compiler configuration (policy pair, flags).
        overrides: Benchmark size overrides as a sorted tuple of
            ``(key, value)`` pairs; dicts are accepted and normalised.
    """

    benchmark: Optional[str] = None
    program: Optional[Program] = None
    machine: MachineSpec = MachineSpec.nisq_autosize()
    config: CompilerConfig = POLICY_PRESETS["square"]
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.program is None):
            raise ExperimentError(
                "CompileJob needs exactly one of benchmark= or program="
            )
        if isinstance(self.overrides, dict):
            object.__setattr__(self, "overrides",
                               tuple(sorted(self.overrides.items())))
        else:
            object.__setattr__(self, "overrides",
                               tuple(sorted(tuple(pair) for pair in
                                            self.overrides)))
        if self.benchmark is not None:
            # Canonicalise eagerly so equal jobs spelled with different
            # capitalisation share one fingerprint (and one cache slot).
            object.__setattr__(self, "benchmark",
                               canonical_benchmark_name(self.benchmark))

    # ------------------------------------------------------------------
    @classmethod
    def for_benchmark(cls, name: str, machine: MachineSpec,
                      policy: str = "square",
                      overrides: Optional[Dict[str, object]] = None,
                      **config_overrides) -> "CompileJob":
        """Build a benchmark job from a policy preset name."""
        return cls(benchmark=name, machine=machine,
                   config=preset(policy, **config_overrides),
                   overrides=tuple(sorted((overrides or {}).items())))

    @property
    def program_label(self) -> str:
        """Display name of the job's program."""
        return self.benchmark if self.benchmark else self.program.name

    @property
    def policy_label(self) -> str:
        """Display name of the job's policy configuration."""
        return self.config.policy_name

    def load_program(self) -> Program:
        """Materialise the program this job compiles."""
        if self.program is not None:
            return self.program
        return load_benchmark(self.benchmark, **dict(self.overrides))

    # ------------------------------------------------------------------
    def descriptor(self) -> Dict[str, object]:
        """Canonical JSON-compatible description used for fingerprinting.

        Benchmark jobs are identified by name + overrides.  Program jobs
        are identified by a content hash of the full statement tree, so
        two in-memory programs share a fingerprint (and a cache slot)
        exactly when they describe the same computation.
        """
        if self.benchmark is not None:
            program_key: object = {"benchmark": self.benchmark,
                                   "overrides": list(map(list, self.overrides))}
        else:
            program_key = {
                "program": self.program.name,
                "signature": _program_signature(self.program),
            }
        return {
            "program": program_key,
            "machine": self.machine.to_dict(),
            "config": config_to_dict(self.config),
        }

    def fingerprint(self) -> str:
        """Stable hex digest identifying this job across runs and processes."""
        canonical = json.dumps(self.descriptor(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialize to the JSON descriptor the network service accepts.

        Only benchmark jobs serialize — the whole point of a descriptor
        is that the server materialises the program itself.

        Raises:
            ExperimentError: For in-memory program jobs.
        """
        if self.program is not None:
            raise ExperimentError(
                f"program job {self.program.name!r} cannot be serialized "
                f"to a JSON descriptor; register it as a benchmark "
                f"(repro.workloads.register_benchmark) and submit by name"
            )
        return {
            "benchmark": self.benchmark,
            "machine": self.machine.to_dict(),
            "config": config_to_dict(self.config),
            "overrides": [[key, value] for key, value in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CompileJob":
        """Rebuild a job from a JSON descriptor.

        Accepts both the exact :meth:`to_dict` shape and the friendlier
        hand-written form the HTTP endpoint documents: ``machine`` may be
        omitted (autosized NISQ), and ``policy`` may name a preset, with
        ``config`` then holding only the fields to override.

        Raises:
            ExperimentError: On unknown keys, a missing benchmark name,
                or config/machine contents their own parsers reject.
        """
        allowed = {"benchmark", "machine", "config", "policy", "overrides"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ExperimentError(
                f"unknown CompileJob descriptor key(s) {unknown}; "
                f"valid keys: {sorted(allowed)}"
            )
        benchmark = data.get("benchmark")
        if not benchmark:
            raise ExperimentError(
                "job descriptor needs a 'benchmark' name; in-memory "
                "programs cannot cross the service boundary"
            )
        machine = data.get("machine")
        if machine is None:
            machine = MachineSpec.nisq_autosize()
        elif isinstance(machine, Mapping):
            machine = MachineSpec.from_dict(machine)
        policy = data.get("policy")
        config_data = data.get("config") or {}
        if policy is not None:
            config = preset(policy, **dict(config_data))
        elif config_data:
            config = config_from_dict(config_data)
        else:
            config = POLICY_PRESETS["square"]
        overrides = data.get("overrides") or ()
        if not isinstance(overrides, Mapping):
            overrides = tuple(tuple(pair) for pair in overrides)
        return cls(benchmark=benchmark, machine=machine, config=config,
                   overrides=overrides)


def execute_job(job: CompileJob) -> CompilationResult:
    """Run one job to completion (the worker-side entry point).

    Autosizing specs run the shared :func:`autosize_compile` search.
    """
    program = job.load_program()
    spec = job.machine
    if not spec.autosize:
        return SquareCompiler(spec.build(), job.config).compile(program)
    return autosize_compile(program, spec.build, job.config,
                            start_qubits=spec.start_qubits,
                            max_qubits=spec.max_qubits)


def job_failure(job: CompileJob, error: Exception) -> JobFailure:
    """Capture an exception as a structured, serializable failure record."""
    return JobFailure(
        program_name=job.program_label,
        machine_name=job.machine.describe(),
        policy_name=job.policy_label,
        error_type=type(error).__name__,
        message=str(error),
    )


def execute_job_payload(job: CompileJob) -> Dict[str, object]:
    """Execute a job, capturing library failures (worker-side entry point).

    The parallel executor maps this over its pool: success and failure
    both come back as small JSON-compatible payloads, so one impossible
    job can neither tear down the whole ``pool.map`` nor lose track of
    which job it was.  Programming errors (anything that is not a
    :class:`~repro.exceptions.ReproError`) still propagate raw.
    """
    try:
        result = execute_job(job)
        # phase_seconds is telemetry-only and deliberately absent from
        # to_dict(); the executor envelope carries it across the process
        # boundary so fresh compiles still report their phase profile.
        return {"ok": True, "result": result.to_dict(),
                "phase_seconds": dict(result.phase_seconds)}
    except ReproError as error:
        return {"ok": False, "failure": job_failure(job, error).to_dict()}
