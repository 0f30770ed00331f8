"""Sweep specs and sweep results.

:class:`SweepSpec` expands benchmarks x machines x policies x scales into
an ordered :class:`~repro.api.job.CompileJob` list; a
:class:`~repro.api.session.Session` executes it into a
:class:`SweepResult`, which supports filtering, tabulation and JSON/CSV
export — the shape every experiment module and the CLI share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.verify.diagnostics import VerificationReport

from repro.exceptions import ExperimentError
from repro.api.job import (
    CompileJob,
    MachineSpec,
    config_from_dict,
    config_to_dict,
)
from repro.core.compiler import CompilerConfig, preset
from repro.core.result import CompilationResult, JobFailure
from repro.workloads.registry import SCALES, benchmark_overrides

#: A policy is a preset name (``"square"``) or an explicit config.
PolicyLike = Union[str, CompilerConfig]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a compilation sweep.

    The job list is the cartesian product ``scales x benchmarks x
    machines x policies``, in that nesting order (policies innermost), so
    rows group naturally by benchmark the way the paper's tables do.
    ``with_*`` methods return updated copies, allowing builder-style
    chaining::

        spec = (SweepSpec()
                .with_benchmarks("RD53", "ADDER4")
                .with_machines(MachineSpec.nisq_grid(5, 5))
                .with_policies("lazy", "square")
                .with_config(decompose_toffoli=True))
        result = Session(jobs=4).run(spec)

    Attributes:
        benchmarks: Registered benchmark names.
        machines: Target machine specs.
        policies: Policy preset names or explicit configs.
        scales: Benchmark size scales (``"quick"``/``"laptop"``/``"paper"``);
            scaling only affects benchmarks with registered overrides.
        config_overrides: :class:`~repro.core.compiler.CompilerConfig`
            field overrides applied to every named-preset policy.
    """

    benchmarks: Sequence[str] = ()
    machines: Sequence[MachineSpec] = (MachineSpec.nisq_autosize(),)
    policies: Sequence[PolicyLike] = ("lazy", "eager", "square-laa", "square")
    scales: Sequence[str] = ("laptop",)
    config_overrides: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def with_benchmarks(self, *names: str) -> "SweepSpec":
        """Copy of this spec targeting the given benchmarks."""
        return replace(self, benchmarks=tuple(names))

    def with_machines(self, *machines: MachineSpec) -> "SweepSpec":
        """Copy of this spec targeting the given machines."""
        return replace(self, machines=tuple(machines))

    def with_policies(self, *policies: PolicyLike) -> "SweepSpec":
        """Copy of this spec evaluating the given policies."""
        return replace(self, policies=tuple(policies))

    def with_scales(self, *scales: str) -> "SweepSpec":
        """Copy of this spec at the given benchmark scales."""
        return replace(self, scales=tuple(scales))

    def with_config(self, **overrides) -> "SweepSpec":
        """Copy of this spec with extra compiler-config overrides."""
        merged = {**dict(self.config_overrides), **overrides}
        return replace(self, config_overrides=merged)

    # ------------------------------------------------------------------
    def _resolve_config(self, policy: PolicyLike) -> CompilerConfig:
        if isinstance(policy, CompilerConfig):
            return policy
        return preset(policy, **dict(self.config_overrides))

    def jobs(self) -> List[CompileJob]:
        """Expand the sweep into its ordered job list."""
        if not self.benchmarks:
            raise ExperimentError("SweepSpec has no benchmarks to expand")
        for scale in self.scales:
            if scale not in SCALES:
                raise ExperimentError(
                    f"unknown scale {scale!r}; use one of {list(SCALES)}"
                )
        expanded: List[CompileJob] = []
        for scale in self.scales:
            for benchmark in self.benchmarks:
                overrides = benchmark_overrides(benchmark, scale)
                for machine in self.machines:
                    for policy in self.policies:
                        expanded.append(CompileJob(
                            benchmark=benchmark,
                            machine=machine,
                            config=self._resolve_config(policy),
                            overrides=tuple(sorted(overrides.items())),
                        ))
        return expanded

    def __len__(self) -> int:
        return (len(self.scales) * len(self.benchmarks) * len(self.machines)
                * len(self.policies))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialize to the JSON descriptor the network service accepts.

        Named policies serialize as their names; explicit
        :class:`~repro.core.compiler.CompilerConfig` policies as full
        field dicts.
        """
        return {
            "benchmarks": list(self.benchmarks),
            "machines": [machine.to_dict() for machine in self.machines],
            "policies": [policy if isinstance(policy, str)
                         else config_to_dict(policy)
                         for policy in self.policies],
            "scales": list(self.scales),
            "config_overrides": dict(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec from a JSON descriptor; absent keys keep defaults.

        Raises:
            ExperimentError: On unknown keys or malformed machine/policy
                entries.
        """
        allowed = {"benchmarks", "machines", "policies", "scales",
                   "config_overrides"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ExperimentError(
                f"unknown SweepSpec descriptor key(s) {unknown}; "
                f"valid keys: {sorted(allowed)}"
            )
        kwargs: Dict[str, object] = {}
        if "benchmarks" in data:
            kwargs["benchmarks"] = tuple(data["benchmarks"])
        if "machines" in data:
            kwargs["machines"] = tuple(
                machine if isinstance(machine, MachineSpec)
                else MachineSpec.from_dict(machine)
                for machine in data["machines"]
            )
        if "policies" in data:
            kwargs["policies"] = tuple(
                policy if isinstance(policy, str)
                else config_from_dict(policy)
                for policy in data["policies"]
            )
        if "scales" in data:
            kwargs["scales"] = tuple(data["scales"])
        if "config_overrides" in data:
            kwargs["config_overrides"] = dict(data["config_overrides"])
        return cls(**kwargs)


#: Headline metric columns shared by every sweep row.
ROW_METRIC_KEYS = ("gates", "qubits", "peak_live", "depth", "swaps", "aqv",
                   "uncompute_gates")


@dataclass(frozen=True)
class SweepEntry:
    """One executed job inside a :class:`SweepResult`.

    Attributes:
        job: The job as submitted.
        result: Its compilation result, or None when the job failed
            under failure isolation.
        error: The structured failure record when the job raised instead
            of completing (failure isolation only); None on success.
        cached: True when the session served the result from its memo
            cache instead of executing the job.
        disk_hit: True when the result was restored from the session's
            persistent disk tier during this run (a subset of
            ``cached``); False for pure memory hits and fresh compiles.
        verification: Static-verifier report for the result when the
            session ran with ``verify=True``
            (a :class:`~repro.verify.diagnostics.VerificationReport`);
            None when verification was off or the job failed.
    """

    job: CompileJob
    result: Optional[CompilationResult]
    error: Optional[JobFailure] = None
    cached: bool = False
    disk_hit: bool = False
    verification: Optional["VerificationReport"] = None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ExperimentError(
                "SweepEntry needs exactly one of result= or error="
            )

    @property
    def ok(self) -> bool:
        """True when the job produced a result."""
        return self.error is None

    def to_record(self) -> Dict[str, object]:
        """The wire record of this entry (``/sweep`` and job entry
        streams): job coordinates, provenance flags, then the result
        (and verification report) or the failure."""
        record: Dict[str, object] = {
            "ok": self.ok,
            "fingerprint": self.job.fingerprint(),
            "benchmark": self.job.program_label,
            "policy": self.job.policy_label,
            "machine": self.job.machine.describe(),
            "cached": self.cached,
            "disk_hit": self.disk_hit,
        }
        if self.ok:
            record["result"] = self.result.to_dict()
            if self.verification is not None:
                record["verification"] = self.verification.to_dict()
        else:
            record["error"] = self.error.to_dict()
        return record

    @classmethod
    def from_record(cls, job: CompileJob,
                    record: Mapping[str, object]) -> "SweepEntry":
        """Rebuild the entry :meth:`to_record` wrote for ``job``."""
        verification = None
        if record.get("verification") is not None:
            from repro.verify import VerificationReport

            verification = VerificationReport.from_dict(
                record["verification"])
        ok = bool(record.get("ok"))
        return cls(
            job=job,
            result=CompilationResult.from_dict(record["result"])
            if ok else None,
            error=None if ok else JobFailure.from_dict(record["error"]),
            cached=bool(record.get("cached", False)),
            disk_hit=bool(record.get("disk_hit", False)),
            verification=verification,
        )

    def row(self) -> Dict[str, object]:
        """Flat table row: job coordinates + headline metrics.

        Failed entries keep the same coordinate columns, leave the metric
        columns empty, and add an ``error`` column, so mixed sweeps still
        tabulate and export cleanly.
        """
        row: Dict[str, object] = {
            "benchmark": self.job.program_label,
            "policy": self.job.policy_label,
        }
        if self.error is not None:
            row["machine"] = self.error.machine_name
            for key in ROW_METRIC_KEYS:
                row[key] = ""
            row["error"] = self.error.describe()
            return row
        row["machine"] = self.result.machine_name
        summary = self.result.summary()
        for key in ROW_METRIC_KEYS:
            row[key] = summary[key]
        if self.verification is not None:
            if self.verification.findings:
                rules = ",".join(self.verification.rules_violated())
                row["verify"] = (f"{len(self.verification.findings)} "
                                 f"finding(s) [{rules}]")
            else:
                row["verify"] = "ok"
        return row


class SweepResult:
    """Ordered collection of executed sweep entries.

    Supports list-style access, coordinate filtering, tabulation through
    :func:`repro.analysis.report.format_table`, and JSON/CSV export.
    """

    def __init__(self, entries: Sequence[SweepEntry]) -> None:
        self.entries = list(entries)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SweepEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> SweepEntry:
        return self.entries[index]

    def results(self) -> List[Optional[CompilationResult]]:
        """Every result, in job-submission order.

        Entries that failed under failure isolation contribute None;
        check :attr:`ok` or :meth:`failures` first when a batch may
        contain failures.
        """
        return [entry.result for entry in self.entries]

    def failures(self) -> List[SweepEntry]:
        """The entries whose jobs failed, in job-submission order."""
        return [entry for entry in self.entries if not entry.ok]

    def verification_failures(self) -> List[SweepEntry]:
        """Entries whose attached verification report has findings.

        Empty both when every verified entry is clean and when the sweep
        ran without verification (no reports attached at all).
        """
        return [entry for entry in self.entries
                if entry.verification is not None
                and entry.verification.findings]

    @property
    def ok(self) -> bool:
        """True when every entry completed successfully."""
        return all(entry.ok for entry in self.entries)

    @property
    def cache_hits(self) -> int:
        """How many entries were served from the session cache."""
        return sum(1 for entry in self.entries if entry.cached)

    # ------------------------------------------------------------------
    def filter(self, benchmark: Optional[str] = None,
               policy: Optional[str] = None,
               machine: Optional[MachineSpec] = None) -> "SweepResult":
        """Entries matching every given coordinate (case-insensitive names)."""
        kept = []
        for entry in self.entries:
            if benchmark is not None and (
                    entry.job.program_label.lower() != benchmark.lower()):
                continue
            if policy is not None and (
                    entry.job.policy_label.lower() != policy.lower()):
                continue
            if machine is not None and entry.job.machine != machine:
                continue
            kept.append(entry)
        return SweepResult(kept)

    def get(self, benchmark: Optional[str] = None,
            policy: Optional[str] = None,
            machine: Optional[MachineSpec] = None) -> CompilationResult:
        """The unique result at the given coordinates.

        Raises:
            ExperimentError: If no entry, or more than one, matches.
            ReproError: The matched job's own error, when it failed under
                failure isolation.
        """
        matches = self.filter(benchmark=benchmark, policy=policy,
                              machine=machine)
        if len(matches) != 1:
            raise ExperimentError(
                f"expected exactly one result for benchmark={benchmark!r} "
                f"policy={policy!r}, found {len(matches)}"
            )
        entry = matches[0]
        if entry.error is not None:
            raise entry.error.to_exception()
        return entry.result

    def suite(self, benchmark: Optional[str] = None,
              machine: Optional[MachineSpec] = None
              ) -> Dict[str, CompilationResult]:
        """Results keyed by policy label, in execution order.

        The shape the analysis helpers (e.g.
        :func:`repro.analysis.metrics.normalized_aqv`) consume.

        Raises:
            ExperimentError: If two in-scope entries share a policy label
                (i.e. the scope still spans several machines or scales) —
                narrow it with ``benchmark``/``machine`` filters first.
            ReproError: An in-scope job's own error, when it failed under
                failure isolation — a suite of results must not silently
                hold a None.
        """
        scoped = self.filter(benchmark=benchmark, machine=machine)
        suite: Dict[str, CompilationResult] = {}
        for entry in scoped:
            if entry.error is not None:
                raise entry.error.to_exception()
            label = entry.job.policy_label
            if label in suite:
                raise ExperimentError(
                    f"suite() scope is ambiguous: several entries share "
                    f"policy label {label!r}; filter by benchmark/machine "
                    f"(or iterate filter() results) instead"
                )
            suite[label] = entry.result
        return suite

    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """Flat table rows for every entry.

        When any entry failed, every row carries the ``error`` column
        (empty for successes) so the row schema stays uniform for CSV
        export and table rendering.
        """
        rows = [entry.row() for entry in self.entries]
        for column in ("verify", "error"):
            if any(column in row for row in rows):
                for row in rows:
                    row.setdefault(column, "")
        return rows

    def table(self, title: Optional[str] = None) -> str:
        """Aligned text table of the headline metrics."""
        from repro.analysis.report import format_comparison, format_table

        if title:
            return format_comparison(title, self.rows())
        return format_table(self.rows())

    def to_json(self, path: Optional[str] = None, *,
                full: bool = False) -> str:
        """Serialize to JSON (headline rows, or full results with ``full``).

        Args:
            path: Optional file to write; the JSON text is returned either
                way.
            full: Export complete
                :meth:`~repro.core.result.CompilationResult.to_dict`
                payloads instead of headline rows.
        """
        from repro.analysis.report import export_rows

        if full:
            rows: List[Dict[str, object]] = [
                {"benchmark": entry.job.program_label,
                 "policy": entry.job.policy_label,
                 "fingerprint": entry.job.fingerprint(),
                 "ok": entry.ok,
                 **({"result": entry.result.to_dict()} if entry.ok
                    else {"error": entry.error.to_dict()})}
                for entry in self.entries
            ]
        else:
            rows = self.rows()
        return export_rows(rows, path=path, fmt="json")

    def to_csv(self, path: Optional[str] = None) -> str:
        """Serialize the headline rows to CSV (optionally writing ``path``)."""
        from repro.analysis.report import export_rows

        return export_rows(self.rows(), path=path, fmt="csv")

    def __repr__(self) -> str:
        return (f"SweepResult(entries={len(self.entries)}, "
                f"cache_hits={self.cache_hits})")
