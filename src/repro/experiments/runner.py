"""Shared experiment infrastructure.

Every experiment module expands its benchmark x policy grid into a
:class:`~repro.api.SweepSpec` and executes it through a
:class:`~repro.api.Session` (passed in by the CLI so all experiments
share one memo cache and one executor), then post-processes the
:class:`~repro.core.result.CompilationResult` objects into the rows or
series of the corresponding table / figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import geometric_mean, normalized_aqv
from repro.api import MachineSpec, Session, SweepSpec

#: Policies evaluated throughout Section V, in presentation order.
DEFAULT_POLICIES: Sequence[str] = ("lazy", "eager", "square-laa", "square")


@dataclass
class ExperimentResult:
    """Generic experiment output: rows plus free-form extra data.

    Attributes:
        name: Experiment identifier (e.g. ``"figure9"``).
        rows: Table rows ready for :func:`repro.analysis.report.format_table`.
        extras: Any additional structured data (curves, summaries).
    """

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)


def get_session(session: Optional[Session] = None) -> Session:
    """The session an experiment should compile through.

    Experiments accept an optional shared session (the CLI provides one
    covering the whole invocation, with ``--jobs N`` parallelism); when
    called directly they fall back to a private serial session.
    """
    return session if session is not None else Session()


# ----------------------------------------------------------------------
# Machine-spec shorthands shared by the experiment modules
# ----------------------------------------------------------------------
def nisq_lattice_spec(start_qubits: int = 32) -> MachineSpec:
    """Autosized lattice NISQ machines (Figures 1 and 9)."""
    return MachineSpec.nisq_autosize(start_qubits=start_qubits)


def ft_lattice_spec(start_qubits: int = 32) -> MachineSpec:
    """Autosized surface-code FT machines (Figure 10)."""
    return MachineSpec.ft_autosize(start_qubits=start_qubits)


# ----------------------------------------------------------------------
# Figures 9 and 10: AQV normalised to Lazy
# ----------------------------------------------------------------------
def normalized_aqv_experiment(name: str, machine: MachineSpec,
                              benchmarks: Sequence[str],
                              policies: Sequence[str], scale: str,
                              session: Optional[Session]) -> ExperimentResult:
    """Compile every benchmark under every policy on ``machine`` and
    normalise each AQV to Lazy's.

    ``extras`` holds the raw AQVs, the geometric-mean SQUARE-vs-Lazy
    reduction factor and the number of benchmarks where SQUARE loses to
    Lazy: ratios average geometrically, and an arithmetic mean hides the
    losses.
    """
    sweep = get_session(session).run(SweepSpec(
        benchmarks=tuple(benchmarks), machines=(machine,),
        policies=tuple(policies), scales=(scale,)))
    rows = []
    raw: Dict[str, Dict[str, object]] = {}
    for benchmark in benchmarks:
        suite = sweep.suite(benchmark=benchmark)
        normalized = normalized_aqv(suite, baseline="lazy")
        rows.append({"benchmark": benchmark,
                     **{policy: normalized[policy] for policy in policies}})
        raw[benchmark] = {policy: suite[policy].active_quantum_volume
                          for policy in policies}
    reductions = [1.0 / row["square"] for row in rows if row["square"] > 0]
    experiment = ExperimentResult(name=name, rows=rows)
    experiment.extras["raw_aqv"] = raw
    experiment.extras["geomean_reduction_vs_lazy"] = geometric_mean(reductions)
    experiment.extras["square_losses"] = sum(1 for r in reductions if r < 1.0)
    return experiment


def format_normalized_aqv(title: str, experiment: ExperimentResult) -> str:
    """Text rendering with the geometric-mean SQUARE-vs-Lazy reduction
    factor and the number of benchmarks where SQUARE loses to Lazy."""
    from repro.analysis.report import format_comparison

    mean = experiment.extras.get("geomean_reduction_vs_lazy", 0.0)
    losses = experiment.extras.get("square_losses", 0)
    return (format_comparison(title, experiment.rows)
            + f"geometric-mean AQV reduction of SQUARE vs Lazy: {mean:.2f}x; "
            f"SQUARE loses on {losses} of {len(experiment.rows)} benchmarks\n")
