"""Figure 9: normalized AQV on medium-scale (NISQ-FT boundary) machines.

The large benchmarks of Table II are compiled onto lattice machines with
swap-based communication (hundreds to thousands of qubits, no error
correction) under Lazy, Eager, SQUARE(LAA only) and SQUARE; every AQV is
normalised to the Lazy policy, matching the presentation of Figure 9.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.metrics import geometric_mean, normalized_aqv
from repro.api import Session, SweepSpec
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    get_session,
    nisq_lattice_spec,
)
from repro.workloads.registry import LARGE_BENCHMARKS

POLICIES: Sequence[str] = DEFAULT_POLICIES


def run(benchmarks: Sequence[str] = tuple(LARGE_BENCHMARKS),
        policies: Sequence[str] = POLICIES,
        scale: str = "laptop",
        session: Optional[Session] = None) -> ExperimentResult:
    """Compile every large benchmark under every policy on lattice machines."""
    session = get_session(session)
    spec = SweepSpec(
        benchmarks=tuple(benchmarks),
        machines=(nisq_lattice_spec(start_qubits=64),),
        policies=tuple(policies),
        scales=(scale,),
    )
    sweep = session.run(spec)

    rows = []
    reductions = []
    raw: Dict[str, Dict[str, object]] = {}
    for name in benchmarks:
        suite = sweep.suite(benchmark=name)
        normalized = normalized_aqv(suite, baseline="lazy")
        row: Dict[str, object] = {"benchmark": name}
        for policy in policies:
            row[policy] = normalized[policy]
        rows.append(row)
        raw[name] = {policy: suite[policy].active_quantum_volume
                     for policy in policies}
        if normalized["square"] > 0:
            reductions.append(1.0 / normalized["square"])
    experiment = ExperimentResult(name="figure9", rows=rows)
    experiment.extras["raw_aqv"] = raw
    # Ratios average geometrically; an arithmetic mean hides the losses.
    experiment.extras["geomean_reduction_vs_lazy"] = geometric_mean(reductions)
    experiment.extras["square_losses"] = sum(1 for r in reductions if r < 1.0)
    return experiment


def format_report(experiment: ExperimentResult) -> str:
    """Text rendering with the geometric-mean SQUARE-vs-Lazy reduction
    factor and the number of benchmarks where SQUARE loses to Lazy."""
    from repro.analysis.report import format_comparison

    text = format_comparison(
        "Figure 9: normalized AQV on NISQ-FT boundary machines "
        "(normalised to Lazy; lower is better)",
        experiment.rows,
    )
    mean = experiment.extras.get("geomean_reduction_vs_lazy", 0.0)
    losses = experiment.extras.get("square_losses", 0)
    text += (f"geometric-mean AQV reduction of SQUARE vs Lazy: {mean:.2f}x; "
             f"SQUARE loses on {losses} of {len(experiment.rows)} "
             f"benchmarks\n")
    return text
