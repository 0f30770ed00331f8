"""Figure 9: normalized AQV on medium-scale (NISQ-FT boundary) machines.

The large benchmarks of Table II are compiled onto lattice machines with
swap-based communication (hundreds to thousands of qubits, no error
correction) under Lazy, Eager, SQUARE(LAA only) and SQUARE; every AQV is
normalised to the Lazy policy, matching the presentation of Figure 9.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import Session
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    format_normalized_aqv,
    nisq_lattice_spec,
    normalized_aqv_experiment,
)
from repro.workloads.registry import LARGE_BENCHMARKS

POLICIES: Sequence[str] = DEFAULT_POLICIES


def run(benchmarks: Sequence[str] = tuple(LARGE_BENCHMARKS),
        policies: Sequence[str] = POLICIES,
        scale: str = "laptop",
        session: Optional[Session] = None) -> ExperimentResult:
    """Compile every large benchmark under every policy on lattice machines."""
    return normalized_aqv_experiment("figure9", nisq_lattice_spec(start_qubits=64),
                                     benchmarks, policies, scale, session)


def format_report(experiment: ExperimentResult) -> str:
    """Text rendering with the geometric-mean SQUARE-vs-Lazy reduction
    factor and the number of benchmarks where SQUARE loses to Lazy."""
    return format_normalized_aqv(
        "Figure 9: normalized AQV on NISQ-FT boundary machines "
        "(normalised to Lazy; lower is better)",
        experiment)
