"""Figure 10: normalized AQV on fault-tolerant (braided) machines.

Same benchmarks and policies as Figure 9, but the target machine is the
surface-code FT model: communication happens by braiding, and logical
gate durations follow the FT duration table.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import Session
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    format_normalized_aqv,
    ft_lattice_spec,
    normalized_aqv_experiment,
)
from repro.workloads.registry import LARGE_BENCHMARKS

POLICIES: Sequence[str] = DEFAULT_POLICIES


def run(benchmarks: Sequence[str] = tuple(LARGE_BENCHMARKS),
        policies: Sequence[str] = POLICIES,
        scale: str = "laptop",
        session: Optional[Session] = None) -> ExperimentResult:
    """Compile every large benchmark on FT machines and normalise to Lazy."""
    return normalized_aqv_experiment("figure10", ft_lattice_spec(start_qubits=64),
                                     benchmarks, policies, scale, session)


def format_report(experiment: ExperimentResult) -> str:
    """Text rendering with the geometric-mean SQUARE-vs-Lazy reduction
    factor and the number of benchmarks where SQUARE loses to Lazy."""
    return format_normalized_aqv(
        "Figure 10: normalized AQV on fault-tolerant machines "
        "(normalised to Lazy; lower is better)",
        experiment)
