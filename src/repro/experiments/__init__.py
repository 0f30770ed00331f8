"""Experiment harness: one module per table / figure of the evaluation.

Every experiment accepts an optional shared :class:`~repro.api.Session`
and compiles exclusively through it, so one CLI invocation (or one test
run) shares a single memo cache and executor across all experiments.
"""

from repro.experiments import (
    figure1,
    figure5,
    figure8,
    figure9,
    figure10,
    table3,
    table4,
)
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    benchmark_overrides,
    get_session,
    load_scaled_benchmark,
)

#: Registry of experiment runners keyed by the figure/table they regenerate.
EXPERIMENTS = {
    "figure1": (figure1.run, figure1.format_report),
    "figure5": (figure5.run, figure5.format_report),
    "table3": (table3.run, table3.format_report),
    "figure8a": (figure8.run_aqv, figure8.format_report),
    "figure8b": (figure8.run_success, figure8.format_report),
    "figure8c": (figure8.run_noise, figure8.format_report),
    "figure9": (figure9.run, figure9.format_report),
    "figure10": (figure10.run, figure10.format_report),
    "table4": (table4.run, table4.format_report),
}

__all__ = [
    "DEFAULT_POLICIES",
    "EXPERIMENTS",
    "ExperimentResult",
    "benchmark_overrides",
    "get_session",
    "load_scaled_benchmark",
]
