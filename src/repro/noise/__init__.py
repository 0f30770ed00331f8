"""Noise models, simulators and success-rate estimation."""

from repro.noise.analytical import (
    SuccessEstimate,
    estimate_success,
    improvement_over,
    success_rates,
)
from repro.noise.models import TABLE_IV_DEVICES, NoiseModel, table_iv_rows
from repro.noise.monte_carlo import (
    MonteCarloSimulator,
    NoisyRunResult,
    total_variation_distance,
    tvd_from_ideal,
)

__all__ = [
    "MonteCarloSimulator",
    "NoiseModel",
    "NoisyRunResult",
    "SuccessEstimate",
    "TABLE_IV_DEVICES",
    "estimate_success",
    "improvement_over",
    "success_rates",
    "table_iv_rows",
    "total_variation_distance",
    "tvd_from_ideal",
]
