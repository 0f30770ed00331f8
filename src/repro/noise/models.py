"""Noise model definitions (Table IV).

The simulation noise model combines depolarizing gate errors with
T1/T2 thermal relaxation, with the parameters of the "Our Simulation"
row of Table IV.  The same dataclass also carries the published device
figures (IBM superconducting, IonQ trapped ion) so Table IV can be
regenerated verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.arch.nisq import (
    IBM_SUPERCONDUCTING,
    IONQ_TRAPPED_ION,
    SIMULATION_NOISE,
    NoiseParameters,
)


@dataclass(frozen=True)
class NoiseModel:
    """A concrete noise model for circuit-level simulation.

    Attributes:
        parameters: Physical error rates and coherence times.
        name: Model name used in reports.
    """

    parameters: NoiseParameters = SIMULATION_NOISE
    name: str = "simulation"

    # ------------------------------------------------------------------
    @property
    def single_qubit_error(self) -> float:
        """Depolarizing probability per single-qubit gate."""
        return self.parameters.single_qubit_error

    @property
    def two_qubit_error(self) -> float:
        """Depolarizing probability per two-qubit gate."""
        return self.parameters.two_qubit_error

    def gate_error(self, num_qubits: int) -> float:
        """Depolarizing probability for a gate of the given arity."""
        if num_qubits <= 1:
            return self.single_qubit_error
        if num_qubits == 2:
            return self.two_qubit_error
        # Multi-qubit gates (undecomposed Toffolis) are charged as the
        # equivalent of their two-qubit decomposition (six CNOTs).
        return min(1.0, 6 * self.two_qubit_error)

    def idle_flip_probability(self, duration_units: int) -> float:
        """Probability a qubit relaxes (1 -> 0) while idling for ``duration``.

        Uses the exponential T1 model with the per-unit gate time of the
        noise parameters.
        """
        if duration_units <= 0:
            return 0.0
        t_us = duration_units * self.parameters.gate_time_us
        return 1.0 - math.exp(-t_us / self.parameters.t1_us)


#: The three rows of Table IV.
TABLE_IV_DEVICES: Mapping[str, NoiseParameters] = {
    "IBM-Sup": IBM_SUPERCONDUCTING,
    "IonQ-Trap": IONQ_TRAPPED_ION,
    "Our Simulation": SIMULATION_NOISE,
}


def table_iv_rows() -> list[Dict[str, object]]:
    """Reproduce Table IV as a list of report rows."""
    qubit_counts = {"IBM-Sup": 20, "IonQ-Trap": 79, "Our Simulation": "< 20"}
    rows = []
    for name, params in TABLE_IV_DEVICES.items():
        rows.append({
            "device": name,
            "# Qubits": qubit_counts[name],
            "single": f"{params.single_qubit_error:.1%}",
            "two": f"{params.two_qubit_error:.1%}",
            "T1 (us)": params.t1_us,
            "T2 (us)": params.t2_us,
        })
    return rows
