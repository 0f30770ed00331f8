"""Machine architecture models: topologies, layouts, NISQ and FT machines."""

from repro.arch.braid import Braid, BraidRequest, BraidTracker, manhattan_route
from repro.arch.ft import FT_GATE_DURATIONS, FTMachine
from repro.arch.machine import (
    DEFAULT_GATE_DURATIONS,
    CommunicationResult,
    NO_COMMUNICATION,
    IdealMachine,
    Machine,
)
from repro.arch.mapping import Layout
from repro.arch.nisq import (
    IBM_SUPERCONDUCTING,
    IONQ_TRAPPED_ION,
    SIMULATION_NOISE,
    NISQMachine,
    NoiseParameters,
)
from repro.arch.topology import Topology

__all__ = [
    "Braid",
    "BraidRequest",
    "BraidTracker",
    "CommunicationResult",
    "DEFAULT_GATE_DURATIONS",
    "FTMachine",
    "FT_GATE_DURATIONS",
    "IBM_SUPERCONDUCTING",
    "IONQ_TRAPPED_ION",
    "IdealMachine",
    "Layout",
    "Machine",
    "NISQMachine",
    "NO_COMMUNICATION",
    "NoiseParameters",
    "SIMULATION_NOISE",
    "Topology",
    "manhattan_route",
]
