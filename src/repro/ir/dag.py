"""Gate-level parallelism of flat circuits.

Gates that share a qubit are data-dependent; gates on disjoint qubits can
run in parallel.  :func:`asap_layers` groups gates by earliest start and
:func:`parallelism_profile` summarises the layer widths.  The circuit's
critical-path length is :meth:`~repro.ir.circuit.Circuit.depth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.ir.circuit import Circuit


def asap_layers(circuit: Circuit) -> List[List[int]]:
    """Partition gate indices into ASAP layers (greedy earliest start)."""
    layer_of: Dict[int, int] = {}
    wire_layer: Dict[int, int] = {}
    for index, gate in enumerate(circuit):
        if not gate.qubits:
            layer_of[index] = 0
            continue
        start = max((wire_layer.get(q, 0) for q in gate.qubits), default=0)
        layer_of[index] = start
        for q in gate.qubits:
            wire_layer[q] = start + 1
    if not layer_of:
        return []
    depth = max(layer_of.values()) + 1
    layers: List[List[int]] = [[] for _ in range(depth)]
    for index, layer in layer_of.items():
        layers[layer].append(index)
    return layers


@dataclass(frozen=True)
class ParallelismProfile:
    """Summary of available gate-level parallelism in a circuit.

    Attributes:
        depth: Number of ASAP layers.
        total_gates: Total gate count.
        max_width: Maximum gates in any single layer.
        average_width: Mean gates per layer.
    """

    depth: int
    total_gates: int
    max_width: int
    average_width: float


def parallelism_profile(circuit: Circuit) -> ParallelismProfile:
    """Compute the parallelism profile of ``circuit``."""
    layers = asap_layers(circuit)
    total = sum(len(layer) for layer in layers)
    if not layers:
        return ParallelismProfile(depth=0, total_gates=0, max_width=0, average_width=0.0)
    return ParallelismProfile(
        depth=len(layers),
        total_gates=total,
        max_width=max(len(layer) for layer in layers),
        average_width=total / len(layers),
    )
