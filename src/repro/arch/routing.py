"""Swap-chain routing for NISQ machines.

On a NISQ device a two-qubit gate between non-adjacent physical sites is
resolved by a chain of SWAP gates that moves one operand next to the other
(Section II-C1).  Each SWAP costs three CNOTs; the time to complete the
chain is proportional to its length.  The router computes the chain and
reports the swaps performed so the scheduler can update the layout and the
compiler can maintain its running communication-cost estimate ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.arch.topology import Topology


class SwapStep(NamedTuple):
    """One SWAP along a routing chain (a named pair: cheap to build and
    unpack, since a route makes one per hop).

    Attributes:
        site_a: First physical site of the swap.
        site_b: Second physical site of the swap.
    """

    site_a: int
    site_b: int


@dataclass(frozen=True)
class Route:
    """A resolved two-qubit interaction.

    Attributes:
        source: Site of the qubit that moves.
        destination: Site of the stationary qubit.
        path: Site path from source to destination inclusive.
        swaps: Swap steps needed to bring the operands adjacent.
    """

    source: int
    destination: int
    path: Tuple[int, ...]
    swaps: Tuple[SwapStep, ...]

    @property
    def num_swaps(self) -> int:
        """Number of swap gates required."""
        return len(self.swaps)

    @property
    def distance(self) -> int:
        """Hop distance between source and destination."""
        return max(len(self.path) - 1, 0)


class SwapRouter:
    """Shortest-path swap-chain router over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The routed topology."""
        return self._topology

    def route(self, site_a: int, site_b: int) -> Route:
        """Compute the swap chain that makes ``site_a`` adjacent to ``site_b``.

        The qubit at ``site_a`` is moved along a shortest path until it sits
        next to ``site_b``; the qubit at ``site_b`` stays put.  For adjacent
        (or identical) sites no swaps are needed.
        """
        topology = self._topology
        if site_a == site_b or topology.are_adjacent(site_a, site_b):
            return Route(source=site_a, destination=site_b,
                         path=(site_a, site_b) if site_a != site_b else (site_a,),
                         swaps=())
        path = topology.shortest_path(site_a, site_b)
        # Move the source qubit along the path, stopping one hop short of
        # the destination.
        swaps = tuple(map(SwapStep, path[:-2], path[1:-1]))
        return Route(source=site_a, destination=site_b, path=tuple(path), swaps=swaps)

    def swap_distance(self, site_a: int, site_b: int) -> int:
        """Number of swaps a gate between these sites would need."""
        if site_a == site_b:
            return 0
        distance = self._topology.distance(site_a, site_b)
        return max(distance - 1, 0)
