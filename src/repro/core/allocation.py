"""Qubit allocation policies.

When a module executes ``Allocate(anc, n)`` the compiler must choose *which*
machine qubits to hand out: reclaimed qubits from the ancilla heap or brand
new qubits on previously unused sites.  The baseline policy pops the heap
LIFO (the "global pool" model of prior work); the paper's Locality-Aware
Allocation (LAA, Algorithm 1) scores both options by communication
distance, serialization and area expansion and picks the cheapest.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ResourceExhaustedError
from repro.arch.topology import Topology
from repro.core.heap import AncillaHeap
from repro.scheduler.asap import GateScheduler


@dataclass
class AllocationRequest:
    """Everything an allocation policy may consult when choosing qubits.

    Attributes:
        count: Number of ancilla qubits requested.
        interacting_qubits: Virtual qubits the new ancillas will interact
            with (the result of looking ahead into the Compute block, i.e.
            ``get_interact_qubits()`` in Algorithm 1).
        heap: The ancilla heap of reclaimed qubits.
        scheduler: The gate scheduler (provides the layout, per-qubit
            clocks, the current frontier time and the live region).
        create_qubit: Callback that creates a brand new virtual qubit on a
            given physical site and returns its id.
        module_name: Name of the allocating module (for diagnostics).
    """

    count: int
    interacting_qubits: Tuple[int, ...]
    heap: AncillaHeap
    scheduler: GateScheduler
    create_qubit: Callable[[int], int]
    module_name: str = ""

    @property
    def live_qubits(self) -> Tuple[int, ...]:
        """All currently live virtual qubits, built on each read (O(live
        qubits)); a policy that needs only where they sit should read
        ``scheduler.live_region`` instead."""
        return self.scheduler.tracker.live_qubits()


class AllocationPolicy(abc.ABC):
    """Strategy for satisfying one ``Allocate`` request."""

    name = "abstract"

    @abc.abstractmethod
    def allocate(self, request: AllocationRequest) -> List[int]:
        """Return ``request.count`` virtual qubit ids, allocating as needed."""


class LifoAllocation(AllocationPolicy):
    """Baseline allocation: pop the heap LIFO, else take the next free site.

    This is the "ancilla heap as a global pool" model that Eager and Lazy
    use in the paper's evaluation: it ignores qubit locality entirely.
    """

    name = "lifo"

    def allocate(self, request: AllocationRequest) -> List[int]:
        """Pop reclaimed qubits first; otherwise claim row-major free sites."""
        allocated: List[int] = []
        layout = request.scheduler.layout
        for _ in range(request.count):
            if not request.heap.is_empty():
                allocated.append(request.heap.pop())
                continue
            site = layout.lowest_free_site()
            if site is None:
                raise ResourceExhaustedError(
                    f"module {request.module_name!r}: machine is out of qubits "
                    f"(requested {request.count})"
                )
            allocated.append(request.create_qubit(site))
        return allocated


class LocalityAwareAllocation(AllocationPolicy):
    """Locality-Aware Allocation (Algorithm 1).

    For each requested qubit the policy scores the best candidate from the
    heap and the best brand-new candidate, then picks the lower score.  The
    score combines three considerations discussed in Section III-A1:

    * communication — average hop distance to the qubits the ancilla will
      interact with;
    * serialization — reusing a qubit that is still busy in the schedule
      adds a false dependency and delays the computation;
    * area expansion — claiming a brand new qubit grows the active region,
      which lengthens future swap chains / braids.

    The live qubits enter only through the scheduler's live region
    (their site count and row and column sums), which gives the rounded
    centroid that the area term measures from and that the new-site
    search centres on when the ancilla has no interaction anchors.  One
    allocation therefore costs the same however many qubits are live: a
    heap scan, a ring walk for at most ``max_candidates`` free sites and
    their scores.  Distances come from the topology, so all-to-all
    machines keep their 0/1 hops on the same code path.

    Args:
        serialization_weight: Weight applied to the (normalised) extra wait
            time a reused qubit would impose.
        area_weight: Weight applied to the distance of a new site from the
            centroid of the live region.
    """

    name = "laa"

    def __init__(self, serialization_weight: float = 0.5,
                 area_weight: float = 0.5) -> None:
        self.serialization_weight = serialization_weight
        self.area_weight = area_weight

    # ------------------------------------------------------------------
    def allocate(self, request: AllocationRequest) -> List[int]:
        """Pick ``count`` qubits minimising the LAA score."""
        allocated: List[int] = []
        layout = request.scheduler.layout
        anchors = tuple(layout.sites_of(request.interacting_qubits))
        for _ in range(request.count):
            heap_choice = self._best_heap_candidate(request, anchors)
            new_choice = self._best_new_candidate(request, anchors)
            if heap_choice is None and new_choice is None:
                raise ResourceExhaustedError(
                    f"module {request.module_name!r}: machine is out of qubits "
                    f"(requested {request.count})"
                )
            if new_choice is None or (
                heap_choice is not None and heap_choice[1] <= new_choice[1]
            ):
                qubit, _score = heap_choice
                request.heap.remove(qubit)
            else:
                site, _score = new_choice
                qubit = request.create_qubit(site)
            allocated.append(qubit)
            anchors = anchors + (layout.site_of(qubit),)
        return allocated

    # ------------------------------------------------------------------
    @staticmethod
    def _communication_scores(topology: Topology, anchors: Sequence[int],
                              sites: Sequence[int]) -> List[float]:
        """Each site's mean hop distance to ``anchors`` (0.0 with none).

        The integer distance total is exact before the one division.
        """
        if not anchors:
            return [0.0] * len(sites)
        count = len(anchors)
        return [total / count for total in topology.distance_sums(anchors, sites)]

    def _best_heap_candidate(
        self, request: AllocationRequest, anchors: Sequence[int]
    ) -> Optional[Tuple[int, float]]:
        if request.heap.is_empty():
            return None
        scheduler = request.scheduler
        layout = scheduler.layout
        qubits = request.heap.qubits
        communication = self._communication_scores(
            layout.topology, anchors, [layout.site_of(q) for q in qubits])
        frontier = scheduler.frontier_time(request.interacting_qubits)
        swap_duration = max(scheduler.machine.swap_duration, 1)
        weight = self.serialization_weight
        qubit_time = scheduler.qubit_time
        best: Optional[Tuple[int, float]] = None
        best_score = 0.0
        for qubit, comm in zip(qubits, communication):
            wait = max(qubit_time(qubit) - frontier, 0)
            score = comm + weight * wait / swap_duration
            if best is None or score < best_score:
                best = (qubit, score)
                best_score = score
        return best

    def _best_new_candidate(
        self, request: AllocationRequest, anchors: Sequence[int],
        max_candidates: int = 32,
    ) -> Optional[Tuple[int, float]]:
        scheduler = request.scheduler
        layout = scheduler.layout
        topology = layout.topology
        count, row_sum, col_sum = scheduler.live_region
        if anchors:
            free = layout.nearest_free_sites(anchors, limit=max_candidates)
        else:
            free = layout.free_sites_near(count, row_sum, col_sum,
                                          limit=max_candidates)
        if not free:
            return None
        scores = self._communication_scores(topology, anchors, free)
        if count:
            centroid = topology.centroid_of_sums(count, row_sum, col_sum)
            weight = self.area_weight
            scores = [comm + weight * hops for comm, hops in
                      zip(scores, topology.distances_from(centroid, free))]
        best: Optional[Tuple[int, float]] = None
        best_score = 0.0
        for site, score in zip(free, scores):
            if best is None or score < best_score:
                best = (site, score)
                best_score = score
        return best
