"""Tests for the allocation policies (LIFO baseline and LAA)."""

import random

import pytest

import repro.core.compiler
from repro.api import CompileJob, MachineSpec, execute_job
from repro.exceptions import ResourceExhaustedError
from repro.arch.nisq import NISQMachine
from repro.arch.topology import Topology
from repro.core.allocation import (
    AllocationRequest,
    LifoAllocation,
    LocalityAwareAllocation,
)
from repro.core.heap import AncillaHeap
from repro.scheduler.asap import GateScheduler
from tests.test_golden import SIZED_PROGRAMS
from tests.test_scheduler import recomputed_live_region


def _environment(grid=3, placed=()):
    machine = NISQMachine.grid(grid, grid)
    scheduler = GateScheduler(machine)
    heap = AncillaHeap()
    counter = [0]
    for virtual, site in placed:
        scheduler.register_qubit(virtual, site)
        counter[0] = max(counter[0], virtual + 1)

    def create_qubit(site: int) -> int:
        virtual = counter[0]
        counter[0] += 1
        scheduler.register_qubit(virtual, site)
        return virtual

    return machine, scheduler, heap, create_qubit


def _request(scheduler, heap, create_qubit, count=1, interacting=(), live=()):
    for qubit in live:
        scheduler.allocate(qubit, 0)
    return AllocationRequest(
        count=count,
        interacting_qubits=tuple(interacting),
        heap=heap,
        scheduler=scheduler,
        create_qubit=create_qubit,
        module_name="test",
    )


class TestLifoAllocation:
    def test_pops_heap_first(self):
        _, scheduler, heap, create = _environment(placed=[(0, 0), (1, 1)])
        heap.push(0)
        heap.push(1)
        allocated = LifoAllocation().allocate(_request(scheduler, heap, create, count=2))
        assert allocated == [1, 0]

    def test_creates_new_when_heap_empty(self):
        _, scheduler, heap, create = _environment()
        allocated = LifoAllocation().allocate(_request(scheduler, heap, create, count=3))
        assert allocated == [0, 1, 2]
        assert scheduler.layout.num_placed == 3

    def test_exhaustion_raises(self):
        _, scheduler, heap, create = _environment(grid=1, placed=[(0, 0)])
        with pytest.raises(ResourceExhaustedError):
            LifoAllocation().allocate(_request(scheduler, heap, create, count=1))


class TestLocalityAwareAllocation:
    def test_prefers_close_heap_qubit(self):
        # Qubit 0 sits next to the anchor, qubit 1 far away; both reclaimed.
        _, scheduler, heap, create = _environment(
            placed=[(0, 1), (1, 8), (2, 0)])
        heap.push(0)
        heap.push(1)
        allocated = LocalityAwareAllocation().allocate(
            _request(scheduler, heap, create, count=1, interacting=[2], live=[2]))
        assert allocated == [0]
        assert 1 in heap

    def test_prefers_new_nearby_site_over_distant_heap_qubit(self):
        # The only reclaimed qubit is in the far corner; a fresh site next to
        # the anchor scores better.
        _, scheduler, heap, create = _environment(placed=[(0, 8), (1, 0)])
        heap.push(0)
        allocated = LocalityAwareAllocation().allocate(
            _request(scheduler, heap, create, count=1, interacting=[1], live=[1]))
        assert allocated != [0]
        site = scheduler.layout.site_of(allocated[0])
        assert scheduler.machine.topology.distance(site, 0) <= 2

    def test_serialization_penalty_steers_away_from_busy_qubit(self):
        _, scheduler, heap, create = _environment(
            placed=[(0, 1), (1, 3), (2, 0)])
        heap.push(0)
        heap.push(1)
        # Make qubit 0 (the closer one) very busy far into the future.
        scheduler._qubit_time[0] = 10_000
        policy = LocalityAwareAllocation(serialization_weight=5.0)
        allocated = policy.allocate(
            _request(scheduler, heap, create, count=1, interacting=[2], live=[2]))
        assert allocated == [1]

    def test_allocates_requested_count(self):
        _, scheduler, heap, create = _environment(placed=[(0, 4)])
        allocated = LocalityAwareAllocation().allocate(
            _request(scheduler, heap, create, count=4, interacting=[0], live=[0]))
        assert len(allocated) == 4
        assert len(set(allocated)) == 4

    def test_exhaustion_raises(self):
        _, scheduler, heap, create = _environment(grid=1, placed=[(0, 0)])
        with pytest.raises(ResourceExhaustedError):
            LocalityAwareAllocation().allocate(
                _request(scheduler, heap, create, count=1, interacting=[0]))


def test_request_live_qubits_are_read_when_asked():
    _, scheduler, heap, create = _environment(placed=[(0, 0), (1, 4), (2, 8)])
    request = _request(scheduler, heap, create, live=[2, 0])
    assert sorted(request.live_qubits) == [0, 2]
    scheduler.reclaim(2)
    scheduler.allocate(1, 0)
    assert sorted(request.live_qubits) == [0, 1]


def reference_communication_score(topology, site, anchors):
    """LAA's communication term, one ``distance`` call per anchor."""
    if not anchors:
        return 0.0
    return sum(topology.distance(site, anchor) for anchor in anchors) / len(anchors)


@pytest.mark.parametrize("topology", [
    Topology.grid(6, 6), Topology.grid(3, 7), Topology.grid(7, 2),
    Topology.line(9), Topology.fully_connected(11)], ids=str)
def test_communication_score_matches_reference(topology):
    rng = random.Random(topology.num_sites)
    for _ in range(200):
        # Anchors repeat whenever a new ancilla lands on an anchor's site.
        anchors = [rng.randrange(topology.num_sites)
                   for _ in range(rng.choice([0, 1, 2, 3, 5, 9, 40]))]
        sites = list(range(topology.num_sites))
        rng.shuffle(sites)
        scores = LocalityAwareAllocation._communication_scores(
            topology, anchors, sites)
        for site, score in zip(sites, scores, strict=True):
            expected = reference_communication_score(topology, site, anchors)
            assert score == expected
            assert type(score) is type(expected)


@pytest.mark.parametrize("grid", [2, 3, 5])
def test_lifo_takes_the_lowest_free_site_after_swaps(grid):
    rng = random.Random(grid)
    _, scheduler, heap, create = _environment(grid=grid)
    layout = scheduler.layout
    sites = range(grid * grid)
    while layout.num_free_sites:
        lowest = min(s for s in sites if layout.virtual_at(s) is None)
        qubit = LifoAllocation().allocate(_request(scheduler, heap, create))[0]
        assert layout.site_of(qubit) == lowest
        layout.swap(rng.choice(sites), rng.choice(sites))


class LiveRegionCheckingAllocation(LocalityAwareAllocation):
    """LAA that first checks the scheduler's incremental live region
    against a recompute from the tracker's live qubits."""

    def __init__(self):
        super().__init__()
        self.checked = 0

    def allocate(self, request):
        scheduler = request.scheduler
        assert scheduler.live_region == recomputed_live_region(scheduler)
        self.checked += 1
        return super().allocate(request)


@pytest.mark.parametrize("machine", [MachineSpec.nisq_autosize(),
                                     MachineSpec.ft_autosize()],
                         ids=lambda spec: spec.describe())
@pytest.mark.parametrize("policy", ["square", "square-laa"])
@pytest.mark.parametrize("program", sorted(SIZED_PROGRAMS))
def test_live_region_matches_recompute_at_every_allocation(program, policy,
                                                           machine, monkeypatch):
    policies = []

    def checking_policy(name):
        assert name == "laa"
        policies.append(LiveRegionCheckingAllocation())
        return policies[-1]

    monkeypatch.setattr(repro.core.compiler, "create_allocation_policy",
                        checking_policy)
    execute_job(CompileJob.for_benchmark(program, machine, policy,
                                         overrides=SIZED_PROGRAMS[program]))
    assert sum(policy.checked for policy in policies) > 0
