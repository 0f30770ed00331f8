"""Tests for the gate scheduler and the liveness tracker."""

import random

import pytest

from repro.exceptions import CompilationError
from repro.arch.ft import FTMachine
from repro.arch.machine import IdealMachine
from repro.arch.nisq import NISQMachine
from repro.arch.routing import SwapStep
from repro.arch.topology import Topology
from repro.scheduler.asap import GateScheduler
from repro.scheduler.tracker import LivenessTracker


class TestLivenessTracker:
    def test_segment_lifecycle(self):
        tracker = LivenessTracker()
        tracker.allocate(0, time=0)
        tracker.record_gate(0, 2, 5)
        tracker.record_gate(0, 7, 9)
        tracker.reclaim(0, time=9)
        assert tracker.active_quantum_volume() == 7  # from 2 to 9

    def test_heap_time_excluded(self):
        tracker = LivenessTracker()
        tracker.allocate(0, 0)
        tracker.record_gate(0, 0, 2)
        tracker.reclaim(0, 2)
        # Re-allocated much later: the idle gap must not count.
        tracker.allocate(0, 100)
        tracker.record_gate(0, 100, 103)
        tracker.reclaim(0, 103)
        assert tracker.active_quantum_volume() == 5

    def test_double_allocate_is_noop(self):
        tracker = LivenessTracker()
        tracker.allocate(0, 0)
        tracker.allocate(0, 5)
        tracker.record_gate(0, 0, 1)
        tracker.reclaim(0, 1)
        assert len(tracker.segments) == 1

    def test_finalize_closes_open_segments(self):
        tracker = LivenessTracker()
        tracker.allocate(0, 0)
        tracker.record_gate(0, 0, 4)
        tracker.finalize(10)
        assert tracker.active_quantum_volume() == 10

    def test_peak_live(self):
        tracker = LivenessTracker()
        tracker.allocate(0, 0)
        tracker.allocate(1, 0)
        tracker.reclaim(0, 1)
        tracker.allocate(2, 2)
        assert tracker.peak_live == 2

    def test_usage_series_area_equals_aqv(self):
        tracker = LivenessTracker()
        tracker.allocate(0, 0)
        tracker.record_gate(0, 0, 10)
        tracker.allocate(1, 2)
        tracker.record_gate(1, 2, 6)
        tracker.reclaim(1, 6)
        tracker.reclaim(0, 10)
        series = tracker.usage_series()
        area = sum(live * (t1 - t0) for (t0, live), (t1, _)
                   in zip(series, series[1:]))
        assert area == tracker.active_quantum_volume()


class TestGateScheduler:
    def _scheduler(self, machine=None):
        machine = machine or NISQMachine.grid(3, 3)
        scheduler = GateScheduler(machine, record_schedule=True)
        return scheduler

    def test_single_qubit_gate(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        execution = scheduler.schedule_gate("x", [0])
        assert execution.start == 0
        assert execution.finish == 1
        assert scheduler.gate_count == 1

    def test_adjacent_two_qubit_gate_needs_no_swap(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 1)
        execution = scheduler.schedule_gate("cx", [0, 1])
        assert execution.swaps == 0
        assert scheduler.swap_count == 0

    def test_distant_gate_inserts_swaps_and_updates_layout(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 8)  # opposite corner of the 3x3 grid
        execution = scheduler.schedule_gate("cx", [0, 1])
        assert execution.swaps >= 3
        assert scheduler.swap_count == execution.swaps
        # The moved qubit must now be adjacent to its partner.
        topology = scheduler.machine.topology
        assert topology.are_adjacent(scheduler.layout.site_of(0),
                                     scheduler.layout.site_of(1))

    def test_dependent_gates_serialize(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 1)
        first = scheduler.schedule_gate("cx", [0, 1])
        second = scheduler.schedule_gate("cx", [0, 1])
        assert second.start >= first.finish

    def test_independent_gates_run_in_parallel(self):
        scheduler = self._scheduler()
        for virtual, site in enumerate((0, 1, 7, 8)):
            scheduler.register_qubit(virtual, site)
        first = scheduler.schedule_gate("cx", [0, 1])
        second = scheduler.schedule_gate("cx", [2, 3])
        assert second.start == first.start

    def test_unplaced_qubit_rejected(self):
        scheduler = self._scheduler()
        with pytest.raises(CompilationError):
            scheduler.schedule_gate("x", [3])

    def test_ideal_machine_never_swaps(self):
        scheduler = self._scheduler(IdealMachine(9))
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 8)
        execution = scheduler.schedule_gate("cx", [0, 1])
        assert execution.swaps == 0
        assert execution.comm_cost == 0

    def test_ft_machine_charges_crossings_not_swaps(self):
        machine = FTMachine.grid(4, 4)
        scheduler = GateScheduler(machine, record_schedule=True)
        for virtual, site in enumerate((0, 3, 12, 15)):
            scheduler.register_qubit(virtual, site)
        scheduler.schedule_gate("cx", [0, 1])
        execution = scheduler.schedule_gate("cx", [2, 3])
        assert scheduler.swap_count == 0
        assert execution.swaps == 0

    def test_events_recorded(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 8)
        scheduler.schedule_gate("cx", [0, 1])
        names = [event.name for event in scheduler.events]
        assert "cx" in names
        assert "swap" in names

    def test_average_comm_cost(self):
        scheduler = self._scheduler()
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 8)
        scheduler.schedule_gate("cx", [0, 1])
        assert scheduler.average_comm_cost() > 0


def reference_apply_swap(scheduler, site_a, site_b):
    """One SWAP gate: swap two sites' occupants and advance their clocks."""
    occupant_a = scheduler.layout.virtual_at(site_a)
    occupant_b = scheduler.layout.virtual_at(site_b)
    involved = [q for q in (occupant_a, occupant_b) if q is not None]
    start = max(scheduler.frontier_time(involved),
                scheduler._site_time[site_a], scheduler._site_time[site_b])
    finish = start + scheduler.machine.swap_duration
    scheduler.layout.swap(site_a, site_b)
    for qubit in involved:
        scheduler._qubit_time[qubit] = finish
        scheduler.tracker.record_gate(qubit, start, finish)
    scheduler._site_time[site_a] = finish
    scheduler._site_time[site_b] = finish
    scheduler.makespan = max(scheduler.makespan, finish)
    scheduler.swap_count += 1
    scheduler.events.append(("swap", tuple(involved), (site_a, site_b),
                             start, finish))


def _seeded_scheduler(machine, seed):
    """A scheduler with a random occupancy, random clocks and live qubits."""
    rng = random.Random(seed)
    scheduler = GateScheduler(machine, LivenessTracker(), record_schedule=True)
    num_sites = machine.topology.num_sites
    sites = list(range(num_sites))
    rng.shuffle(sites)
    for virtual, site in enumerate(sites[:rng.randint(1, num_sites)]):
        scheduler.register_qubit(virtual, site)
        if rng.random() < 0.8:
            scheduler.tracker.allocate(virtual, 0)
        if rng.random() < 0.3:
            scheduler.tracker.record_gate(virtual, 1, rng.randrange(2, 9))
        scheduler._qubit_time[virtual] = rng.randrange(40)
    for site in range(num_sites):
        scheduler._site_time[site] = rng.randrange(40)
    scheduler.makespan = 30
    return scheduler, rng


@pytest.mark.parametrize("machine", [
    NISQMachine.grid(5, 5), NISQMachine.grid(3, 6), NISQMachine.grid(6, 2),
    NISQMachine(Topology.line(8)), NISQMachine.fully_connected(9)], ids=str)
def test_swap_chain_matches_per_step_reference(machine):
    topology = machine.topology
    for seed in range(60):
        chained, rng = _seeded_scheduler(machine, seed)
        stepped, _ = _seeded_scheduler(machine, seed)
        placed = [s for s in range(topology.num_sites)
                  if chained.layout.virtual_at(s) is not None]
        source = rng.choice(placed)
        if topology.is_lattice:
            path = topology.shortest_path(source, rng.randrange(topology.num_sites))
        else:  # every pair is coupled: any simple path is a chain
            others = [s for s in range(topology.num_sites) if s != source]
            path = [source] + rng.sample(others, rng.randint(1, 5))
        if len(path) < 2:
            continue
        chain = tuple(SwapStep(a, b) for a, b in zip(path, path[1:]))
        chained._apply_swaps(chain)
        for step in chain:
            reference_apply_swap(stepped, step.site_a, step.site_b)

        assert chained._qubit_time == stepped._qubit_time
        assert chained._site_time == stepped._site_time
        assert (chained.makespan, chained.swap_count) == (
            stepped.makespan, stepped.swap_count)
        assert [(e.name, e.virtual_qubits, e.sites, e.start, e.finish)
                for e in chained.events] == [e[:5] for e in stepped.events]
        assert all(e.routed for e in chained.events)
        assert ({s: chained.layout.virtual_at(s) for s in range(topology.num_sites)}
                == {s: stepped.layout.virtual_at(s)
                    for s in range(topology.num_sites)})
        assert chained.layout.lowest_free_site() == stepped.layout.lowest_free_site()
        assert ([vars(seg) for seg in chained.tracker._open.values()]
                == [vars(seg) for seg in stepped.tracker._open.values()])


def test_broken_swap_chain_is_rejected():
    scheduler = GateScheduler(NISQMachine(Topology.line(5)))
    scheduler.register_qubit(0, 0)
    with pytest.raises(CompilationError):
        scheduler._apply_swaps((SwapStep(0, 1), SwapStep(2, 3)))
