"""Tests for the gate scheduler and the liveness tracker."""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

import repro.core.compiler
from repro.api import CompileJob, MachineSpec, execute_job
from repro.exceptions import CompilationError, ResourceExhaustedError
from repro.arch.ft import FTMachine
from repro.arch.machine import IdealMachine
from repro.arch.nisq import NISQMachine
from repro.arch.topology import Topology
from repro.scheduler.asap import GateScheduler
from repro.scheduler.tracker import LivenessTracker, UsageSegment
from repro.workloads.registry import benchmark_overrides


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

    def test_barrier_without_operands(self):
        scheduler = self._scheduler()
        execution = scheduler.schedule_gate("barrier", [])
        assert (execution.start, execution.finish, execution.swaps) == (0, 0, 0)
        assert scheduler.gate_count == 1


@dataclass
class _ReferenceSegment:
    qubit: int
    opened_at: int
    first_gate_start: Optional[int] = None
    last_gate_finish: Optional[int] = None


class ReferenceLivenessTracker:
    """Per-gate liveness bookkeeping: every gate on a live qubit is
    recorded, and a segment ends at the later of its reclaim time and its
    last gate's finish.

    Its ``awaiting_first_gate`` holds every live qubit, so a scheduler
    reports each gate on one.  ``reclaim`` asserts the contract that lets
    :class:`LivenessTracker` keep only the first gate: no segment is
    reclaimed before its last gate finishes.
    """

    def __init__(self) -> None:
        self._open: Dict[int, _ReferenceSegment] = {}
        self._segments: List[UsageSegment] = []
        self._peak_live = 0

    @property
    def num_live(self) -> int:
        return len(self._open)

    @property
    def peak_live(self) -> int:
        return self._peak_live

    def live_qubits(self):
        return tuple(self._open)

    @property
    def live(self):
        return self._open.keys()

    @property
    def awaiting_first_gate(self):
        return self._open

    def allocate(self, qubit, time):
        if qubit in self._open:
            return
        self._open[qubit] = _ReferenceSegment(qubit=qubit, opened_at=time)
        self._peak_live = max(self._peak_live, len(self._open))

    def record_gate(self, qubit, start, finish):
        segment = self._open.get(qubit)
        if segment is None:
            return
        if segment.first_gate_start is None:
            segment.first_gate_start = start
        segment.last_gate_finish = (
            finish if segment.last_gate_finish is None
            else max(segment.last_gate_finish, finish)
        )

    def reclaim(self, qubit, time):
        segment = self._open.pop(qubit, None)
        if segment is None:
            return
        assert segment.last_gate_finish is None or time >= segment.last_gate_finish, (
            f"qubit {qubit} reclaimed at {time} before its last gate "
            f"finished at {segment.last_gate_finish}")
        start = segment.first_gate_start
        if start is None:
            start = segment.opened_at
        end = max(time, segment.last_gate_finish or start, start)
        self._segments.append(UsageSegment(qubit=qubit, start=start, end=end))

    def finalize(self, end_time):
        for qubit in list(self._open):
            self.reclaim(qubit, end_time)

    @property
    def segments(self):
        return tuple(self._segments)

    def active_quantum_volume(self):
        return sum(segment.duration for segment in self._segments)


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


def reference_schedule_gate(scheduler, name, qubits):
    """One logical gate with every site looked up afresh: each control is
    routed next to the target one swap at a time, then the gate commits."""
    layout = scheduler.layout
    target = qubits[-1]
    swaps = 0
    extra_latency = 0
    for control in qubits[:-1]:
        earliest = max(scheduler.qubit_time(control), scheduler.qubit_time(target))
        result = scheduler.machine.resolve_interaction(
            layout.site_of(control), layout.site_of(target), earliest)
        for site_a, site_b in zip(result.path, result.path[1:]):
            reference_apply_swap(scheduler, site_a, site_b)
            swaps += 1
        extra_latency += result.extra_latency
    start = scheduler.frontier_time(qubits) + extra_latency
    finish = start + scheduler.machine.gate_duration(name)
    sites = tuple(layout.site_of(qubit) for qubit in qubits)
    for qubit, site in zip(qubits, sites):
        scheduler._qubit_time[qubit] = finish
        scheduler._site_time[site] = finish
        scheduler.tracker.record_gate(qubit, start, finish)
    scheduler.makespan = max(scheduler.makespan, finish)
    scheduler.gate_count += 1
    scheduler.events.append((name, tuple(qubits), sites, start, finish))
    return start, finish, swaps


def _seeded_scheduler(machine, seed, tracker):
    """A scheduler with a random occupancy, random clocks and live qubits.

    A qubit's clock is never before the finish of a gate it is recorded
    with, as on a real schedule.
    """
    rng = random.Random(seed)
    scheduler = GateScheduler(machine, tracker, record_schedule=True)
    num_sites = machine.topology.num_sites
    sites = list(range(num_sites))
    rng.shuffle(sites)
    for virtual, site in enumerate(sites[:rng.randint(1, num_sites)]):
        scheduler.register_qubit(virtual, site)
        if rng.random() < 0.8:
            scheduler.allocate(virtual, 0)
        gate_finish = 0
        if rng.random() < 0.3:
            gate_finish = rng.randrange(2, 9)
            scheduler.tracker.record_gate(virtual, 1, gate_finish)
        scheduler._qubit_time[virtual] = rng.randrange(gate_finish, 40)
    for site in range(num_sites):
        scheduler._site_time[site] = rng.randrange(40)
    scheduler.makespan = 30
    return scheduler, rng


def recomputed_live_region(scheduler):
    """``(count, row sum, column sum)`` of the live qubits' sites, from
    scratch."""
    topology = scheduler.machine.topology
    sites = scheduler.layout.sites_of(scheduler.tracker.live_qubits())
    return (len(sites), sum(topology.site_rows[s] for s in sites),
            sum(topology.site_cols[s] for s in sites))


def _assert_same_state(fast, reference):
    """Same clocks, layout, events and (after reclaiming every live qubit
    at its clock) the same usage segments; the fast scheduler's live
    region is its recomputed one throughout."""
    topology = fast.machine.topology
    assert fast._qubit_time == reference._qubit_time
    assert fast._site_time == reference._site_time
    assert (fast.makespan, fast.swap_count) == (
        reference.makespan, reference.swap_count)
    assert [(e.name, e.virtual_qubits, e.sites, e.start, e.finish)
            for e in fast.events] == [e[:5] for e in reference.events]
    assert all(e.routed == (e.name == "swap") for e in fast.events)
    assert ({s: fast.layout.virtual_at(s) for s in range(topology.num_sites)}
            == {s: reference.layout.virtual_at(s)
                for s in range(topology.num_sites)})
    assert fast.layout.lowest_free_site() == reference.layout.lowest_free_site()
    assert fast.tracker.live_qubits() == reference.tracker.live_qubits()
    assert fast.live_region == recomputed_live_region(fast)
    for scheduler in (fast, reference):
        for qubit in scheduler.tracker.live_qubits():
            scheduler.reclaim(qubit)
    assert fast.tracker.segments == reference.tracker.segments
    assert fast.live_region == (0, 0, 0)


@pytest.mark.parametrize("machine", [
    NISQMachine.grid(5, 5), NISQMachine.grid(3, 6), NISQMachine.grid(6, 2),
    NISQMachine(Topology.line(8)), NISQMachine.fully_connected(9)], ids=str)
def test_swap_chain_matches_per_step_reference(machine):
    topology = machine.topology
    for seed in range(60):
        chained, rng = _seeded_scheduler(machine, seed, LivenessTracker())
        stepped, _ = _seeded_scheduler(machine, seed, ReferenceLivenessTracker())
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
        chained._walk(tuple(path))
        for site_a, site_b in zip(path, path[1:]):
            reference_apply_swap(stepped, site_a, site_b)
        _assert_same_state(chained, stepped)


@pytest.mark.parametrize("make_machine", [
    lambda: NISQMachine.grid(5, 5), lambda: NISQMachine.grid(3, 6),
    lambda: NISQMachine(Topology.line(8)), lambda: FTMachine.grid(4, 4),
    lambda: IdealMachine(9)], ids=["grid5x5", "grid3x6", "line8", "ft4x4", "ideal9"])
def test_gates_match_per_step_reference(make_machine):
    """Random 1-, 2- and 3-qubit gates: a ccx's second chain can move its
    first control, which the one-lookup path must still place right."""
    for seed in range(30):
        fast, rng = _seeded_scheduler(make_machine(), seed, LivenessTracker())
        reference, _ = _seeded_scheduler(make_machine(), seed,
                                         ReferenceLivenessTracker())
        placed = [q for q in range(fast.machine.num_qubits)
                  if fast.layout.is_placed(q)]
        for _ in range(25):
            arity = rng.randint(1, min(3, len(placed)))
            qubits = tuple(rng.sample(placed, arity))
            name = ("x", "cx", "ccx")[arity - 1]
            execution = fast.schedule_gate(name, qubits)
            assert (execution.start, execution.finish, execution.swaps) == (
                reference_schedule_gate(reference, name, qubits))
        assert fast.gate_count == reference.gate_count
        _assert_same_state(fast, reference)


def test_unplaced_operand_among_placed_ones_is_rejected():
    scheduler = GateScheduler(NISQMachine(Topology.line(5)))
    scheduler.register_qubit(0, 0)
    with pytest.raises(CompilationError, match="unplaced virtual qubit 7"):
        scheduler.schedule_gate("cx", [0, 7])
    assert scheduler.gate_count == 0


#: (program, policy, machine) jobs compiled under both trackers: every
#: reclamation policy, with and without swaps, at quick scale.
DIFFERENTIAL_JOBS = [
    (program, policy, machine)
    for program in ("ADDER4", "RD53", "MODEXP", "SHA2", "belle-s")
    for policy in ("eager", "lazy", "square")
    for machine in (MachineSpec.nisq_grid(5, 5), MachineSpec.nisq_autosize(),
                    MachineSpec.ft_autosize())
]


@pytest.mark.parametrize(
    "program,policy,machine", DIFFERENTIAL_JOBS,
    ids=[f"{b}-{p}-{m.describe()}" for b, p, m in DIFFERENTIAL_JOBS])
def test_first_gate_tracker_matches_per_gate_reference(program, policy, machine,
                                                       monkeypatch):
    job = CompileJob.for_benchmark(program, machine, policy,
                                   overrides=benchmark_overrides(program, "quick"))
    fast = result_digest_data(job)
    monkeypatch.setattr(repro.core.compiler, "LivenessTracker",
                        ReferenceLivenessTracker)
    reference = result_digest_data(job)
    assert fast == reference
    if fast is not None:
        assert fast["usage_segments"]


def result_digest_data(job):
    """The job's result as data, or None if it does not fit its machine."""
    try:
        data = execute_job(job).to_dict()
    except ResourceExhaustedError:
        return None
    del data["compile_seconds"]
    return data
