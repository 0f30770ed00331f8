"""Tests for the ancilla heap, CER cost model and reclamation policies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CompilationError
from repro.core.cost_model import (
    reclamation_costs,
    reservation_cost,
    uncompute_cost,
)
from repro.core.heap import AncillaHeap
from repro.core.plan import ProgramWalk
from repro.core.reclamation import (
    CostEffectiveReclamation,
    EagerReclamation,
    LazyReclamation,
    ReclamationPolicy,
    ReclamationRequest,
)
from repro.ir.program import Program, QModule


class TestAncillaHeap:
    def test_lifo_order(self):
        heap = AncillaHeap()
        heap.push(1)
        heap.push(2)
        assert heap.pop() == 2
        assert heap.pop() == 1

    def test_membership_and_len(self):
        heap = AncillaHeap()
        heap.push(5)
        assert 5 in heap
        assert len(heap) == 1
        assert not heap.is_empty()

    def test_double_push_rejected(self):
        heap = AncillaHeap()
        heap.push(1)
        with pytest.raises(CompilationError):
            heap.push(1)

    def test_pop_empty_rejected(self):
        with pytest.raises(CompilationError):
            AncillaHeap().pop()

    def test_remove_specific(self):
        heap = AncillaHeap()
        heap.push(1)
        heap.push(2)
        heap.push(3)
        heap.remove(2)
        assert heap.qubits == (1, 3)
        with pytest.raises(CompilationError):
            heap.remove(2)

    def test_statistics(self):
        heap = AncillaHeap()
        heap.push(1)
        heap.pop()
        assert heap.total_pushes == 1
        assert heap.total_pops == 1


class TestCostModel:
    def test_equation1_level_doubling(self):
        shallow = uncompute_cost(num_active=10, uncompute_gates=50, level=1)
        deep = uncompute_cost(num_active=10, uncompute_gates=50, level=2)
        assert deep == pytest.approx(2 * shallow)

    def test_equation2_area_expansion(self):
        constrained = reservation_cost(num_ancilla=10, gates_to_parent_uncompute=100,
                                       num_active=10, locality_constrained=True)
        unconstrained = reservation_cost(num_ancilla=10, gates_to_parent_uncompute=100,
                                         num_active=10, locality_constrained=False)
        assert constrained == pytest.approx(unconstrained * math.sqrt(2.0))

    def test_costs_leave_out_the_communication_factor(self):
        # Both equations multiply by S, so the comparison runs over S.
        assert uncompute_cost(1, 10, 0) == 10
        assert reservation_cost(1, 10, 1, locality_constrained=False) == 10

    def test_reclamation_costs_decision(self):
        costs = reclamation_costs(num_active=4, num_ancilla=2, uncompute_gates=10,
                                  gates_to_parent_uncompute=1000, level=1)
        assert costs.should_reclaim
        costs = reclamation_costs(num_active=4, num_ancilla=1, uncompute_gates=1000,
                                  gates_to_parent_uncompute=5, level=4)
        assert not costs.should_reclaim

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=12),
    )
    def test_costs_are_non_negative_and_monotone_in_gates(
            self, active, gates, level):
        lower = uncompute_cost(active, gates, level)
        higher = uncompute_cost(active, gates + 10, level)
        assert 0 <= lower <= higher


def _request(**overrides) -> ReclamationRequest:
    base = dict(
        module_name="m", level=1, num_active=10, num_ancilla=2,
        uncompute_gates=20, gates_to_parent_uncompute=100,
        locality_constrained=True,
    )
    base.update(overrides)
    return ReclamationRequest(**base)


class _Recording(ReclamationPolicy):
    """Passes every request on to ``inner`` and keeps it."""

    name = "recording"

    def __init__(self, inner: ReclamationPolicy) -> None:
        self.inner = inner
        self.requests = []

    def decide(self, request):
        self.requests.append(request)
        return self.inner.decide(request)


def _program_with_a_garbage_free_call() -> Program:
    """``top`` keeps one ancilla and calls ``child`` (one ancilla) in
    Compute and ``copy`` (no ancilla) in Store."""
    copy = QModule("copy", num_inputs=1, num_outputs=1, num_ancilla=0)
    copy.begin_store()
    copy.cx(copy.inputs[0], copy.outputs[0])
    child = QModule("child", num_inputs=2, num_outputs=1, num_ancilla=1)
    child.ccx(child.inputs[0], child.inputs[1], child.ancillas[0])
    child.begin_store()
    child.cx(child.ancillas[0], child.outputs[0])
    top = QModule("top", num_inputs=2, num_outputs=2, num_ancilla=1)
    top.call(child, top.inputs[0], top.inputs[1], top.ancillas[0])
    top.begin_store()
    top.cx(top.ancillas[0], top.outputs[0])
    top.call(copy, top.ancillas[0], top.outputs[1])
    return Program(top, name="garbage-free-call")


def _plan(policy: ReclamationPolicy):
    walk = ProgramWalk(_program_with_a_garbage_free_call(),
                       decompose_toffoli=False, locality_constrained=True)
    return walk.plan(policy)


class TestReclamationPolicies:
    def test_eager_always_reclaims(self):
        assert EagerReclamation().decide(_request()).reclaim
        assert EagerReclamation().decide(_request(level=9)).reclaim

    def test_lazy_never_reclaims_below_top(self):
        assert not LazyReclamation().decide(_request()).reclaim

    def test_top_level_is_never_uncomputed(self):
        # The entry module holds garbage, yet the plan never asks about it.
        for policy in (EagerReclamation(), LazyReclamation(),
                       CostEffectiveReclamation()):
            recording = _Recording(policy)
            plan = _plan(recording)
            assert [r.module_name for r in recording.requests] == ["child"]
            assert [e.module for e in plan.events] == ["child"]

    def test_cer_reclaims_when_cheap(self):
        decision = CostEffectiveReclamation().decide(_request(
            uncompute_gates=5, gates_to_parent_uncompute=10000, level=1))
        assert decision.reclaim
        assert decision.costs is not None

    def test_cer_defers_when_uncompute_expensive(self):
        decision = CostEffectiveReclamation().decide(_request(
            uncompute_gates=5000, gates_to_parent_uncompute=5, level=6))
        assert not decision.reclaim

    def test_cer_skips_empty_frees(self):
        # ``copy`` holds no ancilla: it is never asked about and never
        # uncomputed, so it leaves no decision or costs in the plan.
        recording = _Recording(CostEffectiveReclamation())
        plan = _plan(recording)
        assert all(r.num_ancilla > 0 for r in recording.requests)
        assert "copy" not in {r.module_name for r in recording.requests}
        assert [(e.module, e.num_ancilla) for e in plan.events] == [("child", 1)]
        assert all(e.costs is not None for e in plan.events)
