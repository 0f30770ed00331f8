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
from repro.core.reclamation import (
    CostEffectiveReclamation,
    EagerReclamation,
    LazyReclamation,
    ReclamationRequest,
)


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
        locality_constrained=True, is_top_level=False,
    )
    base.update(overrides)
    return ReclamationRequest(**base)


class TestReclamationPolicies:
    def test_eager_always_reclaims(self):
        assert EagerReclamation().decide(_request()).reclaim
        assert EagerReclamation().decide(_request(level=9)).reclaim

    def test_lazy_never_reclaims_below_top(self):
        assert not LazyReclamation().decide(_request()).reclaim

    def test_top_level_is_never_uncomputed(self):
        for policy in (EagerReclamation(), LazyReclamation(),
                       CostEffectiveReclamation()):
            assert not policy.decide(_request(is_top_level=True)).reclaim

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
        decision = CostEffectiveReclamation().decide(_request(num_ancilla=0))
        assert not decision.reclaim
        assert decision.costs is None
