"""Tests for §III-D1 demand estimation."""

import numpy as np
import pytest

from repro.core.demand import estimate_demand
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace


def make_resources(cap=10.0) -> ResourceModel:
    m = ResourceModel("test")
    m.add_consumable("cpu", cap)
    m.add_blocking("gc")
    return m


class TestEstimateDemand:
    def test_exact_demand_scales_with_capacity(self):
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 4.0, instance_id="p")
        rules = RuleMatrix().set_exact("/P", "cpu", 0.25)
        grid = TimeGrid(0.0, 1.0, 4)
        est = estimate_demand(trace, make_resources(cap=8.0), rules, grid)
        np.testing.assert_allclose(est["cpu"].exact_total, np.full(4, 2.0))
        np.testing.assert_allclose(est["cpu"].variable_total, np.zeros(4))

    def test_variable_demand_sums_weights(self):
        trace = ExecutionTrace()
        trace.record("/A", 0.0, 2.0)
        trace.record("/B", 1.0, 3.0)
        rules = RuleMatrix().set_variable("/A", "cpu", 1.0).set_variable("/B", "cpu", 2.0)
        grid = TimeGrid(0.0, 1.0, 3)
        est = estimate_demand(trace, make_resources(), rules, grid)
        np.testing.assert_allclose(est["cpu"].variable_total, [1.0, 3.0, 2.0])

    def test_partial_slice_activity_is_fractional(self):
        trace = ExecutionTrace()
        trace.record("/P", 0.5, 1.0)
        rules = RuleMatrix().set_variable("/P", "cpu", 1.0)
        grid = TimeGrid(0.0, 1.0, 2)
        est = estimate_demand(trace, make_resources(), rules, grid)
        np.testing.assert_allclose(est["cpu"].variable_total, [0.5, 0.0])

    def test_blocking_interrupts_demand(self):
        trace = ExecutionTrace()
        inst = trace.record("/P", 0.0, 3.0)
        inst.add_blocking("gc", 1.0, 2.0)
        rules = RuleMatrix().set_exact("/P", "cpu", 0.5)
        grid = TimeGrid(0.0, 1.0, 3)
        est = estimate_demand(trace, make_resources(), rules, grid)
        np.testing.assert_allclose(est["cpu"].exact_total, [5.0, 0.0, 5.0])

    def test_none_rule_produces_no_entry(self):
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 1.0)
        rules = RuleMatrix().set_none("/P", "cpu")
        grid = TimeGrid(0.0, 1.0, 1)
        est = estimate_demand(trace, make_resources(), rules, grid)
        assert est["cpu"].instance_ids == []
        assert est["cpu"].demand.shape == (0, 1)

    def test_exact_total_capped_at_capacity(self):
        """Three concurrent phases each demanding 50% cannot demand 150%."""
        trace = ExecutionTrace()
        for k in range(3):
            trace.record("/P", 0.0, 1.0, instance_id=f"p{k}", thread=f"t{k}")
        rules = RuleMatrix().set_exact("/P", "cpu", 0.5)
        grid = TimeGrid(0.0, 1.0, 1)
        est = estimate_demand(trace, make_resources(cap=10.0), rules, grid)
        assert est["cpu"].exact_total[0] == pytest.approx(10.0)

    def test_parent_covered_by_children_generates_no_demand(self):
        trace = ExecutionTrace()
        parent = trace.record("/P", 0.0, 2.0, instance_id="parent")
        trace.record("/P/C", 0.0, 2.0, parent=parent, instance_id="child")
        # Model paths: parent /P has child /P/C
        rules = RuleMatrix()  # implicit variable everywhere
        grid = TimeGrid(0.0, 1.0, 2)
        est = estimate_demand(trace, make_resources(), rules, grid)
        assert est["cpu"].instance_ids == ["child"]

    def test_blocking_resources_not_in_estimate(self):
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 1.0)
        grid = TimeGrid(0.0, 1.0, 1)
        est = estimate_demand(trace, make_resources(), RuleMatrix(), grid)
        assert "gc" not in est
        assert est.resources() == ["cpu"]

    def test_total_estimated_demand_capped(self):
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 1.0)
        rules = RuleMatrix().set_variable("/P", "cpu", 100.0)
        grid = TimeGrid(0.0, 1.0, 1)
        est = estimate_demand(trace, make_resources(cap=4.0), rules, grid)
        assert est["cpu"].total_estimated_demand()[0] == pytest.approx(4.0)
