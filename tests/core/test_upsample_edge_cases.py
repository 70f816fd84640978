"""Edge-case tests for the upsampling window allocation internals."""

import numpy as np
import pytest

from repro.core.demand import estimate_demand
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import upsample

from .oracles import _upsample_window


def demand_for(phases, rules, cap=100.0, n_slices=4):
    resources = ResourceModel("t")
    resources.add_consumable("cpu", cap)
    trace = ExecutionTrace()
    for k, (path, s, e) in enumerate(phases):
        trace.record(path, s, e, instance_id=f"i{k}", thread=f"t{k}")
    grid = TimeGrid(0.0, 1.0, n_slices)
    return estimate_demand(trace, resources, rules, grid)["cpu"], grid


class TestUpsampleWindow:
    def test_zero_total_allocates_nothing(self):
        rdemand, _ = demand_for([("/P", 0.0, 2.0)], RuleMatrix())
        alloc, unexp = _upsample_window(rdemand, 0, np.ones(2), 0.0)
        np.testing.assert_allclose(alloc, 0.0)
        np.testing.assert_allclose(unexp, 0.0)

    def test_partial_coverage_scales_demand(self):
        """A half-covered slice offers only half its demand and capacity."""
        rdemand, _ = demand_for(
            [("/P", 0.0, 2.0)], RuleMatrix().set_exact("/P", "cpu", 0.5)
        )
        frac = np.array([1.0, 0.5])
        # Exact demand: 50 + 25 = 75; give exactly that.
        alloc, unexp = _upsample_window(rdemand, 0, frac, 75.0)
        np.testing.assert_allclose(alloc, [50.0, 25.0])
        np.testing.assert_allclose(unexp, 0.0)

    def test_overflow_beyond_capacity_flagged(self):
        rdemand, _ = demand_for(
            [("/P", 0.0, 1.0)], RuleMatrix().set_variable("/P", "cpu"), cap=50.0, n_slices=1
        )
        alloc, unexp = _upsample_window(rdemand, 0, np.ones(1), 80.0)
        # 50 fits under capacity via demand; 30 is unexplained overflow.
        assert alloc[0] == pytest.approx(80.0)
        assert unexp[0] == pytest.approx(30.0)

    def test_unexplained_respects_capacity_first(self):
        """Residual consumption fills capacity headroom before overflowing."""
        rdemand, _ = demand_for(
            [("/P", 0.0, 1.0)],
            RuleMatrix().set_exact("/P", "cpu", 0.2),
            cap=100.0,
            n_slices=2,
        )
        # Window covers both slices; P active only in slice 0 (demand 20).
        alloc, unexp = _upsample_window(rdemand, 0, np.ones(2), 60.0)
        assert alloc.sum() == pytest.approx(60.0)
        assert alloc[0] >= 20.0  # exact demand satisfied
        assert unexp.sum() == pytest.approx(40.0)
        assert (alloc <= 100.0 + 1e-9).all()


class TestUpsampleIntegration:
    def test_overlapping_windows_average(self):
        """Overlapping measurements blend by coverage instead of crashing."""
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 2)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        rt.add_measurement("cpu", 0.0, 2.0, 10.0)
        rt.add_measurement("cpu", 0.0, 2.0, 30.0)  # duplicate collector
        up = upsample(rt, demand, grid)
        np.testing.assert_allclose(up["cpu"].rate, [20.0, 20.0])

    def test_window_extending_past_grid_preserves_total(self):
        """A trailing window's full consumption lands on its in-grid slices.

        Real monitors emit a final window extending past the run's end; its
        average is diluted by idle tail time, but every unit it reports was
        consumed inside the run, so the total is preserved (not the rate).
        """
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 2)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        # 10 units avg over [0, 4): 40 unit-seconds total, grid spans [0, 2).
        rt.add_measurement("cpu", 0.0, 4.0, 10.0)
        up = upsample(rt, demand, grid)
        assert up["cpu"].rate.sum() == pytest.approx(40.0)

    def test_window_entirely_outside_grid(self):
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 1.0)
        grid = TimeGrid(0.0, 1.0, 1)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        rt.add_measurement("cpu", 5.0, 6.0, 10.0)
        up = upsample(rt, demand, grid)
        np.testing.assert_allclose(up["cpu"].rate, [0.0])
