"""Property-based tests for core invariants (hypothesis).

The attribution pipeline's key invariants:

* rasterization conserves interval mass;
* upsampling conserves total measured consumption, per window;
* the water-filling allocation never exceeds per-slice headroom;
* attribution conserves the upsampled consumption per slice
  (phase usage + unattributed == consumption);
* exact phases never receive more than their demand;
* the replay simulator's makespan is monotone in phase durations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import attribute
from repro.core.demand import estimate_demand
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.simulation import ReplaySimulator
from repro.core.timeline import TimeGrid, rasterize_intervals
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import upsample

from .oracles import _water_fill

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

finite_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    starts = np.array([draw(finite_times) for _ in range(n)])
    lengths = np.array(
        [draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)) for _ in range(n)]
    )
    return starts, starts + lengths


@st.composite
def phase_layouts(draw):
    """A random flat set of phases with mixed rules over one resource."""
    n = draw(st.integers(min_value=1, max_value=8))
    phases = []
    for k in range(n):
        start = draw(st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
        length = draw(st.floats(min_value=0.1, max_value=6.0, allow_nan=False))
        kind = draw(st.sampled_from(["exact", "variable", "none"]))
        param = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
        phases.append((f"/P{k}", start, start + length, kind, param))
    return phases


@st.composite
def measurements(draw, t_max=16.0):
    n = draw(st.integers(min_value=1, max_value=6))
    out = []
    t = 0.0
    for _ in range(n):
        width = draw(st.floats(min_value=0.5, max_value=5.0, allow_nan=False))
        value = draw(st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
        if t + width > t_max:
            break
        out.append((t, t + width, value))
        t += width
    return out or [(0.0, 1.0, 10.0)]


def build_pipeline(phases, meas):
    resources = ResourceModel("prop")
    resources.add_consumable("cpu", 100.0)
    rules = RuleMatrix()
    trace = ExecutionTrace()
    for k, (path, s, e, kind, param) in enumerate(phases):
        trace.record(path, s, e, instance_id=f"i{k}", thread=f"t{k}")
        if kind == "exact":
            rules.set_exact(path, "cpu", param)
        elif kind == "none":
            rules.set_none(path, "cpu")
        else:
            rules.set_variable(path, "cpu", param)
    grid = TimeGrid(0.0, 0.5, 32)
    demand = estimate_demand(trace, resources, rules, grid)
    rt = ResourceTrace()
    for s, e, v in meas:
        rt.add_measurement("cpu", s, e, v)
    up = upsample(rt, demand, grid)
    attr = attribute(up, demand, trace)
    return grid, demand, rt, up, attr


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #


class TestRasterizationProperties:
    @given(intervals())
    @settings(max_examples=100)
    def test_mass_conservation(self, ivs):
        starts, ends = ivs
        grid = TimeGrid(0.0, 0.25, 480)  # covers [0, 120) — beyond any interval
        out = rasterize_intervals(grid, starts, ends)
        expected = (ends - starts).sum() / grid.slice_duration
        assert out.sum() == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(intervals())
    @settings(max_examples=100)
    def test_nonnegative(self, ivs):
        starts, ends = ivs
        grid = TimeGrid(0.0, 1.0, 120)
        assert (rasterize_intervals(grid, starts, ends) >= -1e-12).all()


class TestWaterFillProperties:
    @given(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=16),
        st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=16),
    )
    @settings(max_examples=200)
    def test_never_exceeds_headroom(self, amount, weights, headroom):
        n = min(len(weights), len(headroom))
        w = np.asarray(weights[:n])
        h = np.asarray(headroom[:n])
        alloc = _water_fill(amount, w, h)
        assert (alloc <= h + 1e-9).all()
        assert (alloc >= -1e-12).all()
        assert alloc.sum() <= amount + 1e-9

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.lists(st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_exhausts_amount_when_headroom_sufficient(self, amount, weights):
        w = np.asarray(weights)
        h = np.full(w.shape, 1e6)
        alloc = _water_fill(amount, w, h)
        assert alloc.sum() == pytest.approx(amount, rel=1e-9, abs=1e-9)


class TestUpsampleProperties:
    @given(phase_layouts(), measurements())
    @settings(max_examples=60, deadline=None)
    def test_consumption_conserved(self, phases, meas):
        """Σ rate × coverage = measured total (windows never overlap here).

        Slices only partially covered by a measurement window carry a rate
        estimated from the covered part, so conservation is weighted by
        coverage.
        """
        grid, demand, rt, up, attr = build_pipeline(phases, meas)
        measured_total = sum(v * (e - s) for s, e, v in meas) / grid.slice_duration
        ur = up["cpu"]
        assert (ur.rate * ur.coverage).sum() == pytest.approx(measured_total, rel=1e-6, abs=1e-6)

    @given(phase_layouts(), measurements())
    @settings(max_examples=60, deadline=None)
    def test_rates_nonnegative(self, phases, meas):
        _, _, _, up, _ = build_pipeline(phases, meas)
        assert (up["cpu"].rate >= -1e-9).all()


class TestAttributionProperties:
    @given(phase_layouts(), measurements())
    @settings(max_examples=60, deadline=None)
    def test_attribution_conserves_per_slice(self, phases, meas):
        _, _, _, up, attr = build_pipeline(phases, meas)
        ra = attr["cpu"]
        total = ra.usage.sum(axis=0) + ra.unattributed
        np.testing.assert_allclose(total, up["cpu"].rate, rtol=1e-6, atol=1e-6)

    @given(phase_layouts(), measurements())
    @settings(max_examples=60, deadline=None)
    def test_exact_usage_never_exceeds_demand(self, phases, meas):
        _, _, _, _, attr = build_pipeline(phases, meas)
        ra = attr["cpu"]
        if ra.is_exact.any():
            exact_usage = ra.usage[ra.is_exact]
            exact_demand = ra.demand[ra.is_exact]
            assert (exact_usage <= exact_demand + 1e-9).all()

    @given(phase_layouts(), measurements())
    @settings(max_examples=60, deadline=None)
    def test_usage_nonnegative(self, phases, meas):
        _, _, _, _, attr = build_pipeline(phases, meas)
        assert (attr["cpu"].usage >= -1e-9).all()


class TestSimulatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_monotone_in_durations(self, specs, shrink):
        trace = ExecutionTrace()
        for k, (start, length, thread) in enumerate(specs):
            trace.record("/C", start, start + length, thread=f"t{thread}", instance_id=f"i{k}")
        sim = ReplaySimulator(trace, None)
        base = sim.baseline().makespan
        shrunk = sim.simulate(
            {f"i{k}": (specs[k][1]) * shrink for k in range(len(specs))}
        ).makespan
        assert shrunk <= base + 1e-9
