"""Unit tests for the pipeline invariant checker (:mod:`repro.core.invariants`).

Each invariant is exercised both ways: a pristine profile passes, and a
profile tampered with in a targeted way trips exactly the invariants the
tampering breaks.
"""

import numpy as np
import pytest

from repro.core import ExecutionModel, Grade10, ResourceModel, RuleMatrix
from repro.core.invariants import INVARIANTS, InvariantViolation, check_profile
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace, ResourceTrace


def make_profile(grid=None):
    model = ExecutionModel("bsp")
    model.add_phase("/Load")
    model.add_phase("/Execute", after="Load")
    model.add_phase("/Execute/Superstep", repeatable=True)
    model.add_phase("/Execute/Superstep/Compute", concurrent=True)
    model.add_phase("/Execute/Superstep/Barrier", after="Compute")

    resources = ResourceModel("cluster")
    resources.add_consumable("cpu@m0", 4.0, unit="cores")

    rules = (
        RuleMatrix()
        .set_none("/*", "cpu@*")
        .set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.25)
        .set_variable("/Load", "cpu@*", 1.0)
    )

    trace = ExecutionTrace()
    trace.record("/Load", 0.0, 1.0, instance_id="load", machine="m0")
    ex = trace.record("/Execute", 1.0, 5.0, instance_id="exec")
    ss = trace.record("/Execute/Superstep", 1.0, 5.0, parent=ex, instance_id="ss0")
    trace.record(
        "/Execute/Superstep/Compute", 1.0, 4.0, parent=ss, machine="m0", thread="t0",
        instance_id="c0",
    )
    trace.record(
        "/Execute/Superstep/Compute", 1.0, 2.0, parent=ss, machine="m0", thread="t1",
        instance_id="c1",
    )
    trace.record("/Execute/Superstep/Barrier", 4.0, 5.0, parent=ss, instance_id="b0")

    rtrace = ResourceTrace()
    rtrace.add_measurement("cpu@m0", 0.0, 2.5, 2.0)
    rtrace.add_measurement("cpu@m0", 2.5, 5.0, 1.0)

    g10 = Grade10(model, resources, rules, slice_duration=0.5)
    return g10.characterize(trace, rtrace, grid=grid)


class TestCleanProfile:
    def test_pristine_profile_passes_every_invariant(self):
        report = check_profile(make_profile())
        assert report.ok
        assert len(report) == 0
        assert report.checked == INVARIANTS
        assert report.summary() == {}
        assert "OK" in report.render()

    def test_profile_method_delegates(self):
        assert make_profile().check_invariants().ok


class TestCapacityAndConservation:
    def test_inflated_usage_trips_capacity_and_conservation(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].usage *= 3.0
        report = check_profile(profile)
        assert not report.ok
        broken = set(report.summary())
        assert "capacity" in broken
        assert "conservation" in broken
        worst = max(v.worst for v in report.by_invariant("capacity"))
        assert worst > 0.0

    def test_small_drift_within_tolerance_passes(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].usage *= 1.0 + 1e-9
        assert check_profile(profile).ok

    def test_rel_tol_scales_the_comparison(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].usage *= 3.0
        assert not check_profile(profile, rel_tol=1e-6).ok
        assert check_profile(profile, rel_tol=10.0).ok


class TestFinite:
    def test_nan_is_reported_not_propagated(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].usage[0, 0] = np.nan
        report = check_profile(profile)
        finite = report.by_invariant("finite")
        assert len(finite) == 1 and finite[0].subject == "cpu@m0"
        # NaN poisons the numeric comparisons; they are skipped, not crashed.
        assert not report.by_invariant("capacity")

    def test_negative_attribution_is_reported(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].unattributed[0] = -1.0
        report = check_profile(profile)
        assert report.by_invariant("finite")


class TestNesting:
    def test_child_escaping_parent_is_reported(self):
        profile = make_profile()
        profile.execution_trace["c0"].t_end = 9.0
        report = check_profile(profile)
        nesting = report.by_invariant("nesting")
        assert len(nesting) == 1
        assert nesting[0].worst == pytest.approx(4.0)
        assert "c0" in nesting[0].message

    def test_dangling_parent_is_reported(self):
        profile = make_profile()
        profile.execution_trace["c0"].parent_id = "ghost"
        report = check_profile(profile)
        nesting = report.by_invariant("nesting")
        assert len(nesting) == 1
        assert "absent" in nesting[0].message

    def test_violations_aggregate_per_subject(self):
        profile = make_profile()
        profile.execution_trace["c0"].t_end = 9.0
        profile.execution_trace["c1"].t_end = 7.0
        nesting = check_profile(profile).by_invariant("nesting")
        assert len(nesting) == 1
        assert nesting[0].count == 2


class TestGrid:
    def test_grid_not_covering_trace_is_reported(self):
        profile = make_profile(grid=TimeGrid(0.0, 1.0, 3))  # trace spans [0, 5]
        report = check_profile(profile)
        grid = report.by_invariant("grid")
        assert grid and "does not cover" in grid[0].message

    def test_covering_custom_grid_passes(self):
        assert check_profile(make_profile(grid=TimeGrid(0.0, 0.5, 10))).ok

    def test_trace_spanning_no_time_is_reported(self):
        """Regression: a log cut to a few zero-length phases checked clean."""
        trace = ExecutionTrace()
        trace.record("/Load", 2.0, 2.0, instance_id="load", machine="m0")
        model = ExecutionModel("bsp")
        model.add_phase("/Load")
        resources = ResourceModel("cluster")
        resources.add_consumable("cpu@m0", 4.0, unit="cores")
        profile = Grade10(model, resources).characterize(trace, ResourceTrace())
        assert profile.makespan == 0.0
        grid = check_profile(profile).by_invariant("grid")
        assert grid and "spans no time" in grid[0].message


class TestReportAPI:
    def test_render_lists_each_violation(self):
        profile = make_profile()
        profile.attribution["cpu@m0"].usage *= 3.0
        text = check_profile(profile).render()
        assert "violation(s)" in text
        assert "[capacity]" in text and "[conservation]" in text

    def test_violation_record_fields(self):
        v = InvariantViolation("capacity", "cpu@m0", "over", count=3, worst=1.5)
        assert (v.invariant, v.subject, v.count, v.worst) == ("capacity", "cpu@m0", 3, 1.5)
