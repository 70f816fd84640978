"""Differential suite: the pipeline's batched kernels vs the scalar oracles.

Every §III-D/E/F stage of :class:`repro.core.Grade10` runs as a batched
array kernel.  ``tests/core/oracles.py`` keeps the one-item-at-a-time
reference of each kernel; this suite holds each kernel to its oracle with
**exact** equality (``==`` on ids, kinds and floats, ``np.array_equal`` on
arrays — no tolerance):

* on the cells the golden-profile fixtures pin — every simulated system's
  ``graph500/pr`` tiny run;
* on Hypothesis-generated pipeline runs (:func:`build_profile`).

The kernels replicate the oracles' operation order (sequential
``np.add.at`` scatters, row sums over exactly one window's or one
bottleneck's slices, masked sums over exactly the active entries, exact
max and add in the replay), so equality is bitwise.  §III-F and §IV-D
are covered piece by piece — the rule table, the bottleneck reductions,
every what-if duration row, the replay graph's edges and predecessor
lists, the critical path, every ``simulate_many`` row, the issue reports
and the outlier reports — and as part of the whole exported profile.

A per-fault outcome table closes the suite: every shipped
:class:`repro.faults.FaultSpec`, applied to the tiny archive, must keep
degrading to the same typed error or the same invariant-violation set.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionModel, Grade10, ResourceModel, RuleMatrix
from repro.core.attribution import AttributionResult, ResourceAttribution, attribute
from repro.core.bottlenecks import Bottleneck, BottleneckKind, BottleneckReport, find_bottlenecks
from repro.core.critical_path import critical_path
from repro.core.export import profile_to_dict
from repro.core.invariants import INVARIANTS
from repro.core.issues import (
    _bottleneck_reductions,
    _bottleneck_scenarios,
    _imbalance_scenarios,
    detect_issues,
)
from repro.core.outliers import find_outliers
from repro.core.profile import PerformanceProfile
from repro.core.simulation import ReplaySimulator
from repro.core.timeline import TimeGrid
from repro.core.rules import ExactRule, NoneRule, VariableRule
from repro.core.traces import ExecutionTrace, PhaseInstance, ResourceTrace, _GroupIndex
from repro.core.upsample import UpsampledResource, UpsampledTrace, _water_fill_batch
from repro.faults import FAULTS, apply_faults, fault_at
from repro.workloads import WorkloadSpec, analysis_inputs, run_workload
from repro.workloads.archive import ArchiveError, characterize_archive

from . import oracles

#: The pinned differential cells — same as the golden-profile fixtures.
SYSTEMS = ("giraph", "powergraph", "sparklike")


# ---------------------------------------------------------------------------
# Kernel-vs-oracle comparisons, each exact.
# ---------------------------------------------------------------------------


def assert_attributable_equal(trace, grid):
    kernel = trace.attributable_instances(grid)
    oracle = list(oracles.iter_attributable_instances(trace, grid))
    assert [i.instance_id for i, _ in kernel] == [i.instance_id for i, _ in oracle]
    for (inst, k), (_, o) in zip(kernel, oracle):
        assert np.array_equal(k, o), inst.instance_id


def assert_demand_equal(kernel, oracle):
    assert list(kernel.per_resource) == list(oracle.per_resource)
    for name, k in kernel.per_resource.items():
        o = oracle[name]
        assert k.capacity == o.capacity
        assert np.array_equal(k.exact_total, o.exact_total), name
        assert np.array_equal(k.variable_total, o.variable_total), name
        assert k.instance_ids == o.instance_ids, name
        for field in ("magnitude", "is_exact", "demand"):
            assert getattr(k, field).dtype == getattr(o, field).dtype, (name, field)
            assert np.array_equal(getattr(k, field), getattr(o, field)), (name, field)


def assert_upsampled_equal(kernel, oracle):
    assert kernel.resources() == oracle.resources()
    for name in kernel.resources():
        k, o = kernel[name], oracle[name]
        assert k.capacity == o.capacity
        for field in ("rate", "coverage", "unexplained"):
            assert np.array_equal(getattr(k, field), getattr(o, field)), (name, field)


def _bottleneck_rows(report):
    return [(b.kind, b.instance_id, b.phase_path, b.resource, b.duration) for b in report]


def assert_bottlenecks_equal(kernel, oracle):
    assert _bottleneck_rows(kernel) == _bottleneck_rows(oracle)
    for k, o in zip(kernel, oracle):
        if o.slices is None:
            assert k.slices is None
        else:
            assert np.array_equal(k.slices, o.slices), (k.instance_id, k.resource)


def oracle_characterize(g10: Grade10, trace, resource_trace) -> PerformanceProfile:
    """:meth:`Grade10.characterize` with every kernel swapped for its oracle."""
    grid = trace.grid(g10.slice_duration)
    demand = oracles.estimate_demand(trace, g10.resource_model, g10.rules, grid)
    upsampled = oracles._upsample(resource_trace, demand, grid)
    attribution = attribute(upsampled, demand, trace)
    bottlenecks = oracles._find_bottlenecks(
        trace,
        upsampled,
        attribution,
        saturation_threshold=g10.saturation_threshold,
        exact_cap_threshold=g10.exact_cap_threshold,
        min_duration=0.0,
    )
    issues = oracles.detect_issues(
        trace,
        g10.execution_model,
        bottlenecks,
        upsampled,
        attribution,
        min_improvement=g10.min_improvement,
    )
    outliers = oracles.find_outliers(
        trace,
        g10.execution_model,
        threshold=g10.outlier_threshold,
        min_phase_duration=g10.min_phase_duration,
    )
    return PerformanceProfile(
        grid=grid,
        execution_trace=trace,
        resource_trace=resource_trace,
        demand=demand,
        upsampled=upsampled,
        attribution=attribution,
        bottlenecks=bottlenecks,
        issues=issues,
        outliers=outliers,
    )


def _export(profile) -> str:
    return json.dumps(profile_to_dict(profile, series=True), sort_keys=True)


def assert_replay_equal(trace, model, scenarios=None):
    """Every ``simulate_many`` row equals its single replay and the scalar replay."""
    sim = ReplaySimulator(trace, model)
    if scenarios is None:
        scenarios = [None, {iid: 0.5 * k for k, iid in enumerate(sim._ids[::3])}]
    makespans = sim.simulate_many(scenarios).tolist()
    assert len(makespans) == len(scenarios)
    for overrides, makespan in zip(scenarios, makespans):
        fast, ref = sim.simulate(overrides), oracles._simulate_scalar(sim, overrides)
        assert fast.start == ref.start
        assert fast.end == ref.end
        assert makespan == fast.makespan == ref.makespan


def implied_leaf_edges(sim):
    """The leaf relation of ``sim``'s replay graph: its direct edges plus
    one ``(member, successor)`` pair per member of each join it feeds."""
    pred, succ = sim._edges
    members = {}
    for member, join in zip(*map(np.ndarray.tolist, sim._join_members)):
        members.setdefault(join, []).append(member)
    edges = set(zip(pred.tolist(), succ.tolist()))
    for join, s in zip(*map(np.ndarray.tolist, sim._join_edges)):
        edges.update((m, s) for m in members[join])
    return edges


def assert_replay_graph_equal(trace, model):
    """The leaf relation the graph implies (after the ``pred < succ``
    filter), the id-sorted predecessor lists and the critical path all
    equal the dict-based oracle's."""
    sim = ReplaySimulator(trace, model)
    ref = oracles.ScalarReplay(trace, model)
    assert sim._ids == [inst.instance_id for inst in ref.order]
    assert implied_leaf_edges(sim) == ref.forward_edges()
    for iid in sim._ids:
        assert sim._predecessor_ids(iid) == ref.preds[iid], iid
    path = critical_path(trace, model, simulator=sim)
    assert [inst.instance_id for inst in path] == ref.critical_path()


def assert_reductions_equal(trace, report, upsampled, attribution, resources=None):
    if resources is None:
        resources = sorted({b.resource for b in report})
    names, res, inst, red = _bottleneck_reductions(
        resources, _GroupIndex.of(trace.columns()), report, upsampled, attribution
    )
    ids = trace.columns().ids
    kernel = {name: [] for name in names}
    for c, i, r in zip(res.tolist(), inst.tolist(), red.tolist()):
        kernel[names[c]].append((ids[i], r))
    for resource in resources:
        oracle = oracles._bottleneck_reductions(resource, trace, report, upsampled, attribution)
        assert kernel[resource] == list(oracle.items()), resource


def assert_rows_equal(sim, rows, overrides):
    """Scenario rows replay exactly as the oracle's override dicts do."""
    effective = np.maximum(rows, 0.0)
    effective[:, sim._is_wait] = 0.0
    assert np.array_equal(effective, sim._durations(overrides))


def assert_scenarios_equal(
    trace, model, report, upsampled, attribution, resource_groups=None, min_group_size=2
):
    """Every what-if row, subject and affected list equals the oracle's."""
    sim = ReplaySimulator(trace, model)
    scenarios, rows = _bottleneck_scenarios(sim, report, upsampled, attribution, resource_groups)
    ref = oracles.bottleneck_scenarios(trace, report, upsampled, attribution, resource_groups)
    assert [(s.subject, s.affected) for s in scenarios] == [r[:2] for r in ref]
    assert_rows_equal(sim, rows, [r[-1] for r in ref])
    scenarios, rows = _imbalance_scenarios(sim, model, min_group_size)
    ref = oracles.imbalance_scenarios(trace, model, min_group_size)
    assert [(s.subject, s.affected, s.what) for s in scenarios] == [
        (path, affected, f"Perfectly balancing {len(affected)} {path!r} phases across "
         f"{n_groups} group(s)")
        for path, affected, n_groups, _ in ref
    ]
    assert_rows_equal(sim, rows, [r[-1] for r in ref])


def assert_outliers_equal(trace, model, **kw):
    assert find_outliers(trace, model, **kw) == oracles.find_outliers(trace, model, **kw)


def assert_rule_table_equal(rules, trace, resource_names):
    instances = trace.instances()
    assert rules.rule_table(instances, resource_names) == [
        [oracles.rule_for(rules, inst, name) for name in resource_names] for inst in instances
    ]


def assert_issues_equal(g10, profile):
    args = (
        profile.execution_trace,
        g10.execution_model,
        profile.bottlenecks,
        profile.upsampled,
        profile.attribution,
    )
    kernel = detect_issues(*args, min_improvement=g10.min_improvement)
    assert kernel == oracles.detect_issues(*args, min_improvement=g10.min_improvement)


# ---------------------------------------------------------------------------
# The golden cells.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _golden(system: str):
    """``(g10, kernel profile)`` for one system's golden cell, as ``repro run`` builds it."""
    from repro.workloads.runner import characterize_run

    run = run_workload(WorkloadSpec(system, "graph500", "pr", preset="tiny", seed=0))
    model, resources, rules = analysis_inputs(run.system_run, tuned=True)
    g10 = Grade10(model, resources, rules, min_phase_duration=0.05)
    return g10, characterize_run(run, tuned=True)


@pytest.mark.parametrize("system", SYSTEMS)
class TestBackendEquivalence:
    """The batched kernels against the scalar oracle backend, per golden cell."""

    def test_exported_profiles_equivalent(self, system):
        g10, profile = _golden(system)
        oracle = oracle_characterize(g10, profile.execution_trace, profile.resource_trace)
        assert _export(profile) == _export(oracle)

    def test_attributable_activity_equivalent(self, system):
        _, profile = _golden(system)
        assert_attributable_equal(profile.execution_trace, profile.grid)

    def test_demand_arrays_equivalent(self, system):
        g10, profile = _golden(system)
        oracle = oracles.estimate_demand(
            profile.execution_trace, g10.resource_model, g10.rules, profile.grid
        )
        assert_demand_equal(profile.demand, oracle)

    def test_upsampled_arrays_equivalent(self, system):
        _, profile = _golden(system)
        oracle = oracles._upsample(profile.resource_trace, profile.demand, profile.grid)
        assert_upsampled_equal(profile.upsampled, oracle)

    def test_reports_equivalent(self, system):
        g10, profile = _golden(system)
        oracle = oracles._find_bottlenecks(
            profile.execution_trace,
            profile.upsampled,
            profile.attribution,
            saturation_threshold=g10.saturation_threshold,
            exact_cap_threshold=g10.exact_cap_threshold,
            min_duration=0.0,
        )
        assert_bottlenecks_equal(profile.bottlenecks, oracle)

    def test_replay_equivalent(self, system):
        g10, profile = _golden(system)
        assert_replay_equal(profile.execution_trace, g10.execution_model)

    def test_replay_graph_equivalent(self, system):
        g10, profile = _golden(system)
        assert_replay_graph_equal(profile.execution_trace, g10.execution_model)

    def test_bottleneck_reductions_equivalent(self, system):
        _, profile = _golden(system)
        assert_reductions_equal(
            profile.execution_trace, profile.bottlenecks, profile.upsampled, profile.attribution
        )

    def test_issue_reports_equivalent(self, system):
        g10, profile = _golden(system)
        assert_issues_equal(g10, profile)

    def test_scenario_rows_equivalent(self, system):
        g10, profile = _golden(system)
        args = (profile.bottlenecks, profile.upsampled, profile.attribution)
        assert_scenarios_equal(profile.execution_trace, g10.execution_model, *args)
        classes = {}
        for b in profile.bottlenecks:
            classes.setdefault(b.resource.split("@")[0], []).append(b.resource)
        groups = {cls: list(dict.fromkeys(rs)) for cls, rs in classes.items()}
        assert_scenarios_equal(profile.execution_trace, g10.execution_model, *args, groups)

    def test_outlier_reports_equivalent(self, system):
        g10, profile = _golden(system)
        assert profile.outliers == oracles.find_outliers(
            profile.execution_trace,
            g10.execution_model,
            threshold=g10.outlier_threshold,
            min_phase_duration=g10.min_phase_duration,
        )
        for kw in ({"min_group_size": 2}, {"threshold": 1.05}, {}):
            assert_outliers_equal(profile.execution_trace, g10.execution_model, **kw)
            assert_outliers_equal(profile.execution_trace, None, **kw)

    def test_rule_table_equivalent(self, system):
        g10, profile = _golden(system)
        assert_rule_table_equal(
            g10.rules, profile.execution_trace, g10.resource_model.names()
        )

    def test_invariants_hold_under_columnar(self, system):
        """The batched (columnar) kernels' profile passes every invariant."""
        report = _golden(system)[1].check_invariants()
        assert report.ok, report.render()


# ---------------------------------------------------------------------------
# Generated profiles: a small but fully featured pipeline run whose shape
# (durations, thread counts, capacities, measurements) Hypothesis controls.
# ---------------------------------------------------------------------------

_dur = st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)
_value = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)

profile_inputs = st.fixed_dictionaries(
    {
        "load_dur": _dur,
        "compute_durs": st.lists(_dur, min_size=1, max_size=4),
        "barrier_dur": st.floats(0.25, 1.0, allow_nan=False),
        "capacity": st.floats(1.0, 8.0, allow_nan=False),
        "values": st.tuples(_value, _value),
        "block": st.booleans(),
        "slice_duration": st.sampled_from([0.5, 0.25, 0.2]),
    }
)


def build_inputs(p):
    """A configured :class:`Grade10` plus a synthetic run shaped by ``p``."""
    model = ExecutionModel("bsp")
    model.add_phase("/Load")
    model.add_phase("/Execute", after="Load")
    model.add_phase("/Execute/Superstep", repeatable=True)
    model.add_phase("/Execute/Superstep/Compute", concurrent=True)
    model.add_phase("/Execute/Superstep/Barrier", after="Compute")

    resources = ResourceModel("cluster")
    resources.add_consumable("cpu@m0", p["capacity"], unit="cores")
    resources.add_blocking("gc@m0")

    rules = (
        RuleMatrix()
        .set_none("/*", "cpu@*")
        .set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.25)
        .set_variable("/Load", "cpu@*", 1.0)
    )

    t_load = p["load_dur"]
    compute_end = t_load + max(p["compute_durs"])
    t_end = compute_end + p["barrier_dur"]

    trace = ExecutionTrace()
    trace.record("/Load", 0.0, t_load, instance_id="load", machine="m0")
    ex = trace.record("/Execute", t_load, t_end, instance_id="exec")
    ss = trace.record("/Execute/Superstep", t_load, t_end, parent=ex, instance_id="ss0")
    for i, dur in enumerate(p["compute_durs"]):
        inst = trace.record(
            "/Execute/Superstep/Compute", t_load, t_load + dur, parent=ss,
            machine="m0", thread=f"t{i}", instance_id=f"c{i}",
        )
        if p["block"] and i == 0:
            inst.add_blocking("gc@m0", t_load + dur / 4, t_load + dur / 2)
    trace.record(
        "/Execute/Superstep/Barrier", compute_end, t_end, parent=ss, instance_id="b0"
    )

    rtrace = ResourceTrace()
    mid = t_end / 2
    rtrace.add_measurement("cpu@m0", 0.0, mid, p["values"][0])
    rtrace.add_measurement("cpu@m0", mid, t_end, p["values"][1])

    g10 = Grade10(model, resources, rules, slice_duration=p["slice_duration"])
    return g10, trace, rtrace


def build_profile(p):
    """One full Grade10 run over a synthetic trace shaped by ``p``."""
    g10, trace, rtrace = build_inputs(p)
    return g10.characterize(trace, rtrace)


class TestGeneratedProfiles:
    """Every kernel equals its oracle on Hypothesis-generated runs."""

    @settings(max_examples=60, deadline=None)
    @given(profile_inputs)
    def test_kernels_equal_oracles(self, p):
        g10, trace, rtrace = build_inputs(p)
        profile = g10.characterize(trace, rtrace)
        grid = profile.grid
        assert_attributable_equal(trace, grid)
        assert_demand_equal(
            profile.demand,
            oracles.estimate_demand(trace, g10.resource_model, g10.rules, grid),
        )
        assert_upsampled_equal(
            profile.upsampled, oracles._upsample(rtrace, profile.demand, grid)
        )
        assert_bottlenecks_equal(
            profile.bottlenecks,
            oracles._find_bottlenecks(
                trace,
                profile.upsampled,
                profile.attribution,
                saturation_threshold=g10.saturation_threshold,
                exact_cap_threshold=g10.exact_cap_threshold,
                min_duration=0.0,
            ),
        )
        assert_replay_equal(trace, g10.execution_model)
        assert_replay_graph_equal(trace, g10.execution_model)
        assert_reductions_equal(trace, profile.bottlenecks, profile.upsampled, profile.attribution)
        assert_issues_equal(g10, profile)
        assert_scenarios_equal(
            trace, g10.execution_model, profile.bottlenecks, profile.upsampled,
            profile.attribution,
        )
        assert profile.outliers == oracles.find_outliers(
            trace, g10.execution_model, min_phase_duration=g10.min_phase_duration
        )
        assert_rule_table_equal(g10.rules, trace, g10.resource_model.names())

    @settings(max_examples=25, deadline=None)
    @given(profile_inputs)
    def test_profiles_equal_oracle_pipeline(self, p):
        assert _export(build_profile(p)) == _export(oracle_characterize(*build_inputs(p)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 20).flatmap(
            lambda w: st.lists(
                st.tuples(
                    st.floats(0.0, 50.0, allow_nan=False),
                    st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=w, max_size=w),
                    st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=w, max_size=w),
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_water_fill_rows_equal_oracle(self, rows):
        amounts = np.array([a for a, _, _ in rows])
        weights = np.array([w for _, w, _ in rows])
        headroom = np.array([h for _, _, h in rows])
        alloc = _water_fill_batch(amounts, weights, headroom)
        for i in range(len(rows)):
            assert np.array_equal(
                alloc[i], oracles._water_fill(amounts[i], weights[i], headroom[i])
            ), i

    @pytest.mark.parametrize("min_duration", [0.0, 0.3, 1.0])
    def test_bottleneck_min_duration_matches_oracle(self, min_duration):
        g10, trace, rtrace = build_inputs(
            {
                "load_dur": 1.0, "compute_durs": [1.5, 0.75], "barrier_dur": 0.5,
                "capacity": 1.0, "values": (4.0, 1.0), "block": True,
                "slice_duration": 0.25,
            }
        )
        profile = g10.characterize(trace, rtrace)
        args = (trace, profile.upsampled, profile.attribution)
        kw = dict(saturation_threshold=0.5, exact_cap_threshold=0.5, min_duration=min_duration)
        assert_bottlenecks_equal(
            find_bottlenecks(*args, **kw), oracles._find_bottlenecks(*args, **kw)
        )


# ---------------------------------------------------------------------------
# §III-F on generated inputs: replay traces with every dependency kind, and
# bottleneck reductions over several resources.
# ---------------------------------------------------------------------------


def replay_model() -> ExecutionModel:
    """Barrier, wait, nested and repeatable phases: every replay relation."""
    m = ExecutionModel("replay")
    m.add_phase("/Load")
    m.add_phase("/Execute", after="Load")
    m.add_phase("/Execute/Step", repeatable=True)
    m.add_phase("/Execute/Step/Compute", concurrent=True)
    m.add_phase("/Execute/Step/Compute/Thread", concurrent=True)
    m.add_phase("/Execute/Step/Send", after="Compute", concurrent=True)
    m.add_phase("/Execute/Step/Wait", after="Compute", wait=True)
    m.add_phase("/Execute/Step/Barrier", after="Wait")
    return m


_t = st.floats(0.0, 4.0, allow_nan=False)
_len = st.floats(0.0, 2.0, allow_nan=False)
_machine = st.sampled_from(["m0", "m1", None])
_thread = st.sampled_from(["t0", "t1", None])


@st.composite
def replay_cases(draw):
    """A trace (possibly empty, timings possibly out of order, with
    ``depends_on`` on inner, missing and own ids) plus override scenarios
    over leaf, inner, wait-path and unknown ids, negative values included.

    The Compute instances of a step (with their Thread leaves) form a
    predecessor set shared by the step's Send instances and its Wait, and
    start times are drawn independently, so some members of a shared set
    often start after some of its successors."""
    trace = ExecutionTrace()

    def record(path, instance_id, **kw):
        t0 = draw(_t)
        return trace.record(path, t0, t0 + draw(_len), instance_id=instance_id, **kw)

    n_steps = draw(st.integers(0, 3))
    if n_steps or draw(st.booleans()):
        record("/Load", "load", machine=draw(_machine))
    if n_steps:
        ex = record("/Execute", "exec")
        for s in range(n_steps):
            step = record("/Execute/Step", f"s{s}", parent=ex)
            for c in range(draw(st.integers(1, 3))):
                iid = f"s{s}c{c}"
                known = [i.instance_id for i in trace.instances()] + [iid, "ghost"]
                comp = record(
                    "/Execute/Step/Compute", iid, parent=step,
                    machine=draw(_machine), thread=draw(_thread),
                    depends_on=draw(st.lists(st.sampled_from(known), max_size=2)),
                )
                for k in range(draw(st.integers(0, 2))):
                    record(
                        "/Execute/Step/Compute/Thread", f"{iid}t{k}", parent=comp,
                        machine=comp.machine, thread=draw(_thread),
                    )
            for k in range(draw(st.integers(0, 3))):
                record(
                    "/Execute/Step/Send", f"s{s}x{k}", parent=step,
                    machine=draw(_machine), thread=draw(_thread),
                )
            record("/Execute/Step/Wait", f"s{s}w", parent=step)
            record("/Execute/Step/Barrier", f"s{s}b", parent=step, machine=draw(_machine))
    ids = [i.instance_id for i in trace.instances()] + ["ghost"]
    overrides = st.dictionaries(
        st.sampled_from(ids), st.floats(-2.0, 3.0, allow_nan=False), max_size=6
    )
    scenarios = draw(st.lists(st.none() | overrides, min_size=1, max_size=4))
    model = replay_model() if draw(st.booleans()) else None
    return trace, model, scenarios


_kinds = st.sampled_from(list(BottleneckKind))
_levels = st.sampled_from([0.0, 1e-13, 0.25, 0.5, 1.0, 1.5, 3.0])


@st.composite
def reduction_cases(draw):
    """Bottlenecks of every kind on up to three attributed resources, plus
    one upsampled resource without attribution and one blocking resource."""
    n = draw(st.integers(1, 8))
    grid = TimeGrid(0.0, 0.25, n)
    iids = ["a", "b", "c", "d"]
    trace = ExecutionTrace()
    for iid in iids:
        trace.record("/P", 0.0, draw(st.floats(0.0, 2.0, allow_nan=False)), instance_id=iid)
    names = ["r0", "r1", "r2"][: draw(st.integers(1, 3))]
    row = lambda: np.array(draw(st.lists(_levels, min_size=n, max_size=n)))  # noqa: E731
    upsampled = UpsampledTrace(grid=grid, per_resource={})
    per_resource = {}
    for name in names + ["unattributed"]:
        capacity = draw(st.sampled_from([0.5, 1.0, 2.0]))
        upsampled.per_resource[name] = UpsampledResource(
            name, capacity, row(), np.ones(n), np.zeros(n)
        )
        if name == "unattributed":
            continue
        rows = draw(st.lists(st.sampled_from(iids), unique=True))
        demand = np.array([row() for _ in rows]).reshape(len(rows), n)
        per_resource[name] = ResourceAttribution(
            name, capacity, rows, np.zeros_like(demand), np.zeros(n), demand,
            np.zeros(len(rows), dtype=bool),
        )
    attribution = AttributionResult(grid, trace, per_resource)
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    report = BottleneckReport(grid=grid)
    for kind, iid, resource, duration, slices in draw(
        st.lists(
            st.tuples(
                _kinds, st.sampled_from(iids), st.sampled_from(names + ["gc"]),
                st.floats(0.0, 2.0, allow_nan=False), st.none() | mask,
            ),
            max_size=10,
        )
    ):
        report.bottlenecks.append(Bottleneck(kind, iid, "/P", resource, duration, slices))
    return trace, report, upsampled, attribution if draw(st.booleans()) else None


_rule_paths = ["/A", "/A/x", "/A/x/y", "/B", "/B/z"]
_rule_locations = st.tuples(
    st.sampled_from(["m0", "m1", "", None]),
    st.sampled_from(["w0", None]),
    st.sampled_from(["t0", "t1", None]),
)


@st.composite
def rule_table_cases(draw):
    """A rule matrix, instances and resource names for :meth:`RuleMatrix.rule_table`.

    Path patterns overlap (``/*``, ``/A*``, ``/A/*`` ...) and entries
    repeat cells, so later entries override earlier ones; resource
    patterns use every placeholder, and locations include ``None`` and
    ``""`` (both format as ``*``).  ``{bogus}`` is an unknown placeholder,
    on a path that matches some instances or none (``/C``).
    """
    rules = RuleMatrix()
    if draw(st.booleans()):
        rules.set_default_rule(draw(st.sampled_from([NoneRule(), ExactRule(0.25)])))
    entries = st.tuples(
        st.sampled_from(["/*", "*", "/A", "/A*", "/A/*", "/A/x/?", "/[AB]", "/B*", "/C"]),
        st.sampled_from(
            ["*", "cpu@*", "cpu@{machine}", "net@{worker}", "disk@{thread}", "{machine}",
             "*@{thread}", "cpu@m[01]", "x@{bogus}", "x@{machine[5]}"]
        ),
        st.sampled_from([NoneRule(), ExactRule(0.5), ExactRule(1.0), VariableRule(2.5)]),
    )
    for path, pattern, rule in draw(st.lists(entries, max_size=8)):
        rules.set_rule(path, pattern, rule)
    instances = [
        PhaseInstance(f"i{k}", path, 0.0, 1.0, machine=m, worker=w, thread=t)
        for k, (path, (m, w, t)) in enumerate(
            draw(st.lists(st.tuples(st.sampled_from(_rule_paths), _rule_locations), max_size=10))
        )
    ]
    names = draw(
        st.lists(
            st.sampled_from(
                ["cpu@m0", "cpu@m1", "cpu@*", "net@w0", "net@*", "disk@t0", "disk@t1", "m0",
                 "t1@t1", "x@m0"]
            ),
            unique=True,
            max_size=6,
        )
    )
    return rules, instances, names


class TestReplayAndIssueKernels:
    """§III-F kernels against their oracles on generated inputs."""

    @settings(max_examples=150, deadline=None)
    @given(replay_cases())
    def test_simulate_many_rows_equal_single_and_scalar_replays(self, case):
        trace, model, scenarios = case
        assert_replay_equal(trace, model, scenarios)

    @settings(max_examples=100, deadline=None)
    @given(replay_cases())
    def test_replay_graph_equals_oracle(self, case):
        trace, model, _ = case
        assert_replay_graph_equal(trace, model)

    def test_shared_set_joins_only_successors_it_wholly_precedes(self):
        """Two Compute leaves feed two Send leaves: the Send that starts
        after both waits through one join, the one that starts between
        them gets a direct edge from the Compute before it."""
        trace = ExecutionTrace()
        ex = trace.record("/Execute", 0.0, 5.0, instance_id="exec")
        step = trace.record("/Execute/Step", 0.0, 5.0, parent=ex, instance_id="s0")
        # Distinct threads, so no same-location chaining adds edges.
        for iid, t0, thread in (("c0", 0.0, "t0"), ("c1", 2.0, "t1")):
            trace.record("/Execute/Step/Compute", t0, t0 + 1.0, parent=step,
                         thread=thread, instance_id=iid)
        for iid, t0, thread in (("x0", 1.0, "t2"), ("x1", 3.0, "t3")):
            trace.record("/Execute/Step/Send", t0, t0 + 1.0, parent=step,
                         thread=thread, instance_id=iid)
        sim = ReplaySimulator(trace, replay_model())
        pos = {iid: k for k, iid in enumerate(sim._ids)}
        assert sim._n_joins == 1
        assert list(zip(*map(np.ndarray.tolist, sim._join_edges))) == [(0, pos["x1"])]
        assert sorted(sim._join_members[0].tolist()) == [pos["c0"], pos["c1"]]
        assert list(zip(*map(np.ndarray.tolist, sim._edges))) == [(pos["c0"], pos["x0"])]
        assert_replay_graph_equal(trace, replay_model())
        assert_replay_equal(trace, replay_model(), [None, {"c1": 0.5}, {"c0": 4.0}])

    def test_empty_trace(self):
        sim = ReplaySimulator(ExecutionTrace(), None)
        scenarios = [None, {"ghost": 1.0}]
        assert sim.simulate_many(scenarios).tolist() == [0.0, 0.0]
        assert_replay_equal(ExecutionTrace(), None, scenarios)
        assert_replay_graph_equal(ExecutionTrace(), None)

    def test_rule_table_resolves_every_location(self):
        """Instances differing in any one of path, machine, worker or thread
        get their own rules, placeholders and the ``*`` fallback included."""
        rules = (
            RuleMatrix()
            .set_variable("/*", "*", 2.0)
            .set_exact("/A", "cpu@{machine}", 0.5)
            .set_none("/A/*", "net@{worker}")
            .set_exact("/B", "disk@{thread}", 0.25)
            .set_variable("/B", "cpu@*", 3.0)
        )
        trace = ExecutionTrace()
        locations = [(m, w, t) for m in ("m0", "m1", None) for w in ("w0", "w1", None)
                     for t in ("t0", "t1", None)]
        for path in ("/A", "/A/x", "/B"):
            for machine, worker, thread in locations:
                trace.record(path, 0.0, 1.0, machine=machine, worker=worker, thread=thread)
        names = [f"{kind}@{loc}" for kind in ("cpu", "net", "disk")
                 for loc in ("m0", "m1", "w0", "w1", "t0", "t1")]
        assert_rule_table_equal(rules, trace, names)

    @settings(max_examples=200, deadline=None)
    @given(rule_table_cases())
    def test_rule_table_equals_rule_for_oracle(self, case):
        """Overlapping path patterns, later entries overriding earlier ones,
        placeholders over ``None`` locations, and unknown placeholders on
        entries whose path matches no instance (no error) or some instance
        (the same ``ValueError`` from both)."""
        rules, instances, names = case
        try:
            expected = [[oracles.rule_for(rules, i, name) for name in names] for i in instances]
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                rules.rule_table(instances, names)
            assert str(raised.value) == str(exc)
            return
        assert rules.rule_table(instances, names) == expected
        for inst, row in zip(instances, expected):
            for name, rule in zip(names, row):
                assert rules.rule_for(inst, name) == rule

    def test_unknown_placeholder_raises_only_where_its_path_matches(self):
        rules = RuleMatrix().set_exact("/A", "cpu@{machine}", 0.5).set_none("/Z", "x@{bogus}")
        trace = ExecutionTrace()
        trace.record("/A", 0.0, 1.0, machine="m0")
        assert_rule_table_equal(rules, trace, ["cpu@m0", "x@m0"])
        trace.record("/Z", 0.0, 1.0)
        with pytest.raises(ValueError, match="bogus"):
            rules.rule_table(trace.instances(), ["cpu@m0"])
        with pytest.raises(ValueError, match="bogus"):
            oracles.rule_for(rules, trace.instances()[1], "cpu@m0")
        assert rules.rule_table(trace.instances(), []) == [[], []]

    @settings(max_examples=200, deadline=None)
    @given(reduction_cases())
    def test_bottleneck_reductions_equal_oracle(self, case):
        trace, report, upsampled, attribution = case
        assert_reductions_equal(
            trace, report, upsampled, attribution, ["r0", "r1", "r2", "gc", "unattributed"]
        )


# ---------------------------------------------------------------------------
# §III-F scenarios and §IV-D outliers on fixed traces: cases generated
# traces rarely reach.
# ---------------------------------------------------------------------------


def fixed_model() -> ExecutionModel:
    """Balanceable, unbalanceable and non-concurrent sibling types."""
    m = ExecutionModel("fixed")
    m.add_phase("/Execute")
    m.add_phase("/Execute/Step", repeatable=True)
    m.add_phase("/Execute/Step/Compute", concurrent=True)
    m.add_phase("/Execute/Step/Compute/Thread", concurrent=True)
    m.add_phase("/Execute/Step/Gather", concurrent=True, balanceable=False)
    m.add_phase("/Execute/Step/Send", after="Compute")
    return m


#: Durations of the leaf Compute instances c2..c12: eleven distinct values,
#: so the 13-member group sums past NumPy's 8-wide pairwise block.
COMPUTE_DURATIONS = [1.1, 2.3, 0.7, 3.9, 1.3, 2.9, 0.3, 4.1, 1.7, 2.2, 0.9]
#: (worker, duration) of the Gather instances g0..g8: worker w0's peers
#: have median 1 and two stragglers of factor 5, worker w1's median 2 and
#: one straggler of factor 5 — a three-way tie in outlier factor.
GATHERS = [("w0", 1.0), ("w1", 2.0), ("w0", 5.0), ("w1", 10.0), ("w0", 1.0),
           ("w1", 2.0), ("w0", 1.0), ("w1", 2.0), ("w0", 5.0)]


def fixed_trace() -> ExecutionTrace:
    """One step: a 13-member Compute group whose first member is an inner
    instance of zero duration (its Threads keep their length, scale 1.0)
    and whose second is an inner instance of 3 s; nine Gathers; three
    Sends."""
    trace = ExecutionTrace()
    ex = trace.record("/Execute", 0.0, 20.0, instance_id="exec")
    step = trace.record("/Execute/Step", 0.0, 20.0, parent=ex, instance_id="s0")
    c0 = trace.record("/Execute/Step/Compute", 1.0, 1.0, parent=step, machine="m0",
                      instance_id="c0")
    for k, length in enumerate((0.5, 0.75)):
        trace.record("/Execute/Step/Compute/Thread", 1.0, 1.0 + length, parent=c0,
                     machine="m0", thread=f"t{k}", instance_id=f"c0t{k}")
    c1 = trace.record("/Execute/Step/Compute", 0.0, 3.0, parent=step, machine="m1",
                      instance_id="c1")
    for k, length in enumerate((3.0, 1.5)):
        trace.record("/Execute/Step/Compute/Thread", 0.0, length, parent=c1,
                     machine="m1", thread=f"t{k}", instance_id=f"c1t{k}")
    for k, length in enumerate(COMPUTE_DURATIONS, 2):
        trace.record("/Execute/Step/Compute", 0.0, length, parent=step,
                     machine=f"m{k % 2}", thread=f"t{k}", instance_id=f"c{k}")
    for k, (worker, length) in enumerate(GATHERS):
        trace.record("/Execute/Step/Gather", 5.0, 5.0 + length, parent=step,
                     machine=worker, worker=worker, thread=f"g{k}", instance_id=f"g{k}")
    for k in range(3):
        trace.record("/Execute/Step/Send", 16.0, 16.5 + k, parent=step, thread=f"x{k}",
                     instance_id=f"x{k}")
    return trace


class TestFixedScenarioAndOutlierCases:
    def test_imbalance_rows_equal_oracle(self):
        trace, model = fixed_trace(), fixed_model()
        sim = ReplaySimulator(trace, model)
        scenarios, rows = _imbalance_scenarios(sim, model, 2)
        # Gather is not balanceable and Send not concurrent.
        assert [s.subject for s in scenarios] == [
            "/Execute/Step/Compute", "/Execute/Step/Compute/Thread"
        ]
        assert_scenarios_equal(trace, model, BottleneckReport(trace.grid(0.5)), None, None)
        pos = {iid: k for k, iid in enumerate(sim._ids)}
        compute = rows[0]
        mean = float(np.mean([0.0, 3.0] + COMPUTE_DURATIONS))
        assert compute[pos["c2"]] == mean
        # Scale 1.0 for the zero-length inner member, mean / 3 for c1.
        assert compute[pos["c0t1"]] == 0.75
        assert compute[pos["c1t1"]] == 1.5 * (mean / 3.0)

    def test_no_model_balances_every_group(self):
        trace = fixed_trace()
        assert_scenarios_equal(trace, None, BottleneckReport(trace.grid(0.5)), None, None)
        assert_scenarios_equal(
            trace, None, BottleneckReport(trace.grid(0.5)), None, None, min_group_size=4
        )

    def test_outlier_ties_keep_their_order(self):
        trace, model = fixed_trace(), fixed_model()
        report = find_outliers(trace, model)
        assert report == oracles.find_outliers(trace, model)
        (gather,) = [g for g in report.groups if g.phase_path == "/Execute/Step/Gather"]
        assert [o.instance_id for o in gather.outliers] == ["g2", "g8", "g3"]
        assert {o.factor for o in gather.outliers} == {5.0}
        # Send is not concurrent: no group.
        assert all(g.phase_path != "/Execute/Step/Send" for g in report.groups)
        for kw in ({"min_group_size": 2}, {"threshold": 4.0}, {"min_phase_duration": 5.0}):
            assert_outliers_equal(trace, model, **kw)
            assert_outliers_equal(trace, None, **kw)

    def test_bottleneck_on_an_inner_instance_moves_no_leaf(self):
        trace, model = fixed_trace(), fixed_model()
        grid = TimeGrid(0.0, 0.5, 40)
        util = np.zeros(40)
        util[:8] = 1.0
        upsampled = UpsampledTrace(grid=grid, per_resource={
            "cpu@m1": UpsampledResource("cpu@m1", 1.0, util, np.ones(40), np.zeros(40)),
        })
        mask = np.zeros(40, dtype=bool)
        mask[:4] = True
        report = BottleneckReport(grid, [
            Bottleneck(BottleneckKind.SATURATION, "c1", "/Execute/Step/Compute", "cpu@m1",
                       2.0, mask),
            Bottleneck(BottleneckKind.BLOCKING, "c1", "/Execute/Step/Compute", "gc@m1", 0.5),
            Bottleneck(BottleneckKind.SATURATION, "c3", "/Execute/Step/Compute", "cpu@m1",
                       2.0, mask),
        ])
        assert_scenarios_equal(trace, model, report, upsampled, None)
        sim = ReplaySimulator(trace, model)
        scenarios, rows = _bottleneck_scenarios(sim, report, upsampled, None, None)
        assert [(s.subject, s.affected) for s in scenarios] == [
            ("cpu@m1", ("c1", "c3")), ("gc@m1", ("c1",))
        ]
        pos = {iid: k for k, iid in enumerate(sim._ids)}
        # Only the leaf c3 shortens (by its four slices, capped at 2.3 s).
        assert np.flatnonzero(rows[0] != sim.base_durations).tolist() == [pos["c3"]]
        assert rows[0][pos["c3"]] == 2.3 - 2.0
        assert np.array_equal(rows[1], sim.base_durations)
        args = (trace, model, report, upsampled, None)
        assert detect_issues(*args, min_improvement=0.0) == oracles.detect_issues(
            *args, min_improvement=0.0
        )


# ---------------------------------------------------------------------------
# Faults: each shipped fault keeps its recorded outcome.
# ---------------------------------------------------------------------------

#: Outcome of characterizing the tiny giraph archive after each shipped
#: fault at severity 1.0 (seed 11): a typed archive error, or a profile
#: with this set of violated invariants.  Recorded while the pipeline still
#: had two interchangeable cores; both produced exactly this table.
FAULT_OUTCOMES = {
    "clock_skew": ("profile", ["nesting"]),
    "drop_phase_boundaries": ("error", "ArchiveCorruptError"),
    "drop_samples": ("profile", []),
    "duplicate_samples": ("profile", []),
    "reorder_events": ("profile", []),
    "truncate_log": ("error", "ArchiveCorruptError"),
    "zero_resource": ("profile", []),
}


class TestFaultOutcomes:
    def test_table_covers_every_fault(self):
        assert sorted(FAULT_OUTCOMES) == sorted(FAULTS)

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_outcome(self, tiny_archive, tmp_path, name):
        dest = tmp_path / name
        apply_faults(tiny_archive, dest, [fault_at(name, 1.0)], seed=11)
        try:
            profile = characterize_archive(dest)
        except ArchiveError as exc:
            outcome = ("error", type(exc).__name__)
        else:
            report = profile.check_invariants()
            assert all(v.invariant in INVARIANTS for v in report)
            assert math.isfinite(profile.makespan) and profile.makespan > 0
            outcome = ("profile", sorted({v.invariant for v in report}))
        assert outcome == FAULT_OUTCOMES[name]
