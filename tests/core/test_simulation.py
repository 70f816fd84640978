"""Tests for the §III-F trace-replay simulator."""

import pytest

from repro.core.phases import ExecutionModel
from repro.core.simulation import (
    ReplaySimulator,
    SimulationError,
    UnknownInstanceError,
)
from repro.core.traces import ExecutionTrace

from .oracles import _simulate_scalar


def bsp_model() -> ExecutionModel:
    m = ExecutionModel("bsp")
    m.add_phase("/Load")
    m.add_phase("/Execute", after="Load")
    m.add_phase("/Execute/Superstep", repeatable=True)
    m.add_phase("/Execute/Superstep/Compute", concurrent=True)
    m.add_phase("/Execute/Superstep/Barrier", after="Compute")
    return m


def make_bsp_trace(compute_durations: list[list[float]]) -> ExecutionTrace:
    """Build a BSP-style trace: per superstep, concurrent computes then a barrier."""
    tr = ExecutionTrace()
    t = 0.0
    load = tr.record("/Load", 0.0, 1.0, instance_id="load")
    t = 1.0
    execute = tr.record(
        "/Execute", t, t + 1.0, instance_id="exec"
    )  # end adjusted below
    for s, durs in enumerate(compute_durations):
        ss = tr.record(
            "/Execute/Superstep", t, t + max(durs) + 0.5, parent=execute, instance_id=f"ss{s}"
        )
        for k, d in enumerate(durs):
            tr.record(
                "/Execute/Superstep/Compute",
                t,
                t + d,
                parent=ss,
                machine=f"m{k % 2}",
                thread=f"t{k}",
                instance_id=f"ss{s}-c{k}",
            )
        t += max(durs)
        tr.record(
            "/Execute/Superstep/Barrier", t, t + 0.5, parent=ss, instance_id=f"ss{s}-b"
        )
        t += 0.5
    execute.t_end = t
    return tr


class TestReplaySimulator:
    def test_baseline_matches_observed_makespan(self):
        trace = make_bsp_trace([[2.0, 3.0], [1.0, 4.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline()
        # Load(1) + ss0(3 + 0.5) + ss1(4 + 0.5) = 9.0
        assert base.makespan == pytest.approx(trace.makespan)

    def test_concurrent_computes_overlap(self):
        trace = make_bsp_trace([[2.0, 3.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline()
        assert base.start["ss0-c0"] == base.start["ss0-c1"]

    def test_barrier_waits_for_all_computes(self):
        trace = make_bsp_trace([[2.0, 3.0]])
        base = ReplaySimulator(trace, bsp_model()).baseline()
        assert base.start["ss0-b"] == pytest.approx(max(base.end["ss0-c0"], base.end["ss0-c1"]))

    def test_supersteps_chain_sequentially(self):
        trace = make_bsp_trace([[1.0, 1.0], [1.0, 1.0]])
        base = ReplaySimulator(trace, bsp_model()).baseline()
        assert base.start["ss1-c0"] == pytest.approx(base.end["ss0-b"])

    def test_shortening_critical_path_reduces_makespan(self):
        trace = make_bsp_trace([[2.0, 5.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline().makespan
        shorter = sim.simulate({"ss0-c1": 2.0}).makespan
        assert shorter == pytest.approx(base - 3.0)

    def test_shortening_non_critical_phase_is_free(self):
        trace = make_bsp_trace([[2.0, 5.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline().makespan
        same = sim.simulate({"ss0-c0": 0.5}).makespan
        assert same == pytest.approx(base)

    def test_same_thread_sequencing_without_model(self):
        """Two same-type phases on one thread replay sequentially (no migration)."""
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, thread="t0", instance_id="a")
        tr.record("/C", 2.0, 4.0, thread="t0", instance_id="b")
        tr.record("/C", 0.0, 1.0, thread="t1", instance_id="c")
        sim = ReplaySimulator(tr, None)
        base = sim.baseline()
        assert base.start["b"] == pytest.approx(base.end["a"])
        assert base.start["c"] == 0.0
        assert base.makespan == pytest.approx(4.0)

    def test_rebalancing_same_thread_work(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 6.0, thread="t0", instance_id="big")
        tr.record("/C", 0.0, 2.0, thread="t1", instance_id="small")
        sim = ReplaySimulator(tr, None)
        balanced = sim.simulate({"big": 4.0, "small": 4.0})
        assert balanced.makespan == pytest.approx(4.0)

    def test_negative_duration_clamped(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="x")
        sim = ReplaySimulator(tr, None)
        assert sim.simulate({"x": -5.0}).makespan == 0.0

    def test_empty_trace(self):
        sim = ReplaySimulator(ExecutionTrace(), None)
        assert sim.baseline().makespan == 0.0

    def test_duration_of(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="x")
        res = ReplaySimulator(tr, None).simulate({"x": 1.5})
        assert res.duration_of("x") == pytest.approx(1.5)


class TestUnknownInstanceError:
    def _result(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="ss0-c0")
        tr.record("/C", 2.0, 3.0, instance_id="ss0-c1")
        tr.record("/C", 3.0, 4.0, instance_id="barrier")
        return ReplaySimulator(tr, None).baseline()

    def test_lookup_names_the_id_and_nearest_known(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError) as excinfo:
            res.duration_of("ss0-c9")
        message = str(excinfo.value)
        assert "ss0-c9" in message
        assert "ss0-c0" in message or "ss0-c1" in message
        assert "3 instances" in message
        assert excinfo.value.instance_id == "ss0-c9"
        assert set(excinfo.value.nearest) <= {"ss0-c0", "ss0-c1", "barrier"}

    def test_start_and_end_lookups_raise_too(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError):
            res.start_of("nope")
        with pytest.raises(UnknownInstanceError):
            res.end_of("nope")

    def test_no_nearest_for_utterly_unrelated_id(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError) as excinfo:
            res.duration_of("zzzzzzzzzzz")
        assert not excinfo.value.nearest

    def test_is_a_keyerror_and_a_simulation_error(self):
        """Typed, but backward compatible with ``except KeyError`` callers."""
        res = self._result()
        with pytest.raises(KeyError):
            res.duration_of("missing")
        with pytest.raises(SimulationError):
            res.duration_of("missing")
        # KeyError normally reprs its argument; the override keeps the
        # human-readable message intact.
        try:
            res.duration_of("missing")
        except UnknownInstanceError as exc:
            assert not str(exc).startswith("'")

    def test_known_ids_still_resolve(self):
        res = self._result()
        assert res.duration_of("ss0-c0") == pytest.approx(2.0)
        assert res.start_of("ss0-c1") == pytest.approx(res.end_of("ss0-c0"))


class TestVectorizedReplayEquivalence:
    """The stage-scheduled array replay must match the scalar reference."""

    def _simulator(self) -> ReplaySimulator:
        from repro.adapters import giraph_execution_model, parse_execution_trace
        from repro.workloads.runner import WorkloadSpec, run_workload

        run = run_workload(WorkloadSpec("giraph", "datagen", "bfs", preset="tiny", seed=5))
        trace = parse_execution_trace(
            run.system_run.log, include_blocking=True, include_gc_phases=True
        )
        return ReplaySimulator(trace, giraph_execution_model())

    def test_baseline_matches_scalar_reference(self):
        sim = self._simulator()
        fast, ref = sim._simulate(None), _simulate_scalar(sim, None)
        assert fast.start == ref.start
        assert fast.end == ref.end

    def test_overrides_match_scalar_reference(self):
        import random

        sim = self._simulator()
        rng = random.Random(11)
        ids = sim._ids
        for _ in range(3):
            overrides = {
                ids[rng.randrange(len(ids))]: rng.uniform(-0.5, 2.0)
                for _ in range(min(25, len(ids)))
            }
            overrides["no-such-instance"] = 1.0  # silently ignored by both
            fast, ref = sim._simulate(overrides), _simulate_scalar(sim, overrides)
            assert fast.start == ref.start
            assert fast.end == ref.end

    def test_synthetic_bsp_matches_scalar_reference(self):
        sim = ReplaySimulator(make_bsp_trace([[1.0, 3.0], [2.0, 0.5]]), bsp_model())
        for overrides in (None, {"ss0-c0": 0.1}, {"ss1-c1": 4.0, "ss0-c1": -1.0}):
            fast, ref = sim._simulate(overrides), _simulate_scalar(sim, overrides)
            assert fast.start == ref.start
            assert fast.end == ref.end
