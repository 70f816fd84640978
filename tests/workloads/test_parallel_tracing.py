"""Tracing must not perturb results: equivalence and merged-trace structure.

Re-runs the serial-vs-parallel equivalence check with a tracer installed,
then audits the merged trace itself: worker spans nest correctly within
their own (pid, tid) track, every pooled cell ships a span covering at
least 95% of its measured wall-clock, and cache counters merge into exact
global totals instead of one restarting track per worker.
"""

import pytest

from repro import obs
from repro.core.export import profile_to_dict
from repro.parallel import CellSpec, execute_cell, run_grid
from repro.workloads import WorkloadSpec
from repro.workloads.graphalytics import run_suite

GRID = (("graph500", "pr"), ("graph500", "bfs"))


@pytest.fixture(autouse=True)
def _clean_tracer():
    prev = obs.uninstall()
    yield
    obs.uninstall()
    if prev is not None:
        obs.install(prev)


def _profile_dicts(result):
    return [profile_to_dict(e.profile) for e in result]


def _cells():
    return [
        CellSpec(WorkloadSpec("giraph", "graph500", alg, preset="tiny"))
        for alg in ("pr", "bfs")
    ]


def _span_events(tracer):
    return [e for e in tracer.events if e["ph"] == "X"]


class TestTracedEquivalence:
    def test_traced_parallel_matches_untraced_serial(self):
        """Tracing is observation only: profiles stay byte-identical."""
        serial = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=1)
        obs.install()
        parallel = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=4)
        tracer = obs.uninstall()
        for a, b in zip(_profile_dicts(serial), _profile_dicts(parallel)):
            assert a == b
        # The merged trace saw the whole pipeline, from every worker.
        names = {e["name"] for e in _span_events(tracer)}
        assert {"cell", "generate", "parse", "demand", "upsample",
                "attribute", "bottlenecks", "simulate"} <= names

    def test_traced_serial_matches_untraced_serial(self):
        serial = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=1)
        obs.install()
        traced = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=1)
        obs.uninstall()
        for a, b in zip(_profile_dicts(serial), _profile_dicts(traced)):
            assert a == b


class TestMergedTraceStructure:
    def test_worker_spans_nest_within_their_track(self):
        """Every span with a parent sits inside that parent's interval."""
        obs.install()
        run_grid(_cells(), jobs=2)
        tracer = obs.uninstall()
        events = _span_events(tracer)
        by_id = {e["args"]["id"]: e for e in events}
        linked = 0
        for e in events:
            parent_id = e["args"].get("parent")
            if parent_id is None:
                continue
            parent = by_id[parent_id]  # every parent id resolves
            assert parent["pid"] == e["pid"]
            assert parent["tid"] == e["tid"]
            # Timestamps are one monotonic clock machine-wide, so the
            # containment holds even for spans recorded in workers.
            slack = 1.0  # µs, timer granularity
            assert parent["ts"] <= e["ts"] + slack
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + slack
            linked += 1
        assert linked > 0  # the audit actually exercised nested spans

    def test_cell_spans_cover_measured_wall_clock(self):
        """Each pooled cell's span covers >= 95% of its CellResult.duration."""
        obs.install()
        results, _ = run_grid(_cells(), jobs=2)
        tracer = obs.uninstall()
        cell_spans = {
            e["args"]["label"]: e
            for e in _span_events(tracer)
            if e["name"] == "cell"
        }
        assert set(cell_spans) == {r.label for r in results}
        for r in results:
            span_s = cell_spans[r.label]["dur"] / 1e6
            assert span_s >= 0.95 * r.duration, (r.label, span_s, r.duration)

    def test_worker_spans_carry_worker_pids(self):
        obs.install()
        run_grid(_cells(), jobs=2)
        tracer = obs.uninstall()
        pids = {e["pid"] for e in _span_events(tracer) if e["name"] == "cell"}
        assert pids  # cells traced
        assert all(pid != tracer.pid for pid in pids)  # ran out-of-process

    def test_cache_counters_merge_to_exact_totals(self, tmp_path):
        obs.install()
        cold, _ = run_grid(_cells(), jobs=2, cache_dir=tmp_path)
        warm, _ = run_grid(_cells(), jobs=2, cache_dir=tmp_path)
        tracer = obs.uninstall()
        totals = tracer.counter_totals()
        assert totals["cache.trace.miss"] == len(cold)
        assert totals["cache.trace.hit"] == len(warm)

    def test_untraced_parallel_run_ships_no_snapshots(self):
        results, _ = run_grid(_cells(), jobs=2)
        assert all(r.trace is None for r in results)
        assert obs.current() is None

    def test_in_process_execute_cell_records_into_active_tracer(self):
        obs.install()
        execute_cell(_cells()[0], None)
        tracer = obs.uninstall()
        names = {e["name"] for e in _span_events(tracer)}
        assert "cell" in names

    def test_only_a_warm_cell_spans_an_archive_load(self, tmp_path):
        """The archive read is a ``load`` span inside ``cell``; cold cells read none."""
        cell = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"), characterize=True)
        runs = []
        for _ in ("cold", "warm"):
            obs.install()
            execute_cell(cell, tmp_path)
            runs.append({e["name"]: e for e in _span_events(obs.uninstall())})
        cold, warm = runs
        assert "archive" in cold and "load" not in cold
        load, outer = warm["load"], warm["cell"]
        assert outer["ts"] <= load["ts"]
        assert load["ts"] + load["dur"] <= outer["ts"] + outer["dur"]
