"""Tests for the live progress plane: event bus, RunStatus, run_grid wiring.

Covers the worker-side sink contract (near-free when disabled, never
raises), the RunStatus state machine / ETA / gauges, the gap-free event-id
contract that backs SSE resume, and the end-to-end integration through
``run_grid`` on both the inline and pooled paths.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import progress
from repro.parallel import CellSpec, EngineStats, run_grid
from repro.progress import ProgressEvent, RunRegistry, RunStatus
from repro.workloads import WorkloadSpec


@pytest.fixture(autouse=True)
def _clean_sink():
    """Every test starts and ends with publication disabled."""
    prev = progress.set_sink(None)
    yield
    progress.set_sink(prev)


def _event(kind, label="", **data):
    return ProgressEvent(kind=kind, label=label, data=data)


# ---------------------------------------------------------------------- #
# The bus
# ---------------------------------------------------------------------- #


class TestBus:
    def test_publish_without_sink_is_noop(self):
        progress.publish("cell.started", "a")  # must not raise

    def test_publish_reaches_installed_sink(self):
        seen = []
        progress.set_sink(seen.append)
        progress.publish("cell.finished", "a", duration=1.5)
        (event,) = seen
        assert event.kind == "cell.finished"
        assert event.label == "a"
        assert event.data == {"duration": 1.5}
        assert event.pid > 0 and event.t > 0

    def test_payload_may_carry_its_own_kind_and_label(self):
        seen = []
        progress.set_sink(seen.append)
        progress.publish("bottleneck.detected", "a", kind="saturation", label="b")
        (event,) = seen
        assert (event.kind, event.label) == ("bottleneck.detected", "a")
        assert event.data == {"kind": "saturation", "label": "b"}

    def test_set_sink_returns_previous(self):
        first = lambda e: None  # noqa: E731
        assert progress.set_sink(first) is None
        assert progress.set_sink(None) is first
        assert progress.current_sink() is None

    def test_raising_sink_never_propagates(self):
        def bad(_event):
            raise RuntimeError("queue torn down")

        progress.set_sink(bad)
        progress.publish("stage", "x")  # swallowed


# ---------------------------------------------------------------------- #
# RunStatus
# ---------------------------------------------------------------------- #


class TestRunStatus:
    def test_state_machine(self):
        status = RunStatus(["a", "b"], jobs=1)
        assert status.counts() == {
            "pending": 2, "running": 0, "done": 0, "cached": 0, "failed": 0,
        }
        status.record(_event("cell.started", "a"))
        assert status.counts()["running"] == 1
        status.record(_event("cell.finished", "a", duration=0.5))
        status.record(_event("cell.started", "b"))
        status.record(_event("cell.finished", "b", duration=0.5, cached=True))
        counts = status.counts()
        assert counts["done"] == 1 and counts["cached"] == 1
        assert counts["pending"] == counts["running"] == 0

    def test_failed_cell_counted(self):
        status = RunStatus(["a"], jobs=1)
        status.record(_event("cell.started", "a"))
        status.record(_event("cell.failed", "a", error="boom"))
        assert status.counts()["failed"] == 1
        assert status.gauges()["run_failed"] == 1.0

    def test_unknown_label_only_logged(self):
        status = RunStatus(["a"], jobs=1)
        status.record(_event("cell.finished", "not-a-cell"))
        assert status.counts()["pending"] == 1  # model untouched
        assert status.last_event_id == 1  # but the event is kept

    def test_eta_none_until_first_completion_then_scales_with_jobs(self):
        status = RunStatus(["a", "b", "c"], jobs=2)
        assert status.eta_s() is None
        status.record(_event("cell.finished", "a", duration=4.0))
        # 2 remaining x 4s mean / 2 workers
        assert status.eta_s() == pytest.approx(4.0)
        status.record(_event("cell.finished", "b", duration=4.0))
        status.record(_event("cell.finished", "c", duration=4.0))
        assert status.eta_s() == 0.0

    def test_gauges_shape(self):
        status = RunStatus(["a", "b"], jobs=1)
        gauges = status.gauges()
        assert gauges["run_cells"] == 2.0
        assert gauges["run_queue_depth"] == 2.0
        assert "run_eta_seconds" not in gauges  # no estimate yet
        status.record(_event("cell.finished", "a", duration=1.0))
        assert "run_eta_seconds" in status.gauges()

    def test_event_ids_strictly_increasing_and_gap_free(self):
        status = RunStatus(["a", "b"], jobs=1)
        for kind, label in [
            ("run.started", ""), ("cell.started", "a"), ("stage", "a"),
            ("cell.finished", "a"), ("cell.started", "b"),
            ("cell.finished", "b"), ("run.finished", ""),
        ]:
            status.record(_event(kind, label))
        ids = [e["id"] for e in status.events_since(0)]
        assert ids == list(range(1, len(ids) + 1))
        assert status.last_event_id == len(ids)

    def test_events_since_resume_is_lossless(self):
        status = RunStatus(["a"], jobs=1)
        status.record(_event("cell.started", "a"))
        status.record(_event("cell.finished", "a"))
        head = status.events_since(0)[:1]
        tail = status.events_since(head[-1]["id"])
        assert [e["id"] for e in head + tail] == [1, 2]

    def test_events_since_blocking_wakes_on_record(self):
        status = RunStatus(["a"], jobs=1)
        got = []

        def consume():
            got.extend(status.events_since(0, timeout=5.0))

        t = threading.Thread(target=consume)
        t.start()
        status.record(_event("cell.started", "a"))
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert [e["id"] for e in got] == [1]

    def test_events_carry_queue_pressure(self):
        status = RunStatus(["a", "b"], jobs=1)
        status.record(_event("cell.started", "a"))
        (event,) = status.events_since(0)
        assert event["queue_depth"] == 1  # b still pending
        assert event["in_flight"] == 1  # a running

    def test_snapshot_is_json_native(self):
        import json

        status = RunStatus(["a"], jobs=2)
        status.record(_event("cell.started", "a"))
        snap = json.loads(json.dumps(status.snapshot()))
        assert snap["cells"] == {"a": "running"}
        assert snap["jobs"] == 2
        assert snap["finished"] is False

    def test_finish_records_run_finished(self):
        status = RunStatus([], jobs=1)
        status.finish()
        assert status.finished
        assert status.events_since(0)[-1]["kind"] == "run.finished"

    def test_run_ids_unique(self):
        assert RunStatus([]).run_id != RunStatus([]).run_id

    def test_concurrent_recording_keeps_ids_gap_free(self):
        labels = [f"c{i}" for i in range(8)]
        status = RunStatus(labels, jobs=8)

        def hammer(label):
            for _ in range(50):
                status.record(_event("stage", label))

        threads = [threading.Thread(target=hammer, args=(lb,)) for lb in labels]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [e["id"] for e in status.events_since(0)]
        assert ids == list(range(1, 8 * 50 + 1))


# SSE resume contract, property-tested: however a client chops the stream
# into reconnects, replaying from the last seen id loses and repeats nothing.
@settings(max_examples=50, deadline=None)
@given(
    n_events=st.integers(min_value=0, max_value=30),
    cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=5),
)
def test_sse_resume_property(n_events, cuts):
    status = RunStatus(["a"], jobs=1)
    for _ in range(n_events):
        status.record(ProgressEvent(kind="stage", label="a"))
    seen = []
    last_id = 0
    for cut in sorted(cuts) + [n_events]:
        # read up to the "disconnect point", then resume from last_id
        batch = [e for e in status.events_since(last_id) if e["id"] <= max(cut, last_id)]
        seen.extend(batch)
        if batch:
            last_id = batch[-1]["id"]
    seen.extend(status.events_since(last_id))
    ids = [e["id"] for e in seen]
    assert ids == list(range(1, n_events + 1))


# ---------------------------------------------------------------------- #
# RunRegistry
# ---------------------------------------------------------------------- #


class TestRunRegistry:
    def test_register_get_active(self):
        reg = RunRegistry()
        assert reg.active() is None
        first, second = RunStatus(["a"]), RunStatus(["b"])
        reg.register(first)
        reg.register(second)
        assert len(reg) == 2
        assert reg.active() is second
        assert reg.get(first.run_id) is first
        assert reg.get("missing") is None
        assert [s["run_id"] for s in reg.snapshots()] == [
            first.run_id, second.run_id,
        ]


# ---------------------------------------------------------------------- #
# run_grid integration
# ---------------------------------------------------------------------- #

_CELLS = [
    CellSpec(WorkloadSpec("giraph", "graph500", a, preset="tiny"))
    for a in ("pr", "bfs")
]


def _run(jobs, **kwargs):
    captured = []
    results, stats = run_grid(
        _CELLS, jobs=jobs, on_status=captured.append, **kwargs
    )
    (status,) = captured
    return results, stats, status


class TestRunGridIntegration:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_events_flow_and_run_completes(self, jobs):
        results, stats, status = _run(jobs)
        assert len(results) == len(_CELLS)
        assert status.finished
        counts = status.counts()
        assert counts["done"] == len(_CELLS)
        kinds = [e["kind"] for e in status.events_since(0)]
        assert kinds[0] == "run.started"
        assert kinds[-1] == "run.finished"
        assert kinds.count("cell.started") == len(_CELLS)
        assert kinds.count("cell.finished") == len(_CELLS)
        assert "stage" in kinds
        ids = [e["id"] for e in status.events_since(0)]
        assert ids == list(range(1, len(ids) + 1))

    def test_cache_hits_publish_cache_events(self, tmp_path):
        _run(1, cache_dir=tmp_path)
        _, _, status = _run(1, cache_dir=tmp_path)
        kinds = [e["kind"] for e in status.events_since(0)]
        assert kinds.count("cell.cache_hit") == len(_CELLS)
        assert status.counts()["cached"] == len(_CELLS)
        assert status.gauges()["run_cache_hits"] == float(len(_CELLS))

    def test_engine_stats_gain_live_fields(self):
        _, stats, _ = _run(1)
        doc = stats.to_dict()
        # the keys stay stable for existing consumers
        for key in ("n_cells", "executed", "cache_hits", "hit_rate", "jobs",
                    "wall_clock", "cell_seconds", "speedup"):
            assert key in doc

    def test_engine_stats_defaults_backward_compatible(self):
        stats = EngineStats(n_cells=1, executed=1, cache_hits=0, jobs=1,
                            wall_clock=1.0, cell_seconds=1.0)
        assert stats.graph_hits == stats.trace_misses == 0
        assert stats.speedup == 1.0

    def test_no_callback_no_sink_leak(self):
        run_grid(_CELLS[:1], jobs=1)
        assert progress.current_sink() is None
