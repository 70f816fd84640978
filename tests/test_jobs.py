"""Tests for the job model behind ``POST /jobs`` (:mod:`repro.jobs`).

Three layers:

* spec validation units and Hypothesis properties — every rejected body
  raises a typed :class:`JobSpecError` and leaves no trace, every
  accepted body round-trips through its canonical JSON form unchanged;
* :class:`JobQueue` lifecycle with an injected executor (no real
  simulation, so the suite stays fast): queued → running → terminal,
  cancellation, backpressure, both shutdown modes;
* the concurrency contract: many submitters racing many cancellers never
  lose or duplicate a job id, and the gauges stay consistent.
"""

import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import ALGORITHMS
from repro.jobs import (
    JOB_STATES,
    MAX_CELLS_PER_JOB,
    MAX_JOBS_PER_JOB,
    TERMINAL_STATES,
    JobNotCancellableError,
    JobQueue,
    JobSpec,
    JobSpecError,
    QueueClosedError,
    QueueFullError,
    UnknownJobError,
    assemble_job_trace,
    parse_job_spec,
)
from repro.progress import RunRegistry
from repro.workloads import dataset_names
from repro.workloads.runner import SYSTEMS

# ---------------------------------------------------------------------- #
# Spec validation
# ---------------------------------------------------------------------- #


class TestParseJobSpec:
    def test_empty_body_is_the_default_spec(self):
        assert parse_job_spec({}) == JobSpec()

    def test_defaults_round_trip(self):
        spec = parse_job_spec({})
        assert parse_job_spec(spec.to_dict()) == spec

    def test_string_grid_entries(self):
        spec = parse_job_spec({"grid": ["graph500/pr", ["datagen", "bfs"]]})
        assert spec.grid == (("graph500", "pr"), ("datagen", "bfs"))

    def test_single_system_string_promoted(self):
        assert parse_job_spec({"systems": "giraph"}).systems == ("giraph",)

    def test_labels_and_cells_expand_systems_times_grid(self):
        spec = parse_job_spec(
            {"systems": ["giraph", "powergraph"], "grid": ["graph500/pr", "datagen/bfs"]}
        )
        assert spec.n_cells == 4
        assert spec.labels() == [
            "giraph/graph500/pr", "giraph/datagen/bfs",
            "powergraph/graph500/pr", "powergraph/datagen/bfs",
        ]
        cells = spec.cells()
        assert len(cells) == 4
        assert cells[0].spec.system == "giraph"

    @pytest.mark.parametrize(
        "body, field",
        [
            (["not", "an", "object"], None),
            ({"bogus_key": 1}, "bogus_key"),
            ({"preset": "huge"}, "preset"),
            ({"preset": 3}, "preset"),
            ({"systems": []}, "systems"),
            ({"systems": ["warpdrive"]}, "systems"),
            ({"systems": ["giraph", "giraph"]}, "systems"),
            ({"grid": []}, "grid"),
            ({"grid": ["no-slash"]}, "grid"),
            ({"grid": [["graph500"]]}, "grid"),
            ({"grid": [["graph500", "zz"]]}, "grid"),
            ({"grid": [["nope", "pr"]]}, "grid"),
            ({"grid": ["graph500/pr", "graph500/pr"]}, "grid"),
            ({"seed": "zero"}, "seed"),
            ({"seed": True}, "seed"),
            ({"characterize": 1}, "characterize"),
            ({"cache": "yes"}, "cache"),
            ({"jobs": 0}, "jobs"),
            ({"jobs": MAX_JOBS_PER_JOB + 1}, "jobs"),
        ],
    )
    def test_rejections_are_typed_with_field(self, body, field):
        with pytest.raises(JobSpecError) as exc:
            parse_job_spec(body)
        doc = exc.value.to_doc()
        assert doc["error"]
        assert doc.get("field") == (field if field is not None else None) or field is None

    def test_cell_budget_enforced(self):
        # 3 systems × 8 grid entries = 24 is fine; inflate past the cap.
        grid = [[d, a] for d in dataset_names() for a in sorted(ALGORITHMS)]
        body = {"systems": list(SYSTEMS), "grid": grid * 4}
        with pytest.raises(JobSpecError):
            parse_job_spec(body)

    def test_error_doc_is_json_native(self):
        with pytest.raises(JobSpecError) as exc:
            parse_job_spec({"preset": "huge"})
        json.dumps(exc.value.to_doc())  # must not raise

    def test_live_defaults_false_and_round_trips(self):
        assert parse_job_spec({}).live is False
        spec = parse_job_spec({"live": True})
        assert spec.live is True
        assert spec.to_dict()["live"] is True
        assert parse_job_spec(spec.to_dict()) == spec

    def test_live_must_be_boolean(self):
        with pytest.raises(JobSpecError) as exc:
            parse_job_spec({"live": "yes"})
        assert exc.value.to_doc().get("field") == "live"


# ---------------------------------------------------------------------- #
# Hypothesis properties
# ---------------------------------------------------------------------- #

_DATASETS = tuple(dataset_names())
_ALGOS = tuple(sorted(ALGORITHMS))

valid_bodies = st.fixed_dictionaries(
    {},
    optional={
        "preset": st.sampled_from(("tiny", "small", "full")),
        "systems": st.lists(
            st.sampled_from(SYSTEMS), min_size=1, max_size=len(SYSTEMS), unique=True
        ),
        "grid": st.lists(
            st.tuples(st.sampled_from(_DATASETS), st.sampled_from(_ALGOS)).map(list),
            min_size=1,
            max_size=6,
            unique_by=tuple,
        ),
        "seed": st.integers(min_value=-(2**31), max_value=2**31 - 1),
        "characterize": st.booleans(),
        "cache": st.booleans(),
        "jobs": st.integers(min_value=1, max_value=MAX_JOBS_PER_JOB),
    },
)

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
)
invalid_bodies = st.one_of(
    # Not an object at all.
    _json_scalars,
    st.lists(_json_scalars, max_size=3),
    # An unknown field sneaks in.
    valid_bodies.map(lambda b: {**b, "surprise": 1}),
    # A known field with a hostile scalar type.
    st.tuples(
        valid_bodies,
        st.sampled_from(("preset", "systems", "grid", "seed", "characterize", "jobs")),
        st.sampled_from((None, 1.5, {}, "warpdrive", [], True)),
    ).map(lambda t: {**t[0], t[1]: t[2]}),
)


@settings(max_examples=60, deadline=None)
@given(body=valid_bodies)
def test_accepted_bodies_round_trip_unchanged(body):
    """parse → to_dict → parse is the identity on canonical specs."""
    spec = parse_job_spec(body)
    canonical = spec.to_dict()
    assert parse_job_spec(canonical) == spec
    assert parse_job_spec(canonical).to_dict() == canonical
    json.dumps(canonical)  # canonical form is always JSON-serializable


@settings(max_examples=60, deadline=None)
@given(body=invalid_bodies)
def test_rejected_bodies_raise_typed_and_enqueue_nothing(body):
    """Invalid bodies are either rejected with a JSON-able JobSpecError

    and never reach the queue/registry, or (for the randomized
    known-field mutations that happen to be valid) accepted cleanly.
    """
    registry = RunRegistry()
    q = JobQueue(capacity=4, workers=1, registry=registry, executor=lambda job: None)
    try:
        spec = parse_job_spec(body)
    except JobSpecError as exc:
        json.dumps(exc.to_doc())
        with pytest.raises(JobSpecError):
            q.submit(body)
        assert len(q) == 0 and len(registry) == 0
    else:
        assert parse_job_spec(spec.to_dict()) == spec


# ---------------------------------------------------------------------- #
# Queue lifecycle (injected executor; no real simulation)
# ---------------------------------------------------------------------- #


def _wait_terminal(q, job_id, timeout=10.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout:
        job = q.get(job_id)
        if job.state in TERMINAL_STATES:
            return job
        time.sleep(0.002)
    raise AssertionError(f"job {job_id} not terminal: {q.get(job_id).state}")


class TestJobQueue:
    def test_submit_and_done(self):
        with JobQueue(capacity=4, workers=1, executor=lambda job: None) as q:
            job = q.submit({})
            assert job.state in ("queued", "running", "done")
            done = _wait_terminal(q, job.id)
        assert done.state == "done"
        assert done.error is None
        assert done.started_at is not None and done.finished_at is not None
        assert done.status.finished  # terminal run.finished recorded

    def test_event_log_order_and_terminal(self):
        with JobQueue(capacity=4, workers=1, executor=lambda job: None) as q:
            job = q.submit({})
            _wait_terminal(q, job.id)
        kinds = [e["kind"] for e in job.status.events_since(0)]
        assert kinds[0] == "job.queued"
        assert "job.started" in kinds
        assert kinds[-1] == "run.finished"
        ids = [e["id"] for e in job.status.events_since(0)]
        assert ids == list(range(1, len(ids) + 1))

    def test_failed_executor_reported(self):
        def boom(job):
            raise RuntimeError("kaput")

        with JobQueue(capacity=4, workers=1, executor=boom) as q:
            job = q.submit({})
            failed = _wait_terminal(q, job.id)
        assert failed.state == "failed"
        assert "kaput" in failed.error
        kinds = [e["kind"] for e in job.status.events_since(0)]
        assert "job.failed" in kinds
        assert kinds[-1] == "run.finished"

    def test_registry_sees_job_at_submission(self):
        registry = RunRegistry()
        q = JobQueue(capacity=4, workers=1, registry=registry, executor=lambda j: None)
        job = q.submit({})  # queue not started: job stays queued
        snap = registry.snapshots()[0]
        assert snap["run_id"] == job.id
        assert snap["meta"] == {
            "kind": "job",
            "spec": job.spec.to_dict(),
            "trace_id": job.trace_id,
        }
        q.shutdown()

    def test_jobs_listing_preserves_submission_order(self):
        q = JobQueue(capacity=8, workers=1, executor=lambda j: None)
        ids = [q.submit({}).id for _ in range(3)]
        assert [j.id for j in q.jobs()] == ids
        assert len(q) == 3
        q.shutdown()

    def test_ids_are_unique_and_stable(self):
        q = JobQueue(capacity=8, workers=1, executor=lambda j: None)
        a, b = q.submit({}), q.submit({})
        assert a.id != b.id
        assert q.get(a.id) is a
        with pytest.raises(UnknownJobError):
            q.get("job-999999-deadbeef")
        q.shutdown()

    def test_backpressure_full_queue_raises_retry_after(self):
        gate = threading.Event()
        q = JobQueue(capacity=1, workers=1, executor=lambda j: gate.wait(10)).start()
        try:
            first = q.submit({})  # picked up by the worker
            t0 = time.monotonic()
            while q.get(first.id).state != "running":
                assert time.monotonic() - t0 < 5
                time.sleep(0.002)
            q.submit({})  # occupies the single queue slot
            with pytest.raises(QueueFullError) as exc:
                q.submit({})
            assert exc.value.retry_after_s >= 1.0
            assert len(q) == 2  # the rejected job left no trace
        finally:
            gate.set()
            q.shutdown()

    def test_cancel_queued_job(self):
        q = JobQueue(capacity=4, workers=1, executor=lambda j: None)
        job = q.submit({})  # not started: stays queued
        cancelled = q.cancel(job.id)
        assert cancelled.state == "cancelled"
        kinds = [e["kind"] for e in job.status.events_since(0)]
        assert kinds[-2:] == ["job.cancelled", "run.finished"]
        # A worker starting later must skip it.
        q.start()
        time.sleep(0.05)
        assert q.get(job.id).state == "cancelled"
        q.shutdown()

    def test_cancel_running_job_rejected(self):
        gate = threading.Event()
        q = JobQueue(capacity=4, workers=1, executor=lambda j: gate.wait(10)).start()
        try:
            job = q.submit({})
            t0 = time.monotonic()
            while q.get(job.id).state != "running":
                assert time.monotonic() - t0 < 5
                time.sleep(0.002)
            with pytest.raises(JobNotCancellableError) as exc:
                q.cancel(job.id)
            assert exc.value.state == "running"
        finally:
            gate.set()
            q.shutdown()

    def test_cancel_unknown_job(self):
        q = JobQueue(capacity=2, workers=1, executor=lambda j: None)
        with pytest.raises(UnknownJobError):
            q.cancel("job-000000-nothere")
        q.shutdown()

    def test_submit_after_shutdown_rejected(self):
        q = JobQueue(capacity=2, workers=1, executor=lambda j: None)
        q.shutdown()
        with pytest.raises(QueueClosedError):
            q.submit({})

    def test_shutdown_without_drain_cancels_backlog(self):
        q = JobQueue(capacity=8, workers=1, executor=lambda j: None)
        jobs = [q.submit({}) for _ in range(4)]  # never started
        q.shutdown(drain=False)
        assert all(q.get(j.id).state == "cancelled" for j in jobs)
        assert all(j.status.finished for j in jobs)

    def test_shutdown_with_drain_executes_backlog(self):
        executed = []
        q = JobQueue(capacity=8, workers=1, executor=lambda j: executed.append(j.id))
        jobs = [q.submit({}) for _ in range(4)]
        q.start()
        q.shutdown(drain=True)
        assert executed == [j.id for j in jobs]
        assert all(q.get(j.id).state == "done" for j in jobs)

    def test_shutdown_is_idempotent(self):
        q = JobQueue(capacity=2, workers=1, executor=lambda j: None).start()
        q.shutdown()
        q.shutdown()  # must not raise or hang

    def test_start_twice_rejected(self):
        q = JobQueue(capacity=2, workers=1, executor=lambda j: None).start()
        with pytest.raises(RuntimeError):
            q.start()
        q.shutdown()

    def test_gauges_reflect_counts(self):
        q = JobQueue(capacity=8, workers=3, executor=lambda j: None)
        q.submit({})
        gauges = q.gauges()
        assert gauges["jobqueue_capacity"] == 8.0
        assert gauges["jobqueue_workers"] == 3.0
        assert gauges["jobqueue_depth"] == 1.0
        q.shutdown()
        assert q.gauges()["jobqueue_cancelled"] == 1.0

    def test_retry_after_grows_with_backlog(self):
        q = JobQueue(capacity=8, workers=1, executor=lambda j: None)
        assert q.retry_after_s() == pytest.approx(1.0)
        # Fake a history of slow jobs and a deep backlog.
        q._job_durations.extend([2.0] * 4)
        for _ in range(6):
            q.submit({})
        assert q.retry_after_s() > 1.0
        q.shutdown()

    def test_real_executor_runs_tiny_cell(self):
        """One real tiny job through run_grid — the integration seam."""
        with JobQueue(capacity=2, workers=1) as q:
            job = q.submit({"preset": "tiny", "cache": False})
            done = _wait_terminal(q, job.id, timeout=60.0)
        assert done.state == "done"
        counts = done.status.snapshot()["counts"]
        assert counts["done"] + counts["cached"] == 1

    def test_real_executor_runs_live_job(self):
        """A "live": true job streams window.analyzed frames before its
        terminal event and fills the bottlenecks snapshot."""
        with JobQueue(capacity=2, workers=1) as q:
            job = q.submit({"preset": "tiny", "live": True})
            done = _wait_terminal(q, job.id, timeout=60.0)
        assert done.state == "done"
        kinds = [e["kind"] for e in done.status.events_since(0)]
        assert "window.analyzed" in kinds
        assert kinds.index("window.analyzed") < kinds.index("run.finished")
        snapshot = done.status.bottlenecks_snapshot()
        assert snapshot["windows_analyzed"] >= 1
        assert snapshot["bottleneck_seconds"]
        assert done.status.snapshot()["windows_analyzed"] >= 1


class TestLiveJobs:
    """Live jobs run through run_grid: the run cache, ``jobs`` and the
    batch report cut into windows."""

    def test_warm_live_job_is_a_cache_hit_and_streams_the_batch_cut(self, tmp_path):
        from repro.core.incremental import cut_windows
        from repro.parallel import RunCache, cache_key, trace_key_material
        from repro.workloads.archive import characterize_archive

        spec = {"preset": "tiny", "live": True, "seed": 1}
        with JobQueue(capacity=2, workers=1, cache_dir=tmp_path) as q:
            first = _wait_terminal(q, q.submit(spec).id, timeout=60.0)
            second = _wait_terminal(q, q.submit(spec).id, timeout=60.0)
        assert first.state == second.state == "done"
        cold = [e["kind"] for e in first.status.events_since(0)]
        events = second.status.events_since(0)
        kinds = [e["kind"] for e in events]
        assert "cell.cache_hit" not in cold
        assert kinds.index("cell.cache_hit") < kinds.index("window.analyzed")
        assert kinds.count("window.analyzed") == cold.count("window.analyzed")
        last_window = max(
            i for i, k in enumerate(kinds) if k in ("window.analyzed", "bottleneck.detected")
        )
        assert last_window < kinds.index("cell.finished") < kinds.index("run.finished")

        (cell,) = second.spec.cells()
        payload = RunCache(tmp_path).path_for(cache_key(trace_key_material(cell)), "trace")
        profile = characterize_archive(payload)
        width = max(1, profile.grid.n_slices // 8)  # about 8 windows per run
        expected = cut_windows(profile.bottlenecks, profile.execution_trace, width)
        assert [e["data"] for e in events if e["kind"] == "window.analyzed"] == [
            {
                "index": w.index,
                "t_start": w.t_start,
                "t_end": w.t_end,
                "n_rows": w.n_rows,
                "n_bottlenecks": len(w.bottlenecks),
                "lag_seconds": w.lag_seconds,
            }
            for w in expected
        ]
        shares = [e["data"] for e in events if e["kind"] == "bottleneck.detected"]
        assert shares == [
            {**b.to_dict(), "seconds": b.duration} for w in expected for b in w.bottlenecks
        ]
        # Summed per (resource, kind), the shares are the report's totals.
        streamed, totals = {}, {}
        for data in shares:
            key = (data["resource"], data["kind"])
            streamed[key] = streamed.get(key, 0.0) + data["seconds"]
        for b in profile.bottlenecks:
            key = (b.resource, b.kind.value)
            totals[key] = totals.get(key, 0.0) + b.duration
        assert streamed == pytest.approx(totals, rel=1e-9, abs=1e-12)

    def test_two_cell_live_job_streams_windows_through_the_pool(self, tmp_path):
        import os

        spec = {
            "preset": "tiny",
            "live": True,
            "jobs": 2,
            "grid": [["graph500", "pr"], ["datagen", "pr"]],
        }
        with JobQueue(capacity=2, workers=1, cache_dir=tmp_path) as q:
            done = _wait_terminal(q, q.submit(spec).id, timeout=120.0)
        assert done.state == "done"
        events = done.status.events_since(0)
        assert [e["id"] for e in events] == list(range(1, len(events) + 1))
        assert events[-1]["kind"] == "run.finished"
        for label in done.spec.labels():
            mine = [e for e in events if e["label"] == label]
            kinds = [e["kind"] for e in mine]
            finished = kinds.index("cell.finished")
            windows = [i for i, k in enumerate(kinds) if k == "window.analyzed"]
            assert windows, f"{label}: no window.analyzed"
            assert windows[-1] < finished
            assert mine[finished]["data"]["windows"] == len(windows)
            # Published in a pool worker, relayed by the progress queue.
            assert os.getpid() not in {mine[i]["pid"] for i in windows}


# ---------------------------------------------------------------------- #
# Concurrency: racing submitters and cancellers
# ---------------------------------------------------------------------- #


class TestConcurrency:
    def test_racing_submit_and_cancel_never_lose_or_duplicate_jobs(self):
        """8 submitters × 25 jobs race 4 cancellers; every id is unique,
        every job terminal, and the state counts add up."""
        q = JobQueue(
            capacity=256, workers=4, executor=lambda j: time.sleep(0.001)
        ).start()
        submitted: list[str] = []
        submitted_lock = threading.Lock()
        rejected = [0]
        stop_cancelling = threading.Event()

        def submitter():
            for _ in range(25):
                try:
                    job = q.submit({})
                except QueueFullError:
                    with submitted_lock:
                        rejected[0] += 1
                    continue
                with submitted_lock:
                    submitted.append(job.id)

        def canceller():
            while not stop_cancelling.is_set():
                with submitted_lock:
                    backlog = list(submitted)
                for job_id in backlog[-5:]:
                    try:
                        q.cancel(job_id)
                    except (JobNotCancellableError, UnknownJobError):
                        pass
                time.sleep(0.001)

        submitters = [threading.Thread(target=submitter) for _ in range(8)]
        cancellers = [threading.Thread(target=canceller) for _ in range(4)]
        for t in submitters + cancellers:
            t.start()
        for t in submitters:
            t.join(timeout=30)
        stop_cancelling.set()
        for t in cancellers:
            t.join(timeout=30)

        # No lost or duplicated ids.
        assert len(submitted) == len(set(submitted))
        assert len(submitted) + rejected[0] == 8 * 25
        tracked = {j.id for j in q.jobs()}
        assert set(submitted) == tracked

        for job_id in submitted:
            _wait_terminal(q, job_id, timeout=30.0)
        counts = q.counts()
        assert counts["queued"] == 0 and counts["running"] == 0
        assert sum(counts[s] for s in JOB_STATES) == len(submitted)
        assert counts["done"] + counts["cancelled"] == len(submitted)
        assert counts["failed"] == 0

        # Gauge consistency with the settled counts.
        gauges = q.gauges()
        assert gauges["jobqueue_depth"] == 0.0
        assert gauges["jobqueue_done"] == float(counts["done"])
        assert gauges["jobqueue_cancelled"] == float(counts["cancelled"])

        # Every job — cancelled or done — ended with its terminal event.
        for job in q.jobs():
            assert job.status.finished
        q.shutdown()

    def test_sigterm_style_drain_with_in_flight_jobs(self):
        """shutdown(drain=False) mid-traffic: in-flight jobs finish,
        queued jobs cancel, nothing hangs, every status is terminal."""
        release = threading.Event()

        def slowish(job):
            release.wait(10)

        q = JobQueue(capacity=64, workers=2, executor=slowish).start()
        jobs = [q.submit({}) for _ in range(10)]
        t0 = time.monotonic()
        while sum(1 for j in q.jobs() if j.state == "running") < 2:
            assert time.monotonic() - t0 < 5
            time.sleep(0.002)
        release.set()  # let in-flight jobs complete during the drain
        q.shutdown(drain=False, timeout=30.0)
        states = {j.id: q.get(j.id).state for j in jobs}
        assert set(states.values()) <= {"done", "cancelled"}
        assert all(q.get(j.id).status.finished for j in jobs)
        with pytest.raises(QueueClosedError):
            q.submit({})


class TestRetryAfterClamping:
    """The 429 backpressure hint must never tell clients to hammer back.

    HTTP Retry-After is rounded down to whole seconds, so any hint below
    1s reads as "retry immediately" — with microsecond job durations the
    naive mean*backlog/workers estimate would do exactly that.
    """

    def test_instant_jobs_still_advertise_one_second(self):
        q = JobQueue(capacity=8, workers=2, executor=lambda j: None)
        q._job_durations.extend([0.0, 1e-7, 2e-7])  # near-zero job durations
        for _ in range(4):
            q.submit({})
        assert q.retry_after_s() == pytest.approx(1.0)
        q.shutdown()

    def test_polluted_history_never_yields_negative_hint(self):
        q = JobQueue(capacity=8, workers=1, executor=lambda j: None)
        q._job_durations.extend([-30.0, -5.0])  # as if recorded under clock skew
        for _ in range(4):
            q.submit({})
        assert q.retry_after_s() >= 1.0
        q.shutdown()

    def test_recorder_drops_negative_and_non_finite_durations(self):
        q = JobQueue(capacity=4, workers=1, executor=lambda j: None)
        for bad in (-0.001, -10.0, float("nan"), float("inf")):
            q._record_duration_locked(bad)
        assert q._job_durations == []
        assert q.retry_after_s() == pytest.approx(1.0)
        q._record_duration_locked(0.0)  # zero is a legal duration
        assert q._job_durations == [0.0]
        q.shutdown()

    def test_duration_history_is_bounded_to_the_estimate_window(self):
        q = JobQueue(capacity=4, workers=1, executor=lambda j: None)
        for i in range(100):
            q._record_duration_locked(float(i))
        assert len(q._job_durations) == 16
        assert q._job_durations == [float(i) for i in range(84, 100)]
        q.shutdown()

    def test_completed_jobs_feed_the_recorder(self):
        with JobQueue(capacity=4, workers=1, executor=lambda j: time.sleep(0.01)) as q:
            job = q.submit({})
            _wait_terminal(q, job.id, timeout=10.0)
            assert len(q._job_durations) == 1
            assert q._job_durations[0] >= 0.0


# ---------------------------------------------------------------------- #
# Tracing: trace-id threading, queue histograms, trace assembly
# ---------------------------------------------------------------------- #


class TestTraceThreading:
    def test_submit_mints_trace_id_when_absent(self):
        q = JobQueue(capacity=4, workers=1, executor=lambda j: None)
        job = q.submit({})
        assert len(job.trace_id) == 32
        assert job.submit_span_id is None
        assert job.to_dict()["trace_id"] == job.trace_id
        assert job.status.meta["trace_id"] == job.trace_id
        q.shutdown()

    def test_submit_threads_explicit_trace_context(self):
        q = JobQueue(capacity=4, workers=1, executor=lambda j: None)
        trace_id = obs.new_trace_id()
        job = q.submit({}, trace_id=trace_id, parent_span_id="srv:1:1")
        assert job.trace_id == trace_id
        assert job.submit_span_id == "srv:1:1"
        q.shutdown()

    def test_worker_records_wait_and_execute_spans(self):
        with JobQueue(capacity=4, workers=1, executor=lambda j: None) as q:
            trace_id = obs.new_trace_id()
            job = q.submit({}, trace_id=trace_id, parent_span_id="srv:1:1")
            _wait_terminal(q, job.id)
        spans = {
            e["name"]: e for e in job.tracer.events if e["ph"] == "X"
        }
        wait, execute = spans["job.queued-wait"], spans["job.execute"]
        assert wait["args"]["parent"] == "srv:1:1"
        assert wait["args"]["trace"] == trace_id
        assert execute["args"]["parent"] == wait["args"]["id"]
        assert execute["args"]["trace"] == trace_id
        assert execute["ts"] >= wait["ts"] + wait["dur"] - 1.0  # contiguous (µs slop)

    def test_executor_spans_land_in_job_tracer(self):
        def traced_executor(job):
            with obs.span("stage.fake"):
                pass

        with JobQueue(capacity=4, workers=1, executor=traced_executor) as q:
            job = q.submit({})
            _wait_terminal(q, job.id)
        names = [e["name"] for e in job.tracer.events if e["ph"] == "X"]
        assert "stage.fake" in names
        stage = next(
            e for e in job.tracer.events
            if e["ph"] == "X" and e["name"] == "stage.fake"
        )
        execute = next(
            e for e in job.tracer.events
            if e["ph"] == "X" and e["name"] == "job.execute"
        )
        assert stage["args"]["parent"] == execute["args"]["id"]
        assert stage["args"]["trace"] == job.trace_id

    def test_worker_overlay_restored_between_jobs(self):
        """The worker thread must not leak one job's tracer into the next."""
        with JobQueue(capacity=4, workers=1, executor=lambda j: None) as q:
            first = q.submit({})
            _wait_terminal(q, first.id)
            second = q.submit({})
            _wait_terminal(q, second.id)
        first_ids = {e["args"]["id"] for e in first.tracer.events if e["ph"] == "X"}
        second_ids = {e["args"]["id"] for e in second.tracer.events if e["ph"] == "X"}
        assert first_ids and second_ids and not (first_ids & second_ids)


class TestQueueHistograms:
    def test_wait_and_execute_histograms_populated(self):
        with JobQueue(capacity=4, workers=1, executor=lambda j: None) as q:
            job = q.submit({})
            _wait_terminal(q, job.id)
            families = {f.name: f for f in q.histogram_families()}
            wait = families["job_queue_wait_seconds"]
            (labels_and_hist,) = wait.series()
            assert labels_and_hist[1].count == 1
            execute = families["job_execute_seconds"]
            by_state = {labels["state"]: h.count for labels, h in execute.series()}
            assert by_state == {"done": 1}

    def test_failed_job_counts_under_failed_label(self):
        def boom(job):
            raise RuntimeError("kaput")

        with JobQueue(capacity=4, workers=1, executor=boom) as q:
            job = q.submit({})
            _wait_terminal(q, job.id)
            execute = next(
                f for f in q.histogram_families() if f.name == "job_execute_seconds"
            )
            by_state = {labels["state"]: h.count for labels, h in execute.series()}
            assert by_state == {"failed": 1}

    def test_stage_snapshots_fold_finished_jobs(self):
        def traced_executor(job):
            with obs.span("stage.fake"):
                pass

        with JobQueue(capacity=4, workers=2, executor=traced_executor) as q:
            jobs = [q.submit({}) for _ in range(3)]
            for job in jobs:
                _wait_terminal(q, job.id)
            snaps = q.stage_snapshots()
        assert snaps["stage.fake"]["count"] == 3
        # The bookkeeping spans stay out of the per-stage family.
        assert "job.queued-wait" not in snaps
        assert "job.execute" not in snaps


class TestAssembleJobTrace:
    def _run_job(self, *, trace_id=None, parent_span_id=None, executor=None):
        executor = executor or (lambda j: None)
        with JobQueue(capacity=4, workers=1, executor=executor) as q:
            job = q.submit({}, trace_id=trace_id, parent_span_id=parent_span_id)
            _wait_terminal(q, job.id)
        return job

    def test_single_rooted_tree_with_no_orphans(self):
        job = self._run_job()
        doc = assemble_job_trace(job)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_id = {e["args"]["id"]: e for e in spans}
        roots = [e for e in spans if "parent" not in e["args"]]
        assert len(roots) == 1 and roots[0]["name"] == "job"
        for e in spans:
            parent = e["args"].get("parent")
            assert parent is None or parent in by_id
        assert doc["otherData"] == {
            "producer": "repro.obs",
            "job_id": job.id,
            "run_id": job.id,
            "trace_id": job.trace_id,
            "state": "done",
        }
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert min(ts) == 0.0 and ts == sorted(ts)

    def test_extra_events_filtered_by_trace_id(self):
        trace_id = obs.new_trace_id()
        server_tracer = obs.Tracer()
        with server_tracer.span("http.request", trace_id=trace_id, method="POST"):
            pass
        with server_tracer.span("http.request", trace_id=obs.new_trace_id()):
            pass  # someone else's request: must not leak into this job's trace
        job = self._run_job(trace_id=trace_id)
        doc = assemble_job_trace(job, extra_events=server_tracer.events)
        http = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "http.request"
        ]
        assert len(http) == 1
        assert http[0]["args"]["method"] == "POST"

    def test_orphan_adoption_preserves_client_parent(self):
        trace_id = obs.new_trace_id()
        server_tracer = obs.Tracer()
        with server_tracer.span(
            "http.request", parent_id="client-span-id", trace_id=trace_id
        ) as submit_span:
            pass
        job = self._run_job(
            trace_id=trace_id, parent_span_id=submit_span.span_id
        )
        doc = assemble_job_trace(job, extra_events=server_tracer.events)
        spans = {e["args"]["id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        http = next(e for e in spans.values() if e["name"] == "http.request")
        # The out-of-document client parent is preserved, not dangled.
        assert http["args"]["client_parent"] == "client-span-id"
        assert http["args"]["parent"] in spans
        # The queue-wait span parents onto the HTTP span that submitted it.
        wait = next(e for e in spans.values() if e["name"] == "job.queued-wait")
        assert wait["args"]["parent"] == http["args"]["id"]

    def test_trace_json_serializable(self):
        job = self._run_job()
        doc = assemble_job_trace(job)
        assert json.loads(json.dumps(doc)) == doc
