"""Tests for the live-telemetry HTTP server (``repro serve``).

Every test binds port 0 on the loopback interface, so the suite never
collides with a real service.  The SSE tests use a raw
``http.client`` connection because ``urllib`` buffers streamed bodies.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.jobs import JobQueue
from repro.parallel import CellSpec, run_grid
from repro.progress import ProgressEvent, RunRegistry, RunStatus
from repro.serve import (
    TelemetryServer,
    format_sse_event,
    format_sse_heartbeat,
)
from repro.workloads import WorkloadSpec

from .report.test_openmetrics import parse_exposition


@pytest.fixture()
def server():
    with TelemetryServer(port=0, heartbeat_s=0.1) as srv:
        yield srv


@pytest.fixture()
def job_server():
    """A server with the write side enabled (instant injected executor)."""
    queue = JobQueue(capacity=4, workers=1, executor=lambda job: None)
    srv = TelemetryServer(port=0, heartbeat_s=0.1, queue=queue).start()
    queue.start()
    try:
        yield srv
    finally:
        queue.shutdown()
        srv.stop()


def _get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=10) as resp:
        return resp.status, resp.headers, resp.read().decode()


def _request_json(server, method, path, doc=None, headers=None):
    """Issue ``method`` with an optional JSON body; returns (status, headers, doc)."""
    data = None if doc is None else json.dumps(doc).encode()
    request_headers = {"Content-Type": "application/json"} if data else {}
    request_headers.update(headers or {})
    request = urllib.request.Request(
        f"{server.url}{path}",
        data=data,
        headers=request_headers,
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, resp.headers, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read().decode())


def _event(kind, label="", /, **data):
    return ProgressEvent(kind=kind, label=label, data=data)


def _sse_frames(server, path, *, min_frames=1, until_event=None, timeout=10):
    """Collect SSE data frames (``id``/``event``/``data`` triples)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "text/event-stream"
        frames, current = [], {}

        def done():
            if len(frames) < min_frames:
                return False
            if until_event is not None:
                return any(f.get("event") == until_event for f in frames)
            return True

        while not done():
            line = resp.fp.readline().decode().rstrip("\n")
            if line.startswith(":"):
                continue  # heartbeat comment
            if not line:
                if current:
                    frames.append(current)
                    current = {}
                continue
            key, _, value = line.partition(": ")
            current[key] = value
        return frames
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Frame formatting
# ---------------------------------------------------------------------- #


class TestFrames:
    def test_event_frame_shape(self):
        frame = format_sse_event(
            {"id": 7, "kind": "cell.finished", "label": "a"}
        ).decode()
        lines = frame.splitlines()
        assert lines[0] == "id: 7"
        assert lines[1] == "event: cell.finished"
        assert lines[2].startswith("data: ")
        assert json.loads(lines[2][len("data: "):])["label"] == "a"
        assert frame.endswith("\n\n")

    def test_heartbeat_is_comment(self):
        assert format_sse_heartbeat() == b": heartbeat\n\n"


# ---------------------------------------------------------------------- #
# Endpoints
# ---------------------------------------------------------------------- #


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200 and body == "ok\n"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, "/nope")
        assert exc.value.code == 404

    def test_metrics_conformant_when_idle(self, server):
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        families, _ = parse_exposition(body)  # asserts well-formedness
        assert body.splitlines()[-1] == "# EOF"

    def test_metrics_exposes_run_gauges(self, server):
        run = RunStatus(["a", "b"], jobs=2)
        server.register(run)
        run.record(_event("cell.started", "a"))
        _, _, body = _get(server, "/metrics")
        families, samples = parse_exposition(body)
        values = {name: value for name, labels, value in samples}
        assert families["grade10_run_cells"][0] == "gauge"
        assert values["grade10_run_cells"] == 2.0
        assert values["grade10_run_in_flight"] == 1.0
        assert values["grade10_run_queue_depth"] == 1.0

    def test_metrics_exposes_tracer_counters(self, server):
        tracer = obs.install()
        try:
            tracer.counter("cache.hit", 3)
            _, _, body = _get(server, "/metrics")
        finally:
            obs.uninstall()
        _, samples = parse_exposition(body)
        values = {name: value for name, labels, value in samples}
        assert values["grade10_pipeline_events_total"] == 3.0

    def test_runs_lists_snapshots(self, server):
        first, second = RunStatus(["a"]), RunStatus(["b"])
        server.register(first)
        server.register(second)
        _, _, body = _get(server, "/runs")
        docs = json.loads(body)
        assert [d["run_id"] for d in docs] == [first.run_id, second.run_id]
        assert docs[0]["cells"] == {"a": "pending"}

    def test_events_404_without_runs(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, "/events")
        assert exc.value.code == 404

    def test_events_400_on_bad_last_id(self, server):
        server.register(RunStatus(["a"]))
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, "/events?last_id=banana")
        assert exc.value.code == 400


# ---------------------------------------------------------------------- #
# Live incremental bottleneck surfaces
# ---------------------------------------------------------------------- #


def _live_run(server):
    """Register a run and feed it one window plus two bottleneck events."""
    run = RunStatus(["a"])
    server.register(run)
    run.record(_event(
        "bottleneck.detected", "a",
        kind="blocking", resource="queue@m0", seconds=0.25,
        instance_id="/P#0", phase_path="/P", duration=0.25, window=0,
    ))
    run.record(_event(
        "bottleneck.detected", "a",
        kind="saturation", resource="cpu@m1", seconds=0.5,
        instance_id="/P#1", phase_path="/P", duration=0.5, window=0,
    ))
    run.record(_event(
        "window.analyzed", "a",
        index=0, t_start=0.0, t_end=0.64, n_rows=3,
        n_bottlenecks=2, lag_seconds=0.12,
    ))
    return run


class TestBottlenecks:
    def test_snapshot_endpoint(self, server):
        run = _live_run(server)
        status, _, body = _get(server, f"/runs/{run.run_id}/bottlenecks")
        doc = json.loads(body)
        assert status == 200
        assert doc["run_id"] == run.run_id
        assert doc["windows_analyzed"] == 1
        assert doc["window_lag_seconds"] == pytest.approx(0.12)
        assert doc["last_bottleneck"]["resource"] == "cpu@m1"
        assert doc["bottleneck_seconds"] == [
            {"resource": "cpu@m1", "kind": "saturation", "seconds": 0.5},
            {"resource": "queue@m0", "kind": "blocking", "seconds": 0.25},
        ]

    def test_snapshot_unknown_run_404(self, server):
        server.register(RunStatus(["a"]))
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, "/runs/nope/bottlenecks")
        assert exc.value.code == 404

    def test_snapshot_bare_path_uses_active_run(self, server):
        run = _live_run(server)
        _, _, body = _get(server, "/runs//bottlenecks")
        assert json.loads(body)["run_id"] == run.run_id

    def test_runs_listing_carries_live_fields(self, server):
        _live_run(server)
        _, _, body = _get(server, "/runs")
        doc = json.loads(body)[0]
        assert doc["windows_analyzed"] == 1
        assert doc["last_bottleneck"]["kind"] == "saturation"

    def test_metrics_expose_bottleneck_counter_family(self, server):
        _live_run(server)
        _, _, body = _get(server, "/metrics")
        families, samples = parse_exposition(body)
        assert families["grade10_run_bottleneck_seconds"][0] == "counter"
        series = {
            (labels.get("resource"), labels.get("kind")): value
            for name, labels, value in samples
            if name == "grade10_run_bottleneck_seconds_total"
        }
        assert series[("queue@m0", "blocking")] == 0.25
        assert series[("cpu@m1", "saturation")] == 0.5
        values = {name: value for name, labels, value in samples}
        assert values["grade10_run_windows_analyzed"] == 1.0
        assert values["grade10_incremental_window_lag_seconds"] == pytest.approx(0.12)

    def test_two_scrapes_of_identical_state_byte_equal(self, server):
        # The conformance contract extends to the new families: they are
        # a pure function of the run state, so two scrapes with nothing
        # in between render byte-identical blocks.  (The scrape itself
        # feeds the http-latency histogram, so only the incremental
        # families can be compared whole.)
        def live_lines(body):
            return [
                line for line in body.splitlines()
                if "run_bottleneck_seconds" in line
                or "run_windows_analyzed" in line
                or "incremental_window_lag_seconds" in line
            ]

        _live_run(server)
        _, _, first = _get(server, "/metrics")
        _, _, second = _get(server, "/metrics")
        assert live_lines(first) == live_lines(second)
        assert any(
            line.startswith("grade10_run_bottleneck_seconds_total")
            for line in live_lines(first)
        )


# ---------------------------------------------------------------------- #
# SSE streaming
# ---------------------------------------------------------------------- #


class TestSse:
    def test_streams_backlog_and_live_events(self, server):
        run = RunStatus(["a"], jobs=1)
        server.register(run)
        run.record(_event("cell.started", "a"))  # backlog

        def finish_later():
            run.record(_event("cell.finished", "a", duration=0.1))

        timer = threading.Timer(0.2, finish_later)
        timer.start()
        try:
            frames = _sse_frames(server, "/events", min_frames=2)
        finally:
            timer.cancel()
        assert [f["event"] for f in frames] == ["cell.started", "cell.finished"]
        assert [int(f["id"]) for f in frames] == [1, 2]
        payload = json.loads(frames[1]["data"])
        assert payload["data"]["duration"] == 0.1

    def test_resume_via_last_event_id_header(self, server):
        run = RunStatus(["a"], jobs=1)
        server.register(run)
        run.record(_event("cell.started", "a"))
        run.record(_event("cell.finished", "a"))
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/events", headers={"Last-Event-ID": "1"})
            resp = conn.getresponse()
            line = resp.fp.readline().decode().strip()
            assert line == "id: 2"  # nothing skipped, nothing repeated
        finally:
            conn.close()

    def test_resume_via_query_param(self, server):
        run = RunStatus(["a"], jobs=1)
        server.register(run)
        for _ in range(3):
            run.record(_event("stage", "a"))
        frames = _sse_frames(server, "/events?last_id=2", min_frames=1)
        assert int(frames[0]["id"]) == 3

    def test_heartbeats_on_idle_stream(self, server):
        run = RunStatus(["a"], jobs=1)
        server.register(run)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/events")
            resp = conn.getresponse()
            line = resp.fp.readline().decode()
            assert line.startswith(": heartbeat")
        finally:
            conn.close()

    def test_run_query_selects_specific_run(self, server):
        first, second = RunStatus(["a"]), RunStatus(["b"])
        server.register(first)
        server.register(second)
        first.record(_event("cell.started", "a"))
        frames = _sse_frames(
            server, f"/events?run={first.run_id}", min_frames=1
        )
        assert json.loads(frames[0]["data"])["label"] == "a"


# ---------------------------------------------------------------------- #
# The job API (write side)
# ---------------------------------------------------------------------- #


class TestJobApi:
    def test_post_job_accepted_and_visible_on_reads(self, job_server):
        status, _, job = _request_json(job_server, "POST", "/jobs", {"preset": "tiny"})
        assert status == 202
        assert job["state"] in ("queued", "running", "done")
        assert job["spec"]["preset"] == "tiny"
        # The job appears on /runs (read side untouched) with its spec.
        _, _, runs_body = _get(job_server, "/runs")
        runs = {r["run_id"]: r for r in json.loads(runs_body)}
        assert job["id"] in runs
        assert runs[job["id"]]["meta"]["kind"] == "job"
        assert runs[job["id"]]["meta"]["spec"] == job["spec"]

    def test_post_job_empty_body_is_default_spec(self, job_server):
        request = urllib.request.Request(
            f"{job_server.url}/jobs", data=b"", method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            job = json.loads(resp.read().decode())
        assert resp.status == 202
        assert job["spec"]["systems"] == ["giraph"]

    def test_post_invalid_spec_400_structured(self, job_server):
        status, _, doc = _request_json(
            job_server, "POST", "/jobs", {"preset": "huge"}
        )
        assert status == 400
        assert "huge" in doc["error"]
        assert doc["field"] == "preset"
        # Nothing enqueued: /jobs stays empty.
        _, _, listing = _request_json(job_server, "GET", "/jobs")
        assert listing == []

    def test_post_unparseable_body_400(self, job_server):
        request = urllib.request.Request(
            f"{job_server.url}/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400
        assert "JSON" in json.loads(exc.value.read().decode())["error"]

    def test_post_other_path_404(self, job_server):
        status, _, _ = _request_json(job_server, "POST", "/runs", {})
        assert status == 404

    def test_queue_full_429_with_retry_after(self):
        gate = threading.Event()
        queue = JobQueue(capacity=1, workers=1, executor=lambda job: gate.wait(10))
        srv = TelemetryServer(port=0, heartbeat_s=0.1, queue=queue).start()
        queue.start()
        try:
            _, _, first = _request_json(srv, "POST", "/jobs", {})
            t0 = time.monotonic()
            while queue.get(first["id"]).state != "running":
                assert time.monotonic() - t0 < 5
                time.sleep(0.002)
            _request_json(srv, "POST", "/jobs", {})  # fills the only slot
            status, headers, doc = _request_json(srv, "POST", "/jobs", {})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert doc["retry_after_s"] >= 1.0
        finally:
            gate.set()
            queue.shutdown()
            srv.stop()

    def test_get_jobs_listing_and_detail(self, job_server):
        _, _, job = _request_json(job_server, "POST", "/jobs", {})
        status, _, listing = _request_json(job_server, "GET", "/jobs")
        assert status == 200
        assert [j["id"] for j in listing] == [job["id"]]
        status, _, detail = _request_json(job_server, "GET", f"/jobs/{job['id']}")
        assert status == 200 and detail["id"] == job["id"]
        status, _, _ = _request_json(job_server, "GET", "/jobs/job-000000-nothere")
        assert status == 404

    def test_delete_cancels_queued_job(self):
        # No workers running: the job stays queued and is cancellable.
        queue = JobQueue(capacity=4, workers=1, executor=lambda job: None)
        srv = TelemetryServer(port=0, heartbeat_s=0.1, queue=queue).start()
        try:
            _, _, job = _request_json(srv, "POST", "/jobs", {})
            status, _, doc = _request_json(srv, "DELETE", f"/jobs/{job['id']}")
            assert status == 200 and doc["state"] == "cancelled"
            status, _, doc = _request_json(srv, "DELETE", f"/jobs/{job['id']}")
            assert status == 409 and doc["state"] == "cancelled"
            status, _, _ = _request_json(srv, "DELETE", "/jobs/job-000000-nothere")
            assert status == 404
        finally:
            queue.shutdown()
            srv.stop()

    def test_write_endpoints_503_without_queue(self, server):
        status, _, doc = _request_json(server, "POST", "/jobs", {})
        assert status == 503 and "read-only" in doc["error"]
        status, _, _ = _request_json(server, "GET", "/jobs")
        assert status == 503
        status, _, _ = _request_json(server, "DELETE", "/jobs/x")
        assert status == 503

    def test_metrics_include_queue_gauges(self, job_server):
        _request_json(job_server, "POST", "/jobs", {})
        _, _, body = _get(job_server, "/metrics")
        _, samples = parse_exposition(body)
        values = {name: value for name, labels, value in samples}
        assert values["grade10_jobqueue_capacity"] == 4.0
        assert values["grade10_jobqueue_workers"] == 1.0
        assert "grade10_jobqueue_depth" in values

    def test_mismatched_registry_rejected(self):
        queue = JobQueue(capacity=2, workers=1, executor=lambda job: None)
        with pytest.raises(ValueError):
            TelemetryServer(port=0, registry=RunRegistry(), queue=queue)

    def test_sse_end_to_end_submit_stream_resume(self):
        """Satellite 3: POST a job, stream its SSE, resume mid-job with
        Last-Event-ID; the reconstructed log is gap-free and terminal."""
        release = threading.Event()
        queue = JobQueue(capacity=4, workers=1, executor=lambda job: release.wait(10))
        srv = TelemetryServer(port=0, heartbeat_s=0.05, queue=queue).start()
        queue.start()
        try:
            _, _, job = _request_json(srv, "POST", "/jobs", {})
            run_path = f"/events?run={job['id']}"
            # First connection sees job.queued (and possibly job.started).
            first = _sse_frames(srv, run_path, min_frames=1)
            assert first[0]["event"] == "job.queued"
            last_seen = int(first[-1]["id"])
            release.set()  # let the job finish while we are disconnected
            # Resume from where the first connection stopped.
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                conn.request(
                    "GET", run_path, headers={"Last-Event-ID": str(last_seen)}
                )
                resp = conn.getresponse()
                frames, current = [], {}
                while not any(f.get("event") == "run.finished" for f in frames):
                    line = resp.fp.readline().decode().rstrip("\n")
                    if line.startswith(":"):
                        continue
                    if not line:
                        if current:
                            frames.append(current)
                            current = {}
                        continue
                    key, _, value = line.partition(": ")
                    current[key] = value
            finally:
                conn.close()
            # Reconstructed log: consecutive ids across both connections.
            ids = [int(f["id"]) for f in first] + [int(f["id"]) for f in frames]
            assert ids == list(range(1, len(ids) + 1)), ids
            kinds = [f["event"] for f in first + frames]
            assert kinds[0] == "job.queued"
            assert "job.started" in kinds
            assert kinds[-1] == "run.finished"
        finally:
            release.set()
            queue.shutdown()
            srv.stop()


# ---------------------------------------------------------------------- #
# Lifecycle and integration
# ---------------------------------------------------------------------- #


class TestLifecycle:
    def test_stop_unblocks_open_sse_stream(self):
        server = TelemetryServer(port=0, heartbeat_s=0.05).start()
        server.register(RunStatus(["a"]))
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", "/events")
        resp = conn.getresponse()
        resp.fp.readline()  # stream is live
        server.stop()  # must not hang on the open stream
        conn.close()

    def test_start_twice_rejected(self):
        with TelemetryServer(port=0) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_registry_can_be_shared(self):
        registry = RunRegistry()
        run = RunStatus(["a"])
        registry.register(run)
        with TelemetryServer(port=0, registry=registry) as server:
            _, _, body = _get(server, "/runs")
            assert json.loads(body)[0]["run_id"] == run.run_id

    def test_live_run_grid_observed_over_http(self):
        """End-to-end: a real sweep watched through /metrics and /events."""
        cells = [
            CellSpec(WorkloadSpec("giraph", "graph500", a, preset="tiny"))
            for a in ("pr", "bfs")
        ]
        with TelemetryServer(port=0, heartbeat_s=0.1) as server:
            run_grid(cells, jobs=1, on_status=server.register)
            _, _, metrics = _get(server, "/metrics")
            _, samples = parse_exposition(metrics)
            values = {name: value for name, labels, value in samples}
            assert values["grade10_run_completed"] == 2.0
            frames = _sse_frames(server, "/events", until_event="run.finished")
            kinds = [f["event"] for f in frames]
            assert kinds[0] == "run.started"
            assert kinds[-1] == "run.finished"
            assert kinds.count("cell.finished") == 2


# ---------------------------------------------------------------------- #
# Distributed tracing across the service boundary (tentpole)
# ---------------------------------------------------------------------- #


def _fetch_status(server, path):
    """(status, headers) for any path, error responses included."""
    try:
        with urllib.request.urlopen(f"{server.url}{path}", timeout=10) as resp:
            return resp.status, resp.headers
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code, exc.headers


def _wait_done(server, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, doc = _request_json(server, "GET", f"/jobs/{job_id}")
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _span_events(trace_doc):
    return [e for e in trace_doc["traceEvents"] if e.get("ph") == "X"]


def audit_span_nesting(trace_doc):
    """Assert the assembled trace is one rooted tree with no orphans.

    Every ``X`` event must carry an id; exactly one event (the synthetic
    ``job`` root) has no parent; every other event's parent id must
    exist in the document.  Returns ``{span_id: event}`` for callers.
    """
    spans = _span_events(trace_doc)
    by_id = {}
    for event in spans:
        span_id = event["args"].get("id")
        assert span_id, f"span without an id: {event}"
        assert span_id not in by_id, f"duplicate span id {span_id}"
        by_id[span_id] = event
    roots = [e for e in spans if "parent" not in e["args"]]
    assert len(roots) == 1, [e["name"] for e in roots]
    assert roots[0]["name"] == "job"
    for event in spans:
        parent = event["args"].get("parent")
        if parent is not None:
            assert parent in by_id, (
                f"orphan span {event['name']} ({event['args']['id']}): "
                f"parent {parent} not in document"
            )
    return by_id


class TestTracing:
    def test_every_response_carries_x_request_id(self, job_server):
        for path in ("/healthz", "/metrics", "/runs", "/jobs"):
            _, headers, _ = _get(job_server, path)
            rid = headers["X-Request-Id"]
            assert rid and len(rid) == 32 and set(rid) <= set("0123456789abcdef")
        # Error responses carry one too.
        status, headers, _ = _request_json(job_server, "GET", "/jobs/nothere")
        assert status == 404 and headers["X-Request-Id"]
        status, headers = _fetch_status(job_server, "/nothere")
        assert status == 404 and headers["X-Request-Id"]

    def test_traceparent_threads_through_job_and_response(self, job_server):
        trace_id = obs.new_trace_id()
        header = obs.format_traceparent(trace_id, obs.new_span_id())
        status, headers, job = _request_json(
            job_server, "POST", "/jobs", {"preset": "tiny"},
            headers={"traceparent": header},
        )
        assert status == 202
        assert headers["X-Request-Id"] == trace_id
        assert job["trace_id"] == trace_id
        # The trace id rides the run's meta, so /runs can name its trace.
        _, _, runs_body = _get(job_server, "/runs")
        runs = {r["run_id"]: r for r in json.loads(runs_body)}
        assert runs[job["id"]]["meta"]["trace_id"] == trace_id

    def test_malformed_traceparent_starts_fresh_trace(self, job_server):
        status, headers, job = _request_json(
            job_server, "POST", "/jobs", {},
            headers={"traceparent": "not-a-traceparent"},
        )
        assert status == 202
        assert len(headers["X-Request-Id"]) == 32
        assert job["trace_id"] == headers["X-Request-Id"]

    def test_job_trace_is_one_rooted_chrome_trace(self, job_server):
        trace_id = obs.new_trace_id()
        client_span = obs.new_span_id()
        _, _, job = _request_json(
            job_server, "POST", "/jobs", {},
            headers={"traceparent": obs.format_traceparent(trace_id, client_span)},
        )
        _wait_done(job_server, job["id"])
        status, headers, doc = _request_json(
            job_server, "GET", f"/jobs/{job['id']}/trace"
        )
        assert status == 200
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs"
        assert doc["otherData"]["trace_id"] == trace_id
        assert doc["otherData"]["job_id"] == job["id"]
        by_id = audit_span_nesting(doc)
        names = {e["name"] for e in by_id.values()}
        assert {"job", "http.request", "job.queued-wait", "job.execute"} <= names
        # Every span belongs to the submitted request's distributed trace.
        assert {e["args"]["trace"] for e in by_id.values()} == {trace_id}
        # The submitting HTTP span still remembers its client-side parent.
        http_spans = [
            e for e in by_id.values()
            if e["name"] == "http.request" and e["args"].get("method") == "POST"
        ]
        assert any(
            e["args"].get("client_parent") == client_span or
            e["args"].get("parent") == client_span
            for e in http_spans
        )
        # The causal chain: queued-wait under the submit, execute under the wait.
        wait = next(e for e in by_id.values() if e["name"] == "job.queued-wait")
        execute = next(e for e in by_id.values() if e["name"] == "job.execute")
        assert execute["args"]["parent"] == wait["args"]["id"]
        # Timestamps are rebased to the document start.
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert min(ts) == 0.0 and ts == sorted(ts)

    def test_job_trace_includes_pipeline_stage_spans(self):
        queue = JobQueue(capacity=4, workers=1)  # real executor: runs the sweep
        srv = TelemetryServer(port=0, heartbeat_s=0.1, queue=queue).start()
        queue.start()
        try:
            _, _, job = _request_json(srv, "POST", "/jobs", {"preset": "tiny"})
            final = _wait_done(srv, job["id"], timeout=60.0)
            assert final["state"] == "done"
            _, _, doc = _request_json(srv, "GET", f"/jobs/{job['id']}/trace")
            by_id = audit_span_nesting(doc)
            names = {e["name"] for e in by_id.values()}
            assert "cell" in names  # worker-side pipeline span made it across
        finally:
            queue.shutdown()
            srv.stop()

    def test_job_trace_unknown_id_404(self, job_server):
        status, _, _ = _request_json(
            job_server, "GET", "/jobs/job-000000-nothere/trace"
        )
        assert status == 404

    def test_job_trace_503_without_queue(self, server):
        status, _, _ = _request_json(server, "GET", "/jobs/x/trace")
        assert status == 503

    def test_metrics_expose_latency_histograms(self, job_server):
        _, _, job = _request_json(job_server, "POST", "/jobs", {})
        _wait_done(job_server, job["id"])
        _, _, body = _get(job_server, "/metrics")
        families, samples = parse_exposition(body)
        for family in (
            "grade10_http_request_duration_seconds",
            "grade10_job_queue_wait_seconds",
            "grade10_job_execute_seconds",
        ):
            assert families[family][0] == "histogram", family
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        # POST /jobs observations landed in the labelled http family.
        post_counts = [
            value for labels, value in
            by_name["grade10_http_request_duration_seconds_count"]
            if labels.get("method") == "POST" and labels.get("route") == "/jobs"
        ]
        assert sum(post_counts) >= 1
        # One queue wait and one execution were measured for the job.
        assert sum(v for _, v in by_name["grade10_job_queue_wait_seconds_count"]) >= 1
        execute = by_name["grade10_job_execute_seconds_count"]
        assert any(labels.get("state") == "done" and value >= 1 for labels, value in execute)

    def test_http_histogram_exemplar_names_a_real_span(self, job_server):
        _, _, job = _request_json(job_server, "POST", "/jobs", {})
        _wait_done(job_server, job["id"])
        _, _, body = _get(job_server, "/metrics")
        _, samples = parse_exposition(body, with_exemplars=True)
        exemplars = [
            ex for name, labels, value, ex in samples
            if name == "grade10_http_request_duration_seconds_bucket" and ex
        ]
        assert exemplars, "no exemplar on any http bucket"
        labels, _value = exemplars[0]
        assert "span_id" in labels and "trace_id" in labels

    def test_route_template_caps_metric_cardinality(self, job_server):
        for i in range(3):
            _request_json(job_server, "GET", f"/jobs/job-{i:06d}-x")
        _fetch_status(job_server, "/completely/unknown/path")
        _, _, body = _get(job_server, "/metrics")
        _, samples = parse_exposition(body)
        routes = {
            labels["route"] for name, labels, value in samples
            if name == "grade10_http_request_duration_seconds_bucket"
        }
        assert "/jobs/<id>" in routes
        assert "<other>" in routes
        assert not any(route.startswith("/jobs/job-") for route in routes)
