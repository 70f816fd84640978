#!/usr/bin/env python
"""End-to-end smoke test of ``repro serve`` (the CI ``serve-smoke`` job).

Launches ``repro serve`` on a tiny suite as a real subprocess, with a
fresh run cache, then from the outside:

1. polls ``/healthz`` until the server is up;
2. scrapes ``/metrics`` and validates the exposition with the
   conformance parser from ``tests/report/test_openmetrics.py``,
   requiring at least one live run-status gauge;
3. reads ``/events`` and requires at least one ``cell.finished`` SSE
   frame (the gap-free backlog makes this race-free even if the tiny
   suite finishes before we connect);
4. waits for ``/runs`` to report the run finished;
5. exercises the write side: ``POST /jobs`` submits a tiny job stamped
   with a ``traceparent`` header (202), streams ``/events?run=<job id>``
   to its terminal ``run.finished`` frame, and requires
   ``GET /jobs/<id>`` to report state ``done``;
6. fetches ``GET /jobs/<id>/trace`` and validates it as one merged
   Chrome-trace JSON: the submitted trace id everywhere, the server-side
   ``http.request`` span and the worker-side ``job.queued-wait`` /
   ``job.execute`` spans in one rooted tree with no dangling parents,
   and re-scrapes ``/metrics`` for the three latency histogram families;
7. submits a ``"live": true`` job twice: each stream must carry
   ``window.analyzed`` frames before ``run.finished``, the second must
   be a run-cache hit (``cell.cache_hit``) with as many windows as the
   first, and ``/runs/<id>/bottlenecks`` and ``/metrics`` must show the
   live bottleneck state;
8. sends SIGTERM and requires a clean exit code 0.

Run from the repo root: ``python scripts/serve_smoke.py`` (or
``make serve-smoke``).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)  # for tests.report.test_openmetrics
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from tests.report.test_openmetrics import parse_exposition  # noqa: E402

DEADLINE_S = 120.0


def wait_for(predicate, what, deadline_s=DEADLINE_S):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        result = predicate()
        if result:
            return result
        time.sleep(0.1)
    raise SystemExit(f"timed out waiting for {what}")


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.read().decode()


def healthy(base):
    try:
        return get(base, "/healthz") == "ok\n"
    except OSError:
        return False


def post_json(base, path, doc, headers=None):
    """POST ``doc`` as JSON; returns ``(status, headers, parsed body)``."""
    request_headers = {"Content-Type": "application/json"}
    request_headers.update(headers or {})
    request = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers=request_headers,
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.headers, json.loads(resp.read().decode())


def audit_job_trace(doc, trace_id, job_id):
    """Assert ``doc`` is one rooted Chrome trace for ``trace_id``."""
    assert doc["displayTimeUnit"] == "ms", doc.get("displayTimeUnit")
    assert doc["otherData"]["trace_id"] == trace_id, doc["otherData"]
    assert doc["otherData"]["job_id"] == job_id, doc["otherData"]
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    assert len(by_id) == len(spans), "duplicate span ids"
    roots = [e for e in spans if "parent" not in e["args"]]
    assert len(roots) == 1 and roots[0]["name"] == "job", [
        e["name"] for e in roots
    ]
    for event in spans:
        parent = event["args"].get("parent")
        assert parent is None or parent in by_id, (
            f"orphan span {event['name']}: parent {parent} missing"
        )
    names = {e["name"] for e in spans}
    required = {"job", "http.request", "job.queued-wait", "job.execute"}
    assert required <= names, f"missing spans: {sorted(required - names)}"
    assert {e["args"]["trace"] for e in spans} == {trace_id}
    return names


def read_sse_until(host, port, event, deadline_s=DEADLINE_S, query="last_id=0"):
    """Read /events frames until ``event`` is seen; returns the frames."""
    conn = http.client.HTTPConnection(host, port, timeout=deadline_s)
    try:
        conn.request("GET", f"/events?{query}")
        resp = conn.getresponse()
        assert resp.status == 200, resp.status
        frames, current = [], {}
        while True:
            line = resp.fp.readline().decode().rstrip("\n")
            if line.startswith(":"):
                continue
            if not line:
                if current:
                    frames.append(current)
                    if current.get("event") == event:
                        return frames
                    current = {}
                continue
            key, _, value = line.partition(": ")
            current[key] = value
    finally:
        conn.close()


def main():
    scratch = tempfile.mkdtemp(prefix="serve-smoke-")
    port_file = os.path.join(scratch, "port")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--preset", "tiny", "--systems", "giraph", "--jobs", "2",
            "--port", "0", "--port-file", port_file,
            "--cache-dir", os.path.join(scratch, "cache"),
        ],
        cwd=REPO_ROOT,
        env=env,
    )
    try:
        wait_for(lambda: os.path.exists(port_file), "port file")
        port = int(open(port_file).read().strip())
        base = f"http://127.0.0.1:{port}"
        wait_for(lambda: healthy(base), "/healthz")
        print(f"serve-smoke: healthy on {base}")

        # Scrape repeatedly while the suite runs; every exposition must be
        # conformant and carry the live run gauges once a run registered.
        saw_gauge = wait_for(
            lambda: "grade10_run_cells" in get(base, "/metrics"),
            "run gauges on /metrics",
        )
        assert saw_gauge
        families, samples = parse_exposition(get(base, "/metrics"))
        names = {name for name, _, _ in samples}
        assert "grade10_run_cells" in names, sorted(names)
        assert families["grade10_run_cells"][0] == "gauge"
        print(f"serve-smoke: /metrics conformant ({len(samples)} samples)")

        frames = read_sse_until("127.0.0.1", port, "cell.finished")
        ids = [int(f["id"]) for f in frames]
        assert ids == sorted(ids), f"event ids not increasing: {ids}"
        print(f"serve-smoke: /events streamed {len(frames)} frames "
              "including cell.finished")

        runs = wait_for(
            lambda: [
                r for r in json.loads(get(base, "/runs")) if r["finished"]
            ],
            "a finished run on /runs",
        )
        assert runs[0]["counts"]["done"] + runs[0]["counts"]["cached"] > 0
        print("serve-smoke: /runs reports the suite finished")

        # Write side: submit a traced tiny job and follow it to completion.
        from repro import obs

        trace_id = obs.new_trace_id()
        traceparent = obs.format_traceparent(trace_id, obs.new_span_id())
        # "cache": false keeps this job cold (the suite above may have
        # cached its cell), so its trace carries every pipeline stage.
        status, resp_headers, job = post_json(
            base, "/jobs", {"preset": "tiny", "cache": False},
            headers={"traceparent": traceparent},
        )
        assert status == 202, f"expected 202 from POST /jobs, got {status}"
        assert resp_headers["X-Request-Id"] == trace_id, (
            f"X-Request-Id {resp_headers['X-Request-Id']!r} != {trace_id!r}"
        )
        assert job["trace_id"] == trace_id, job
        job_id = job["id"]
        frames = read_sse_until(
            "127.0.0.1", port, "run.finished",
            query=f"run={job_id}&last_id=0",
        )
        ids = [int(f["id"]) for f in frames]
        assert ids == list(range(1, len(ids) + 1)), f"gappy job stream: {ids}"
        terminal = wait_for(
            lambda: (lambda d: d if d["state"] in ("done", "failed", "cancelled")
                     else None)(json.loads(get(base, f"/jobs/{job_id}"))),
            "job terminal state",
        )
        assert terminal["state"] == "done", terminal
        print(f"serve-smoke: POST /jobs ran {job_id} to state=done "
              f"({len(frames)} gap-free SSE frames)")

        # The assembled end-to-end trace: client submit -> HTTP handling
        # -> queue wait -> execution -> pipeline stages, one rooted tree.
        trace_doc = json.loads(get(base, f"/jobs/{job_id}/trace"))
        names = audit_job_trace(trace_doc, trace_id, job_id)
        print(f"serve-smoke: /jobs/{job_id}/trace is one rooted Chrome "
              f"trace ({len(trace_doc['traceEvents'])} events, "
              f"{len(names)} span kinds)")

        # The executed job must have populated the latency histograms.
        families, samples = parse_exposition(get(base, "/metrics"))
        for family in (
            "grade10_http_request_duration_seconds",
            "grade10_job_queue_wait_seconds",
            "grade10_job_execute_seconds",
        ):
            assert families.get(family, [None])[0] == "histogram", family
        execute_counts = sum(
            value for name, labels, value in samples
            if name == "grade10_job_execute_seconds_count"
        )
        assert execute_counts >= 1, "no job execution observed in /metrics"
        print("serve-smoke: latency histogram families conformant")

        # Live windows: a "live": true job must stream window.analyzed
        # frames *before* its terminal frame, expose its rolling state on
        # /runs/<id>/bottlenecks, and populate the
        # run_bottleneck_seconds_total counter family on /metrics.  The
        # seed is one no earlier cell used, so the first live job
        # simulates; the same spec again is a run-cache hit that streams
        # the same windows.
        live_spec = {"preset": "tiny", "live": True, "seed": 1}
        window_counts = []
        for attempt in ("cold", "warm"):
            status, _, live_job = post_json(base, "/jobs", live_spec)
            assert status == 202, f"expected 202 from live POST /jobs, got {status}"
            live_id = live_job["id"]
            frames = read_sse_until(
                "127.0.0.1", port, "run.finished",
                query=f"run={live_id}&last_id=0",
            )
            kinds = [f.get("event") for f in frames]
            ids = [int(f["id"]) for f in frames]
            assert ids == list(range(1, len(ids) + 1)), f"gappy live stream: {ids}"
            assert "window.analyzed" in kinds, f"no window.analyzed frame: {kinds}"
            assert kinds.index("window.analyzed") < kinds.index("run.finished"), (
                "window.analyzed did not precede run.finished"
            )
            assert ("cell.cache_hit" in kinds) == (attempt == "warm"), (
                f"{attempt} live job: cell.cache_hit {'missing' if attempt == 'warm' else 'present'}"
            )
            window_counts.append(kinds.count("window.analyzed"))
            n_bottlenecks = kinds.count("bottleneck.detected")
            print(f"serve-smoke: {attempt} live job {live_id} streamed "
                  f"{window_counts[-1]} window.analyzed and {n_bottlenecks} "
                  "bottleneck.detected frames before run.finished")
        assert window_counts[0] == window_counts[1], (
            f"warm live job streamed {window_counts[1]} windows, cold {window_counts[0]}"
        )

        snapshot = json.loads(get(base, f"/runs/{live_id}/bottlenecks"))
        assert snapshot["windows_analyzed"] >= 1, snapshot
        assert snapshot["bottleneck_seconds"], snapshot
        assert snapshot["last_bottleneck"] is not None, snapshot
        print(f"serve-smoke: /runs/{live_id}/bottlenecks reports "
              f"{snapshot['windows_analyzed']} windows, "
              f"{len(snapshot['bottleneck_seconds'])} bottleneck series")

        families, samples = parse_exposition(get(base, "/metrics"))
        assert families.get("grade10_run_bottleneck_seconds", [None])[0] == (
            "counter"
        ), sorted(families)
        bottleneck_total = sum(
            value for name, labels, value in samples
            if name == "grade10_run_bottleneck_seconds_total"
        )
        assert bottleneck_total > 0.0, "empty run_bottleneck_seconds_total"
        gauge_names = {name for name, _, _ in samples}
        assert "grade10_incremental_window_lag_seconds" in gauge_names, (
            sorted(gauge_names)
        )
        print("serve-smoke: live bottleneck counter and window-lag gauge "
              "conformant on /metrics")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        assert code == 0, f"expected clean exit, got {code}"
        print("serve-smoke: clean SIGTERM shutdown (exit 0)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
