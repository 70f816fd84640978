"""Tests for the open-loop load generator (:mod:`repro.loadgen`).

Statistics units, the ``grade10-bench-serve/1`` document validator, a
live end-to-end run against a real :class:`~repro.serve.TelemetryServer`
with an instant injected executor, and the regression-gate wiring: the
produced document self-compares clean and an inflated copy regresses
through the unchanged :func:`repro.bench.compare_bench_docs`.
"""

import copy
import json

import pytest

from repro.bench import (
    SERVE_BENCH_SCHEMA,
    compare_bench_docs,
    validate_serve_bench_doc,
)
from repro.jobs import JobQueue, JobSpecError, QueueFullError
from repro.loadgen import (
    LoadgenError,
    percentile,
    render_load_summary,
    render_period_table,
    run_loadgen,
    skew_warning,
    summarize_latencies,
)
from repro.serve import TelemetryServer


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.90) == 90.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.0) == 1.0

    def test_percentile_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_percentile_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_summarize_latencies(self):
        summary = summarize_latencies([0.1, 0.2, 0.3, 0.4])
        assert summary["count"] == 4
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["p50_s"] == 0.2
        assert summary["max_s"] == 0.4

    def test_summarize_empty(self):
        assert summarize_latencies([]) == {"count": 0}


# ---------------------------------------------------------------------- #
# Document validation
# ---------------------------------------------------------------------- #


def _minimal_doc():
    op = {
        "count": 3,
        "mean_s": 0.01,
        "p50_s": 0.01,
        "p90_s": 0.02,
        "p99_s": 0.02,
        "max_s": 0.02,
    }
    return {
        "schema": SERVE_BENCH_SCHEMA,
        "ops": {"submit": dict(op), "e2e": dict(op)},
        "periods": [{"elapsed_s": 5.0, "ops": {}}],
        "sse": {"streams": 3, "events": 21, "gaps": 0},
        "errors": {"rejected": 0, "http": 0, "overload": 0, "incomplete": 0},
        "systems": {"submit": {}, "e2e": {}},
    }


class TestValidator:
    def test_minimal_doc_valid(self):
        assert validate_serve_bench_doc(_minimal_doc()) == []

    def test_wrong_schema_rejected(self):
        doc = _minimal_doc()
        doc["schema"] = "grade10-bench/1"
        assert any("schema" in p for p in validate_serve_bench_doc(doc))

    def test_sse_gaps_rejected(self):
        doc = _minimal_doc()
        doc["sse"]["gaps"] = 2
        assert any("gap" in p for p in validate_serve_bench_doc(doc))

    def test_http_errors_rejected_but_backpressure_allowed(self):
        doc = _minimal_doc()
        doc["errors"]["rejected"] = 5  # 429s are legitimate backpressure
        doc["errors"]["overload"] = 2
        assert validate_serve_bench_doc(doc) == []
        doc["errors"]["http"] = 1
        assert any("http" in p for p in validate_serve_bench_doc(doc))

    def test_incomplete_streams_rejected(self):
        doc = _minimal_doc()
        doc["errors"]["incomplete"] = 1
        assert validate_serve_bench_doc(doc)

    def test_systems_must_mirror_ops(self):
        doc = _minimal_doc()
        del doc["systems"]["e2e"]
        assert any("systems" in p for p in validate_serve_bench_doc(doc))

    def test_non_finite_latency_rejected(self):
        doc = _minimal_doc()
        doc["ops"]["submit"]["p99_s"] = float("nan")
        assert validate_serve_bench_doc(doc)

    def test_empty_periods_rejected(self):
        doc = _minimal_doc()
        doc["periods"] = []
        assert validate_serve_bench_doc(doc)


# ---------------------------------------------------------------------- #
# Live end-to-end
# ---------------------------------------------------------------------- #


@pytest.fixture()
def live_service():
    """A real server+queue whose jobs complete instantly."""
    queue = JobQueue(capacity=32, workers=2, executor=lambda job: None)
    srv = TelemetryServer(port=0, heartbeat_s=0.05, queue=queue).start()
    queue.start()
    try:
        yield srv
    finally:
        queue.shutdown()
        srv.stop()


class TestRunLoadgen:
    def test_unreachable_service_raises(self):
        with pytest.raises(LoadgenError):
            run_loadgen("http://127.0.0.1:9", rate=1.0, duration_s=0.1)

    def test_invalid_spec_fails_fast(self, live_service):
        with pytest.raises(JobSpecError):
            run_loadgen(live_service.url, spec={"preset": "huge"})

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_loadgen("http://127.0.0.1:9", rate=0.0)
        with pytest.raises(ValueError):
            run_loadgen("http://127.0.0.1:9", duration_s=-1.0)

    def test_open_loop_run_document(self, live_service):
        lines = []
        doc = run_loadgen(
            live_service.url,
            rate=20.0,
            duration_s=1.0,
            period_s=0.5,
            echo=lines.append,
        )
        assert doc["schema"] == SERVE_BENCH_SCHEMA
        assert validate_serve_bench_doc(doc) == [], validate_serve_bench_doc(doc)
        # All 20 arrivals submitted and streamed to their terminal frame.
        assert doc["ops"]["submit"]["count"] == 20
        assert doc["ops"]["e2e"]["count"] == 20
        assert doc["sse"]["streams"] == 20
        assert doc["sse"]["gaps"] == 0
        assert doc["errors"] == {
            "rejected": 0, "http": 0, "overload": 0, "incomplete": 0,
        }
        # The open loop held its schedule: actual duration ≈ duration_s.
        assert doc["duration_actual_s"] == pytest.approx(1.0, abs=0.8)
        # Periodic tables were echoed as the run progressed.
        assert lines and any("p99 ms" in line for line in lines)
        # Period docs accumulate the same ops the totals report.
        period_ops = sum(
            p["ops"]["submit"].get("count", 0) for p in doc["periods"]
        )
        assert period_ops == 20

    def test_rendering_helpers(self, live_service):
        doc = run_loadgen(live_service.url, rate=10.0, duration_s=0.5, period_s=0.25)
        summary = render_load_summary(doc)
        assert "Load summary" in summary and "sse:" in summary
        table = render_period_table(doc["periods"][0], 0.25)
        assert "ops/s" in table

    def test_document_gates_through_compare_bench_docs(self, live_service):
        """Satellite/tentpole seam: the serve doc drives the existing
        noise-aware regression gate with zero bench-side changes."""
        doc = run_loadgen(live_service.url, rate=10.0, duration_s=0.5, period_s=0.25)
        assert doc["systems"], "systems mirror missing"
        self_cmp = compare_bench_docs(doc, doc)
        assert self_cmp.ok and not self_cmp.warnings
        inflated = copy.deepcopy(doc)
        for entry in inflated["systems"].values():
            entry["total_s"]["mean"] = entry["total_s"]["mean"] * 10 + 1.0
            for stage in entry["stages"].values():
                stage["mean_s"] = stage["mean_s"] * 10 + 1.0
        bad_cmp = compare_bench_docs(doc, inflated)
        assert not bad_cmp.ok
        assert len(bad_cmp.regressions) >= 2  # both ops tripped

    def test_live_fraction_validation(self):
        with pytest.raises(ValueError):
            run_loadgen("http://127.0.0.1:9", live_fraction=1.5)
        with pytest.raises(ValueError):
            run_loadgen("http://127.0.0.1:9", live_fraction=-0.1)

    def test_no_live_ops_without_fraction(self, live_service):
        doc = run_loadgen(live_service.url, rate=10.0, duration_s=0.5, period_s=0.25)
        assert set(doc["ops"]) == {"submit", "e2e"}
        assert "live" not in doc

    def test_live_fraction_splits_ops(self, live_service):
        """Half the arrivals go live: both variants measured separately,
        both mirrored into the gateable systems section."""
        doc = run_loadgen(
            live_service.url,
            rate=20.0,
            duration_s=1.0,
            period_s=0.5,
            live_fraction=0.5,
        )
        assert validate_serve_bench_doc(doc) == [], validate_serve_bench_doc(doc)
        assert doc["ops"]["submit"]["count"] == 10
        assert doc["ops"]["submit_live"]["count"] == 10
        assert doc["ops"]["e2e"]["count"] == 10
        assert doc["ops"]["e2e_live"]["count"] == 10
        assert set(doc["systems"]) == {"submit", "e2e", "submit_live", "e2e_live"}
        # The injected instant executor emits no incremental frames, but
        # the live section still records the fraction and frame tallies.
        assert doc["live"]["fraction"] == 0.5
        assert doc["live"]["windows"] == 0
        summary = render_load_summary(doc)
        assert "live: fraction 0.5" in summary

    def test_overload_counted_not_blocking(self, live_service):
        """With max_in_flight=1 and slow streams the client drops
        arrivals as overload instead of stretching the schedule."""
        # Slow the service: executor sleeps via a gated queue.
        doc = run_loadgen(
            live_service.url,
            rate=50.0,
            duration_s=0.4,
            period_s=0.2,
            max_in_flight=1,
        )
        submitted = doc["ops"]["submit"]["count"]
        overload = doc["errors"]["overload"]
        assert submitted + overload == 20
        # The schedule was still open-loop: wall clock near duration.
        assert doc["duration_actual_s"] < 5.0


# ---------------------------------------------------------------------- #
# Period bucketing
# ---------------------------------------------------------------------- #


class TestPeriodBucketing:
    """Every completed op lands in exactly one period latency table.

    Bucketing is drain-based: an op completing exactly on a period
    boundary goes to whichever drain (the boundary tick's or the next)
    observes it first — but never to both and never to neither — and the
    final partial period drains whatever is left after the workers join.
    """

    def test_boundary_completion_counted_exactly_once(self):
        from repro.loadgen import _Recorder

        rec = _Recorder()
        rec.add("submit", 0.010)  # completes inside period 1
        tick1 = rec.drain_period()  # the boundary drain
        rec.add("submit", 0.020)  # completes exactly at the boundary, lost
        # the race with the tick-1 drain — so it belongs to period 2
        tick2 = rec.drain_period()
        final = rec.drain_period()
        assert [len(p["submit"]) for p in (tick1, tick2, final)] == [1, 1, 0]

    def test_period_counts_partition_the_totals(self):
        from repro.loadgen import _Recorder, _period_doc

        rec = _Recorder()
        drained = []
        sample = 0
        for tick in range(1, 5):
            for _ in range(tick):  # 1 + 2 + 3 + 4 samples
                sample += 1
                rec.add("submit", sample * 1e-3)
                rec.add("e2e", sample * 2e-3)
            drained.append(_period_doc(tick * 5.0, 5.0, rec.drain_period()))
        rec.add("e2e", 0.5)  # straggler: finishes after the last tick
        final = _period_doc(21.0, 1.0, rec.drain_period())
        totals = rec.totals()
        for op in ("submit", "e2e"):
            in_periods = sum(p["ops"][op].get("count", 0) for p in drained)
            in_periods += final["ops"][op].get("count", 0)
            assert in_periods == len(totals[op])

    def test_concurrent_completions_never_lost_or_duplicated(self):
        import threading

        from repro.loadgen import _Recorder

        rec = _Recorder()
        n_threads, per_thread = 4, 200
        start = threading.Barrier(n_threads + 1)

        def worker():
            start.wait()
            for i in range(per_thread):
                rec.add("submit", i * 1e-6)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        start.wait()
        drained = 0
        for _ in range(50):  # drain repeatedly while adds race the lock
            drained += len(rec.drain_period()["submit"])
        for t in threads:
            t.join()
        drained += len(rec.drain_period()["submit"])
        assert drained == n_threads * per_thread
        assert len(rec.totals()["submit"]) == n_threads * per_thread

    def test_final_partial_period_rated_over_its_real_length(self):
        """Regression: a 2.5s tail period must not divide its rate by 5s."""
        from repro.loadgen import _period_doc

        doc = _period_doc(12.5, 2.5, {"submit": [0.01] * 5, "e2e": []})
        assert doc["ops"]["submit"]["count"] == 5
        assert doc["ops"]["submit"]["ops_per_s"] == pytest.approx(5 / 2.5)
        assert doc["ops"]["e2e"] == {"count": 0, "ops_per_s": pytest.approx(0.0)}

    def test_percentiles_at_exact_rank_boundaries(self):
        assert percentile([3.0], 0.5) == 3.0  # a single sample is every rank
        assert percentile([1.0, 2.0], 0.50) == 1.0  # ceil(0.5 * 2) = rank 1
        assert percentile([1.0, 2.0], 0.51) == 2.0  # just past the boundary
        assert percentile([1.0, 2.0], 0.0) == 1.0  # rank floor clamps to 1
        assert percentile([1.0, 2.0], 1.0) == 2.0
        # p99 of exactly 100 samples is the 99th smallest, not the max.
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.99) == 99.0


# ---------------------------------------------------------------------- #
# Server-measured latency (satellite: client vs server side by side)
# ---------------------------------------------------------------------- #


class TestServerLatency:
    def test_scrape_submit_stats_filters_post_jobs_series(self, live_service):
        from repro.loadgen import _post_job, _scrape_submit_stats

        count0, sum0 = _scrape_submit_stats(live_service.url)
        for _ in range(3):
            status, _ = _post_job(live_service.url, {}, 10.0)
            assert status == 202
        # A GET must not move the POST /jobs numbers.
        from repro.loadgen import _http_get

        _http_get(live_service.url, "/healthz", timeout=10.0)
        count1, sum1 = _scrape_submit_stats(live_service.url)
        assert count1 - count0 == 3
        assert sum1 >= sum0

    def test_skew_warning_thresholds(self):
        def period(client_mean, server_mean):
            return {
                "elapsed_s": 5.0,
                "ops": {"submit": {"count": 5, "mean_s": client_mean}},
                "server": {"submit": {"count": 5, "mean_s": server_mean}},
            }

        assert skew_warning(period(0.010, 0.010)) is None
        assert skew_warning(period(0.0109, 0.010)) is None  # within 10%
        warning = skew_warning(period(0.020, 0.010))
        assert warning is not None and "100%" in warning
        # Either side missing or empty: no verdict, no crash.
        assert skew_warning({"ops": {}, "server": {}}) is None
        assert skew_warning(period(0.02, 0.0) | {"server": {"submit": {"count": 0}}}) is None

    def test_period_table_renders_server_row_under_client_row(self):
        period = {
            "elapsed_s": 5.0,
            "ops": {
                "submit": {
                    "count": 4, "ops_per_s": 0.8, "mean_s": 0.011,
                    "p50_s": 0.01, "p90_s": 0.02, "p99_s": 0.02, "max_s": 0.02,
                },
            },
            "server": {"submit": {"count": 4, "mean_s": 0.012}},
        }
        table = render_period_table(period, 5.0)
        lines = table.splitlines()
        client_idx = next(i for i, l in enumerate(lines) if " submit " in f" {l} " and "(server)" not in l)
        server_idx = next(i for i, l in enumerate(lines) if "submit (server)" in l)
        assert server_idx == client_idx + 1
        assert "12.0" in lines[server_idx]  # server mean in ms

    def test_run_document_carries_server_section(self, live_service):
        doc = run_loadgen(live_service.url, rate=10.0, duration_s=0.5, period_s=0.25)
        assert validate_serve_bench_doc(doc) == [], validate_serve_bench_doc(doc)
        server = doc["server"]["submit"]
        assert server["count"] == doc["ops"]["submit"]["count"]
        assert server["mean_s"] >= 0.0
        assert "skew_vs_client" in server

    def test_skew_compares_accepted_submits_live_included(self):
        """The client side of the skew is submit and submit_live together."""
        period = {
            "elapsed_s": 5.0,
            "ops": {
                "submit": {"count": 3, "mean_s": 0.010},
                "submit_live": {"count": 1, "mean_s": 0.050},
            },
            "server": {"submit": {"count": 4, "mean_s": 0.020}},
        }
        assert skew_warning(period) is None  # client mean (3·10 + 50) / 4 = 20 ms
        period["ops"]["submit_live"]["mean_s"] = 0.010
        assert "50%" in skew_warning(period)

    def test_server_and_client_count_the_same_submits(self):
        """With live jobs and a 429 in the run, the server's accepted
        POST /jobs count equals the client's accepted submits."""
        rejected = []

        class RejectOnce(JobQueue):
            def submit(self, body, **kwargs):
                if not rejected:
                    rejected.append(True)
                    raise QueueFullError(1.0)
                return super().submit(body, **kwargs)

        queue = RejectOnce(capacity=32, workers=2, executor=lambda job: None)
        srv = TelemetryServer(port=0, heartbeat_s=0.05, queue=queue).start()
        queue.start()
        try:
            doc = run_loadgen(srv.url, rate=20.0, duration_s=0.5, period_s=0.25, live_fraction=0.5)
        finally:
            queue.shutdown()
            srv.stop()
        assert doc["errors"]["rejected"] == 1
        accepted = doc["ops"]["submit"]["count"] + doc["ops"]["submit_live"]["count"]
        assert accepted == 9
        assert doc["ops"]["submit_live"]["count"] > 0
        assert doc["server"]["submit"]["count"] == accepted
        assert "skew_vs_client" in doc["server"]["submit"]

    def test_server_latency_opt_out(self, live_service):
        doc = run_loadgen(
            live_service.url, rate=10.0, duration_s=0.5, period_s=0.25,
            server_latency=False,
        )
        assert "server" not in doc
        assert validate_serve_bench_doc(doc) == []
        assert all("server" not in p for p in doc["periods"])

    def test_validator_rejects_malformed_server_section(self):
        doc = _minimal_doc()
        doc["server"] = {"submit": {"count": 3, "mean_s": 0.01}}
        assert validate_serve_bench_doc(doc) == []
        doc["server"] = {"submit": {"count": 0, "mean_s": 0.01}}
        assert validate_serve_bench_doc(doc)
        doc["server"] = {"submit": {"count": 3, "mean_s": float("nan")}}
        assert validate_serve_bench_doc(doc)
        doc["server"] = {"submit": "not-a-dict"}
        assert validate_serve_bench_doc(doc)

    def test_requests_carry_traceparent(self, live_service):
        """Every submitted job inherits a loadgen-minted trace id."""
        run_loadgen(live_service.url, rate=6.0, duration_s=0.5, period_s=0.25)
        from repro.loadgen import _http_get

        jobs = json.loads(_http_get(live_service.url, "/jobs", timeout=10.0))
        assert jobs
        trace_ids = {job["trace_id"] for job in jobs}
        assert all(len(t) == 32 for t in trace_ids)
        assert len(trace_ids) == len(jobs)  # a fresh trace per request
