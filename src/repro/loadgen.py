"""Open-loop load generator for the analysis service (``repro loadgen``).

Proves the write side of ``repro serve`` at traffic, in the style of the
``dbworkload`` harness: submit jobs at a **fixed arrival rate** for a
fixed duration, stream every submitted job's SSE events to completion,
and report per-op throughput plus p50/p90/p99 latency tables per period.

Open-loop means arrivals are scheduled on a clock (``t0 + k/rate``),
*never* gated on completions — a slow service faces the same incoming
rate as a fast one, which is what exposes queueing collapse.  A
closed-loop harness (N clients in a request-response cycle) would
politely slow down with the service and hide it.  If all
``max_in_flight`` client slots are busy at an arrival instant, the op is
counted as ``overload`` instead of being silently delayed.

Two operations are measured per job:

* ``submit`` — the ``POST /jobs`` round-trip (admission latency);
* ``e2e`` — submission to the job's terminal ``run.finished`` SSE frame,
  streamed over ``/events?run=<job id>`` with the gap-free id contract
  checked frame by frame (any id gap is counted, and a stream that ends
  without a terminal frame counts as ``incomplete``).

With ``live_fraction > 0`` a deterministic fraction of arrivals submits
the same spec with ``"live": true`` — each cell also streams its
bottleneck report cut into ``window.analyzed`` / ``bottleneck.detected``
frames — and those jobs are measured as separate ``submit_live`` /
``e2e_live`` ops.  Because both variants land in the mirrored
``systems`` section, ``BENCH_serve.json`` captures the live-analysis
overhead envelope and ``bench --diff`` gates regressions in it.

Every request carries a fresh W3C ``traceparent`` header
(:func:`repro.obs.format_traceparent`), so the server opens its
``http.request`` span as a child of this client and
``GET /jobs/<id>/trace`` returns the whole causal chain — client submit,
admission, queue wait, execution, pipeline stages — as one Chrome trace.
Alongside the client-measured latencies, each reporting period scrapes
``/metrics`` once and reports the **server-measured** ``POST /jobs``
latency (from the ``http_request_duration_seconds`` histogram) side by
side, warning when client and server disagree by more than 10% — the
signal that queueing happens *outside* the service (client pool, kernel
accept queue) rather than inside it.  Both sides count the same
submits: those the server accepted, live ones included.

The result document (schema ``grade10-bench-serve/1``, seeded at
``BENCH_serve.json`` by ``make bench-serve``) mirrors its per-op summary
into a ``systems``/``stages`` section, so the existing noise-aware
:func:`repro.bench.compare_bench_docs` regression gate — and with it
``repro bench --diff`` and CI exit code 4 — applies to service latency
exactly as it does to pipeline stage timings.
"""

from __future__ import annotations

import http.client
import json
import math
import platform
import re
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Mapping
from urllib.parse import urlparse

from . import obs
from .bench import SERVE_BENCH_SCHEMA
from .jobs import parse_job_spec
from .obs_logging import get_logger
from .viz import format_table

__all__ = [
    "DEFAULT_PERIOD_S",
    "SKEW_WARN_THRESHOLD",
    "LoadgenError",
    "percentile",
    "render_load_summary",
    "render_period_table",
    "run_loadgen",
    "skew_warning",
    "summarize_latencies",
]

_LOG = get_logger("repro.loadgen")

#: Default reporting-period length (seconds).
DEFAULT_PERIOD_S = 5.0

#: The two always-measured operations.
_OPS = ("submit", "e2e")

#: Extra ops measured when ``live_fraction > 0`` (jobs submitted with
#: ``"live": true``, which also stream their cells' windows).
_LIVE_OPS = ("submit_live", "e2e_live")

#: Relative client-vs-server submit-latency disagreement that triggers a
#: warning line in the per-period output.
SKEW_WARN_THRESHOLD = 0.10


class LoadgenError(Exception):
    """The load run could not start or complete (service unreachable, …)."""


# ---------------------------------------------------------------------- #
# Latency statistics
# ---------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    Raises ``ValueError`` on an empty list — a percentile of nothing is
    a bug at the call site, not a zero.
    """
    if not values:
        raise ValueError("percentile of an empty list")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summarize_latencies(values: list[float]) -> dict[str, Any]:
    """Count/mean/p50/p90/p99/max summary of one op's latency samples."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean_s": sum(values) / len(values),
        "p50_s": percentile(values, 0.50),
        "p90_s": percentile(values, 0.90),
        "p99_s": percentile(values, 0.99),
        "max_s": max(values),
    }


class _Recorder:
    """Thread-safe sample store with per-period drain semantics."""

    def __init__(self, ops: tuple[str, ...] = _OPS) -> None:
        self._lock = threading.Lock()
        self._ops = ops
        self._totals: dict[str, list[float]] = {op: [] for op in ops}
        self._period: dict[str, list[float]] = {op: [] for op in ops}
        self.sse_events = 0
        self.sse_gaps = 0
        self.streams = 0
        self.live_windows = 0
        self.live_bottlenecks = 0
        self.errors = {"rejected": 0, "http": 0, "overload": 0, "incomplete": 0}

    def add(self, op: str, latency_s: float) -> None:
        with self._lock:
            self._totals[op].append(latency_s)
            self._period[op].append(latency_s)

    def add_stream(
        self, events: int, gaps: int, complete: bool,
        windows: int = 0, bottlenecks: int = 0,
    ) -> None:
        with self._lock:
            self.streams += 1
            self.sse_events += events
            self.sse_gaps += gaps
            self.live_windows += windows
            self.live_bottlenecks += bottlenecks
            if not complete:
                self.errors["incomplete"] += 1

    def count_error(self, kind: str) -> None:
        with self._lock:
            self.errors[kind] += 1

    def drain_period(self) -> dict[str, list[float]]:
        with self._lock:
            drained = self._period
            self._period = {op: [] for op in self._ops}
            return drained

    def totals(self) -> dict[str, list[float]]:
        with self._lock:
            return {op: list(samples) for op, samples in self._totals.items()}


# ---------------------------------------------------------------------- #
# HTTP client plumbing
# ---------------------------------------------------------------------- #


def _traceparent() -> str:
    """A fresh client-side trace context for one request."""
    return obs.format_traceparent(obs.new_trace_id(), obs.new_span_id())


def _http_get(base_url: str, path: str, timeout: float = 10.0) -> str:
    request = urllib.request.Request(
        base_url + path, headers={"traceparent": _traceparent()}
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def _post_job(
    base_url: str, body: bytes, timeout: float, traceparent: str | None = None
) -> tuple[int, dict[str, Any]]:
    request = urllib.request.Request(
        base_url + "/jobs",
        data=body,
        headers={
            "Content-Type": "application/json",
            "traceparent": traceparent or _traceparent(),
        },
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", errors="replace")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            doc = {"error": raw}
        return exc.code, doc


# Scrape-side parsing: the two sample shapes the server-latency column
# needs (``_sum``/``_count`` of the POST /jobs histogram series).
_METRIC_LINE = re.compile(r"^(\w+)\{(.*?)\} (\S+)(?: # .*)?$")


def _scrape_submit_stats(base_url: str, timeout: float = 10.0) -> tuple[int, float]:
    """Server-measured ``POST /jobs`` latency off one ``/metrics`` scrape.

    Returns cumulative ``(count, sum_seconds)`` of the
    ``http_request_duration_seconds`` histogram's ``code="202"`` series of
    the ``POST /jobs`` route — the submits the server accepted, the same
    op set as the client's accepted submits (:func:`_accepted_submits`).
    The deltas between two scrapes give the server-side mean for that
    interval.
    """
    text = _http_get(base_url, "/metrics", timeout=timeout)
    count, total = 0, 0.0
    for line in text.splitlines():
        if not line.startswith("grade10_http_request_duration_seconds_"):
            continue
        m = _METRIC_LINE.match(line)
        if m is None:
            continue
        name, labels, value = m.groups()
        if not all(x in labels for x in ('method="POST"', 'route="/jobs"', 'code="202"')):
            continue
        if name.endswith("_count"):
            count += int(float(value))
        elif name.endswith("_sum"):
            total += float(value)
    return count, total


def _stream_job_events(
    host: str, port: int, run_id: str, deadline: float
) -> tuple[int, int, bool, dict[str, int]]:
    """Stream ``/events?run=...`` until ``run.finished``.

    Returns ``(n_events, id_gaps, saw_terminal, live_counts)``.  Ids
    must be the status log's consecutive integers starting at 1; every
    skip counts as a gap (the zero-dropped-events acceptance check).
    ``live_counts`` tallies the incremental-analysis frame kinds
    (``windows`` = ``window.analyzed``, ``bottlenecks`` =
    ``bottleneck.detected``) so live jobs prove their mid-run stream.
    """
    conn = http.client.HTTPConnection(host, port, timeout=max(deadline - time.monotonic(), 1.0))
    events = gaps = 0
    expected = 1
    live = {"windows": 0, "bottlenecks": 0}
    try:
        conn.request(
            "GET",
            f"/events?run={run_id}&last_id=0",
            headers={"traceparent": _traceparent()},
        )
        resp = conn.getresponse()
        if resp.status != 200:
            return 0, 0, False, live
        current: dict[str, str] = {}
        while time.monotonic() < deadline:
            line = resp.fp.readline().decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # heartbeat
            if line:
                key, _, value = line.partition(": ")
                current[key] = value
                continue
            if not current:
                continue
            frame, current = current, {}
            events += 1
            try:
                frame_id = int(frame.get("id", -1))
            except ValueError:
                frame_id = -1
            if frame_id != expected:
                gaps += abs(frame_id - expected)
            expected = frame_id + 1
            kind = frame.get("event")
            if kind == "window.analyzed":
                live["windows"] += 1
            elif kind == "bottleneck.detected":
                live["bottlenecks"] += 1
            if kind == "run.finished":
                return events, gaps, True, live
        return events, gaps, False, live
    except OSError:
        return events, gaps, False, live
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #


def _period_doc(
    elapsed_s: float, period_s: float, samples: Mapping[str, list[float]]
) -> dict[str, Any]:
    ops = {}
    for op, values in samples.items():
        summary = summarize_latencies(values)
        summary["ops_per_s"] = len(values) / period_s if period_s > 0 else 0.0
        ops[op] = summary
    return {"elapsed_s": elapsed_s, "ops": ops}


def _stat_row(op: str, summary: Mapping[str, Any], *, elapsed_s: float,
              ops_per_s: float) -> list[str]:
    if summary.get("count", 0) == 0:
        return [f"{elapsed_s:.0f}", op, "0", "-", "-", "-", "-", "-", "-"]
    return [
        f"{elapsed_s:.0f}",
        op,
        str(summary["count"]),
        f"{ops_per_s:.2f}",
        f"{summary['mean_s'] * 1e3:.1f}",
        f"{summary['p50_s'] * 1e3:.1f}",
        f"{summary['p90_s'] * 1e3:.1f}",
        f"{summary['p99_s'] * 1e3:.1f}",
        f"{summary['max_s'] * 1e3:.1f}",
    ]


_TABLE_HEADERS = [
    "elapsed", "op", "ops", "ops/s", "mean ms", "p50 ms", "p90 ms", "p99 ms",
    "max ms",
]


def _server_row(op: str, summary: Mapping[str, Any], *, elapsed_s: float) -> list[str]:
    """A server-measured row: count and mean only (histogram sum/count
    deltas carry no percentiles)."""
    if summary.get("count", 0) == 0:
        return [f"{elapsed_s:.0f}", op, "0", "-", "-", "-", "-", "-", "-"]
    return [
        f"{elapsed_s:.0f}",
        op,
        str(summary["count"]),
        "-",
        f"{summary['mean_s'] * 1e3:.1f}",
        "-", "-", "-", "-",
    ]


def render_period_table(period: Mapping[str, Any], period_s: float) -> str:
    """One reporting period as a dbworkload-style latency table.

    When the period carries a ``server`` section (the per-period
    ``/metrics`` scrape), the server-measured submit latency renders
    directly under the client-measured row for eyeball comparison.
    """
    rows = []
    for op, summary in period["ops"].items():
        rows.append(
            _stat_row(
                op, summary,
                elapsed_s=period["elapsed_s"],
                ops_per_s=summary.get("ops_per_s", 0.0),
            )
        )
        server = period.get("server", {}).get(op)
        if server is not None:
            rows.append(
                _server_row(f"{op} (server)", server, elapsed_s=period["elapsed_s"])
            )
    return format_table(_TABLE_HEADERS, rows)


def _accepted_submits(ops: Mapping[str, Any]) -> dict[str, Any]:
    """Count and mean latency of every client submit the server accepted.

    Those are the ``submit`` and ``submit_live`` ops together (both are
    recorded only for a 202); the server side of the comparison is the
    ``code="202"`` series of ``POST /jobs`` (:func:`_scrape_submit_stats`).
    """
    parts = [ops.get(op, {}) for op in ("submit", "submit_live")]
    count = sum(part.get("count", 0) for part in parts)
    if count == 0:
        return {"count": 0}
    total = sum(part["mean_s"] * part["count"] for part in parts if part.get("count", 0))
    return {"count": count, "mean_s": total / count}


def skew_warning(period: Mapping[str, Any]) -> str | None:
    """A warning line when client and server submit latency disagree.

    Compares the client's accepted submits, live ones included, with the
    server's accepted ``POST /jobs``.  Returns ``None`` while the two
    agree within :data:`SKEW_WARN_THRESHOLD` (or either side is missing).
    Large skew means latency accrues outside the service — client thread
    pool, kernel accept queue — and the client-measured numbers stop
    being a statement about the server.
    """
    client = _accepted_submits(period.get("ops", {}))
    server = period.get("server", {}).get("submit", {})
    if client.get("count", 0) == 0 or server.get("count", 0) == 0:
        return None
    client_mean, server_mean = client["mean_s"], server["mean_s"]
    if server_mean <= 0.0:
        return None
    skew = abs(client_mean - server_mean) / server_mean
    if skew <= SKEW_WARN_THRESHOLD:
        return None
    return (
        f"warning: submit latency skew {skew:.0%} — client "
        f"{client_mean * 1e3:.1f} ms vs server {server_mean * 1e3:.1f} ms "
        f"(threshold {SKEW_WARN_THRESHOLD:.0%})"
    )


def render_load_summary(doc: Mapping[str, Any]) -> str:
    """Whole-run per-op summary table plus the health counters."""
    duration = float(doc.get("duration_actual_s") or doc.get("duration_s") or 0.0)
    rows = [
        _stat_row(
            op, summary,
            elapsed_s=duration,
            ops_per_s=summary.get("throughput_per_s", 0.0),
        )
        for op, summary in doc.get("ops", {}).items()
    ]
    table = format_table(
        _TABLE_HEADERS, rows,
        title=f"Load summary — rate {doc.get('rate')}/s over {duration:.1f}s",
    )
    sse = doc.get("sse", {})
    errors = doc.get("errors", {})
    tail = (
        f"sse: {sse.get('events', 0)} events over {sse.get('streams', 0)} streams, "
        f"{sse.get('gaps', 0)} gaps; errors: "
        + ", ".join(f"{k}={v}" for k, v in errors.items())
    )
    live = doc.get("live")
    if live:
        tail += (
            f"\nlive: fraction {live.get('fraction')}, "
            f"{live.get('windows', 0)} window.analyzed and "
            f"{live.get('bottlenecks', 0)} bottleneck.detected frames"
        )
    return table + "\n" + tail


def _systems_section(
    ops: Mapping[str, Mapping[str, Any]], duration_s: float
) -> dict[str, Any]:
    """Mirror the per-op summary into compare_bench_docs' shape.

    Each op becomes a "system": ``total_s.mean`` is its mean latency and
    the latency percentiles plus seconds-per-op (inverse throughput, so
    *growth* means a regression) become "stages".
    """
    systems: dict[str, Any] = {}
    for op, summary in ops.items():
        if summary.get("count", 0) == 0:
            continue

        def stage(value: float, calls: int = summary["count"]) -> dict[str, Any]:
            return {"mean_s": value, "min_s": value, "max_s": value, "calls": calls}

        throughput = summary.get("throughput_per_s", 0.0)
        stages = {
            "latency_p50": stage(summary["p50_s"]),
            "latency_p90": stage(summary["p90_s"]),
            "latency_p99": stage(summary["p99_s"]),
        }
        if throughput > 0:
            stages["seconds_per_op"] = stage(1.0 / throughput)
        systems[op] = {
            "total_s": {
                "mean": summary["mean_s"],
                "min": summary["p50_s"],
                "max": summary["max_s"],
            },
            "stages": stages,
        }
    return systems


# ---------------------------------------------------------------------- #
# The open-loop run
# ---------------------------------------------------------------------- #


def run_loadgen(
    url: str,
    *,
    rate: float = 2.0,
    duration_s: float = 30.0,
    spec: Mapping[str, Any] | None = None,
    period_s: float = DEFAULT_PERIOD_S,
    max_in_flight: int = 64,
    op_timeout_s: float = 120.0,
    echo: Callable[[str], None] | None = None,
    server_latency: bool = True,
    live_fraction: float = 0.0,
) -> dict[str, Any]:
    """Drive an open-loop load run against a live ``repro serve``.

    Submits ``rate × duration_s`` jobs at fixed arrival times, streams
    each admitted job's SSE events to its terminal frame, and returns the
    ``grade10-bench-serve/1`` document.  ``spec`` is the job body every
    submission posts (validated locally first, so a typo fails fast
    instead of producing a run of 400s); ``echo`` receives the per-period
    latency tables as they are produced (e.g. ``print``).

    With ``server_latency`` (the default) each reporting period also
    scrapes ``/metrics`` once and reports the server-measured
    ``POST /jobs`` latency next to the client-measured one, emitting a
    warning line through ``echo`` when the two disagree by more than
    :data:`SKEW_WARN_THRESHOLD`; the result document gains a ``server``
    section with the whole-run server-side mean and skew.

    ``live_fraction`` in (0, 1] marks that fraction of arrivals (spread
    deterministically across the schedule) as ``"live": true`` jobs;
    their latencies are recorded as the separate ``submit_live`` /
    ``e2e_live`` ops and the result document gains a ``live`` section
    counting the ``window.analyzed`` / ``bottleneck.detected`` frames
    observed mid-run.

    Raises :class:`LoadgenError` when the service is unreachable and
    :class:`repro.jobs.JobSpecError` on an invalid ``spec``.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if not (0.0 <= live_fraction <= 1.0):
        raise ValueError(f"live_fraction must be in [0, 1], got {live_fraction}")
    normalized = parse_job_spec(dict(spec) if spec is not None else {}).to_dict()
    body = json.dumps(normalized).encode("utf-8")
    body_live = json.dumps(
        parse_job_spec({**normalized, "live": True}).to_dict()
    ).encode("utf-8")

    parsed = urlparse(url)
    if parsed.scheme not in ("http", ""):
        raise LoadgenError(f"unsupported URL scheme {parsed.scheme!r}")
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    base_url = f"http://{host}:{port}"
    try:
        if _http_get(base_url, "/healthz") != "ok\n":
            raise LoadgenError(f"{base_url}/healthz did not answer 'ok'")
    except OSError as exc:
        raise LoadgenError(f"service unreachable at {base_url}: {exc}") from exc

    recorder = _Recorder(_OPS + _LIVE_OPS if live_fraction > 0.0 else _OPS)
    slots = threading.BoundedSemaphore(max_in_flight)
    threads: list[threading.Thread] = []
    periods: list[dict[str, Any]] = []
    stop_reporting = threading.Event()

    # Server-side latency baseline: the histogram is cumulative, so each
    # period's server mean is the delta between consecutive scrapes.
    scrape_state = {"count": 0, "sum": 0.0, "enabled": server_latency}
    if server_latency:
        try:
            count0, sum0 = _scrape_submit_stats(base_url)
            scrape_state.update(count=count0, sum=sum0)
        except (OSError, ValueError):
            scrape_state["enabled"] = False
    baseline = (scrape_state["count"], scrape_state["sum"])

    def _server_delta() -> dict[str, Any] | None:
        """One ``/metrics`` scrape → this interval's server submit stats."""
        if not scrape_state["enabled"]:
            return None
        try:
            count, total = _scrape_submit_stats(base_url)
        except (OSError, ValueError):
            return None
        d_count = count - scrape_state["count"]
        d_sum = total - scrape_state["sum"]
        scrape_state["count"], scrape_state["sum"] = count, total
        if d_count <= 0:
            return {"count": 0}
        return {"count": d_count, "mean_s": max(d_sum, 0.0) / d_count}

    t0 = time.monotonic()

    def one_op(is_live: bool = False) -> None:
        try:
            t_start = time.monotonic()
            code, doc = _post_job(
                base_url, body_live if is_live else body, timeout=op_timeout_s
            )
            submit_latency = time.monotonic() - t_start
            if code == 429:
                recorder.count_error("rejected")
                return
            if code != 202:
                recorder.count_error("http")
                _LOG.warning("unexpected submit response", code=code, body=str(doc)[:200])
                return
            recorder.add("submit_live" if is_live else "submit", submit_latency)
            events, gaps, terminal, live = _stream_job_events(
                host, port, doc["run_id"], deadline=t_start + op_timeout_s
            )
            recorder.add_stream(events, gaps, terminal, **live)
            if terminal:
                recorder.add(
                    "e2e_live" if is_live else "e2e", time.monotonic() - t_start
                )
        except OSError:
            recorder.count_error("http")
        finally:
            slots.release()

    def reporter() -> None:
        tick = 1
        while not stop_reporting.wait(max(t0 + tick * period_s - time.monotonic(), 0.0)):
            period = _period_doc(tick * period_s, period_s, recorder.drain_period())
            server = _server_delta()
            if server is not None:
                period["server"] = {"submit": server}
            periods.append(period)
            if echo is not None:
                echo(render_period_table(period, period_s))
                warning = skew_warning(period)
                if warning is not None:
                    echo(warning)
            tick += 1

    report_thread = threading.Thread(target=reporter, name="loadgen-report", daemon=True)
    report_thread.start()

    n_ops = max(1, int(round(rate * duration_s)))
    _LOG.info(
        f"open-loop run: {n_ops} arrivals at {rate:g}/s over {duration_s:g}s "
        f"against {base_url}"
    )
    for k in range(n_ops):
        target = t0 + k / rate
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if not slots.acquire(blocking=False):
            # Open loop: a saturated client pool drops the op and says so,
            # it never silently shifts the arrival schedule.
            recorder.count_error("overload")
            continue
        # Deterministic spread: arrival k is live iff the running target
        # floor(k·f) ticks up — exactly ~f of the schedule, evenly spaced.
        is_live = live_fraction > 0.0 and (
            math.floor((k + 1) * live_fraction) > math.floor(k * live_fraction)
        )
        thread = threading.Thread(
            target=one_op, args=(is_live,), name=f"loadgen-op-{k}", daemon=True
        )
        thread.start()
        threads.append(thread)

    join_deadline = time.monotonic() + op_timeout_s + 5.0
    for thread in threads:
        thread.join(timeout=max(join_deadline - time.monotonic(), 0.1))
    stop_reporting.set()
    report_thread.join(timeout=5.0)
    duration_actual = time.monotonic() - t0
    final = recorder.drain_period()
    if any(final.values()):
        # The trailing partial period is rated over its real length, not a
        # full period_s — everything the reporter already drained belongs
        # to the len(periods) full periods before it.
        final_len = duration_actual - len(periods) * period_s
        if final_len <= 0.0:
            final_len = period_s
        period = _period_doc(duration_actual, final_len, final)
        server = _server_delta()
        if server is not None:
            period["server"] = {"submit": server}
        periods.append(period)
        if echo is not None:
            echo(render_period_table(period, period_s))
            warning = skew_warning(period)
            if warning is not None:
                echo(warning)

    totals = recorder.totals()
    ops_summary: dict[str, Any] = {}
    for op, values in totals.items():
        summary = summarize_latencies(values)
        summary["throughput_per_s"] = (
            len(values) / duration_actual if duration_actual > 0 else 0.0
        )
        ops_summary[op] = summary

    doc = {
        "schema": SERVE_BENCH_SCHEMA,
        "url": base_url,
        "rate": rate,
        "duration_s": duration_s,
        "duration_actual_s": duration_actual,
        "period_s": period_s,
        "max_in_flight": max_in_flight,
        "spec": normalized,
        "ops": ops_summary,
        "periods": periods,
        "sse": {
            "streams": recorder.streams,
            "events": recorder.sse_events,
            "gaps": recorder.sse_gaps,
        },
        "errors": dict(recorder.errors),
        "systems": _systems_section(ops_summary, duration_actual),
        **(
            {
                "live": {
                    "fraction": live_fraction,
                    "windows": recorder.live_windows,
                    "bottlenecks": recorder.live_bottlenecks,
                }
            }
            if live_fraction > 0.0
            else {}
        ),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }

    if scrape_state["enabled"]:
        try:
            end_count, end_sum = _scrape_submit_stats(base_url)
        except (OSError, ValueError):
            end_count, end_sum = baseline
        n = end_count - baseline[0]
        if n > 0:
            server_submit: dict[str, Any] = {
                "count": n,
                "mean_s": max(end_sum - baseline[1], 0.0) / n,
            }
            client = _accepted_submits(ops_summary)
            if client["count"] > 0 and server_submit["mean_s"] > 0.0:
                skew = (
                    abs(client["mean_s"] - server_submit["mean_s"])
                    / server_submit["mean_s"]
                )
                server_submit["skew_vs_client"] = skew
                if skew > SKEW_WARN_THRESHOLD:
                    _LOG.warning(
                        "client/server submit latency skew",
                        skew=f"{skew:.0%}",
                        client_mean_s=client["mean_s"],
                        server_mean_s=server_submit["mean_s"],
                    )
            doc["server"] = {"submit": server_submit}
    return doc
