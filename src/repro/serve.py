"""Live telemetry over HTTP: ``repro serve`` and ``suite --serve``.

A zero-dependency :class:`ThreadingHTTPServer` that watches grid runs
*while they execute* instead of after they exit.  Endpoints:

``GET /healthz``
    ``200 ok`` while the server is up (the readiness probe automation
    polls before scraping).

``GET /metrics``
    Live OpenMetrics text exposition
    (:func:`repro.obs.metrics_exposition`): the active tracer's
    cumulative pipeline counters (``cache.trace.hit``,
    ``cache.graph.miss``, …) plus the active run's
    :meth:`~repro.progress.RunStatus.gauges` (cells, completed,
    in-flight, queue depth, ETA, throughput).  Scrapeable by any
    Prometheus-family collector mid-run.

``GET /runs``
    JSON array of every registered run's
    :meth:`~repro.progress.RunStatus.snapshot` (per-cell states, counts,
    ETA, last event id).

``GET /events``
    Server-sent events stream of the active run's progress events.  Each
    frame carries the run's strictly increasing, gap-free event id::

        id: 17
        event: cell.finished
        data: {"id": 17, "kind": "cell.finished", "label": ..., ...}

    Clients resume after a disconnect by sending the standard
    ``Last-Event-ID`` header (or ``?last_id=N``): the server replays the
    backlog strictly after that id, so no event is skipped or repeated.
    Idle periods emit ``: heartbeat`` comment lines so proxies and
    clients can distinguish silence from death.  ``?run=RUN_ID`` selects
    a specific run instead of the most recently registered one.

With a :class:`~repro.jobs.JobQueue` attached (``queue=``), the server
also carries the *write side* of the analysis service:

``POST /jobs``
    Submit a run/suite spec (JSON body validated by
    :func:`repro.jobs.parse_job_spec`).  ``202`` with the job document on
    admission; ``400`` with a structured error on an invalid spec
    (nothing enqueued); ``429`` with a ``Retry-After`` header when the
    bounded queue is full; ``503`` while shutting down or when no queue
    is attached (read-only mode, e.g. ``suite --serve``).

``GET /jobs`` / ``GET /jobs/<id>``
    Job documents (state, spec, timestamps, ``run_id``/``last_event_id``,
    ``trace_id``).

``GET /jobs/<id>/trace``
    The job's assembled distributed trace as one Chrome-trace JSON
    document (:func:`repro.jobs.assemble_job_trace`): the server-side
    HTTP request span that admitted it, the explicit ``job.queued-wait``
    and ``job.execute`` spans, and every pipeline-stage span the
    execution produced, merged into a single rooted tree.

``DELETE /jobs/<id>``
    Cancel a *queued* job (``200``); ``409`` once it is running or
    terminal (in-flight work is never killed), ``404`` for unknown ids.

Every request is traced end to end: the handler honors the client's
``traceparent`` header (W3C trace-context format, as stamped by
``repro loadgen``) or mints a fresh trace id, opens an ``http.request``
span on the server's own tracer, echoes the trace id back as an
``X-Request-Id`` response header (joinable against JSON log lines and
exemplars), and observes the request latency into the
``http_request_duration_seconds`` histogram family — exposed on
``/metrics`` alongside the job queue's ``job_queue_wait_seconds`` /
``job_execute_seconds`` families and the merged per-stage
``pipeline_stage_duration_seconds`` family.

Every admitted job's :class:`~repro.progress.RunStatus` is registered
with the same :class:`~repro.progress.RunRegistry` the read side already
serves, so submitted jobs show up on ``/runs``, ``/events`` (SSE with
resume), and ``/metrics`` with zero new read-side code.  Without a
queue the server stays the deliberately read-only window it always was.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

from . import obs
from .obs_logging import get_logger
from .progress import RunRegistry, RunStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .jobs import JobQueue

__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "TelemetryServer",
    "format_sse_event",
    "format_sse_heartbeat",
]

_LOG = get_logger("repro.serve")

#: Seconds of ``/events`` silence between ``: heartbeat`` comment lines.
DEFAULT_HEARTBEAT_S = 5.0

#: Content type of the OpenMetrics exposition (what Prometheus negotiates).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def format_sse_event(event: Mapping[str, Any]) -> bytes:
    """Render one recorded progress event as an SSE frame.

    The ``id:`` field is the event's monotone id — exactly what a client
    echoes back in ``Last-Event-ID`` to resume without loss.
    """
    payload = json.dumps(event, separators=(",", ":"), default=str)
    return (
        f"id: {event['id']}\nevent: {event['kind']}\ndata: {payload}\n\n"
    ).encode("utf-8")


def format_sse_heartbeat() -> bytes:
    """An SSE comment frame: keeps idle connections visibly alive."""
    return b": heartbeat\n\n"


#: Routes whose path carries no variable segment (safe as a label value).
_STATIC_ROUTES = frozenset(
    {"/healthz", "/metrics", "/runs", "/events", "/jobs"}
)


def _route_template(path: str) -> str:
    """Collapse a request path to its route template.

    Histogram label values must be low-cardinality: job ids (and
    arbitrary probe paths) are folded into ``/jobs/<id>``,
    ``/jobs/<id>/trace``, and ``<other>`` so the
    ``http_request_duration_seconds`` family stays bounded no matter
    what clients request.
    """
    if path in _STATIC_ROUTES:
        return path
    if path.startswith("/jobs/"):
        rest = path[len("/jobs/"):]
        if rest.endswith("/trace") and "/" in rest:
            return "/jobs/<id>/trace"
        if "/" not in rest:
            return "/jobs/<id>"
    if path.startswith("/runs/"):
        rest = path[len("/runs/"):]
        if rest.endswith("/bottlenecks") and "/" in rest:
            return "/runs/<id>/bottlenecks"
    return "<other>"


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server``."""

    server_version = "grade10-telemetry/1"

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        _LOG.debug("http " + fmt % args)

    def _respond(self, code: int, content_type: str, body: bytes,
                 extra_headers: Mapping[str, str] | None = None) -> None:
        self._status_code = code
        if self._span is not None:
            self._span.args["code"] = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header("X-Request-Id", self._trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, code: int, doc: Any,
                      extra_headers: Mapping[str, str] | None = None) -> None:
        body = json.dumps(doc, indent=2, default=str).encode("utf-8") + b"\n"
        self._respond(code, "application/json", body, extra_headers)

    # Per-request trace state; class-level defaults keep ``_respond``
    # safe even off the traced dispatch path.
    _trace_id: str = ""
    _status_code: int = 0
    _span: Any = None

    # -- routes --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        """Trace one request: span, ``X-Request-Id``, latency histogram.

        The client's ``traceparent`` header (if well-formed) supplies the
        trace id and the parent span id, so the server-side
        ``http.request`` span continues the client's trace; otherwise a
        fresh trace id is minted — every response carries one either way.
        """
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        route = _route_template(parsed.path)
        ctx = obs.parse_traceparent(self.headers.get("traceparent"))
        if ctx is not None:
            trace_id, client_parent = ctx
        else:
            trace_id, client_parent = obs.new_trace_id(), None
        self._trace_id = trace_id
        self._status_code = 0
        span = server.tracer.span(
            "http.request",
            parent_id=client_parent,
            trace_id=trace_id,
            method=method,
            route=route,
        )
        self._span = span
        t0 = time.perf_counter()
        try:
            with span:
                self._route(method, parsed)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up
        finally:
            server.http_seconds.observe(
                max(time.perf_counter() - t0, 0.0),
                labels={
                    "method": method,
                    "route": route,
                    "code": str(self._status_code),
                },
                exemplar={"span_id": span.span_id, "trace_id": trace_id},
            )

    def _route(self, method: str, parsed: Any) -> None:
        if method == "GET":
            if parsed.path == "/healthz":
                self._respond(200, "text/plain; charset=utf-8", b"ok\n")
            elif parsed.path == "/metrics":
                self._get_metrics()
            elif parsed.path == "/runs":
                self._get_runs()
            elif parsed.path.startswith("/runs/") and parsed.path.endswith("/bottlenecks"):
                self._get_bottlenecks(parsed.path[len("/runs/"):-len("/bottlenecks")])
            elif parsed.path == "/events":
                self._get_events(parse_qs(parsed.query))
            elif parsed.path == "/jobs" or parsed.path.startswith("/jobs/"):
                self._get_jobs(parsed.path)
            else:
                self._respond(404, "text/plain; charset=utf-8", b"not found\n")
        elif method == "POST":
            if parsed.path == "/jobs":
                self._post_job()
            else:
                self._respond_json(404, {"error": "not found"})
        elif method == "DELETE":
            if parsed.path.startswith("/jobs/"):
                self._delete_job(parsed.path[len("/jobs/"):])
            else:
                self._respond_json(404, {"error": "not found"})

    def _queue(self) -> "JobQueue | None":
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        return server.queue

    def _post_job(self) -> None:
        from .jobs import JobSpecError, QueueClosedError, QueueFullError

        queue = self._queue()
        if queue is None:
            self._respond_json(
                503, {"error": "job submission disabled (read-only telemetry)"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._respond_json(400, {"error": f"body is not valid JSON: {exc}"})
            return
        try:
            job = queue.submit(
                body,
                trace_id=self._trace_id or None,
                parent_span_id=self._span.span_id if self._span is not None else None,
            )
        except JobSpecError as exc:
            self._respond_json(400, exc.to_doc())
            return
        except QueueFullError as exc:
            self._respond_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": str(int(math.ceil(exc.retry_after_s)))},
            )
            return
        except QueueClosedError as exc:
            self._respond_json(503, {"error": str(exc)})
            return
        self._respond_json(202, job.to_dict())

    def _delete_job(self, job_id: str) -> None:
        from .jobs import JobNotCancellableError, UnknownJobError

        queue = self._queue()
        if queue is None:
            self._respond_json(
                503, {"error": "job submission disabled (read-only telemetry)"}
            )
            return
        try:
            job = queue.cancel(job_id)
        except UnknownJobError as exc:
            self._respond_json(404, {"error": str(exc)})
            return
        except JobNotCancellableError as exc:
            self._respond_json(409, {"error": str(exc), "state": exc.state})
            return
        self._respond_json(200, job.to_dict())

    def _get_jobs(self, path: str) -> None:
        from .jobs import UnknownJobError

        queue = self._queue()
        if queue is None:
            self._respond_json(
                503, {"error": "job submission disabled (read-only telemetry)"}
            )
            return
        if path == "/jobs":
            self._respond_json(200, [job.to_dict() for job in queue.jobs()])
            return
        rest = path[len("/jobs/"):]
        want_trace = rest.endswith("/trace")
        if want_trace:
            rest = rest[: -len("/trace")]
        try:
            job = queue.get(rest)
        except UnknownJobError as exc:
            self._respond_json(404, {"error": str(exc)})
            return
        if want_trace:
            from .jobs import assemble_job_trace

            server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
            self._respond_json(
                200, assemble_job_trace(job, extra_events=server.tracer.events)
            )
            return
        self._respond_json(200, job.to_dict())

    def _get_metrics(self) -> None:
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        tracer = server.tracer_fn()
        counters = tracer.counter_totals() if tracer is not None else None
        active = server.registry.active()
        gauges = dict(active.gauges()) if active is not None else {}
        if server.queue is not None:
            gauges.update(server.queue.gauges())
        histograms = [server.http_seconds]
        if server.queue is not None:
            histograms.extend(server.queue.histogram_families())
        # One merged per-stage family per scrape: the live tracer's span
        # histograms plus every finished job's fold-in, never two
        # families under the same name.
        stage_sources = []
        if tracer is not None:
            stage_sources.append(tracer.histogram_snapshots())
        if server.queue is not None:
            stage_sources.append(server.queue.stage_snapshots())
        stage_family = obs.stage_histogram_family(stage_sources)
        if stage_family.series():
            histograms.append(stage_family)
        families = []
        if active is not None:
            series = active.bottleneck_series()
            if series:
                families.append(
                    (
                        "run_bottleneck_seconds",
                        "counter",
                        "Cumulative live bottleneck seconds per resource and kind.",
                        [
                            ({"resource": resource, "kind": kind}, seconds)
                            for (resource, kind), seconds in sorted(series.items())
                        ],
                    )
                )
        text = obs.metrics_exposition(
            counters=counters,
            gauges=gauges or None,
            histograms=histograms,
            families=families or None,
            labels=server.labels,
        )
        self._respond(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))

    def _get_runs(self) -> None:
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        body = json.dumps(server.registry.snapshots(), indent=2, default=str)
        self._respond(200, "application/json", body.encode("utf-8"))

    def _get_bottlenecks(self, run_id: str) -> None:
        """Live incremental bottleneck state of one run (empty id: active)."""
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        status = server.registry.get(run_id) if run_id else server.registry.active()
        if status is None:
            self._respond_json(404, {"error": f"unknown run {run_id!r}"})
            return
        self._respond_json(200, status.bottlenecks_snapshot())

    def _resolve_run(self, query: dict[str, list[str]]) -> RunStatus | None:
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        run_ids = query.get("run")
        if run_ids:
            return server.registry.get(run_ids[0])
        return server.registry.active()

    def _get_events(self, query: dict[str, list[str]]) -> None:
        server: TelemetryServer = self.server.telemetry  # type: ignore[attr-defined]
        status = self._resolve_run(query)
        if status is None:
            self._respond(404, "text/plain; charset=utf-8", b"no runs registered\n")
            return
        last_id = 0
        header = self.headers.get("Last-Event-ID")
        raw = query.get("last_id", [header] if header else [])
        if raw:
            try:
                last_id = max(int(raw[0]), 0)
            except (TypeError, ValueError):
                self._respond(400, "text/plain; charset=utf-8", b"bad last_id\n")
                return

        self._status_code = 200
        if self._span is not None:
            self._span.args["code"] = 200
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        if self._trace_id:
            self.send_header("X-Request-Id", self._trace_id)
        self.end_headers()
        while not server.stopping.is_set():
            events = status.events_since(last_id, timeout=server.heartbeat_s)
            if events:
                for event in events:
                    self.wfile.write(format_sse_event(event))
                    last_id = event["id"]
            else:
                self.wfile.write(format_sse_heartbeat())
            self.wfile.flush()


class TelemetryServer:
    """The live-telemetry HTTP server (background daemon threads).

    ``registry`` is the :class:`~repro.progress.RunRegistry` runs are
    registered with (``run_grid(..., on_status=server.register)``);
    ``tracer_fn`` resolves the tracer whose counters ``/metrics`` exposes
    at scrape time (defaults to :func:`repro.obs.current`, i.e. whatever
    is installed in this process when the scrape happens).  ``queue``
    attaches a :class:`~repro.jobs.JobQueue` and with it the write-side
    ``/jobs`` API; the queue should share this server's ``registry`` so
    submitted jobs are readable through the existing endpoints.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: RunRegistry | None = None,
        tracer_fn: Callable[[], obs.Tracer | None] = obs.current,
        labels: Mapping[str, str] | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        queue: "JobQueue | None" = None,
    ) -> None:
        if registry is None:
            # Adopt the queue's registry: jobs the queue admits must be
            # the runs the read side reports.
            registry = queue.registry if queue is not None else RunRegistry()
        if queue is not None and queue.registry is not registry:
            raise ValueError("queue.registry must be the server's registry")
        self.registry = registry
        self.queue = queue
        self.tracer_fn = tracer_fn
        self.labels = dict(labels) if labels else None
        self.heartbeat_s = heartbeat_s
        #: The server's own tracer: one ``http.request`` span per request
        #: (kept separate from the pipeline tracer so request spans never
        #: leak into suite traces); :func:`repro.jobs.assemble_job_trace`
        #: reads it to stitch the HTTP side into a job's trace.
        self.tracer = obs.Tracer()
        self.http_seconds = obs.HistogramFamily(
            "http_request_duration_seconds",
            "HTTP request latency by method, route template, and status code.",
            label_names=("method", "route", "code"),
        )
        self.stopping = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _TelemetryHandler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the OS's pick when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def register(self, status: RunStatus) -> RunStatus:
        """Register a run (the shape of ``run_grid``'s ``on_status``)."""
        return self.registry.register(status)

    def start(self) -> "TelemetryServer":
        """Serve in a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("telemetry server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="grade10-telemetry",
            daemon=True,
        )
        self._thread.start()
        _LOG.debug("telemetry server started", url=self.url)
        return self

    def stop(self) -> None:
        """Stop accepting requests and unblock every open SSE stream."""
        self.stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        _LOG.debug("telemetry server stopped", url=self.url)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
