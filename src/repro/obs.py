"""Self-observability: hierarchical span tracing and counters for the pipeline.

Grade10 characterizes *other* systems; this module turns the same lens on
the reproduction's own pipeline (generate → parse → attribute → upsample
→ bottleneck → simulate).  It is deliberately zero-dependency and built
so that the **disabled** path is near-free: instrumentation stays on the
hot path permanently and costs one global load, one ``None`` check, and a
shared singleton context manager per call site — no span objects are
allocated while tracing is off.

Usage::

    from repro import obs

    tracer = obs.install()                    # start tracing this process
    with obs.span("attribute", label=...):    # hierarchical, per-thread
        ...
    obs.counter("cache.trace.hit")            # monotonically accumulated
    obs.uninstall()
    tracer.export_chrome_trace("trace.json")  # open in chrome://tracing

Design notes:

* **Clocks** — all timestamps come from :func:`time.perf_counter`, which
  on the platforms we care about is ``CLOCK_MONOTONIC`` and therefore
  comparable across processes on one machine; exported traces are
  re-based to the earliest event so Perfetto shows time from zero.
* **Ids** — span ids are ``pid:serial:seq`` where ``serial`` is a
  never-recycled per-thread number (OS thread ids are reused once a
  thread exits, so they cannot anchor identity) and ``seq`` a per-thread
  sequence counter: unique without any cross-thread locking.  Parent ids
  come from a per-thread span stack (hierarchy is per-thread, which
  matches how the pipeline actually nests work).
* **Process pools** — a worker process records into its own local tracer
  and ships a :meth:`Tracer.snapshot` back with its result; the parent
  calls :meth:`Tracer.ingest` to merge.  Events carry real ``pid``s, so
  merged traces render one Perfetto track group per worker.
* **Export** — the Chrome trace event format (``"X"`` complete-span and
  ``"C"`` counter events inside a ``{"traceEvents": [...]}`` object),
  loadable by both ``chrome://tracing`` and https://ui.perfetto.dev.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import re
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .ioutils import atomic_write_text

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "Histogram",
    "HistogramFamily",
    "PIPELINE_STAGE_FAMILY",
    "Tracer",
    "StageStat",
    "counter",
    "current",
    "current_span_id",
    "current_trace_id",
    "format_traceparent",
    "gauge",
    "install",
    "is_enabled",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_traceparent",
    "set_thread_tracer",
    "span",
    "stage_histogram_family",
    "uninstall",
    "aggregate_stages",
    "final_counters",
    "metrics_exposition",
    "read_trace_events",
    "sanitize_label_name",
    "sanitize_metric_name",
]

#: Category tag stamped on every emitted event.
_CATEGORY = "pipeline"


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled.

    A single module-level instance serves every disabled ``span()`` call:
    the disabled path allocates nothing (pinned by a property test).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a ``"X"`` (complete) event when it closes.

    ``parent_id``/``trace_id`` default to the per-thread stack (a child
    inherits its thread's innermost open span and that span's trace), but
    either can be set explicitly — the cross-process propagation hook: an
    HTTP handler parents its span onto the client's ``traceparent`` id
    and everything opened beneath it inherits the distributed trace id.
    """

    __slots__ = ("_tracer", "name", "args", "span_id", "parent_id", "trace_id", "_t0_us")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        args: dict[str, Any],
        parent_id: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.span_id = ""
        self.parent_id = parent_id
        self.trace_id = trace_id
        self._t0_us = 0.0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        state = tracer._thread_state()
        state.seq += 1
        self.span_id = f"{tracer.pid}:{state.serial}:{state.seq}"
        if state.stack:
            top = state.stack[-1]
            if self.parent_id is None:
                self.parent_id = top.span_id
            if self.trace_id is None:
                self.trace_id = top.trace_id
        state.stack.append(self)
        self._t0_us = time.perf_counter() * 1e6
        return self

    def __exit__(self, *exc: object) -> bool:
        t1_us = time.perf_counter() * 1e6
        tracer = self._tracer
        state = tracer._thread_state()
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        args = dict(self.args)
        args["id"] = self.span_id
        if self.parent_id is not None:
            args["parent"] = self.parent_id
        if self.trace_id is not None:
            args["trace"] = self.trace_id
        dur_us = max(t1_us - self._t0_us, 0.0)
        tracer._append(
            {
                "ph": "X",
                "cat": _CATEGORY,
                "name": self.name,
                "pid": tracer.pid,
                "tid": state.tid,
                "ts": self._t0_us,
                "dur": dur_us,
                "args": args,
            }
        )
        exemplar = {"span_id": self.span_id}
        if self.trace_id is not None:
            exemplar["trace_id"] = self.trace_id
        tracer.observe(self.name, dur_us / 1e6, exemplar=exemplar)
        return False


#: Never-recycled per-thread serial (OS thread ids are reused after a
#: thread exits; ``count().__next__`` is atomic under the GIL).
_THREAD_SERIAL = itertools.count(1)


class _ThreadState(threading.local):
    """Per-thread span stack and id sequence."""

    def __init__(self) -> None:
        self.tid = threading.get_ident()  # what the trace viewer groups by
        self.serial = next(_THREAD_SERIAL)  # what span identity hangs off
        self.seq = 0
        self.stack: list[_Span] = []


class StageStat:
    """Aggregate timing of one span name across a trace."""

    __slots__ = ("name", "count", "total_us", "min_us", "max_us")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_us = 0.0
        self.min_us = float("inf")
        self.max_us = 0.0

    def add(self, dur_us: float) -> None:
        """Fold one span duration (µs) into the aggregate."""
        self.count += 1
        self.total_us += dur_us
        self.min_us = min(self.min_us, dur_us)
        self.max_us = max(self.max_us, dur_us)

    @property
    def total_s(self) -> float:
        return self.total_us / 1e6

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


#: Prometheus-style log-spaced latency bucket bounds (seconds): a
#: 1–2.5–5 ladder per decade from 1 ms to 60 s.  Every histogram shares
#: these fixed bounds unless told otherwise, which is what makes
#: :meth:`Histogram.ingest` an exact merge rather than an approximation.
DEFAULT_LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Histogram:
    """Fixed-bound latency histogram with counter-style merge semantics.

    Bucket ``i`` counts observations ``value <= bounds[i]`` not already
    counted by a lower bucket, with one trailing overflow (``+Inf``)
    bucket — the non-cumulative form; :meth:`cumulative` produces the
    running totals OpenMetrics renders as ``le`` buckets.  ``observe`` is
    lock-cheap: one bisect (outside the lock) plus three additions under
    a single lock.  ``snapshot``/``ingest`` mirror the tracer's counter
    protocol so a worker's histograms merge into a parent exactly like
    its counters do; merging histograms with different bounds raises.

    ``exemplar`` attaches a label mapping (typically a span id) to the
    observed bucket — the OpenMetrics exemplar that lets a scrape sample
    be joined back to the exact trace span it measured.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_exemplars", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        clean = tuple(float(b) for b in bounds)
        if not clean or any(b <= a for a, b in zip(clean, clean[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        if any(math.isinf(b) or math.isnan(b) for b in clean):
            raise ValueError("histogram bounds must be finite (+Inf is implicit)")
        self.bounds = clean
        self._counts = [0] * (len(clean) + 1)
        self._sum = 0.0
        self._count = 0
        self._exemplars: list[dict[str, Any] | None] = [None] * (len(clean) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float, *, exemplar: Mapping[str, Any] | None = None) -> None:
        """Fold one sample in (seconds, for the latency families)."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if exemplar:
                self._exemplars[index] = {"labels": dict(exemplar), "value": value}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; the last entry is ``+Inf``."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, ``(+Inf, count)`` last."""
        with self._lock:
            out: list[tuple[float, int]] = []
            running = 0
            for bound, n in zip(self.bounds, self._counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, running + self._counts[-1]))
            return out

    def snapshot(self) -> dict[str, Any]:
        """Picklable, JSON-native dump (what pool workers ship back)."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "exemplars": [dict(e) if e else None for e in self._exemplars],
            }

    def ingest(self, snapshot: Mapping[str, Any]) -> None:
        """Merge another histogram's :meth:`snapshot` into this one."""
        if tuple(float(b) for b in snapshot.get("bounds", ())) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        counts = [int(c) for c in snapshot.get("counts", ())]
        if len(counts) != len(self._counts):
            raise ValueError("histogram snapshot has a malformed counts vector")
        exemplars = snapshot.get("exemplars") or ()
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += float(snapshot.get("sum", 0.0))
            self._count += int(snapshot.get("count", 0))
            for i, ex in enumerate(exemplars):
                if ex and i < len(self._exemplars):
                    self._exemplars[i] = {
                        "labels": dict(ex.get("labels", {})),
                        "value": float(ex.get("value", 0.0)),
                    }

    def exemplars(self) -> list[dict[str, Any] | None]:
        """Per-bucket last-observed exemplars (copies), ``+Inf`` last."""
        with self._lock:
            return [dict(e) if e else None for e in self._exemplars]


class HistogramFamily:
    """A named set of :class:`Histogram` series keyed by label values.

    The OpenMetrics notion of one metric *family* — e.g. per-endpoint
    HTTP latency keyed by ``(method, route, code)``.  ``label_names``
    fixes the label schema; series materialize on first observation.
    All series share one fixed ``bounds`` vector so they stay mergeable.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        label_names: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.bounds = tuple(float(b) for b in bounds)
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], Histogram] = {}

    def _series_for(self, labels: Mapping[str, Any] | None) -> Histogram:
        given = dict(labels or {})
        unknown = sorted(set(given) - set(self.label_names))
        if unknown:
            raise ValueError(
                f"{self.name}: unknown label(s) {unknown}; schema is {list(self.label_names)}"
            )
        key = tuple(str(given.get(name, "")) for name in self.label_names)
        with self._lock:
            hist = self._series.get(key)
            if hist is None:
                hist = self._series[key] = Histogram(self.bounds)
        return hist

    def observe(
        self,
        value: float,
        *,
        labels: Mapping[str, Any] | None = None,
        exemplar: Mapping[str, Any] | None = None,
    ) -> None:
        """Fold one sample into the series selected by ``labels``."""
        self._series_for(labels).observe(value, exemplar=exemplar)

    def series(self) -> list[tuple[dict[str, str], Histogram]]:
        """``(labels, histogram)`` per live series (insertion order)."""
        with self._lock:
            items = list(self._series.items())
        return [(dict(zip(self.label_names, key)), hist) for key, hist in items]

    def ingest_series(self, labels: Mapping[str, Any] | None, snapshot: Mapping[str, Any]) -> None:
        """Merge one histogram snapshot into the series for ``labels``."""
        self._series_for(labels).ingest(snapshot)

    def snapshot(self) -> dict[str, Any]:
        """Picklable, JSON-native dump of every series."""
        return {
            "name": self.name,
            "series": [
                {"labels": labels, "histogram": hist.snapshot()}
                for labels, hist in self.series()
            ],
        }

    def ingest(self, snapshot: Mapping[str, Any]) -> None:
        """Merge a family :meth:`snapshot` (label schemas must agree)."""
        for entry in snapshot.get("series", ()):
            self.ingest_series(entry.get("labels"), entry.get("histogram", {}))


#: Family name of the per-stage pipeline duration histogram ``/metrics``
#: derives from tracer span durations.
PIPELINE_STAGE_FAMILY = "pipeline_stage_duration_seconds"


def stage_histogram_family(
    named_sources: Iterable[Mapping[str, Mapping[str, Any]]],
    *,
    name: str = PIPELINE_STAGE_FAMILY,
    help_text: str = "Span duration of one pipeline stage (from repro.obs spans).",
) -> HistogramFamily:
    """Fold name→histogram-snapshot mappings into one ``stage``-labeled family.

    ``named_sources`` is an iterable of :meth:`Tracer.histogram_snapshots`
    results (e.g. the live tracer plus every finished job's fold-in);
    same-named histograms merge exactly.  Snapshots with non-default
    bounds are skipped rather than corrupting the merge.
    """
    family = HistogramFamily(name, help_text, label_names=("stage",))
    for source in named_sources:
        for stage, snap in source.items():
            # Validate before ingest_series: it materializes the series
            # first, so a late ValueError would leave an empty (all-zero)
            # stage behind in the exposition.
            try:
                bounds = tuple(float(b) for b in snap.get("bounds", ()))
                n_counts = len(snap.get("counts", ()))
            except (AttributeError, TypeError, ValueError):
                continue
            if bounds != family.bounds or n_counts != len(bounds) + 1:
                continue
            family.ingest_series({"stage": stage}, snap)
    return family


class Tracer:
    """Thread-safe event collector for one process.

    All mutation happens under one lock except the per-thread span stack
    (thread-local, lock-free).  Counter calls both update a cumulative
    total (for :meth:`counter_totals` / ``repro stats``) and emit a
    ``"C"`` event so the value renders as a counter track in Perfetto.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._state = _ThreadState()

    # -- recording ------------------------------------------------------ #
    def _thread_state(self) -> _ThreadState:
        return self._state

    def _append(self, event: dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def span(
        self,
        name: str,
        *,
        parent_id: str | None = None,
        trace_id: str | None = None,
        **args: Any,
    ) -> _Span:
        """Open a hierarchical span; use as a context manager.

        ``parent_id``/``trace_id`` override the per-thread stack — the
        hook that continues a trace across a process or network boundary
        (the HTTP handler parents onto the client's ``traceparent``).
        """
        return _Span(self, name, args, parent_id=parent_id, trace_id=trace_id)

    def record_span(
        self,
        name: str,
        *,
        start_s: float,
        duration_s: float,
        parent_id: str | None = None,
        trace_id: str | None = None,
        **args: Any,
    ) -> str:
        """Record a span retroactively from measured endpoints; returns its id.

        For intervals whose start and end live on different threads —
        queue wait runs from submission (HTTP thread) to pickup (worker
        thread) — where no context-manager span can be held open.
        ``start_s`` is a ``time.perf_counter()`` value in seconds.
        """
        state = self._thread_state()
        state.seq += 1
        span_id = f"{self.pid}:{state.serial}:{state.seq}"
        duration_s = max(float(duration_s), 0.0)
        event_args = dict(args)
        event_args["id"] = span_id
        if parent_id is not None:
            event_args["parent"] = parent_id
        if trace_id is not None:
            event_args["trace"] = trace_id
        self._append(
            {
                "ph": "X",
                "cat": _CATEGORY,
                "name": name,
                "pid": self.pid,
                "tid": state.tid,
                "ts": float(start_s) * 1e6,
                "dur": duration_s * 1e6,
                "args": event_args,
            }
        )
        exemplar = {"span_id": span_id}
        if trace_id is not None:
            exemplar["trace_id"] = trace_id
        self.observe(name, duration_s, exemplar=exemplar)
        return span_id

    def observe(
        self, name: str, value: float, *, exemplar: Mapping[str, Any] | None = None
    ) -> None:
        """Fold one sample into this tracer's named histogram.

        Every closing span feeds its duration here automatically, so a
        tracer always carries per-stage latency distributions alongside
        its events; :meth:`ingest` merges worker histograms exactly.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
        hist.observe(value, exemplar=exemplar)

    def histogram_snapshots(self) -> dict[str, dict[str, Any]]:
        """Name → :meth:`Histogram.snapshot` for every histogram so far."""
        with self._lock:
            hists = dict(self._histograms)
        return {name: hist.snapshot() for name, hist in hists.items()}

    def counter(self, name: str, delta: float = 1.0) -> None:
        """Bump a cumulative counter and emit its running total as a ``"C"`` event."""
        ts = time.perf_counter() * 1e6
        with self._lock:
            value = self._counters.get(name, 0.0) + delta
            self._counters[name] = value
            self._events.append(
                {
                    "ph": "C",
                    "cat": _CATEGORY,
                    "name": name,
                    "pid": self.pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {"value": value},
                }
            )

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous level (a non-accumulating counter track).

        Process-local: :meth:`ingest` treats every counter event as
        accumulating, so use gauges only in the process that exports.
        """
        ts = time.perf_counter() * 1e6
        with self._lock:
            self._counters[name] = value
            self._events.append(
                {
                    "ph": "C",
                    "cat": _CATEGORY,
                    "name": name,
                    "pid": self.pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {"value": value},
                }
            )

    # -- merging and reading -------------------------------------------- #
    # Readers get *copies* down to the per-event dict: the serve thread
    # iterates these while worker threads keep appending, and a caller
    # mutating a returned event (``ingest`` rebases counter events, the
    # exporter rebases timestamps) must never alias the live store.
    @property
    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self._events]

    def counter_totals(self) -> dict[str, float]:
        """Current cumulative value of every counter/gauge track."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict[str, Any]:
        """Picklable dump of this tracer (what pool workers ship back)."""
        with self._lock:
            events = [dict(e) for e in self._events]
            counters = dict(self._counters)
            hists = dict(self._histograms)
        return {
            "events": events,
            "counters": counters,
            "histograms": {name: hist.snapshot() for name, hist in hists.items()},
        }

    def ingest(self, snapshot: Mapping[str, Any]) -> None:
        """Merge a worker's :meth:`snapshot` into this tracer.

        Span events keep their original ``pid``/``tid``/timestamps (the
        monotonic clock is machine-wide, so worker spans land at the right
        wall-clock offsets and render one track group per worker).
        Counter events are rebased onto this tracer's running totals,
        restamped with its pid, *and* restamped to the ingest time, so a
        sweep's ``cache.trace.hit``/``cache.trace.miss`` render as one
        accumulating counter track rather than one restarting-from-zero
        track per worker task.  (Snapshots arrive in result order, not
        time order; re-timestamping keeps the merged track monotone in
        both time and value — the counter marks when the parent merged
        the result, not when the worker bumped it.  Span events keep their
        true worker timestamps.)
        """
        events = list(snapshot.get("events", ()))
        counters = dict(snapshot.get("counters", {}))
        ingest_ts = time.perf_counter() * 1e6
        with self._lock:
            base = {name: self._counters.get(name, 0.0) for name in counters}
            for e in events:
                if e.get("ph") == "C":
                    e = dict(e)
                    name = e["name"]
                    value = float(e.get("args", {}).get("value", 0.0))
                    e["pid"] = self.pid
                    e["ts"] = ingest_ts
                    e["args"] = {"value": base.get(name, 0.0) + value}
                self._events.append(e)
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
        for name, snap in dict(snapshot.get("histograms", {})).items():
            if not isinstance(snap, Mapping):
                continue
            with self._lock:
                hist = self._histograms.get(name)
                if hist is None:
                    try:
                        hist = self._histograms[name] = Histogram(snap.get("bounds", ()))
                    except (TypeError, ValueError):
                        continue
            try:
                hist.ingest(snap)
            except (KeyError, TypeError, ValueError):
                continue  # mismatched bounds or malformed: drop, don't corrupt

    def stage_totals(self) -> dict[str, StageStat]:
        """Per-span-name aggregates over everything recorded so far."""
        return aggregate_stages(self.events)

    # -- export --------------------------------------------------------- #
    def export_chrome_trace(self, path: str | Path) -> Path:
        """Write a Chrome-trace/Perfetto JSON file (atomically)."""
        with self._lock:
            events = list(self._events)
            counters = dict(self._counters)
        base = min((e["ts"] for e in events), default=0.0)
        out = []
        for e in events:
            e = dict(e)
            e["ts"] = e["ts"] - base
            out.append(e)
        out.sort(key=lambda e: e["ts"])
        doc = {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "counter_totals": counters,
            },
        }
        return atomic_write_text(path, json.dumps(doc, indent=1))


# ---------------------------------------------------------------------- #
# Module-level API (the hot-path call sites use these)
# ---------------------------------------------------------------------- #

_TRACER: Tracer | None = None


class _ThreadTracer(threading.local):
    """Per-thread tracer overlay (takes precedence over the global)."""

    tracer: "Tracer | None" = None


_THREAD_TRACER = _ThreadTracer()


def install(tracer: Tracer | None = None) -> Tracer:
    """Enable tracing in this process; returns the active tracer."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def uninstall() -> Tracer | None:
    """Disable tracing; returns the tracer that was active (if any)."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def set_thread_tracer(tracer: Tracer | None) -> Tracer | None:
    """Route *this thread's* recording to ``tracer``; returns the previous one.

    The overlay outranks the process-global tracer, which is how the job
    queue gives each job its own span store while jobs execute
    concurrently on worker threads of one process.  Pass the returned
    previous value back to restore (the ``set_sink`` idiom of
    :mod:`repro.progress`).  A tracer inherited across ``fork`` is
    ignored by the resolution path (its pid no longer matches), so a
    pool worker never records into its parent's per-job tracer.
    """
    previous = _THREAD_TRACER.tracer
    _THREAD_TRACER.tracer = tracer
    return previous


def _resolve() -> Tracer | None:
    tracer = _THREAD_TRACER.tracer
    if tracer is not None and tracer.pid == os.getpid():
        return tracer
    return _TRACER


def current() -> Tracer | None:
    """The active tracer (thread overlay first), or ``None`` when disabled."""
    return _resolve()


def is_enabled() -> bool:
    """True while a tracer is active for this thread (overlay or global)."""
    return _resolve() is not None


def span(name: str, *, parent_id: str | None = None, trace_id: str | None = None, **args: Any):
    """Open a span on the active tracer (no-op singleton when disabled)."""
    tracer = _THREAD_TRACER.tracer
    if tracer is None or tracer.pid != os.getpid():
        tracer = _TRACER
        if tracer is None:
            return _NULL_SPAN
    return tracer.span(name, parent_id=parent_id, trace_id=trace_id, **args)


def counter(name: str, delta: float = 1.0) -> None:
    """Bump a cumulative counter on the active tracer (no-op when disabled)."""
    tracer = _resolve()
    if tracer is None:
        return
    tracer.counter(name, delta)


def gauge(name: str, value: float) -> None:
    """Record an instantaneous level on the active tracer (no-op when disabled)."""
    tracer = _resolve()
    if tracer is None:
        return
    tracer.gauge(name, value)


def observe(name: str, value: float, *, exemplar: Mapping[str, Any] | None = None) -> None:
    """Fold a histogram sample into the active tracer (no-op when disabled)."""
    tracer = _resolve()
    if tracer is None:
        return
    tracer.observe(name, value, exemplar=exemplar)


def current_span_id() -> str | None:
    """Id of this thread's innermost open span (``None`` when outside one).

    This is the correlation key the structured JSON logs
    (:mod:`repro.obs_logging`) stamp on every record, so a log line, a
    trace span, and a ``/metrics`` scrape can be joined on one id.
    """
    tracer = _resolve()
    if tracer is None:
        return None
    stack = tracer._thread_state().stack
    return stack[-1].span_id if stack else None


def current_trace_id() -> str | None:
    """Distributed trace id of this thread's innermost open span.

    ``None`` outside any span, while tracing is disabled, or when the
    open span carries no trace context.  The serve handler keeps its
    ``http.request`` span (stamped with the client's ``traceparent``)
    open for the whole request, so log lines emitted while handling it
    all carry the request's trace id.
    """
    tracer = _resolve()
    if tracer is None:
        return None
    stack = tracer._thread_state().stack
    return stack[-1].trace_id if stack else None


# ---------------------------------------------------------------------- #
# Trace-context propagation (W3C ``traceparent``-style headers)
# ---------------------------------------------------------------------- #

#: ``version-traceid-parentid-flags`` with the W3C field widths.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh 32-hex-digit distributed trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-digit wire-format span id (for outgoing headers)."""
    return uuid.uuid4().hex[:16]


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a ``traceparent`` header value (version 00, sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Returns ``None`` for missing or malformed values (wrong field widths,
    non-hex digits, the forbidden version ``ff``, or all-zero ids) — the
    server then starts a fresh trace instead of failing the request.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, parent_id, _flags = match.groups()
    if version == "ff" or set(trace_id) == {"0"} or set(parent_id) == {"0"}:
        return None
    return trace_id, parent_id


# ---------------------------------------------------------------------- #
# Trace-file analysis (``repro stats`` reads exported traces back)
# ---------------------------------------------------------------------- #


def read_trace_events(path: str | Path) -> list[dict[str, Any]]:
    """Load events from an exported trace.

    Accepts both the ``{"traceEvents": [...]}`` object form this module
    writes and a bare JSON array / JSONL stream of event objects.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = [json.loads(line) for line in text.splitlines() if line.strip()]
    if isinstance(doc, Mapping):
        # A single-line JSONL stream also parses as one mapping; only the
        # object form carries a traceEvents key.
        events = doc["traceEvents"] if "traceEvents" in doc else [doc]
    else:
        events = doc
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace (no event list)")
    return events


def aggregate_stages(events: Iterator[dict[str, Any]] | list[dict[str, Any]]) -> dict[str, StageStat]:
    """Aggregate ``"X"`` span events by name (count/total/min/max)."""
    stats: dict[str, StageStat] = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        stat = stats.get(e["name"])
        if stat is None:
            stat = stats[e["name"]] = StageStat(e["name"])
        stat.add(float(e.get("dur", 0.0)))
    return stats



# ---------------------------------------------------------------------- #
# OpenMetrics exposition (``repro metrics`` — scrape a fleet of runs)
# ---------------------------------------------------------------------- #

_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Coerce a string into the OpenMetrics name charset.

    Metric names must match ``[a-zA-Z_][a-zA-Z0-9_]*``: every other
    character becomes ``_``, and a leading digit (or empty input) gains a
    ``_`` prefix.  ``cache.trace.hit`` → ``cache_trace_hit``.
    """
    name = _METRIC_NAME_BAD.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


#: Label names obey the same charset as metric names.
sanitize_label_name = sanitize_metric_name


def _escape_label_value(value: str) -> str:
    # OpenMetrics has no carriage-return escape; a raw \r would split the
    # sample line in any line-based parser, so CR normalizes to \n.
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\r", "\n")
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # repr is the shortest string that round-trips the float exactly, which
    # is what lets the conformance test compare totals with ==.
    return repr(float(value))


def _render_labels(labels: Mapping[str, Any]) -> str:
    """``{k="v",...}`` with keys sorted — or ``""`` for an empty set.

    Sorting the label set (and, at the family level, the families and the
    series within each family) makes repeated scrapes of identical state
    byte-identical, which is what scrape-diff tests key on.
    """
    if not labels:
        return ""
    rendered = ",".join(
        f'{sanitize_label_name(str(k))}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return "{" + rendered + "}"


def _label_sort_key(labels: Mapping[str, Any]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _family_block(
    name: str,
    mtype: str,
    help_text: str,
    samples: list[tuple[dict[str, str], float]],
) -> tuple[str, list[str]]:
    """One metric family as ``(sorted_name, rendered_lines)``."""
    name = sanitize_metric_name(name)
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {mtype}"]
    suffix = "_total" if mtype == "counter" else ""
    for labels, value in sorted(samples, key=lambda s: _label_sort_key(s[0])):
        lines.append(f"{name}{suffix}{_render_labels(labels)} {_format_value(value)}")
    return name, lines


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def _render_exemplar(exemplar: Mapping[str, Any]) -> str:
    """`` # {span_id="..."} value`` — the OpenMetrics exemplar suffix."""
    labels = exemplar.get("labels") or {}
    rendered = ",".join(
        f'{sanitize_label_name(str(k))}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return f" # {{{rendered}}} {_format_value(exemplar.get('value', 0.0))}"


def _histogram_block(
    family: HistogramFamily,
    base: Mapping[str, str],
    prefix: str,
) -> tuple[str, list[str]]:
    """One histogram family: ``_bucket``/``le`` (cumulative, ``+Inf``
    last), ``_sum``, ``_count`` per label set, exemplars on buckets."""
    name = sanitize_metric_name(f"{prefix}_{family.name}" if prefix else family.name)
    lines = [f"# HELP {name} {family.help_text}", f"# TYPE {name} histogram"]
    for labels, hist in sorted(family.series(), key=lambda s: _label_sort_key(s[0])):
        merged = dict(base)
        merged.update(labels)
        snap = hist.snapshot()
        exemplars = snap.get("exemplars") or [None] * (len(snap["bounds"]) + 1)
        running = 0
        for i, bound in enumerate(list(snap["bounds"]) + [math.inf]):
            running += snap["counts"][i]
            bucket_labels = dict(merged)
            bucket_labels["le"] = _format_le(bound)
            line = f"{name}_bucket{_render_labels(bucket_labels)} {running}"
            if exemplars[i]:
                line += _render_exemplar(exemplars[i])
            lines.append(line)
        lines.append(f"{name}_sum{_render_labels(merged)} {_format_value(snap['sum'])}")
        lines.append(f"{name}_count{_render_labels(merged)} {snap['count']}")
    return name, lines


#: Help text of the live run-status gauge families (``/metrics``); gauges
#: outside this table get a generic description.
_GAUGE_HELP = {
    "run_cells": "Total cells of the live (or last) grid run.",
    "run_completed": "Cells that finished (executed or replayed from cache).",
    "run_cache_hits": "Cells replayed from the content-addressed run cache.",
    "run_failed": "Cells that raised instead of completing.",
    "run_in_flight": "Cells currently executing.",
    "run_queue_depth": "Cells submitted but not yet started.",
    "run_eta_seconds": "Estimated seconds until the run completes.",
    "run_throughput_cells_per_second": "Completed cells per elapsed second.",
    "run_windows_analyzed": "Live analysis windows completed by the incremental profiler.",
    "incremental_window_lag_seconds": (
        "How far the incremental analysis frontier trails the newest log event."
    ),
}


def metrics_exposition(
    profile: Any = None,
    counters: Mapping[str, float] | None = None,
    *,
    gauges: Mapping[str, float] | None = None,
    histograms: Iterable[HistogramFamily] | None = None,
    families: Iterable[tuple[str, str, str, list[tuple[dict[str, str], float]]]] | None = None,
    labels: Mapping[str, str] | None = None,
    prefix: str = "grade10",
) -> str:
    """Render profile metrics and pipeline counters as OpenMetrics text.

    The exposition format understood by Prometheus-family scrapers: for
    every metric family a ``# HELP``/``# TYPE`` header followed by its
    samples, terminated by ``# EOF``.  Metric and label *names* are
    sanitized into the OpenMetrics charset; label *values* are escaped but
    otherwise kept verbatim (so ``cache.trace.hit`` survives as a label value),
    and sample values are emitted with full float round-trip precision.
    Families, the label sets within a family, and the labels within a
    sample are all emitted in sorted order, so two scrapes of identical
    state are byte-identical regardless of observation/insertion order.

    ``profile`` is a :class:`repro.core.PerformanceProfile` (optional);
    ``counters`` a counter-totals mapping such as
    :meth:`Tracer.counter_totals` or :func:`final_counters`; ``gauges``
    a mapping of live gauge values such as
    :meth:`repro.progress.RunStatus.gauges`, each rendered as its own
    ``<prefix>_<name>`` gauge family; ``histograms`` an iterable of
    :class:`HistogramFamily` (each rendered as cumulative ``_bucket``/
    ``le`` samples plus ``_sum``/``_count``, with exemplars carrying span
    ids); ``families`` an iterable of pre-labeled families as
    ``(name, type, help, [(labels, value), ...])`` tuples — the hook the
    serving layer uses for the live incremental series
    (``run_bottleneck_seconds_total{resource,kind}``), which get the same
    prefixing, base-label merging, and sorted/byte-identical rendering as
    every built-in family; ``labels`` attaches constant labels (e.g.
    ``workload="giraph/graph500/pr"``) to every sample.
    """
    base = dict(labels or {})
    blocks: list[tuple[str, list[str]]] = []

    def with_base(extra: dict[str, str]) -> dict[str, str]:
        merged = dict(base)
        merged.update(extra)
        return merged

    def _render_family(
        _out: Any,
        name: str,
        mtype: str,
        help_text: str,
        samples: list[tuple[dict[str, str], float]],
    ) -> None:
        blocks.append(_family_block(name, mtype, help_text, samples))

    out: list[str] = []

    if profile is not None:
        _render_family(
            out,
            f"{prefix}_makespan_seconds",
            "gauge",
            "Wall-clock makespan of the characterized run.",
            [(with_base({}), profile.makespan)],
        )
        _render_family(
            out,
            f"{prefix}_timeslices",
            "gauge",
            "Number of timeslices in the analysis grid.",
            [(with_base({}), float(profile.grid.n_slices))],
        )

        totals: dict[str, tuple[float, int, float]] = {}
        for inst in profile.execution_trace.instances():
            dur, n, blocked = totals.get(inst.phase_path, (0.0, 0, 0.0))
            blocked += sum(e - s for s, e in inst.blocked_intervals())
            totals[inst.phase_path] = (dur + inst.duration, n + 1, blocked)
        _render_family(
            out,
            f"{prefix}_phase_duration_seconds",
            "gauge",
            "Total duration over all instances of one phase type.",
            [
                (with_base({"phase": path}), dur)
                for path, (dur, _, _) in sorted(totals.items())
            ],
        )
        _render_family(
            out,
            f"{prefix}_phase_instances",
            "gauge",
            "Number of instances of one phase type.",
            [
                (with_base({"phase": path}), float(n))
                for path, (_, n, _) in sorted(totals.items())
            ],
        )
        _render_family(
            out,
            f"{prefix}_phase_blocked_seconds",
            "gauge",
            "Total blocked time over all instances of one phase type.",
            [
                (with_base({"phase": path}), blocked)
                for path, (_, _, blocked) in sorted(totals.items())
            ],
        )

        resources = profile.upsampled.resources()
        slice_s = profile.grid.slice_duration
        _render_family(
            out,
            f"{prefix}_resource_capacity",
            "gauge",
            "Declared capacity of one consumable resource.",
            [
                (with_base({"resource": r}), profile.upsampled[r].capacity)
                for r in sorted(resources)
            ],
        )
        _render_family(
            out,
            f"{prefix}_resource_consumption",
            "gauge",
            "Total upsampled consumption of one resource (unit-seconds).",
            [
                (
                    with_base({"resource": r}),
                    float(profile.upsampled[r].rate.sum() * slice_s),
                )
                for r in sorted(resources)
            ],
        )
        _render_family(
            out,
            f"{prefix}_resource_peak_utilization",
            "gauge",
            "Peak per-slice utilization of one resource.",
            [
                (
                    with_base({"resource": r}),
                    float(profile.upsampled[r].utilization.max())
                    if profile.upsampled[r].rate.size
                    else 0.0,
                )
                for r in sorted(resources)
            ],
        )

        per_kind: dict[tuple[str, str], float] = {}
        for b in profile.bottlenecks:
            key = (b.kind.value, b.resource)
            per_kind[key] = per_kind.get(key, 0.0) + b.duration
        _render_family(
            out,
            f"{prefix}_bottleneck_seconds",
            "gauge",
            "Bottlenecked phase-seconds per resource and detection kind.",
            [
                (with_base({"kind": kind, "resource": resource}), dur)
                for (kind, resource), dur in sorted(per_kind.items())
            ],
        )

        _render_family(
            out,
            f"{prefix}_issues",
            "gauge",
            "Number of performance issues above the improvement threshold.",
            [(with_base({}), float(len(profile.issues)))],
        )
        _render_family(
            out,
            f"{prefix}_issue_reduction_seconds",
            "gauge",
            "Optimistic makespan reduction of one detected issue.",
            [
                (
                    with_base({"kind": issue.kind, "subject": issue.subject}),
                    issue.makespan_reduction,
                )
                for issue in profile.issues.top(len(profile.issues.issues))
            ],
        )
        _render_family(
            out,
            f"{prefix}_outlier_affected_fraction",
            "gauge",
            "Fraction of non-trivial concurrent groups with stragglers.",
            [(with_base({}), profile.outliers.affected_fraction)],
        )

    if gauges:
        for name, value in sorted(gauges.items()):
            _render_family(
                out,
                f"{prefix}_{name}",
                "gauge",
                _GAUGE_HELP.get(name, "Live run-status gauge."),
                [(with_base({}), float(value))],
            )

    if counters:
        _render_family(
            out,
            f"{prefix}_pipeline_events",
            "counter",
            "Cumulative pipeline counters from the repro.obs tracer.",
            [
                (with_base({"counter": name}), value)
                for name, value in sorted(counters.items())
            ],
        )

    if families:
        for name, mtype, help_text, samples in families:
            _render_family(
                out,
                f"{prefix}_{name}" if prefix else name,
                mtype,
                help_text,
                [(with_base(dict(sample_labels)), value) for sample_labels, value in samples],
            )

    if histograms:
        for family in histograms:
            blocks.append(_histogram_block(family, base, prefix))

    blocks.sort(key=lambda block: block[0])
    out = [line for _, lines in blocks for line in lines]
    out.append("# EOF")
    return "\n".join(out) + "\n"


def final_counters(events: Iterator[dict[str, Any]] | list[dict[str, Any]]) -> dict[str, float]:
    """Final value of each ``"C"`` counter track, summed across processes."""
    last: dict[tuple[Any, str], float] = {}
    for e in events:
        if e.get("ph") != "C":
            continue
        args = e.get("args", {})
        value = args.get("value", next(iter(args.values()), 0.0)) if args else 0.0
        last[(e.get("pid"), e["name"])] = float(value)
    totals: dict[str, float] = {}
    for (_, name), value in last.items():
        totals[name] = totals.get(name, 0.0) + value
    return totals
