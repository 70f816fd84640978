"""In-flight progress telemetry for grid sweeps: event bus and run status.

Everything the repo could observe so far (:mod:`repro.obs` traces,
``BENCH_pipeline.json``, HTML reports) is post-hoc — you learn what a
sweep did after it exits.  This module is the *live* half of the
observability plane:

* :func:`publish` is the worker-side bus.  ``repro.parallel`` call sites
  emit typed :class:`ProgressEvent`\\ s (cell started / finished / failed
  / cache-hit, stage transitions) through a process-local *sink*.  In a
  pool worker the sink is ``multiprocessing.Queue.put`` (installed by the
  pool initializer); on the inline ``jobs=1`` path it is the parent's
  :meth:`RunStatus.record` directly.  With no sink installed the call is
  one global load and a ``None`` check — the sweep hot path stays free
  when nobody is watching.
* :class:`RunStatus` is the parent-side aggregate: a thread-safe model of
  one grid run (per-cell state machine, ETA from completed-cell
  wall-clock, rolling throughput) plus an append-only event log with
  strictly increasing, gap-free event ids — the resume token contract of
  the ``/events`` SSE stream (:mod:`repro.serve`).
* :class:`RunRegistry` names the runs a telemetry server can see;
  ``repro serve`` registers every :func:`repro.parallel.run_grid`
  invocation through the ``on_status`` callback.

Every recorded event is enriched with the run's ``queue_depth`` and
``in_flight`` at aggregation time, so an SSE consumer sees queue pressure
without a separate polling endpoint.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "CELL_STATES",
    "EVENT_KINDS",
    "ProgressEvent",
    "RunRegistry",
    "RunStatus",
    "current_sink",
    "publish",
    "set_sink",
    "set_thread_sink",
]

#: The typed event vocabulary workers may publish.  The ``job.*`` kinds
#: are recorded by the analysis service's :class:`repro.jobs.JobQueue`
#: (submission, scheduling, cancellation); ``run.finished`` stays the one
#: terminal event of every lifecycle, including cancelled jobs.
EVENT_KINDS = (
    "cell.started",
    "cell.cache_hit",
    "cell.graph_hit",
    "cell.finished",
    "cell.failed",
    "stage",
    "run.started",
    "run.finished",
    "job.queued",
    "job.started",
    "job.failed",
    "job.cancelled",
    "window.analyzed",
    "bottleneck.detected",
)

#: States of the per-cell state machine tracked by :class:`RunStatus`.
CELL_STATES = ("pending", "running", "done", "cached", "failed")


@dataclass(frozen=True)
class ProgressEvent:
    """One typed progress fact, picklable so pool workers can ship it."""

    kind: str
    label: str = ""
    data: Mapping[str, Any] = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)
    #: Wall-clock publication time (``time.time``; comparable across
    #: processes on one machine, which is all the sweep needs).
    t: float = field(default_factory=time.time)


# ---------------------------------------------------------------------- #
# The worker-side bus
# ---------------------------------------------------------------------- #

_SINK: Callable[[ProgressEvent], None] | None = None

#: Thread-local sink overlay: lets several inline sweeps run concurrently
#: in one process (the job-queue worker threads of :mod:`repro.jobs`)
#: without publishing into each other's :class:`RunStatus`.
_TLS = threading.local()


def set_sink(sink: Callable[[ProgressEvent], None] | None) -> Callable[[ProgressEvent], None] | None:
    """Install the process-local event sink; returns the previous one.

    ``None`` disables publication (the default).  The sink must be cheap
    and never raise: it runs on the sweep's critical path.
    """
    global _SINK
    previous, _SINK = _SINK, sink
    return previous


def set_thread_sink(
    sink: Callable[[ProgressEvent], None] | None,
) -> Callable[[ProgressEvent], None] | None:
    """Install a sink for the *calling thread* only; returns the previous one.

    A thread-local sink shadows the process-wide one installed with
    :func:`set_sink`.  The inline (``jobs=1``) sweep path uses this so two
    jobs executing concurrently on different worker threads keep their
    events separate; pool worker *processes* keep using the process-wide
    sink installed by the pool initializer.
    """
    previous = getattr(_TLS, "sink", None)
    _TLS.sink = sink
    return previous


def current_sink() -> Callable[[ProgressEvent], None] | None:
    """The effective sink for this thread (``None`` while disabled)."""
    local = getattr(_TLS, "sink", None)
    return local if local is not None else _SINK


def publish(kind: str, label: str = "", /, **data: Any) -> None:
    """Publish one progress event (no-op unless a sink is installed).

    ``kind`` and ``label`` are positional-only, so a payload may carry
    keys of the same names (a ``bottleneck.detected`` payload has its own
    ``kind``).
    """
    sink = getattr(_TLS, "sink", None)
    if sink is None:
        sink = _SINK
    if sink is None:
        return
    try:
        sink(ProgressEvent(kind=kind, label=label, data=data))
    except Exception:
        # A full queue or a torn-down parent must never kill the work
        # that was being reported on.
        pass


# ---------------------------------------------------------------------- #
# The parent-side aggregate
# ---------------------------------------------------------------------- #

#: Never-recycled per-process run number (``count().__next__`` is atomic
#: under the GIL, same idiom as the tracer's thread serial).
_RUN_SERIAL = itertools.count(1)


class RunStatus:
    """Thread-safe live model of one grid run.

    All mutation happens through :meth:`record` under one condition
    variable; every reader gets a consistent copy.  The event log assigns
    each recorded event a strictly increasing, gap-free id starting at 1 —
    :meth:`events_since` is the resume primitive SSE clients rely on
    (reconnect with the last id seen; nothing is skipped or repeated).
    """

    def __init__(
        self,
        labels: Iterable[str],
        *,
        jobs: int = 1,
        run_id: str | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        labels = list(labels)
        self.run_id = run_id or f"run-{os.getpid()}-{next(_RUN_SERIAL)}"
        self.jobs = max(int(jobs), 1)
        #: Immutable JSON-native provenance attached at construction (the
        #: analysis service stores the submitted job spec and the job's
        #: distributed ``trace_id`` here, so ``/runs`` both round-trips a
        #: resubmittable spec and names the trace a run belongs to without
        #: any new read-side code).
        self.meta = dict(meta) if meta is not None else None
        self.t0 = time.time()
        self._t0_perf = time.perf_counter()
        self._cond = threading.Condition()
        self._states: dict[str, str] = {label: "pending" for label in labels}
        self._durations: list[float] = []  # wall-clock of completed cells
        self._events: list[dict[str, Any]] = []
        self._next_id = 1
        self._finished = False
        self._failed = 0
        # Live incremental-analysis plane (repro.core.incremental): folded
        # from window.analyzed / bottleneck.detected events.
        self._windows_analyzed = 0
        self._window_lag_s = 0.0
        self._last_bottleneck: dict[str, Any] | None = None
        self._bottleneck_seconds: dict[tuple[str, str], float] = {}

    # -- recording ------------------------------------------------------ #
    def record(self, event: ProgressEvent) -> None:
        """Fold one published event into the model and the event log."""
        with self._cond:
            label = event.label
            if event.kind == "cell.started" and label in self._states:
                if self._states[label] == "pending":
                    self._states[label] = "running"
            elif event.kind == "cell.finished" and label in self._states:
                cached = bool(event.data.get("cached"))
                self._states[label] = "cached" if cached else "done"
                duration = event.data.get("duration")
                if isinstance(duration, (int, float)):
                    self._durations.append(float(duration))
            elif event.kind == "cell.failed" and label in self._states:
                self._states[label] = "failed"
                self._failed += 1
            elif event.kind == "run.finished":
                self._finished = True
            elif event.kind == "window.analyzed":
                self._windows_analyzed += 1
                lag = event.data.get("lag_seconds")
                if isinstance(lag, (int, float)):
                    self._window_lag_s = float(lag)
            elif event.kind == "bottleneck.detected":
                resource = str(event.data.get("resource", ""))
                kind = str(event.data.get("kind", ""))
                seconds = event.data.get("seconds")
                if isinstance(seconds, (int, float)):
                    key = (resource, kind)
                    self._bottleneck_seconds[key] = (
                        self._bottleneck_seconds.get(key, 0.0) + float(seconds)
                    )
                self._last_bottleneck = dict(event.data)
            counts = self._counts_locked()
            doc = {
                "id": self._next_id,
                "kind": event.kind,
                "label": label,
                "t": event.t,
                "pid": event.pid,
                "data": dict(event.data),
                "queue_depth": counts["pending"],
                "in_flight": counts["running"],
            }
            self._next_id += 1
            self._events.append(doc)
            self._cond.notify_all()

    def finish(self) -> None:
        """Mark the run complete (also published as a ``run.finished`` event)."""
        self.record(ProgressEvent(kind="run.finished"))

    # -- reading -------------------------------------------------------- #
    def _counts_locked(self) -> dict[str, int]:
        counts = {state: 0 for state in CELL_STATES}
        for state in self._states.values():
            counts[state] += 1
        return counts

    @property
    def n_cells(self) -> int:
        with self._cond:
            return len(self._states)

    @property
    def finished(self) -> bool:
        with self._cond:
            return self._finished

    @property
    def last_event_id(self) -> int:
        """Id of the most recently recorded event (0 when none)."""
        with self._cond:
            return self._next_id - 1

    def counts(self) -> dict[str, int]:
        """Cells per state (``pending``/``running``/``done``/``cached``/``failed``)."""
        with self._cond:
            return self._counts_locked()

    def eta_s(self) -> float | None:
        """Estimated seconds to completion, from completed-cell wall-clock.

        Mean completed-cell duration × remaining cells ÷ worker count;
        ``None`` until the first cell completes (no basis for an estimate)
        and ``0.0`` once every cell has left the pending/running states.
        """
        with self._cond:
            counts = self._counts_locked()
            remaining = counts["pending"] + counts["running"]
            if remaining == 0:
                return 0.0
            if not self._durations:
                return None
            mean = sum(self._durations) / len(self._durations)
            return mean * remaining / self.jobs

    def throughput(self) -> float:
        """Completed cells per second of elapsed run wall-clock."""
        with self._cond:
            counts = self._counts_locked()
            completed = counts["done"] + counts["cached"] + counts["failed"]
            elapsed = time.perf_counter() - self._t0_perf
            return completed / elapsed if elapsed > 0 else 0.0

    def gauges(self) -> dict[str, float]:
        """Live gauge values for the OpenMetrics exposition (``/metrics``)."""
        with self._cond:
            counts = self._counts_locked()
        eta = self.eta_s()
        gauges = {
            "run_cells": float(sum(counts.values())),
            "run_completed": float(counts["done"] + counts["cached"]),
            "run_cache_hits": float(counts["cached"]),
            "run_failed": float(counts["failed"]),
            "run_in_flight": float(counts["running"]),
            "run_queue_depth": float(counts["pending"]),
            "run_throughput_cells_per_second": self.throughput(),
        }
        if eta is not None:  # no estimate until the first cell completes
            gauges["run_eta_seconds"] = float(eta)
        with self._cond:
            if self._windows_analyzed:
                gauges["run_windows_analyzed"] = float(self._windows_analyzed)
                gauges["incremental_window_lag_seconds"] = float(self._window_lag_s)
        return gauges

    def bottleneck_series(self) -> dict[tuple[str, str], float]:
        """Cumulative live bottleneck seconds keyed ``(resource, kind)``.

        The backing store of the ``run_bottleneck_seconds_total`` counter
        family — monotone within a run, exactly like the exposition
        requires of a counter.
        """
        with self._cond:
            return dict(self._bottleneck_seconds)

    def bottlenecks_snapshot(self) -> dict[str, Any]:
        """JSON payload of ``GET /runs/<id>/bottlenecks``."""
        with self._cond:
            series = [
                {"resource": resource, "kind": kind, "seconds": seconds}
                for (resource, kind), seconds in sorted(self._bottleneck_seconds.items())
            ]
            return {
                "run_id": self.run_id,
                "windows_analyzed": self._windows_analyzed,
                "window_lag_seconds": self._window_lag_s,
                "last_bottleneck": dict(self._last_bottleneck)
                if self._last_bottleneck is not None
                else None,
                "bottleneck_seconds": series,
            }

    def snapshot(self) -> dict[str, Any]:
        """JSON-native copy of the whole model (the ``/runs`` payload)."""
        with self._cond:
            states = dict(self._states)
            counts = self._counts_locked()
            finished = self._finished
            last_id = self._next_id - 1
            windows_analyzed = self._windows_analyzed
            last_bottleneck = (
                dict(self._last_bottleneck) if self._last_bottleneck is not None else None
            )
        eta = self.eta_s()
        return {
            "windows_analyzed": windows_analyzed,
            "last_bottleneck": last_bottleneck,
            "run_id": self.run_id,
            "meta": dict(self.meta) if self.meta is not None else None,
            "jobs": self.jobs,
            "started_at": self.t0,
            "elapsed_s": time.perf_counter() - self._t0_perf,
            "finished": finished,
            "counts": counts,
            "eta_s": eta,
            "throughput_cells_per_s": self.throughput(),
            "last_event_id": last_id,
            "cells": states,
        }

    def events_since(self, last_id: int, *, timeout: float | None = None) -> list[dict[str, Any]]:
        """Events with ``id > last_id``, oldest first.

        With ``timeout`` the call blocks up to that many seconds for at
        least one new event (the SSE loop's heartbeat cadence); without
        it the backlog is returned immediately (possibly empty).
        """
        with self._cond:
            if timeout is not None and self._next_id - 1 <= last_id:
                self._cond.wait(timeout)
            return [dict(e) for e in self._events if e["id"] > last_id]


class RunRegistry:
    """Thread-safe directory of the runs a telemetry server exposes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: dict[str, RunStatus] = {}
        self._order: list[str] = []

    def register(self, status: RunStatus) -> RunStatus:
        """Add (or re-add) a run; the newest registration becomes active."""
        with self._lock:
            if status.run_id not in self._runs:
                self._order.append(status.run_id)
            self._runs[status.run_id] = status
        return status

    def get(self, run_id: str) -> RunStatus | None:
        """The run registered as ``run_id``, or ``None``."""
        with self._lock:
            return self._runs.get(run_id)

    def active(self) -> RunStatus | None:
        """The most recently registered run (what ``/events`` streams)."""
        with self._lock:
            return self._runs[self._order[-1]] if self._order else None

    def snapshots(self) -> list[dict[str, Any]]:
        """Every registered run's :meth:`RunStatus.snapshot`, oldest first."""
        with self._lock:
            statuses = [self._runs[run_id] for run_id in self._order]
        return [s.snapshot() for s in statuses]

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)
