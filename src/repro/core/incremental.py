"""Live incremental characterization: streaming ingest, windows cut from one detector.

Grade10's batch pipeline characterizes a run only once its log is
complete.  :class:`IncrementalProfile` is the streaming counterpart: it
consumes log-event chunks as they arrive — raw text via
:meth:`IncrementalProfile.feed_text` (backed by
:class:`~repro.systems.logging.JsonlStream`) or decoded events via
:meth:`IncrementalProfile.feed` — and reports bottlenecks per window of
timeslices while the run is still going.

There is one §III-E detector, :func:`~repro.core.bottlenecks.find_bottlenecks`.
:func:`cut_windows` cuts its report into windows by slice range:

* a saturation or exact-cap bottleneck's share of a window is the number
  of its mask's slices inside the window, times the slice width;
* a blocking bottleneck's share is the total duration of its blocking
  events that end inside the window.

A live service job cuts its cell's finished profile
(:func:`repro.parallel.execute_cell`).  :class:`IncrementalProfile` cuts
profiles of a log that is still growing: when windows seal, it parses
every event received so far, runs demand → upsample → attribute →
``find_bottlenecks`` on a grid with the final grid's origin, and cuts the
newly sealed windows.  Two rules decide what has sealed:

* **The watermark** is the newest ``phase_start``/``phase_end`` time and
  ``gc`` start time, held at the start of every open phase that has no
  child yet.  Block records are not written in time order — Giraph writes
  a GC pause's ``block_end`` when the pause starts and a queue stall's
  ``block_start`` when the stall ends — but every block holds up an open
  leaf phase, whose start holds the watermark back, so no record arrives
  with a timestamp behind the watermark.
* **Monitoring intervals.**  The upsampler spreads each monitoring
  interval over its slices by their demand, so a slice stays held back
  until every monitoring interval that overlaps it has ended behind the
  watermark.  Samples must be fed before the log events they cover.

Every quantity the cut reads is then final for the sealed slices, so the
windows cut before :meth:`IncrementalProfile.finalize` followed by the
ones it cuts from the final profile equal the cut of the batch profile.
:meth:`IncrementalProfile.finalize` replays the accumulated events
through the batch pipeline (:class:`~repro.core.profile.Grade10`), so
feeding a log in chunks of *any* size — including 1-event chunks and
mid-record byte splits — yields an attribution/bottleneck output
bit-identical to the one-shot batch run.  ``tests/core/test_incremental.py``
pins both on all three golden systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .attribution import attribute
from .bottlenecks import BottleneckReport, find_bottlenecks
from .demand import estimate_demand
from .phases import ExecutionModel
from .profile import DEFAULT_SLICE_DURATION, Grade10, PerformanceProfile
from .resources import ResourceModel
from .rules import RuleMatrix
from .timeline import TimeGrid
from .traces import ExecutionTrace, ResourceTrace
from .upsample import upsample
from ..systems.logging import EventLog, JsonlStream

__all__ = [
    "DEFAULT_WINDOW_SLICES",
    "IncrementalProfile",
    "LiveBottleneck",
    "WindowSummary",
    "cut_windows",
]

#: Default analysis window width, in timeslices (0.64 s at the default
#: 10 ms slice): wide enough to amortize one pipeline pass per seal,
#: narrow enough that the follow table refreshes several times per
#: simulated run.
DEFAULT_WINDOW_SLICES = 64


@dataclass(frozen=True)
class LiveBottleneck:
    """One bottleneck's share of one window.

    ``kind`` matches the batch detector's vocabulary (``blocking`` /
    ``saturation`` / ``exact-cap``); ``duration`` is the seconds of the
    bottleneck inside window ``window`` — summing a run's shares per
    ``(resource, kind)`` reproduces the batch report's totals.
    """

    kind: str
    instance_id: str
    phase_path: str
    resource: str
    duration: float
    window: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, as carried by ``bottleneck.detected`` events."""
        return {
            "kind": self.kind,
            "instance_id": self.instance_id,
            "phase_path": self.phase_path,
            "resource": self.resource,
            "duration": self.duration,
            "window": self.window,
        }


@dataclass(frozen=True)
class WindowSummary:
    """One window of a cut bottleneck report."""

    index: int
    t_start: float
    t_end: float
    n_rows: int
    bottlenecks: tuple[LiveBottleneck, ...]
    lag_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, as carried by ``window.analyzed`` events."""
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "n_rows": self.n_rows,
            "bottlenecks": [b.to_dict() for b in self.bottlenecks],
            "lag_seconds": self.lag_seconds,
        }


def cut_windows(
    report: BottleneckReport,
    trace: ExecutionTrace,
    window_slices: int,
    *,
    start: int = 0,
    stop: int | None = None,
    newest: float | None = None,
) -> list[WindowSummary]:
    """Cut ``report`` into windows ``start .. stop - 1`` of ``window_slices`` slices.

    Window ``k`` covers slices ``[k * window_slices, (k + 1) *
    window_slices)`` of the report's grid; the last window ends with the
    grid.  A saturation or exact-cap bottleneck's share of a window is
    the number of its mask's slices inside the window, times the slice
    width.  A blocking bottleneck's share is the total duration of its
    blocking events (on ``trace``) whose end falls in the window's
    slices (:meth:`~repro.core.timeline.TimeGrid.slice_of`).  Shares of
    zero are left out, and each window lists its bottlenecks in report
    order.  ``n_rows`` counts the trace's instances that overlap the
    window; ``lag_seconds`` is how far the window's end trails
    ``newest`` (default: the trace's end).
    """
    if window_slices <= 0:
        raise ValueError(f"window_slices must be > 0, got {window_slices}")
    grid = report.grid
    sd = grid.slice_duration
    n_windows = -(-grid.n_slices // window_slices)
    stop = n_windows if stop is None else min(stop, n_windows)
    if stop <= start:
        return []
    edges = np.minimum(np.arange(start, stop + 1) * window_slices, grid.n_slices)
    lo, hi = int(edges[0]), int(edges[-1])
    sliced, masks = report.slice_masks()
    counts = (
        np.add.reduceat(masks[:, lo:hi].astype(np.int64), edges[:-1] - lo, axis=1)
        if sliced
        else None
    )
    shares: list[list[LiveBottleneck]] = [[] for _ in range(stop - start)]
    row = 0
    for b in report.bottlenecks:
        if b.slices is None:
            seconds: dict[int, float] = {}
            for ev in trace[b.instance_id].blocking:
                if ev.resource == b.resource:
                    k = grid.slice_of(ev.t_end) // window_slices
                    seconds[k] = seconds.get(k, 0.0) + ev.duration
            parts = seconds.items()
        else:
            in_window = counts[row]
            row += 1
            parts = [(start + j, int(in_window[j]) * sd) for j in np.flatnonzero(in_window)]
        for k, duration in parts:
            if start <= k < stop and duration > 0.0:
                shares[k - start].append(
                    LiveBottleneck(
                        b.kind.value, b.instance_id, b.phase_path, b.resource, duration, k
                    )
                )

    insts = trace.instances()
    i_lo, i_hi = grid.slice_range_batch(
        np.fromiter((i.t_start for i in insts), np.float64, len(insts)),
        np.fromiter((i.t_end for i in insts), np.float64, len(insts)),
    )
    newest = trace.t_end if newest is None else newest
    out: list[WindowSummary] = []
    for j, found in enumerate(shares):
        w_lo, w_hi = int(edges[j]), int(edges[j + 1])
        t_end = grid.time_of(w_hi)
        out.append(
            WindowSummary(
                index=start + j,
                t_start=grid.time_of(w_lo),
                t_end=t_end,
                n_rows=int(np.count_nonzero((i_lo < w_hi) & (i_hi > w_lo))),
                bottlenecks=tuple(found),
                lag_seconds=max(0.0, newest - t_end),
            )
        )
    return out


class IncrementalProfile:
    """Streaming profile: feed log chunks, watch bottlenecks form, finalize.

    Parameters mirror :class:`~repro.core.profile.Grade10`, plus:

    ``include_gc_phases``
        The parse knob of
        :func:`~repro.adapters.parsing.parse_execution_trace` (blocking
        events are always parsed, as on the batch path).
    ``window_slices``
        Width of each window, in timeslices.
    ``on_window`` / ``on_bottleneck``
        Callbacks invoked synchronously as windows are cut — each
        window's bottleneck shares first, then the window.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        resource_model: ResourceModel,
        rules: RuleMatrix | None = None,
        *,
        slice_duration: float = DEFAULT_SLICE_DURATION,
        include_gc_phases: bool = False,
        window_slices: int = DEFAULT_WINDOW_SLICES,
        on_window: Callable[[WindowSummary], None] | None = None,
        on_bottleneck: Callable[[LiveBottleneck], None] | None = None,
    ) -> None:
        if window_slices <= 0:
            raise ValueError(f"window_slices must be > 0, got {window_slices}")
        self.execution_model = execution_model
        self.resource_model = resource_model
        self.rules = rules if rules is not None else RuleMatrix()
        self.slice_duration = slice_duration
        self.include_gc_phases = include_gc_phases
        self.window_slices = window_slices
        self.on_window = on_window
        self.on_bottleneck = on_bottleneck

        self._events: list[dict[str, Any]] = []
        self._stream = JsonlStream()
        self._monitoring = ResourceTrace()
        self._sample_starts = np.empty(0)
        self._sample_ends = np.empty(0)

        # Watermark: the newest ordered timestamp, held at the start of
        # every open phase without a child yet.
        self._t0: float | None = None  # origin of the final grid
        self._clock = float("-inf")
        self._open_leaves: dict[str, float] = {}
        self._frontier: float | None = None  # end of the last cut window
        self._finalized = False

        # Read-side counters (what the follow table consumes).
        self.windows_analyzed = 0
        self.events_ingested = 0
        self.bottleneck_seconds: dict[tuple[str, str], float] = {}
        self.last_bottleneck: LiveBottleneck | None = None

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def feed_text(self, chunk: str | bytes) -> list[WindowSummary]:
        """Feed one raw JSONL chunk (any split, including mid-record)."""
        return self.feed(self._stream.feed(chunk))

    def feed(self, events: Iterable[dict[str, Any]]) -> list[WindowSummary]:
        """Ingest decoded events, then cut any newly sealed windows."""
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        for ev in events:
            self._events.append(ev)
            self.events_ingested += 1
            self._ingest(ev)
        return self.advance()

    def feed_resource_trace(self, resource_trace: ResourceTrace) -> None:
        """Add a resource trace's monitoring samples.

        Feed samples before the log events they cover: a window that has
        sealed is never recut.
        """
        for name in resource_trace.measured_resources():
            for m in resource_trace.measurements(name):
                self._monitoring.add_measurement(name, m.t_start, m.t_end, m.value)
        samples = [
            m
            for name in self._monitoring.measured_resources()
            for m in self._monitoring.measurements(name)
        ]
        self._sample_starts = np.array([m.t_start for m in samples], dtype=np.float64)
        self._sample_ends = np.array([m.t_end for m in samples], dtype=np.float64)

    def _ingest(self, ev: dict[str, Any]) -> None:
        kind = ev.get("event")
        if kind not in ("phase_start", "phase_end", "gc"):
            return  # block records are not written in time order
        t = float(ev.get("t", 0.0))
        self._clock = max(self._clock, t)
        if kind == "phase_end":
            self._open_leaves.pop(ev.get("id"), None)
            return
        if kind == "phase_start":
            self._open_leaves.pop(ev.get("parent"), None)
            self._open_leaves[ev.get("id")] = t
        elif not self.include_gc_phases:
            return
        self._t0 = t if self._t0 is None else min(self._t0, t)

    # ------------------------------------------------------------------ #
    # Windows
    # ------------------------------------------------------------------ #
    @property
    def lag_seconds(self) -> float:
        """How far the end of the last cut window trails the newest event."""
        if self._t0 is None:
            return 0.0
        frontier = self._t0 if self._frontier is None else self._frontier
        return max(0.0, self._clock - frontier)

    def _sealed_slices(self) -> int:
        """Slices behind the watermark whose monitoring intervals ended there too.

        The slice coordinate is computed as the rasterizer computes it, so
        a record at or after the watermark only touches later slices.
        """
        assert self._t0 is not None
        sd = self.slice_duration
        watermark = min([self._clock, *self._open_leaves.values()])
        sealed = int(np.floor((watermark - self._t0) / sd))
        if self._sample_starts.size:
            far = max(float(self._sample_ends.max()), self._t0)
            lo, hi = TimeGrid.covering(self._t0, far, sd).slice_range_batch(
                self._sample_starts, self._sample_ends
            )
            held = hi > sealed
            if held.any():
                sealed = min(sealed, int(lo[held].min()))
        return max(sealed, 0)

    def advance(self) -> list[WindowSummary]:
        """Cut every window that has sealed since the last call."""
        if self._finalized or self._t0 is None:
            return []
        stop = self._sealed_slices() // self.window_slices
        if stop <= self.windows_analyzed:
            return []
        try:
            report, trace = self._prefix_report()
        except (KeyError, TypeError, ValueError):
            # A degraded log the parser rejects: the windows stay held
            # back, and finalize() raises the batch path's error.
            return []
        return self._emit(
            cut_windows(
                report,
                trace,
                self.window_slices,
                start=self.windows_analyzed,
                stop=stop,
                newest=self._clock,
            )
        )

    def _parse(self) -> tuple[EventLog, ExecutionTrace]:
        """The events received so far, as a log and as a parsed trace."""
        # Imported here: repro.adapters imports repro.core at package init.
        from ..adapters.parsing import parse_execution_trace

        log = EventLog()
        log.events = self._events
        return log, parse_execution_trace(log, include_gc_phases=self.include_gc_phases)

    def _prefix_report(self) -> tuple[BottleneckReport, ExecutionTrace]:
        """The bottleneck report of the events received so far."""
        _, trace = self._parse()
        # One slice past the horizon, so that no event time of the prefix
        # lands on a clipped last slice.
        n_slices = trace.grid(self.slice_duration).n_slices + 1
        grid = TimeGrid(trace.t_start, self.slice_duration, n_slices)
        demand = estimate_demand(trace, self.resource_model, self.rules, grid)
        upsampled = upsample(self._monitoring, demand, grid)
        attribution = attribute(upsampled, demand, trace)
        return find_bottlenecks(trace, upsampled, attribution), trace

    def _emit(self, windows: list[WindowSummary]) -> list[WindowSummary]:
        for summary in windows:
            for b in summary.bottlenecks:
                key = (b.resource, b.kind)
                self.bottleneck_seconds[key] = self.bottleneck_seconds.get(key, 0.0) + b.duration
                self.last_bottleneck = b
                if self.on_bottleneck is not None:
                    self.on_bottleneck(b)
            self.windows_analyzed += 1
            self._frontier = summary.t_end
            if self.on_window is not None:
                self.on_window(summary)
        return windows

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #
    def finalize(self, resource_trace: ResourceTrace | None = None) -> PerformanceProfile:
        """Close the stream, produce the exact batch profile, cut the rest.

        The accumulated events replay through the batch pipeline, so the
        profile is bit-identical to a one-shot ``Grade10.characterize`` on
        the same log.  Without ``resource_trace`` the fed monitoring
        samples plus the log's blocking events stand in for it.  The
        windows not yet cut are cut from this profile.
        """
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        from ..adapters.parsing import merge_blocking_into_resource_trace

        for ev in self._stream.close():
            self._events.append(ev)
            self.events_ingested += 1
            self._ingest(ev)
        self._finalized = True

        log, trace = self._parse()
        if resource_trace is None:
            resource_trace = merge_blocking_into_resource_trace(log, self._monitoring)
        g10 = Grade10(
            self.execution_model,
            self.resource_model,
            self.rules,
            slice_duration=self.slice_duration,
        )
        profile = g10.characterize(trace, resource_trace)
        self._emit(
            cut_windows(
                profile.bottlenecks,
                trace,
                self.window_slices,
                start=self.windows_analyzed,
                newest=self._clock,
            )
        )
        return profile
