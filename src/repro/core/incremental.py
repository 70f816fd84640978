"""Live incremental characterization: streaming ingest, windowed analysis.

Grade10's batch pipeline characterizes a run only once its log is
complete.  :class:`IncrementalProfile` is the streaming counterpart
(ROADMAP item 2, remaining): it consumes log-event chunks as they
arrive — raw text via :meth:`IncrementalProfile.feed_text` (backed by
:class:`~repro.systems.logging.JsonlStream`) or decoded events via
:meth:`IncrementalProfile.feed` — and maintains two planes of state:

* a **builder** that incrementally mirrors the batch parser's state
  (phase starts/ends, resolved blocking intervals, GC events) with O(1)
  dict updates per event, and
* a **windowed live analyzer** that, as the *sealed watermark* advances,
  runs per-window attribution and bottleneck detection over fixed-size
  slice windows using the batched kernels
  (:func:`~repro.core.timeline.rasterize_rows` on a window-local grid),
  pruning rows whose phases ended before the window — a window never
  re-walks the full history.

The two planes have different contracts, stated bluntly:

* **Live windows are monotone estimates.**  A window is analyzed once,
  when every event that can affect it has necessarily arrived (the
  watermark is ``min(last event time, earliest unresolved block start)``),
  and never revisited.  Saturation/exact-cap detection inside a window
  uses measured utilization directly, so mid-run numbers are advisory:
  they exist to *watch bottlenecks form*, feeding the SSE bus, the
  ``/runs/<id>/bottlenecks`` endpoint, and the ``--follow`` CLI table.
  Blocking bottleneck seconds, by contrast, accumulate exactly: a
  resolved block's raw duration is final the moment ``block_end`` lands.
* **The final profile is exact.**  :meth:`IncrementalProfile.finalize`
  replays the accumulated events through the batch pipeline
  (:class:`~repro.core.profile.Grade10`), so feeding a log in chunks of *any*
  size — including 1-event chunks and mid-record byte splits — yields an
  attribution/bottleneck output bit-identical to the one-shot batch run.
  The differential suite in ``tests/core/test_incremental.py`` enforces
  this on all three golden systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .bottlenecks import EXACT_CAP_THRESHOLD, SATURATION_THRESHOLD
from .profile import DEFAULT_SLICE_DURATION, Grade10, PerformanceProfile
from .phases import ExecutionModel
from .resources import ResourceModel
from .rules import ExactRule, NoneRule, RuleMatrix
from .timeline import TimeGrid, rasterize_rows
from .traces import ResourceTrace
from ..systems.logging import EventLog, JsonlStream

__all__ = [
    "DEFAULT_WINDOW_SLICES",
    "IncrementalProfile",
    "LiveBottleneck",
    "WindowSummary",
]

_EPS = 1e-12

#: Default analysis window width, in timeslices (0.64 s at the default
#: 10 ms slice): wide enough to amortize the kernel launches, narrow
#: enough that the follow table refreshes several times per simulated run.
#: Callers sizing for a known makespan (the live job executor) pick a
#: width that yields a handful of windows per run.
DEFAULT_WINDOW_SLICES = 64


@dataclass(frozen=True)
class LiveBottleneck:
    """One bottleneck observation from the live plane.

    ``kind`` matches the batch detector's vocabulary (``blocking`` /
    ``saturation`` / ``exact-cap``); ``duration`` is the seconds this
    observation adds — summing a run's observations per ``(resource,
    kind)`` reproduces :attr:`IncrementalProfile.bottleneck_seconds`.
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
    """Result of analyzing one sealed window."""

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


@dataclass
class _LiveRow:
    """Lightweight mirror of one phase instance for windowed analysis."""

    iid: str
    path: str
    t_start: float
    t_end: float | None  # None while the phase is open
    parent: str | None
    machine: str | None
    worker: str | None
    thread: str | None
    blocked: list[tuple[float, float]] = field(default_factory=list)

    @property
    def phase_path(self) -> str:
        """Alias so :meth:`RuleMatrix.rule_for` can match live rows."""
        return self.path

    def active_intervals(self, cap: float) -> list[tuple[float, float]]:
        """``[t_start, min(end, cap))`` minus the resolved blocked spans."""
        end = cap if self.t_end is None else min(self.t_end, cap)
        if end <= self.t_start:
            return []
        merged: list[list[float]] = []
        for b0, b1 in sorted(self.blocked):
            b0, b1 = max(b0, self.t_start), min(b1, end)
            if b1 <= b0:
                continue
            if merged and b0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b1)
            else:
                merged.append([b0, b1])
        out: list[tuple[float, float]] = []
        cursor = self.t_start
        for b0, b1 in merged:
            if b0 > cursor:
                out.append((cursor, b0))
            cursor = max(cursor, b1)
        if cursor < end:
            out.append((cursor, end))
        return out


class IncrementalProfile:
    """Streaming profile: feed log chunks, watch bottlenecks form, finalize.

    Parameters mirror :class:`~repro.core.profile.Grade10` plus the parse
    knobs of :func:`~repro.adapters.parsing.parse_execution_trace` (the
    incremental ingest replaces the batch parse step) and the live-plane
    controls:

    ``window_slices``
        Width of each live analysis window, in timeslices.
    ``on_window`` / ``on_bottleneck``
        Callbacks invoked synchronously from :meth:`advance` — the hook
        points the serving layer uses to publish ``window.analyzed`` /
        ``bottleneck.detected`` progress events.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        resource_model: ResourceModel,
        rules: RuleMatrix | None = None,
        *,
        slice_duration: float = DEFAULT_SLICE_DURATION,
        saturation_threshold: float = SATURATION_THRESHOLD,
        exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
        include_blocking: bool = True,
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
        self.saturation_threshold = saturation_threshold
        self.exact_cap_threshold = exact_cap_threshold
        self.include_blocking = include_blocking
        self.include_gc_phases = include_gc_phases
        self.window_slices = window_slices
        self.on_window = on_window
        self.on_bottleneck = on_bottleneck

        # Raw ingest + stream decoding.
        self._events: list[dict[str, Any]] = []
        self._stream = JsonlStream()

        # Builder plane (mirrors the batch parser's dicts).
        self._row_of: dict[str, _LiveRow] = {}
        self._rows: list[_LiveRow] = []  # emission order, pruned copy below
        self._pending_blocks: dict[tuple[str, str], float] = {}
        self._blocking_acc: dict[tuple[str, str], float] = {}

        # Live analysis plane.
        self._live_rows: list[_LiveRow] = []  # rows not yet behind the watermark
        self._meas: dict[str, list[tuple[float, float, float]]] = {}  # pruned live view
        self._meas_all: dict[str, list[tuple[float, float, float]]] = {}  # for finalize
        self._rule_cache: dict[tuple[str, str], tuple[bool, float] | None] = {}
        self._t0: float | None = None  # live grid origin
        self._last_t = float("-inf")
        self._analyzed_slices = 0
        self._finalized = False

        # Read-side counters (what RunStatus / /metrics consume).
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
        """Ingest decoded events, then analyze any newly sealed windows."""
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        for ev in events:
            self._events.append(ev)
            self.events_ingested += 1
            self._ingest(ev)
        return self.advance()

    def feed_measurement(self, resource: str, t_start: float, t_end: float, value: float) -> None:
        """Feed one monitoring sample (used by the live utilization view)."""
        self._meas.setdefault(resource, []).append((t_start, t_end, value))
        self._meas_all.setdefault(resource, []).append((t_start, t_end, value))

    def feed_resource_trace(self, resource_trace: ResourceTrace) -> None:
        """Bulk-feed monitoring samples from a resource trace."""
        for name in resource_trace.measured_resources():
            for m in resource_trace.measurements(name):
                self.feed_measurement(name, m.t_start, m.t_end, m.value)

    def _ingest(self, ev: dict[str, Any]) -> None:
        kind = ev.get("event")
        t = float(ev.get("t", 0.0))
        self._last_t = max(self._last_t, t, float(ev.get("t_end", 0.0)))
        if kind == "phase_start":
            iid = ev["id"]
            if iid in self._row_of:
                return  # duplicate start: first wins, like the batch parser
            row = _LiveRow(
                iid=iid,
                path=ev["path"],
                t_start=t,
                t_end=None,
                parent=ev.get("parent"),
                machine=ev.get("machine"),
                worker=ev.get("worker"),
                thread=ev.get("thread"),
            )
            self._row_of[iid] = row
            self._live_rows.append(row)
            if self._t0 is None or t < self._t0:
                self._t0 = t
        elif kind == "phase_end":
            row = self._row_of.get(ev["id"])
            if row is not None and row.t_end is None:
                row.t_end = t
        elif kind == "block_start":
            self._pending_blocks[(ev["id"], ev["resource"])] = t
        elif kind == "block_end":
            key = (ev["id"], ev["resource"])
            t0 = self._pending_blocks.pop(key, None)
            if t0 is None or t < t0:
                return
            row = self._row_of.get(ev["id"])
            if row is not None and self.include_blocking:
                row.blocked.append((t0, t))
                acc_key = (ev["id"], ev["resource"])
                self._blocking_acc[acc_key] = self._blocking_acc.get(acc_key, 0.0) + (t - t0)
                self._note_bottleneck(
                    LiveBottleneck(
                        kind="blocking",
                        instance_id=ev["id"],
                        phase_path=row.path,
                        resource=ev["resource"],
                        duration=t - t0,
                        window=self.windows_analyzed,
                    )
                )
        elif kind == "gc" and self.include_gc_phases:
            t_end = float(ev["t_end"])
            machine = ev.get("machine")
            k = sum(1 for r in self._row_of.values() if r.path == "/GC")
            iid = f"/GC#{machine}#{k}"
            row = _LiveRow(
                iid=iid,
                path="/GC",
                t_start=t,
                t_end=t_end,
                parent=None,
                machine=machine,
                worker=machine,
                thread=None,
            )
            self._row_of[iid] = row
            self._live_rows.append(row)
            if self._t0 is None or t < self._t0:
                self._t0 = t

    # ------------------------------------------------------------------ #
    # Live windowed analysis
    # ------------------------------------------------------------------ #
    @property
    def lag_seconds(self) -> float:
        """How far the analyzed frontier trails the newest event."""
        if self._t0 is None or self._last_t == float("-inf"):
            return 0.0
        frontier = self._t0 + self._analyzed_slices * self.slice_duration
        return max(0.0, self._last_t - frontier)

    def _safe_time(self) -> float:
        """Largest time every relevant event has necessarily arrived for.

        The emitters write events in time order, so nothing earlier than
        the newest timestamp can still arrive; an unresolved block makes
        activity unknowable from its start onward, so the watermark also
        floors at the earliest pending ``block_start``.
        """
        safe = self._last_t
        if self._pending_blocks:
            safe = min(safe, min(self._pending_blocks.values()))
        return safe

    def advance(self) -> list[WindowSummary]:
        """Analyze every window now fully behind the sealed watermark."""
        if self._t0 is None:
            return []
        sd = self.slice_duration
        safe = self._safe_time()
        out: list[WindowSummary] = []
        while True:
            lo = self._analyzed_slices
            hi = lo + self.window_slices
            if self._t0 + hi * sd > safe:
                break
            out.append(self._analyze_window(lo, hi))
            self._analyzed_slices = hi
        return out

    def _note_bottleneck(self, b: LiveBottleneck) -> None:
        key = (b.resource, b.kind)
        self.bottleneck_seconds[key] = self.bottleneck_seconds.get(key, 0.0) + b.duration
        self.last_bottleneck = b
        if self.on_bottleneck is not None:
            self.on_bottleneck(b)

    def _window_rule(self, row: _LiveRow, resource: str) -> tuple[bool, float] | None:
        """Resolved ``(is_exact, magnitude)`` for a row, cached per id."""
        key = (row.iid, resource)
        if key in self._rule_cache:
            return self._rule_cache[key]
        rule = self.rules.rule_for(row, resource)  # duck-typed: path + location
        if isinstance(rule, NoneRule):
            resolved: tuple[bool, float] | None = None
        elif isinstance(rule, ExactRule):
            resolved = (True, rule.proportion * self.resource_model.consumable[resource].capacity)
        else:
            resolved = (False, rule.weight)
        self._rule_cache[key] = resolved
        return resolved

    def _window_utilization(self, resource: str, win: TimeGrid) -> np.ndarray | None:
        """Measured per-slice utilization inside one window, or None."""
        ms = self._meas.get(resource)
        if not ms:
            return None
        capacity = self.resource_model.consumable[resource].capacity
        t_lo, t_hi = win.t0, win.t_end
        amount = np.zeros(win.n_slices)
        cover = np.zeros(win.n_slices)
        edges = win.edges
        keep: list[tuple[float, float, float]] = []
        for m0, m1, val in ms:
            if m1 > t_lo:
                keep.append((m0, m1, val))
            if m1 <= t_lo or m0 >= t_hi:
                continue
            frac = np.clip(
                (np.minimum(edges[1:], m1) - np.maximum(edges[:-1], m0)) / win.slice_duration,
                0.0,
                1.0,
            )
            amount += frac * val
            cover += frac
        self._meas[resource] = keep  # windows are monotone: drop consumed samples
        util = np.divide(amount, cover, out=np.zeros_like(amount), where=cover > _EPS)
        return util / capacity

    def _analyze_window(self, lo: int, hi: int) -> WindowSummary:
        sd = self.slice_duration
        assert self._t0 is not None
        win = TimeGrid(t0=self._t0 + lo * sd, slice_duration=sd, n_slices=hi - lo)
        cap = win.t_end

        # Select rows overlapping the window; prune rows fully behind it.
        # This keeps each window's work proportional to live concurrency,
        # not to run length.
        live: list[_LiveRow] = []
        rows: list[_LiveRow] = []
        for row in self._live_rows:
            if row.t_end is not None and row.t_end <= win.t0:
                continue  # ended before this window: never needed again
            live.append(row)
            if row.t_start < cap:
                rows.append(row)
        self._live_rows = live

        bottlenecks: list[LiveBottleneck] = []
        n_rows = len(rows)
        if n_rows:
            local = {row.iid: r for r, row in enumerate(rows)}
            idx: list[int] = []
            starts: list[float] = []
            ends: list[float] = []
            for r, row in enumerate(rows):
                for s, e in row.active_intervals(cap):
                    idx.append(r)
                    starts.append(s)
                    ends.append(e)
            raw = rasterize_rows(
                win,
                np.asarray(idx, dtype=np.int64),
                np.asarray(starts, dtype=np.float64),
                np.asarray(ends, dtype=np.float64),
                n_rows,
            )
            parent = np.fromiter(
                (local.get(row.parent, -1) if row.parent is not None else -1 for row in rows),
                dtype=np.int64,
                count=n_rows,
            )
            child_sum = np.zeros_like(raw)
            has_child = np.zeros(n_rows, dtype=bool)
            is_kid = parent >= 0
            if np.any(is_kid):
                np.add.at(child_sum, parent[is_kid], raw[is_kid])
                has_child[parent[is_kid]] = True
            attr = np.where(has_child[:, None], np.clip(raw - child_sum, 0.0, 1.0), raw)

            sat_floor = sd / 2
            for resource in self.resource_model.consumable:
                util = self._window_utilization(resource, win)
                if util is None:
                    continue
                demand = np.zeros_like(attr)
                is_exact = np.zeros(n_rows, dtype=bool)
                exact_total = np.zeros(win.n_slices)
                for r, row in enumerate(rows):
                    resolved = self._window_rule(row, resource)
                    if resolved is None:
                        continue
                    is_exact[r], magnitude = resolved
                    demand[r] = magnitude * attr[r]
                    if is_exact[r]:
                        exact_total += demand[r]
                active = demand > _EPS
                saturated = util >= self.saturation_threshold
                sat = active & saturated[None, :]
                sat_times = sat.sum(axis=1).astype(np.float64) * sd
                # Live exact-cap estimate: the batch upsampler satisfies
                # exact demand first, so exact rows run at (nearly) full
                # demand whenever the measured amount covers the summed
                # exact demand — test that supply ratio per slice.
                capacity = self.resource_model.consumable[resource].capacity
                supply = np.divide(
                    util * capacity,
                    exact_total,
                    out=np.full(win.n_slices, np.inf),
                    where=exact_total > _EPS,
                )
                capped = (
                    active
                    & is_exact[:, None]
                    & (supply[None, :] >= self.exact_cap_threshold)
                    & ~saturated[None, :]
                )
                cap_times = capped.sum(axis=1).astype(np.float64) * sd
                for r, row in enumerate(rows):
                    if sat_times[r] >= sat_floor:
                        b = LiveBottleneck(
                            kind="saturation",
                            instance_id=row.iid,
                            phase_path=row.path,
                            resource=resource,
                            duration=float(sat_times[r]),
                            window=self.windows_analyzed,
                        )
                        bottlenecks.append(b)
                        self._note_bottleneck(b)
                    if is_exact[r] and cap_times[r] >= sat_floor:
                        b = LiveBottleneck(
                            kind="exact-cap",
                            instance_id=row.iid,
                            phase_path=row.path,
                            resource=resource,
                            duration=float(cap_times[r]),
                            window=self.windows_analyzed,
                        )
                        bottlenecks.append(b)
                        self._note_bottleneck(b)

        self.windows_analyzed += 1
        summary = WindowSummary(
            index=self.windows_analyzed - 1,
            t_start=win.t0,
            t_end=win.t_end,
            n_rows=n_rows,
            bottlenecks=tuple(bottlenecks),
            lag_seconds=max(0.0, self._last_t - win.t_end),
        )
        if self.on_window is not None:
            self.on_window(summary)
        return summary

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #
    def finalize(self, resource_trace: ResourceTrace | None = None) -> PerformanceProfile:
        """Close the stream and produce the exact batch profile.

        Any decoded-but-unanalyzed span is first drained through the live
        plane (one trailing partial window), then the accumulated events
        replay through the batch pipeline.  The result is
        bit-identical to a one-shot ``Grade10.characterize`` on the same
        log — the convergence invariant the differential suite pins down.
        """
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        # Imported here: repro.adapters imports repro.core at package init.
        from ..adapters.parsing import (
            merge_blocking_into_resource_trace,
            parse_execution_trace,
        )

        tail = self._stream.close()
        if tail:
            for ev in tail:
                self._events.append(ev)
                self.events_ingested += 1
                self._ingest(ev)
        self.advance()
        # Drain the trailing partial window so live counters cover the run.
        if self._t0 is not None and self._last_t > self._t0:
            sd = self.slice_duration
            done = self._t0 + self._analyzed_slices * sd
            if self._last_t > done:
                n = int(np.ceil((self._last_t - done) / sd - 1e-9))
                if n > 0:
                    self._analyze_window(self._analyzed_slices, self._analyzed_slices + n)
                    self._analyzed_slices += n
        self._finalized = True

        log = EventLog()
        log.events = list(self._events)
        trace = parse_execution_trace(
            log,
            include_blocking=self.include_blocking,
            include_gc_phases=self.include_gc_phases,
        )
        if resource_trace is None:
            resource_trace = ResourceTrace()
            for name, samples in self._meas_all.items():
                for t_start, t_end, value in samples:
                    resource_trace.add_measurement(name, t_start, t_end, value)
            merge_blocking_into_resource_trace(log, resource_trace)
        g10 = Grade10(
            self.execution_model,
            self.resource_model,
            self.rules,
            slice_duration=self.slice_duration,
            saturation_threshold=self.saturation_threshold,
            exact_cap_threshold=self.exact_cap_threshold,
        )
        return g10.characterize(trace, resource_trace)
