"""Time discretization onto a timeslice grid.

Grade10 discretizes time into a sequence of *timeslices*, assuming the system
under test is in a steady state within each slice (resource consumption is
constant, phases only start/end on slice boundaries).  The slice duration is
the key fidelity knob of the whole pipeline (paper §III-C); in practice it is
set to tens of milliseconds.

This module provides :class:`TimeGrid`, the shared coordinate system used by
every other stage: demand estimation, upsampling, attribution, bottleneck
identification, and issue simulation all operate on arrays indexed by slice.

All conversions are vectorized; the only Python-level loops in this module
are over *intervals*, never over slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "rasterize_intervals", "rasterize_rows", "interval_slice_overlap"]

#: Relative tolerance used when snapping event timestamps to slice boundaries.
_SNAP_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """A uniform grid of timeslices covering ``[t0, t0 + n_slices * slice_duration)``.

    Parameters
    ----------
    t0:
        Absolute time of the left edge of slice ``0`` (seconds).
    slice_duration:
        Width of each slice (seconds); must be positive.
    n_slices:
        Number of slices in the grid; must be positive.
    """

    t0: float
    slice_duration: float
    n_slices: int

    def __post_init__(self) -> None:
        if self.slice_duration <= 0.0:
            raise ValueError(f"slice_duration must be > 0, got {self.slice_duration}")
        if self.n_slices <= 0:
            raise ValueError(f"n_slices must be > 0, got {self.n_slices}")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def covering(cls, t_start: float, t_end: float, slice_duration: float) -> "TimeGrid":
        """Build the smallest grid starting at ``t_start`` that covers ``[t_start, t_end]``.

        ``t_end == t_start`` yields a single-slice grid so that zero-length
        traces still have a well-defined coordinate system.
        """
        if t_end < t_start:
            raise ValueError(f"t_end ({t_end}) < t_start ({t_start})")
        # Snap the slice count with the same *relative* tolerance used by
        # slice_of/slice_range: a span that is (up to float round-off) an
        # exact multiple k of slice_duration must yield exactly k slices.
        # The previous absolute-tolerance ceil disagreed with the round
        # path in index lookup for large k (quotient error grows with k),
        # leaving a trailing slice beyond every event.
        q = (t_end - t_start) / slice_duration
        snapped = round(q)
        if abs(q - snapped) <= _SNAP_RTOL * max(1.0, abs(snapped)):
            q = snapped
        n = int(np.ceil(q))
        return cls(t0=t_start, slice_duration=slice_duration, n_slices=max(n, 1))

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def t_end(self) -> float:
        """Absolute time of the right edge of the last slice."""
        return self.t0 + self.n_slices * self.slice_duration

    @property
    def edges(self) -> np.ndarray:
        """Array of ``n_slices + 1`` slice boundary timestamps."""
        return self.t0 + np.arange(self.n_slices + 1) * self.slice_duration

    @property
    def centers(self) -> np.ndarray:
        """Array of ``n_slices`` slice-center timestamps."""
        return self.t0 + (np.arange(self.n_slices) + 0.5) * self.slice_duration

    # ------------------------------------------------------------------ #
    # Coordinate transforms
    # ------------------------------------------------------------------ #
    def slice_of(self, t: float | np.ndarray) -> np.ndarray | int:
        """Index of the slice containing time ``t`` (clipped to the grid).

        Timestamps within a relative tolerance of a slice boundary are snapped
        to that boundary before flooring, so log timestamps produced exactly
        on boundaries never spill into a neighbouring slice through float
        round-off.
        """
        raw = (np.asarray(t, dtype=np.float64) - self.t0) / self.slice_duration
        snapped = np.round(raw)
        raw = np.where(np.abs(raw - snapped) <= _SNAP_RTOL * np.maximum(1.0, np.abs(snapped)), snapped, raw)
        idx = np.clip(np.floor(raw).astype(np.int64), 0, self.n_slices - 1)
        if np.ndim(t) == 0:
            return int(idx)
        return idx

    def slice_range(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Half-open slice-index range ``[lo, hi)`` covered by ``[t_start, t_end)``.

        An empty interval maps to an empty range (``lo == hi``).  The result
        is clipped to the grid.
        """
        if t_end < t_start:
            raise ValueError(f"t_end ({t_end}) < t_start ({t_start})")
        lo_raw = (t_start - self.t0) / self.slice_duration
        hi_raw = (t_end - self.t0) / self.slice_duration
        lo_snap, hi_snap = np.round(lo_raw), np.round(hi_raw)
        if abs(lo_raw - lo_snap) <= _SNAP_RTOL * max(1.0, abs(lo_snap)):
            lo_raw = lo_snap
        if abs(hi_raw - hi_snap) <= _SNAP_RTOL * max(1.0, abs(hi_snap)):
            hi_raw = hi_snap
        lo = int(np.clip(np.floor(lo_raw), 0, self.n_slices))
        hi = int(np.clip(np.ceil(hi_raw), 0, self.n_slices))
        return lo, max(hi, lo)

    def slice_range_batch(
        self, t_start: np.ndarray, t_end: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`slice_range` over arrays of intervals.

        Returns ``(lo, hi)`` int64 arrays with the same boundary snapping
        as the scalar path — the upsampler maps every measurement
        window to its slice span in one call instead of one Python-level
        ``slice_range`` per window.
        """
        t_start = np.asarray(t_start, dtype=np.float64)
        t_end = np.asarray(t_end, dtype=np.float64)
        if np.any(t_end < t_start):
            raise ValueError("t_end < t_start in at least one interval")
        lo_raw = (t_start - self.t0) / self.slice_duration
        hi_raw = (t_end - self.t0) / self.slice_duration
        lo_snap, hi_snap = np.round(lo_raw), np.round(hi_raw)
        lo_raw = np.where(
            np.abs(lo_raw - lo_snap) <= _SNAP_RTOL * np.maximum(1.0, np.abs(lo_snap)),
            lo_snap, lo_raw,
        )
        hi_raw = np.where(
            np.abs(hi_raw - hi_snap) <= _SNAP_RTOL * np.maximum(1.0, np.abs(hi_snap)),
            hi_snap, hi_raw,
        )
        lo = np.clip(np.floor(lo_raw), 0, self.n_slices).astype(np.int64)
        hi = np.clip(np.ceil(hi_raw), 0, self.n_slices).astype(np.int64)
        return lo, np.maximum(hi, lo)

    def time_of(self, slice_index: int) -> float:
        """Absolute time of the left edge of ``slice_index``."""
        return self.t0 + slice_index * self.slice_duration

    # ------------------------------------------------------------------ #
    # Resampling helpers
    # ------------------------------------------------------------------ #
    def coarsen(self, factor: int) -> "TimeGrid":
        """Return a grid with slices ``factor`` times wider (same origin).

        The coarse grid covers at least the same span; a partial trailing
        coarse slice is included when ``n_slices`` is not divisible by
        ``factor``.
        """
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        n = int(np.ceil(self.n_slices / factor))
        return TimeGrid(self.t0, self.slice_duration * factor, n)


def interval_slice_overlap(grid: TimeGrid, t_start: float, t_end: float) -> tuple[int, int, np.ndarray]:
    """Fractional overlap of ``[t_start, t_end)`` with each slice it touches.

    Returns ``(lo, hi, frac)`` where ``frac[i]`` is the fraction of slice
    ``lo + i`` covered by the interval (in ``[0, 1]``), for slices
    ``lo .. hi - 1``.  Used when attributing a measured quantity that accrued
    over an arbitrary interval onto the grid.
    """
    lo, hi = grid.slice_range(t_start, t_end)
    if hi == lo:
        return lo, hi, np.empty(0, dtype=np.float64)
    edges = grid.t0 + np.arange(lo, hi + 1) * grid.slice_duration
    left = np.maximum(edges[:-1], t_start)
    right = np.minimum(edges[1:], t_end)
    frac = np.clip((right - left) / grid.slice_duration, 0.0, 1.0)
    return lo, hi, frac


def rasterize_intervals(
    grid: TimeGrid,
    starts: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    fractional: bool = True,
) -> np.ndarray:
    """Accumulate weighted intervals onto the slice grid.

    For every interval ``[starts[k], ends[k])`` with weight ``weights[k]``
    (default 1.0), add ``weight * overlap_fraction`` to each slice the
    interval overlaps.  With ``fractional=False`` the overlap fraction is
    replaced by a 0/1 indicator (any overlap counts fully) — useful for
    activity masks.

    The implementation is a vectorized difference-array scan: cost is
    ``O(n_intervals + n_slices)`` regardless of interval lengths.  Slices
    no interval overlaps are exactly 0, and non-negative weights give a
    non-negative raster (see :func:`_drop_residue`).
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have the same shape")
    if weights is None:
        weights = np.ones_like(starts)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != starts.shape:
            raise ValueError("weights must match starts/ends shape")

    out = np.zeros(grid.n_slices, dtype=np.float64)
    if starts.size == 0:
        return out

    if not fractional:
        # Indicator accumulation: +w at first overlapped slice, -w after last.
        diff = np.zeros(grid.n_slices + 1, dtype=np.float64)
        cover = np.zeros(grid.n_slices + 1, dtype=np.int64)
        for s, e, w in zip(starts, ends, weights):
            lo, hi = grid.slice_range(s, e)
            if hi > lo:
                diff[lo] += w
                diff[hi] -= w
                cover[lo] += 1
                cover[hi] -= 1
        return _drop_residue(np.cumsum(diff)[:-1], cover, weights)

    # Fractional accumulation via difference arrays on slice coordinates:
    # an interval covering slice coordinate range [a, b) contributes, to
    # slice i, w * len([a,b) ∩ [i,i+1)).  Split each interval into
    # (full-slice body) + (fractional head) + (fractional tail).
    a = np.clip((starts - grid.t0) / grid.slice_duration, 0.0, grid.n_slices)
    b = np.clip((ends - grid.t0) / grid.slice_duration, 0.0, grid.n_slices)
    a, b = np.minimum(a, b), np.maximum(a, b)

    ia = np.floor(a).astype(np.int64)
    ib = np.floor(b).astype(np.int64)
    # Intervals entirely inside one slice.
    same = ia == ib
    np.add.at(out, np.clip(ia[same], 0, grid.n_slices - 1), weights[same] * (b[same] - a[same]))

    multi = ~same
    if np.any(multi):
        ia_m, ib_m = ia[multi], ib[multi]
        a_m, b_m, w_m = a[multi], b[multi], weights[multi]
        # Head fraction in slice ia.
        np.add.at(out, ia_m, w_m * (ia_m + 1 - a_m))
        # Tail fraction in slice ib (ib may equal n_slices when b is exactly
        # the right edge of the grid; that tail has zero width, skip it).
        tail = ib_m < grid.n_slices
        np.add.at(out, ib_m[tail], w_m[tail] * (b_m[tail] - ib_m[tail]))
        # Full body: slices ia+1 .. ib-1 via difference array.
        diff = np.zeros(grid.n_slices + 1, dtype=np.float64)
        body = ib_m > ia_m + 1
        np.add.at(diff, ia_m[body] + 1, w_m[body])
        np.add.at(diff, np.minimum(ib_m[body], grid.n_slices), -w_m[body])
        out += np.cumsum(diff)[:-1]
        # Slice i overlaps [a, b) exactly when floor(a) <= i < ceil(b).
        covered = b > a
        cover = np.zeros(grid.n_slices + 1, dtype=np.int64)
        np.add.at(cover, ia[covered], 1)
        np.add.at(cover, np.ceil(b[covered]).astype(np.int64), -1)
        _drop_residue(out, cover, weights)
    return out


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row sum of ``values[mask]``.

    Rows with the same number of selected entries are packed into one
    ``(rows, k)`` matrix, so each row sums exactly like the 1-D array of
    its selected entries alone (same order, same pairwise association).
    """
    out = np.zeros(values.shape[0])
    counts = mask.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        out[rows] = values[rows][mask[rows]].reshape(len(rows), k).sum(axis=1)
    return out


def _drop_residue(out: np.ndarray, cover: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Remove the cancellation residue a float difference-array cumsum leaves.

    Summing non-integer ``+w``/``-w`` pairs does not cancel exactly, so
    slices after every interval has ended can read ``-1.1e-16`` instead of
    0.  ``cover`` is the integer difference array of how many intervals
    overlap each slice; its cumsum is exact, so slices no interval
    overlaps become exactly 0.  With non-negative weights any negative
    value left elsewhere is residue too and is clamped to 0.
    """
    out[np.cumsum(cover)[:-1] == 0] = 0.0
    if np.all(weights >= 0.0):
        out[out < 0.0] = 0.0
    return out


def rasterize_rows(
    grid: TimeGrid,
    rows: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Fractional interval rasterization onto an ``(n_rows, n_slices)`` matrix.

    The 2-D analogue of :func:`rasterize_intervals` with unit weights:
    interval ``k`` accumulates its per-slice overlap fraction into row
    ``rows[k]``.  Operation order matches the 1-D path per row
    (same/head/tail scatter-adds, then a per-row cumsum of the body
    difference array), so each row is bit-identical to rasterizing that
    row's intervals alone.  Unit weights cancel exactly, so no residue
    needs dropping.
    """
    n = grid.n_slices
    out = np.zeros((n_rows, n), dtype=np.float64)
    if len(starts) == 0:
        return out
    rows = np.asarray(rows, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)

    a = np.clip((starts - grid.t0) / grid.slice_duration, 0.0, n)
    b = np.clip((ends - grid.t0) / grid.slice_duration, 0.0, n)
    a, b = np.minimum(a, b), np.maximum(a, b)
    ia = np.floor(a).astype(np.int64)
    ib = np.floor(b).astype(np.int64)

    flat = out.ravel()
    same = ia == ib
    np.add.at(flat, rows[same] * n + np.clip(ia[same], 0, n - 1), b[same] - a[same])

    multi = ~same
    if np.any(multi):
        r_m, ia_m, ib_m = rows[multi], ia[multi], ib[multi]
        a_m, b_m = a[multi], b[multi]
        np.add.at(flat, r_m * n + ia_m, ia_m + 1 - a_m)
        tail = ib_m < n
        np.add.at(flat, r_m[tail] * n + ib_m[tail], b_m[tail] - ib_m[tail])
        body = ib_m > ia_m + 1
        if np.any(body):
            diff = np.zeros((n_rows, n + 1), dtype=np.float64)
            dflat = diff.ravel()
            np.add.at(dflat, r_m[body] * (n + 1) + ia_m[body] + 1, 1.0)
            np.add.at(dflat, r_m[body] * (n + 1) + np.minimum(ib_m[body], n), -1.0)
            out += np.cumsum(diff, axis=1)[:, :-1]
    return out
