"""Upsampling coarse resource measurements to timeslice granularity (§III-D2).

Monitoring data arrives as average consumption rates over windows spanning
many timeslices.  The upsampler redistributes each window's total
consumption over the timeslices it covers, guided by the demand estimate:

1. consumption is first assigned to the **known (exact) demand** of each
   slice, proportionally, never exceeding the demand or the resource
   capacity (whichever is lower);
2. any remaining consumption is divided proportionally to the **variable
   demand weights** (load-balanced), again respecting per-slice capacity —
   a water-filling allocation: when a slice saturates, its excess share
   flows to the remaining unsaturated slices;
3. consumption that cannot be explained by any demand (measured usage in
   slices where no phase demands the resource) is spread uniformly over the
   window and reported as *unexplained*, so model gaps are visible rather
   than silently absorbed.

Each measurement is processed independently, exactly as in the paper.
:func:`upsample` executes the windows of every resource at once: windows
of equal width form one ``(n_windows, width)`` matrix, whatever their
resource, and the water-filling runs row-wise (:func:`_water_fill_batch`).
A per-window scalar reference lives in ``tests/core/oracles.py``; the
kernel equals it bit for bit.

The module also implements the **constant-rate strawman** the paper
compares against in Table II (assume consumption is constant over the
measurement window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .demand import DemandEstimate, ResourceDemand
from .timeline import TimeGrid, _masked_row_sums, interval_slice_overlap
from .traces import ResourceMeasurement, ResourceTrace

__all__ = [
    "UpsampledResource",
    "UpsampledTrace",
    "upsample",
    "upsample_constant",
    "relative_sampling_error",
]

_EPS = 1e-12


@dataclass
class UpsampledResource:
    """Timeslice-granular consumption estimate for one resource.

    ``rate``
        Estimated consumption rate per slice (resource units).
    ``coverage``
        Fraction of each slice covered by at least one measurement window;
        slices with zero coverage were never monitored and have rate 0.
    ``unexplained``
        Portion of ``rate`` that no demand entry accounts for (model gap).
    """

    resource: str
    capacity: float
    rate: np.ndarray
    coverage: np.ndarray
    unexplained: np.ndarray

    @property
    def utilization(self) -> np.ndarray:
        """Per-slice utilization in ``[0, 1+]`` (rate / capacity)."""
        return self.rate / self.capacity


@dataclass
class UpsampledTrace:
    """Upsampled consumption estimates for all measured resources."""

    grid: TimeGrid
    per_resource: dict[str, UpsampledResource]

    def __getitem__(self, resource: str) -> UpsampledResource:
        return self.per_resource[resource]

    def __contains__(self, resource: str) -> bool:
        return resource in self.per_resource

    def resources(self) -> list[str]:
        """Names of the upsampled resources."""
        return list(self.per_resource)


def _water_fill_batch(
    amount: np.ndarray, weights: np.ndarray, headroom: np.ndarray
) -> np.ndarray:
    """Row-wise water-filling of ``amount[i]`` over ``weights[i]``, capped by ``headroom[i]``.

    Classic water-filling per row: allocate proportionally; freeze slices
    that hit their cap; redistribute the excess among the rest.  Any amount
    that exceeds a row's total headroom is *not* allocated (the caller
    decides what to do with the residue).  ``amount`` is ``(n_windows,)``;
    ``weights``/``headroom`` are ``(n_windows, width)``.  Rows iterate
    together but each follows the one-window algorithm's branch structure
    via masks: a row that would have stopped goes inert.
    """
    alloc = np.zeros_like(weights)
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return alloc
    remaining = np.asarray(amount, dtype=np.float64).copy()
    active = (weights > _EPS) & (headroom > _EPS)
    live = (remaining > _EPS) & active.any(axis=1)
    # Each iteration caps at least one cell per live row, so the loop is
    # bounded by the row width; the guard is purely defensive.
    for _ in range(weights.shape[1] + 1):
        if not np.any(live):
            break
        w_sum = _masked_row_sums(weights, active & live[:, None])
        live &= w_sum > _EPS
        if not np.any(live):
            break
        act = live[:, None] & active
        safe = np.where(w_sum > _EPS, w_sum, 1.0)
        share = np.where(act, remaining[:, None] * weights / safe[:, None], 0.0)
        room = headroom - alloc
        over = share > room
        take = np.where(act, np.where(over, room, share), 0.0)
        alloc += take
        remaining = np.where(live, remaining - take.sum(axis=1), remaining)
        newly_capped = over & act
        live &= newly_capped.any(axis=1)
        active &= ~newly_capped
        live &= remaining > _EPS
    return alloc


def upsample(
    resource_trace: ResourceTrace,
    demand: DemandEstimate,
    grid: TimeGrid,
) -> UpsampledTrace:
    """Upsample all measured consumable resources to timeslice granularity.

    The measurement windows of every resource go through the three steps
    together: windows of one width, whatever their resource, are rows of
    one matrix.
    """
    with obs.span("upsample", n_slices=grid.n_slices):
        # A resource that was monitored but is not in the resource model is
        # skipped — there is no capacity or demand to guide upsampling.
        names = [name for name in resource_trace.measured_resources() if name in demand]
        amount, unexplained, coverage = _upsample_windows(
            [demand[name] for name in names],
            grid,
            [resource_trace.measurements(name) for name in names],
        )
        rate = np.divide(amount, coverage, out=np.zeros_like(amount), where=coverage > _EPS)
        unexp_rate = np.divide(
            unexplained, coverage, out=np.zeros_like(unexplained), where=coverage > _EPS
        )
        coverage = np.clip(coverage, 0.0, 1.0)
        per_resource = {
            name: UpsampledResource(
                resource=name,
                capacity=demand[name].capacity,
                rate=rate[r],
                coverage=coverage[r],
                unexplained=unexp_rate[r],
            )
            for r, name in enumerate(names)
        }
        return UpsampledTrace(grid=grid, per_resource=per_resource)


def _upsample_windows(
    rdemands: list[ResourceDemand], grid: TimeGrid, windows: list[list[ResourceMeasurement]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distribute every window of every resource over the grid.

    ``windows[r]`` are the measurements of the resource ``rdemands[r]``
    describes.  Returns ``(amount, unexplained, coverage)``, each
    ``(resources, slices)``: the allocated and the unexplained consumption
    in rate×slice units, and the summed window coverage fractions.
    """
    n = grid.n_slices
    sd = grid.slice_duration
    amount = np.zeros((len(rdemands), n))
    unexplained = np.zeros((len(rdemands), n))
    coverage = np.zeros((len(rdemands), n))
    ms = [m for resource_windows in windows for m in resource_windows]
    if not ms:
        return amount, unexplained, coverage
    res = np.repeat(np.arange(len(rdemands)), [len(w) for w in windows])
    starts = np.array([m.t_start for m in ms], dtype=np.float64)
    ends = np.array([m.t_end for m in ms], dtype=np.float64)
    values = np.array([m.value for m in ms], dtype=np.float64)
    lo, hi = grid.slice_range_batch(starts, ends)
    width = hi - lo
    max_w = int(width.max())
    if max_w == 0:
        return amount, unexplained, coverage
    offs = np.arange(max_w)
    idx = lo[:, None] + offs[None, :]
    valid = offs[None, :] < width[:, None]
    idxc = np.clip(idx, 0, n - 1)
    # Slice edges computed exactly as interval_slice_overlap does
    # (t0 + k*sd for integer k), so fractions carry the same bits.
    edge_lo = grid.t0 + idx * sd
    edge_hi = grid.t0 + (idx + 1) * sd
    frac = np.clip(
        (np.minimum(edge_hi, ends[:, None]) - np.maximum(edge_lo, starts[:, None])) / sd,
        0.0,
        1.0,
    )
    frac = np.where(valid, frac, 0.0)
    # The window's full consumption is distributed over its in-grid
    # slices.  A trailing monitoring window that extends past the run's
    # end dilutes its average with idle tail time, but all of the
    # consumption it reports happened inside the run — so the total, not
    # the in-grid duration, is what must be preserved.
    total = values * (ends - starts) / sd

    # Per-slice capacity and demand available within each window, scaled
    # by the fraction of the slice the window covers.
    capacity = np.array([d.capacity for d in rdemands], dtype=np.float64)
    cap = capacity[res][:, None] * frac
    exact_rows = np.stack([np.asarray(d.exact_total) for d in rdemands])
    var_rows = np.stack([np.asarray(d.variable_total) for d in rdemands])
    exact = np.minimum(exact_rows[res[:, None], idxc] * frac, cap)
    var_w = var_rows[res[:, None], idxc] * frac

    # Windows of equal width go through the three steps together, so every
    # row sum runs over exactly one window's slices — the same order and
    # pairwise association as distributing that window alone.
    alloc = np.zeros_like(frac)
    unexp = np.zeros_like(frac)
    for w in np.unique(width[width > 0]):
        rows = np.flatnonzero(width == w)
        alloc[rows, :w], unexp[rows, :w] = _distribute(
            total[rows], frac[rows, :w], cap[rows, :w], exact[rows, :w], var_w[rows, :w]
        )

    # Scatter back resource by resource, in window order — the same
    # per-slice accumulation order as a one-window-at-a-time loop.
    cells = (res[:, None] * n + idxc)[valid]
    np.add.at(amount.ravel(), cells, alloc[valid])
    np.add.at(unexplained.ravel(), cells, unexp[valid])
    np.add.at(coverage.ravel(), cells, frac[valid])
    return amount, unexplained, coverage


def _distribute(
    total: np.ndarray,
    frac: np.ndarray,
    cap: np.ndarray,
    exact: np.ndarray,
    var_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The three upsampling steps for windows of one width.

    ``total`` is each window's consumption in rate×slice units; the other
    arrays are ``(n_windows, width)``.  Returns ``(allocation,
    unexplained)`` in the same units.
    """
    # Step 1: satisfy exact demand proportionally.
    remaining = total.copy()
    exact_sum = exact.sum(axis=1)
    has_exact = exact_sum > _EPS
    full = has_exact & (remaining >= exact_sum)
    partial = has_exact & ~full
    scale = np.zeros(len(total))
    scale[full] = 1.0
    np.divide(remaining, exact_sum, out=scale, where=partial)
    alloc = exact * scale[:, None]
    remaining = np.where(full, remaining - exact_sum, remaining)
    remaining = np.where(partial, 0.0, remaining)

    # Step 2: water-fill the remainder over variable demand.
    filled = _water_fill_batch(remaining, var_w, cap - alloc)
    alloc = alloc + filled
    remaining = remaining - filled.sum(axis=1)

    # Step 3: unexplained residue, spread over the window's coverage —
    # uniformly per covered slice-fraction, still respecting capacity
    # first; when even capacity cannot absorb it (measurement above
    # capacity), spread uniformly and flag it all as unexplained.
    filled = _water_fill_batch(remaining, frac, cap - alloc)
    alloc = alloc + filled
    unexp = filled.copy()
    remaining = remaining - filled.sum(axis=1)
    overflow = remaining > _EPS
    cover = frac.sum(axis=1)
    spread = overflow & (cover > _EPS)
    if np.any(spread):
        extra = np.where(
            spread[:, None],
            remaining[:, None] * frac / np.where(cover > _EPS, cover, 1.0)[:, None],
            0.0,
        )
        alloc = alloc + extra
        unexp = unexp + extra
    return alloc, unexp


def upsample_constant(
    resource_trace: ResourceTrace,
    demand: DemandEstimate,
    grid: TimeGrid,
) -> UpsampledTrace:
    """Strawman upsampler: constant rate within each measurement window.

    This is the baseline the paper compares Grade10 against in Table II.
    """
    per_resource: dict[str, UpsampledResource] = {}
    for name in resource_trace.measured_resources():
        if name not in demand:
            continue
        rdemand = demand[name]
        amount = np.zeros(grid.n_slices)
        coverage = np.zeros(grid.n_slices)
        for m in resource_trace.measurements(name):
            lo, hi, frac = interval_slice_overlap(grid, m.t_start, m.t_end)
            if hi == lo:
                continue
            amount[lo:hi] += m.value * frac
            coverage[lo:hi] += frac
        rate = np.divide(amount, coverage, out=np.zeros_like(amount), where=coverage > _EPS)
        per_resource[name] = UpsampledResource(
            resource=name,
            capacity=rdemand.capacity,
            rate=rate,
            coverage=np.clip(coverage, 0.0, 1.0),
            unexplained=np.zeros(grid.n_slices),
        )
    return UpsampledTrace(grid=grid, per_resource=per_resource)


def relative_sampling_error(estimated: np.ndarray, ground_truth: np.ndarray) -> float:
    """Table II's error metric.

    The sum of absolute differences between the upsampled trace and the
    ground-truth trace, as a percentage of total resource consumption.
    Both arrays must be rates on the same grid.
    """
    estimated = np.asarray(estimated, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if estimated.shape != ground_truth.shape:
        raise ValueError(
            f"shape mismatch: estimated {estimated.shape} vs ground truth {ground_truth.shape}"
        )
    denom = ground_truth.sum()
    if denom <= _EPS:
        return 0.0 if np.abs(estimated).sum() <= _EPS else float("inf")
    return float(np.abs(estimated - ground_truth).sum() / denom * 100.0)
