"""Scalar reference implementations of the pipeline's batched kernels.

Each function here is the readable one-item-at-a-time form of a stage
that ``repro.core`` runs as a batched array kernel:

* :func:`iter_attributable_instances` and :func:`estimate_demand` — one
  phase instance at a time (``ExecutionTrace.attributable_instances`` and
  ``repro.core.demand.estimate_demand``, §III-D1);
* :func:`_upsample`, :func:`_upsample_window` and :func:`_water_fill` —
  one measurement window at a time (``repro.core.upsample.upsample``,
  §III-D2);
* :func:`_find_bottlenecks` — one attribution row at a time
  (``repro.core.bottlenecks.find_bottlenecks``, §III-E);
* :func:`_simulate_scalar` — one instance at a time in trace order
  (``ReplaySimulator.simulate``).

The kernels replicate these functions' operation order, so the tests
compare them with exact equality (``==`` / ``np.array_equal``), never
with a tolerance.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.attribution import AttributionResult
from repro.core.bottlenecks import Bottleneck, BottleneckKind, BottleneckReport
from repro.core.demand import DemandEntry, DemandEstimate, ResourceDemand
from repro.core.resources import ResourceModel
from repro.core.rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from repro.core.simulation import ReplaySimulator, SimulationResult
from repro.core.timeline import TimeGrid, interval_slice_overlap
from repro.core.traces import ExecutionTrace, PhaseInstance, ResourceTrace
from repro.core.upsample import UpsampledResource, UpsampledTrace

_EPS = 1e-12


# --------------------------------------------------------------------------
# Demand (§III-D1)
# --------------------------------------------------------------------------


def iter_attributable_instances(trace: ExecutionTrace, grid: TimeGrid):
    """Lazily yield ``(instance, active_fraction_per_slice)`` pairs.

    An instance is attributable during the parts of its lifetime when
    none of its children are active: inner phases' resource usage is the
    roll-up of their descendants, so attributing to both a parent and
    its running child would double-count.  Only pairs with strictly
    positive activity somewhere are yielded.

    Each instance's raw activity is rasterized exactly once (it is
    needed both at its own visit and — as a child — at its parent's
    visit) and evicted from the memo as soon as its last consumer has
    seen it, so the trace never holds more per-slice arrays than the
    deepest parent/child frontier requires.
    """
    instances = trace.instances()
    # An instance's raw activity is read at its own visit, plus once at
    # its parent's visit when it has one; parents precede children in
    # insertion order, so the parent's read always happens first.
    remaining = {
        inst.instance_id: (2 if inst.parent_id is not None else 1) for inst in instances
    }
    cache: dict[str, np.ndarray] = {}

    def consume(inst: PhaseInstance) -> np.ndarray:
        iid = inst.instance_id
        arr = cache.get(iid)
        if arr is None:
            arr = trace.activity_fraction(inst, grid)
        remaining[iid] -= 1
        if remaining[iid] > 0:
            cache[iid] = arr
        else:
            cache.pop(iid, None)
        return arr

    for inst in instances:
        frac = consume(inst)
        kids = trace.children_of(inst)
        if kids:
            child_activity = np.zeros(grid.n_slices)
            for kid in kids:
                child_activity += consume(kid)
            frac = np.clip(frac - child_activity, 0.0, 1.0)
        if np.any(frac > 0.0):
            yield inst, frac


def estimate_demand(
    trace: ExecutionTrace,
    resources: ResourceModel,
    rules: RuleMatrix,
    grid: TimeGrid,
) -> DemandEstimate:
    """Per-instance demand estimation (§III-D1).

    Instances stream through one at a time — per-resource totals
    accumulate in instance order without materializing the full
    attributable list up front.
    """
    consumable = resources.consumable
    per_resource: dict[str, ResourceDemand] = {
        name: ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=np.zeros(grid.n_slices),
            variable_total=np.zeros(grid.n_slices),
            entries=[],
        )
        for name, res in consumable.items()
    }
    for inst, activity in iter_attributable_instances(trace, grid):
        for name, res in consumable.items():
            rule = rules.rule_for(inst, name)
            if isinstance(rule, NoneRule):
                continue
            rdemand = per_resource[name]
            if isinstance(rule, ExactRule):
                magnitude = rule.proportion * res.capacity
                entry = DemandEntry(inst, True, magnitude, activity)
                rdemand.exact_total += entry.demand()
            elif isinstance(rule, VariableRule):
                entry = DemandEntry(inst, False, rule.weight, activity)
                rdemand.variable_total += entry.demand()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rule type {type(rule).__name__}")
            rdemand.entries.append(entry)
    for name, res in consumable.items():
        # Known demand can never exceed capacity: concurrent Exact phases
        # whose proportions sum past 100% contend for the same resource.
        np.minimum(
            per_resource[name].exact_total,
            res.capacity,
            out=per_resource[name].exact_total,
        )
    return DemandEstimate(grid=grid, per_resource=per_resource)


# --------------------------------------------------------------------------
# Upsampling (§III-D2)
# --------------------------------------------------------------------------


def _water_fill(amount: float, weights: np.ndarray, headroom: np.ndarray) -> np.ndarray:
    """Distribute ``amount`` proportionally to ``weights``, capped by ``headroom``.

    Classic water-filling: allocate proportionally; freeze slices that hit
    their cap; redistribute the excess among the rest.  Returns the
    allocation (same shape as ``weights``); any amount that exceeds the
    total headroom is *not* allocated (the caller decides what to do with
    the residue).
    """
    alloc = np.zeros_like(weights)
    if amount <= _EPS:
        return alloc
    active = (weights > _EPS) & (headroom > _EPS)
    remaining = amount
    # Each iteration saturates at least one slice, so this terminates in at
    # most n iterations; in practice 1-3.
    while remaining > _EPS and np.any(active):
        w_sum = weights[active].sum()
        if w_sum <= _EPS:
            break
        share = remaining * weights / w_sum
        share[~active] = 0.0
        room = headroom - alloc
        over = share > room
        take = np.where(over, room, share)
        take[~active] = 0.0
        alloc += take
        remaining -= take.sum()
        newly_capped = over & active
        if not np.any(newly_capped):
            break
        active &= ~newly_capped
    return alloc


def _upsample_window(
    demand: ResourceDemand,
    lo: int,
    frac: np.ndarray,
    total: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute one measurement window's total over slices ``lo .. lo+len(frac)``.

    ``total`` is in rate×slice units (window average rate × window length in
    slices).  Returns ``(allocation, unexplained)`` arrays over the covered
    slices, both in rate×slice units.
    """
    n = frac.size
    sl = slice(lo, lo + n)
    # Per-slice capacity and demand available within this window, scaled by
    # the fraction of the slice the window covers.
    cap = demand.capacity * frac
    exact = np.minimum(demand.exact_total[sl] * frac, cap)
    var_w = demand.variable_total[sl] * frac

    alloc = np.zeros(n)
    unexplained = np.zeros(n)
    remaining = total

    # Step 1: satisfy exact demand proportionally.
    exact_sum = exact.sum()
    if exact_sum > _EPS:
        if remaining >= exact_sum:
            alloc += exact
            remaining -= exact_sum
        else:
            alloc += exact * (remaining / exact_sum)
            remaining = 0.0

    # Step 2: water-fill the remainder over variable demand.
    if remaining > _EPS:
        filled = _water_fill(remaining, var_w, cap - alloc)
        alloc += filled
        remaining -= filled.sum()

    # Step 3: unexplained residue, spread over the window's coverage —
    # uniformly per covered slice-fraction, still respecting capacity first.
    if remaining > _EPS:
        headroom = cap - alloc
        filled = _water_fill(remaining, frac.astype(np.float64), headroom)
        alloc += filled
        unexplained += filled
        remaining -= filled.sum()
        if remaining > _EPS:
            # Even capacity cannot absorb it (measurement above capacity);
            # spread uniformly and flag it all as unexplained.
            cover = frac.sum()
            if cover > _EPS:
                extra = remaining * frac / cover
                alloc += extra
                unexplained += extra
    return alloc, unexplained


def _upsample(
    resource_trace: ResourceTrace,
    demand: DemandEstimate,
    grid: TimeGrid,
) -> UpsampledTrace:
    """Scalar reference implementation (one window at a time)."""
    per_resource: dict[str, UpsampledResource] = {}
    for name in resource_trace.measured_resources():
        if name not in demand:
            # Resource was monitored but is not in the resource model;
            # skip — there is no capacity or demand to guide upsampling.
            continue
        rdemand = demand[name]
        amount = np.zeros(grid.n_slices)
        unexplained = np.zeros(grid.n_slices)
        coverage = np.zeros(grid.n_slices)
        for m in resource_trace.measurements(name):
            lo, hi, frac = interval_slice_overlap(grid, m.t_start, m.t_end)
            if hi == lo:
                continue
            # The window's full consumption is distributed over its in-grid
            # slices.  A trailing monitoring window that extends past the
            # run's end dilutes its average with idle tail time, but all of
            # the consumption it reports happened inside the run — so the
            # total, not the in-grid duration, is what must be preserved.
            total = m.value * (m.t_end - m.t_start) / grid.slice_duration
            alloc, unexp = _upsample_window(rdemand, lo, frac, total)
            amount[lo:hi] += alloc
            unexplained[lo:hi] += unexp
            coverage[lo:hi] += frac
        rate = np.divide(amount, coverage, out=np.zeros_like(amount), where=coverage > _EPS)
        unexp_rate = np.divide(
            unexplained, coverage, out=np.zeros_like(unexplained), where=coverage > _EPS
        )
        per_resource[name] = UpsampledResource(
            resource=name,
            capacity=rdemand.capacity,
            rate=rate,
            coverage=np.clip(coverage, 0.0, 1.0),
            unexplained=unexp_rate,
        )
    return UpsampledTrace(grid=grid, per_resource=per_resource)


# --------------------------------------------------------------------------
# Bottlenecks (§III-E)
# --------------------------------------------------------------------------


def _find_bottlenecks(
    trace: ExecutionTrace,
    upsampled: UpsampledTrace,
    attribution: AttributionResult,
    *,
    saturation_threshold: float,
    exact_cap_threshold: float,
    min_duration: float,
) -> BottleneckReport:
    """Row-at-a-time reference of all three bottleneck detectors."""
    grid = upsampled.grid
    report = BottleneckReport(grid=grid)

    # --- Blocking bottlenecks: straight from the trace's blocking events. --
    for inst in trace.instances():
        per_resource: dict[str, float] = {}
        for ev in inst.blocking:
            per_resource[ev.resource] = per_resource.get(ev.resource, 0.0) + ev.duration
        for res, dur in per_resource.items():
            if dur >= max(min_duration, _EPS):
                report.bottlenecks.append(
                    Bottleneck(BottleneckKind.BLOCKING, inst.instance_id, inst.phase_path, res, dur)
                )

    # --- Saturation and exact-cap bottlenecks on consumable resources. ----
    for resource in upsampled.resources():
        if resource not in attribution:
            continue
        ra = attribution[resource]
        ur = upsampled[resource]
        saturated = ur.utilization >= saturation_threshold  # (n_slices,)

        for row, iid in enumerate(ra.instance_ids):
            inst_usage = ra.usage[row]
            inst_demand = ra.demand[row]
            active = inst_demand > _EPS
            phase_path = trace[iid].phase_path

            # Saturation: active while the resource is at full utilization.
            sat_mask = saturated & active
            sat_time = float(sat_mask.sum()) * grid.slice_duration
            if sat_time >= max(min_duration, grid.slice_duration / 2):
                report.bottlenecks.append(
                    Bottleneck(
                        BottleneckKind.SATURATION, iid, phase_path, resource, sat_time, sat_mask
                    )
                )

            # Exact cap: usage reaches the phase's exact demand while the
            # resource itself still has headroom.
            if ra.is_exact[row]:
                capped = active & (inst_usage >= exact_cap_threshold * inst_demand) & ~saturated
                cap_time = float(capped.sum()) * grid.slice_duration
                if cap_time >= max(min_duration, grid.slice_duration / 2):
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.EXACT_CAP, iid, phase_path, resource, cap_time, capped
                        )
                    )
    return report


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


def _simulate_scalar(
    sim: ReplaySimulator, durations: Mapping[str, float] | None
) -> SimulationResult:
    """Reference implementation: one instance at a time, in trace order."""
    start: dict[str, float] = {}
    end: dict[str, float] = {}
    for inst in sim._order:
        if inst.phase_path in sim._wait_paths:
            # Elastic wait phase: dependencies only, no duration — its
            # recorded length is a property of the schedule, not work.
            dur = 0.0
        else:
            dur = inst.duration
            if durations is not None:
                dur = durations.get(inst.instance_id, dur)
        s = 0.0
        for pid in sim._preds.get(inst.instance_id, ()):  # all leaves
            e = end.get(pid)
            if e is not None and e > s:
                s = e
        start[inst.instance_id] = s
        end[inst.instance_id] = s + max(dur, 0.0)
    return SimulationResult(start=start, end=end)
