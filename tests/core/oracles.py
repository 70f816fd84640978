"""Scalar reference implementations of the pipeline's batched kernels.

Each function here is the readable one-item-at-a-time form of a stage
that ``repro.core`` runs as a batched array kernel:

* :func:`rule_for` — one instance and one resource at a time, entry by
  entry (``RuleMatrix.rule_table``, which resolves the table by parts,
  §III-D1);
* :func:`iter_attributable_instances` and :func:`estimate_demand` — one
  phase instance at a time, one :class:`DemandEntry` per instance and
  resource (``ExecutionTrace.attributable_instances`` and
  ``repro.core.demand.estimate_demand``, §III-D1);
* :func:`_upsample`, :func:`_upsample_window` and :func:`_water_fill` —
  one measurement window at a time (``repro.core.upsample.upsample``,
  §III-D2);
* :func:`_find_bottlenecks` — one attribution row at a time
  (``repro.core.bottlenecks.find_bottlenecks``, §III-E);
* :func:`_bottleneck_reductions` and :func:`detect_issues` — one
  bottleneck, one scenario and one replay at a time
  (``repro.core.issues``, §III-F);
* :func:`bottleneck_scenarios` and :func:`imbalance_scenarios` — each
  what-if as a dict of duration overrides, built one bottleneck and one
  group member at a time from ``concurrent_groups`` and
  ``descendants_of`` (the rows of ``repro.core.issues``' scenario
  matrix, §III-F);
* :func:`find_outliers` — one concurrent group and one worker at a time,
  with ``statistics.median`` (``repro.core.outliers.find_outliers``,
  §IV-D);
* :func:`build_dependencies` and :class:`ScalarReplay` — the replay graph
  as per-leaf id sets, replayed one instance at a time in trace order
  (``ReplaySimulator``, its ``simulate``/``simulate_many`` and the
  predecessor lists ``critical_path`` walks);
* :func:`jsonl_events` and :func:`jsonl_text` — the archive's event log
  one line and one event at a time, with ``json.loads`` and
  ``json.dumps`` (``repro.systems.logging.JsonlStream`` and
  ``write_jsonl``).

The kernels replicate these functions' operation order, so the tests
compare them with exact equality (``==`` / ``np.array_equal``), never
with a tolerance.
"""

from __future__ import annotations

import fnmatch
import json
import weakref
from dataclasses import dataclass
from statistics import median
from typing import Mapping

import numpy as np

from repro.core.attribution import AttributionResult
from repro.core.bottlenecks import Bottleneck, BottleneckKind, BottleneckReport
from repro.core.demand import DemandEstimate, ResourceDemand
from repro.core.issues import IssueReport, PerformanceIssue
from repro.core.outliers import OutlierGroup, OutlierPhase, OutlierReport
from repro.core.phases import ExecutionModel
from repro.core.resources import ResourceModel
from repro.core.rules import ExactRule, NoneRule, Rule, RuleMatrix, VariableRule
from repro.core.simulation import ReplaySimulator, SimulationResult
from repro.core.timeline import TimeGrid, interval_slice_overlap
from repro.core.traces import ExecutionTrace, PhaseInstance, ResourceTrace
from repro.core.upsample import UpsampledResource, UpsampledTrace

_EPS = 1e-12


# --------------------------------------------------------------------------
# Rules and demand (§III-D1)
# --------------------------------------------------------------------------


def rule_for(rules: RuleMatrix, instance: PhaseInstance, resource_name: str) -> Rule:
    """The rule applying to ``instance`` on ``resource_name``, entry by entry.

    The last matching entry wins; with no match, the implicit rule
    applies.
    """
    attrs = {
        "machine": instance.machine or "*",
        "worker": instance.worker or "*",
        "thread": instance.thread or "*",
    }
    chosen = rules.implicit_rule
    for entry in rules._entries:
        if not fnmatch.fnmatchcase(instance.phase_path, entry.phase_path):
            continue
        try:
            pattern = entry.resource_pattern.format(**attrs)
        except (KeyError, IndexError):
            raise ValueError(
                f"unknown placeholder in resource pattern {entry.resource_pattern!r}"
            ) from None
        if fnmatch.fnmatchcase(resource_name, pattern):
            chosen = entry.rule
    return chosen


@dataclass(frozen=True)
class DemandEntry:
    """One attributable phase instance's demand on one resource.

    ``activity`` is the per-slice active fraction (in ``[0, 1]``);
    for Exact rules ``magnitude`` is the absolute demand rate
    (``proportion × capacity``), for Variable rules it is the relative
    weight.
    """

    instance: PhaseInstance
    is_exact: bool
    magnitude: float
    activity: np.ndarray

    def demand(self) -> np.ndarray:
        """Per-slice demand (absolute units for exact, weight for variable)."""
        return self.magnitude * self.activity


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

    Instances stream through one at a time — each (instance, resource)
    pair with a rule becomes one :class:`DemandEntry`, and per-resource
    totals accumulate in instance order with ``+=``.  The entries are
    then packed into the arrays :class:`ResourceDemand` carries.
    """
    consumable = resources.consumable
    entries: dict[str, list[DemandEntry]] = {name: [] for name in consumable}
    totals = {
        name: (np.zeros(grid.n_slices), np.zeros(grid.n_slices)) for name in consumable
    }
    for inst, activity in iter_attributable_instances(trace, grid):
        for name, res in consumable.items():
            rule = rule_for(rules, inst, name)
            if isinstance(rule, NoneRule):
                continue
            exact_total, variable_total = totals[name]
            if isinstance(rule, ExactRule):
                magnitude = rule.proportion * res.capacity
                entry = DemandEntry(inst, True, magnitude, activity)
                exact_total += entry.demand()
            elif isinstance(rule, VariableRule):
                entry = DemandEntry(inst, False, rule.weight, activity)
                variable_total += entry.demand()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rule type {type(rule).__name__}")
            entries[name].append(entry)
    per_resource: dict[str, ResourceDemand] = {}
    for name, res in consumable.items():
        exact_total, variable_total = totals[name]
        # Known demand can never exceed capacity: concurrent Exact phases
        # whose proportions sum past 100% contend for the same resource.
        np.minimum(exact_total, res.capacity, out=exact_total)
        es = entries[name]
        per_resource[name] = ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=exact_total,
            variable_total=variable_total,
            instance_ids=[e.instance.instance_id for e in es],
            magnitude=np.array([e.magnitude for e in es], dtype=np.float64),
            is_exact=np.array([e.is_exact for e in es], dtype=bool),
            demand=(
                np.stack([e.demand() for e in es]) if es else np.zeros((0, grid.n_slices))
            ),
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
# Replay (§III-F)
# --------------------------------------------------------------------------


def _sibling_predecessor_types(
    model: ExecutionModel | None, parent_path: str | None, phase_path: str
) -> set[str]:
    """Phase-type paths that must fully precede ``phase_path`` (same parent)."""
    if model is None:
        return set()
    name = phase_path.rsplit("/", 1)[-1]
    if parent_path is None:
        node = model.root
        prefix = ""
    else:
        try:
            node = model[parent_path]
        except KeyError:
            return set()
        prefix = parent_path
    return {f"{prefix}/{pred}" for pred, succs in node.successors.items() if name in succs}


def build_dependencies(
    trace: ExecutionTrace, model: ExecutionModel | None
) -> tuple[list[PhaseInstance], dict[str, list[str]]]:
    """Dict-based reference of the replay dependency graph.

    Returns the leaves in replay order and, per leaf, the id-sorted ids of
    all its predecessor leaves — unfiltered, so including predecessors
    that come later in the replay order.
    """
    leaf_cache: dict[str, list[PhaseInstance]] = {}

    def leaf_descendants(inst: PhaseInstance) -> list[PhaseInstance]:
        cached = leaf_cache.get(inst.instance_id)
        if cached is None:
            if not trace.children_of(inst):
                cached = [inst]
            else:
                cached = [d for d in trace.descendants_of(inst) if not trace.children_of(d)]
            leaf_cache[inst.instance_id] = cached
        return cached

    leaves = [i for i in trace.instances() if not trace.children_of(i)]
    leaves.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))

    by_parent: dict[str | None, list[PhaseInstance]] = {}
    for inst in trace.instances():
        by_parent.setdefault(inst.parent_id, []).append(inst)

    deps: dict[str, set[str]] = {i.instance_id: set() for i in leaves}

    for parent_id, group in by_parent.items():
        parent_path = None if parent_id is None else trace[parent_id].phase_path
        by_type: dict[str, list[PhaseInstance]] = {}
        for inst in group:
            by_type.setdefault(inst.phase_path, []).append(inst)
        for insts in by_type.values():
            insts.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))

        for phase_path, insts in by_type.items():
            pred_types = _sibling_predecessor_types(model, parent_path, phase_path)
            pred_instances = [p for t in pred_types for p in by_type.get(t, [])]
            last_on_key: dict[tuple[str | None, str | None, str | None], PhaseInstance] = {}
            for inst in insts:
                if inst.machine is not None:
                    local = [p for p in pred_instances if p.machine == inst.machine]
                    effective_preds = local if local else pred_instances
                else:
                    effective_preds = pred_instances
                pred_leaf_ids = [
                    leaf.instance_id for p in effective_preds for leaf in leaf_descendants(p)
                ]
                key = (inst.machine, inst.worker, inst.thread)
                prev = last_on_key.get(key)
                if prev is not None:
                    pred_leaf_ids.extend(leaf.instance_id for leaf in leaf_descendants(prev))
                last_on_key[key] = inst
                if not pred_leaf_ids:
                    continue
                for leaf in leaf_descendants(inst):
                    deps[leaf.instance_id].update(pred_leaf_ids)

    last_leaf_on_thread: dict[tuple[str, str | None, str], PhaseInstance] = {}
    for inst in leaves:
        if inst.thread is None or inst.machine is None:
            continue
        key = (inst.machine, inst.worker, inst.thread)
        prev = last_leaf_on_thread.get(key)
        if prev is not None:
            deps[inst.instance_id].add(prev.instance_id)
        last_leaf_on_thread[key] = inst

    by_id = {i.instance_id: i for i in trace.instances()}
    for inst in trace.instances():
        if not inst.depends_on:
            continue
        pred_leaf_ids = [
            leaf.instance_id
            for pid in inst.depends_on
            if pid in by_id
            for leaf in leaf_descendants(by_id[pid])
        ]
        if not pred_leaf_ids:
            continue
        for leaf in leaf_descendants(inst):
            deps[leaf.instance_id].update(pred_leaf_ids)

    return leaves, {iid: sorted(s) for iid, s in deps.items()}


class ScalarReplay:
    """The replay simulator one instance at a time, on the dict-based graph."""

    def __init__(self, trace: ExecutionTrace, model: ExecutionModel | None) -> None:
        self.trace = trace
        self.order, self.preds = build_dependencies(trace, model)
        self.wait_paths = (
            set() if model is None else {path for path, node in model.root.walk() if node.wait}
        )

    def forward_edges(self) -> set[tuple[int, int]]:
        """``(pred, succ)`` replay-order positions of the edges a replay keeps."""
        pos = {inst.instance_id: k for k, inst in enumerate(self.order)}
        return {
            (pos[pid], k)
            for k, inst in enumerate(self.order)
            for pid in self.preds[inst.instance_id]
            if pos[pid] < k
        }

    def simulate(self, durations: Mapping[str, float] | None = None) -> SimulationResult:
        """Reference replay: one instance at a time, in trace order."""
        start: dict[str, float] = {}
        end: dict[str, float] = {}
        for inst in self.order:
            if inst.phase_path in self.wait_paths:
                # Elastic wait phase: dependencies only, no duration — its
                # recorded length is a property of the schedule, not work.
                dur = 0.0
            else:
                dur = inst.duration
                if durations is not None:
                    dur = durations.get(inst.instance_id, dur)
            s = 0.0
            for pid in self.preds.get(inst.instance_id, ()):  # all leaves
                e = end.get(pid)
                if e is not None and e > s:
                    s = e
            start[inst.instance_id] = s
            end[inst.instance_id] = s + max(dur, 0.0)
        return SimulationResult(start=start, end=end)

    def critical_path(self) -> list[str]:
        """Ids of the critical path, walked back from the last-finishing leaf."""
        schedule = self.simulate(None)
        if not schedule.end:
            return []
        current: str | None = max(schedule.end, key=lambda iid: (schedule.end[iid], iid))
        path: list[str] = []
        visited: set[str] = set()
        while current is not None and current not in visited:
            visited.add(current)
            inst = self.trace[current]
            if inst.phase_path not in self.wait_paths and inst.duration > _EPS:
                path.append(current)
            start = schedule.start[current]
            binding: str | None = None
            for pid in self.preds.get(current, ()):
                end = schedule.end.get(pid)
                if end is not None and abs(end - start) <= 1e-9 and start > _EPS:
                    if binding is None or schedule.end[pid] > schedule.end[binding]:
                        binding = pid
            current = binding
        path.reverse()
        return path


_REPLAYS: "weakref.WeakKeyDictionary[ReplaySimulator, ScalarReplay]" = weakref.WeakKeyDictionary()


def scalar_replay(sim: ReplaySimulator) -> ScalarReplay:
    """The :class:`ScalarReplay` of ``sim``'s trace and model (built once per ``sim``)."""
    replay = _REPLAYS.get(sim)
    if replay is None:
        replay = _REPLAYS[sim] = ScalarReplay(sim.trace, sim.model)
    return replay


def _simulate_scalar(
    sim: ReplaySimulator, durations: Mapping[str, float] | None
) -> SimulationResult:
    """Reference replay of ``sim``'s trace, on the oracle's own graph."""
    return scalar_replay(sim).simulate(durations)


# --------------------------------------------------------------------------
# Issues (§III-F)
# --------------------------------------------------------------------------


def _bottleneck_reductions(
    resource: str,
    trace: ExecutionTrace,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
) -> dict[str, float]:
    """Per-instance duration reductions from removing bottlenecks on ``resource``.

    One bottleneck at a time: a blocking bottleneck recovers its blocked
    time; a consumable one recovers ``(1 - u) × slice_duration`` per
    bottlenecked slice, where ``u`` is the busiest *other* resource the
    instance uses in that slice.
    """
    grid = report.grid
    reductions: dict[str, float] = {}
    for b in report.for_resource(resource):
        if b.kind == BottleneckKind.BLOCKING:
            reductions[b.instance_id] = reductions.get(b.instance_id, 0.0) + b.duration
            continue
        if b.slices is None:
            continue
        next_util = np.zeros(grid.n_slices)
        if attribution is not None:
            for other in upsampled.resources():
                if other == resource or other not in attribution:
                    continue
                dem = attribution.demand_of(b.instance_id, other)
                used = dem > _EPS
                if not np.any(used):
                    continue
                util = upsampled[other].utilization
                np.maximum(next_util, np.where(used, util, 0.0), out=next_util)
        recovered = float(np.sum((1.0 - np.minimum(next_util[b.slices], 1.0)))) * grid.slice_duration
        if recovered > 0.0:
            reductions[b.instance_id] = reductions.get(b.instance_id, 0.0) + recovered
    for iid, red in list(reductions.items()):
        reductions[iid] = min(red, trace[iid].duration)
    return reductions


def _issue(kind, subject, what, affected, baseline, optimistic) -> PerformanceIssue:
    return PerformanceIssue(
        kind=kind,
        subject=subject,
        description=(
            f"{what} could reduce the makespan by {baseline - optimistic:.3f}s "
            f"({(baseline - optimistic) / max(baseline, _EPS):.1%})"
        ),
        affected_instances=tuple(affected),
        baseline_makespan=baseline,
        optimistic_makespan=optimistic,
    )


def detect_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    *,
    min_improvement: float,
    min_group_size: int = 2,
) -> IssueReport:
    """Both §III-F detectors, one scenario and one scalar replay at a time."""
    replay = ScalarReplay(trace, model)
    baseline = replay.simulate(None).makespan
    issues: list[PerformanceIssue] = []
    for resource, affected, durations in bottleneck_scenarios(
        trace, report, upsampled, attribution
    ):
        optimistic = replay.simulate(durations).makespan
        issues.append(
            _issue(
                "resource-bottleneck", resource, f"Removing all bottlenecks on {resource!r}",
                affected, baseline, optimistic,
            )
        )
    for phase_path, affected, n_groups, durations in imbalance_scenarios(
        trace, model, min_group_size
    ):
        optimistic = replay.simulate(durations).makespan
        issues.append(
            _issue(
                "imbalance", phase_path,
                f"Perfectly balancing {len(affected)} {phase_path!r} phases across "
                f"{n_groups} group(s)",
                affected, baseline, optimistic,
            )
        )
    return IssueReport(
        baseline_makespan=baseline,
        issues=[i for i in issues if i.improvement >= min_improvement],
    )


def bottleneck_scenarios(
    trace: ExecutionTrace,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    resource_groups: dict[str, list[str]] | None = None,
) -> list[tuple[str, tuple[str, ...], dict[str, float]]]:
    """``(subject, affected, overrides)`` of each resource-bottleneck what-if.

    A group's reduction of an instance sums its members' reductions in
    member order; the instance's override is its duration minus that sum,
    at least 0.
    """
    if resource_groups is None:
        resource_groups = {r: [r] for r in sorted({b.resource for b in report})}
    per_resource = {
        r: _bottleneck_reductions(r, trace, report, upsampled, attribution)
        for members in resource_groups.values()
        for r in members
    }
    out = []
    for subject, members in resource_groups.items():
        reductions: dict[str, float] = {}
        for resource in members:
            for iid, red in per_resource[resource].items():
                reductions[iid] = reductions.get(iid, 0.0) + red
        if not reductions:
            continue
        durations = {iid: max(trace[iid].duration - red, 0.0) for iid, red in reductions.items()}
        out.append((subject, tuple(sorted(reductions)), durations))
    return out


def imbalance_scenarios(
    trace: ExecutionTrace, model: ExecutionModel | None, min_group_size: int = 2
) -> list[tuple[str, tuple[str, ...], int, dict[str, float]]]:
    """``(phase_path, affected, n_groups, overrides)`` of each imbalance what-if.

    Per balanceable phase type, every group gets its mean duration: a leaf
    member directly, an inner member by scaling each leaf descendant by
    ``mean / duration`` (1.0 for a zero-length member).
    """
    groups_by_type: dict[str, list[list[str]]] = {}
    for (_, phase_path), insts in trace.concurrent_groups().items():
        if len(insts) < min_group_size:
            continue
        if model is not None:
            try:
                node = model[phase_path]
            except KeyError:
                continue
            if not node.concurrent or not node.balanceable:
                continue
        groups_by_type.setdefault(phase_path, []).append([i.instance_id for i in insts])
    out = []
    for phase_path, groups in sorted(groups_by_type.items()):
        durations: dict[str, float] = {}
        affected: list[str] = []
        for group in groups:
            mean = float(np.mean([trace[iid].duration for iid in group]))
            for iid in group:
                inst = trace[iid]
                if not trace.children_of(inst):
                    durations[iid] = mean
                else:
                    scale = mean / inst.duration if inst.duration > 0 else 1.0
                    for desc in trace.descendants_of(inst):
                        if not trace.children_of(desc):
                            durations[desc.instance_id] = desc.duration * scale
                affected.append(iid)
        out.append((phase_path, tuple(affected), len(groups), durations))
    return out


# --------------------------------------------------------------------------
# Outliers (§IV-D)
# --------------------------------------------------------------------------


def find_outliers(
    trace: ExecutionTrace,
    model: ExecutionModel | None = None,
    *,
    threshold: float = 1.5,
    min_phase_duration: float = 0.05,
    min_group_size: int = 3,
) -> OutlierReport:
    """Straggler detection one concurrent group and one worker at a time."""
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    report = OutlierReport(min_phase_duration=min_phase_duration)
    for (parent_id, phase_path), insts in sorted(
        trace.concurrent_groups().items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
    ):
        if len(insts) < min_group_size:
            continue
        if model is not None:
            try:
                if not model[phase_path].concurrent:
                    continue
            except KeyError:
                continue

        # Per-worker medians: the paper distinguishes cross-worker imbalance
        # (poor partitioning) from same-worker outliers (the sync bug); the
        # outlier test is against same-worker peers.
        by_worker: dict[tuple[str | None, str | None], list[PhaseInstance]] = {}
        for inst in insts:
            by_worker.setdefault((inst.machine, inst.worker), []).append(inst)

        outliers: list[OutlierPhase] = []
        for peers in by_worker.values():
            if len(peers) < min_group_size:
                continue
            med = median(p.duration for p in peers)
            if med <= 0.0:
                continue
            for inst in peers:
                if inst.duration > threshold * med:
                    outliers.append(OutlierPhase(inst.instance_id, inst.duration, med))

        outlier_ids = {o.instance_id for o in outliers}
        longest = max(i.duration for i in insts)
        non_outliers = [i.duration for i in insts if i.instance_id not in outlier_ids]
        longest_wo = max(non_outliers) if non_outliers else longest
        report.groups.append(
            OutlierGroup(
                phase_path=phase_path,
                parent_id=parent_id,
                n_phases=len(insts),
                longest=longest,
                longest_without_outliers=longest_wo,
                outliers=sorted(outliers, key=lambda o: o.factor, reverse=True),
            )
        )
    return report


# --------------------------------------------------------------------------
# Archive event log (JSONL)
# --------------------------------------------------------------------------


def jsonl_events(text: str) -> tuple[list, str | None]:
    """Events of a whole JSONL text, one ``json.loads`` per stripped line.

    Returns the events decoded before the first malformed terminated line
    and that line's error message (``None`` when there is none).  An
    unterminated last line is kept only if it parses.
    """
    *lines, tail = text.split("\n")
    events = []
    for line in lines:
        line = line.strip()
        if line:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                return events, str(exc)
    tail = tail.strip()
    if tail:
        try:
            events.append(json.loads(tail))
        except json.JSONDecodeError:
            pass
    return events, None


def jsonl_text(events) -> str:
    """The JSONL text of ``events``: one ``json.dumps`` per event."""
    return "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in events)
