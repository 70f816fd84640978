"""Performance-issue detection (paper §III-F).

For each candidate issue Grade10 determines how fixing it would change the
durations of a specific set of phases, replays the trace with the adjusted
durations (:mod:`repro.core.simulation`), and reports the difference between
the optimistic makespan and the baseline simulated makespan — an upper
bound on the achievable improvement.  Issues below a minimum improvement
threshold are suppressed.

Two issue classes are implemented, matching the paper:

* **Extensive resource bottlenecks** — for each resource, estimate how much
  shorter each bottlenecked phase could become *until another resource
  becomes the bottleneck*: a slice bottlenecked on resource ``r`` can only
  compress until the busiest other resource used by the phase saturates.
  Blocking-resource bottlenecks compress by the full blocked time.

* **Imbalanced execution** — sets of concurrent phases of the same type
  (same parent) are assumed to have interchangeable work; the what-if
  scenario gives every phase in the set the mean duration (total duration
  preserved) and replays.

Both run on arrays.  The bottleneck detector masks each resource's
utilization by every bottlenecked instance's demand once per call, then
reduces all of one resource's bottlenecks as one ``(bottlenecks,
slices)`` max and one packed row sum per distinct slice count.  Every
scenario — the baseline, each resource group and each imbalanced phase
type — replays in one :meth:`ReplaySimulator.simulate_many` pass.  The
one-bottleneck, one-scenario-at-a-time references live in
``tests/core/oracles.py``; the arrays equal them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .attribution import AttributionResult
from .bottlenecks import Bottleneck, BottleneckKind, BottleneckReport
from .phases import ExecutionModel
from .simulation import ReplaySimulator
from .timeline import _masked_row_sums
from .traces import ExecutionTrace
from .upsample import UpsampledTrace

__all__ = [
    "PerformanceIssue",
    "IssueReport",
    "detect_bottleneck_issues",
    "detect_imbalance_issues",
    "detect_issues",
    "DEFAULT_MIN_IMPROVEMENT",
]

#: Issues improving the makespan by less than this fraction are suppressed.
DEFAULT_MIN_IMPROVEMENT = 0.01
_EPS = 1e-12


@dataclass(frozen=True)
class PerformanceIssue:
    """One detected issue with its optimistic impact estimate.

    ``makespan_reduction`` is in seconds; ``improvement`` is the fractional
    reduction relative to the baseline simulated makespan.
    """

    kind: str
    subject: str
    description: str
    affected_instances: tuple[str, ...]
    baseline_makespan: float
    optimistic_makespan: float

    @property
    def makespan_reduction(self) -> float:
        return self.baseline_makespan - self.optimistic_makespan

    @property
    def improvement(self) -> float:
        if self.baseline_makespan <= _EPS:
            return 0.0
        return self.makespan_reduction / self.baseline_makespan


@dataclass
class IssueReport:
    """All performance issues detected in one run, sorted by impact."""

    baseline_makespan: float
    issues: list[PerformanceIssue] = field(default_factory=list)

    def __iter__(self):
        return iter(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def top(self, n: int = 10) -> list[PerformanceIssue]:
        """The ``n`` highest-impact issues, by absolute makespan reduction."""
        return sorted(self.issues, key=lambda i: i.makespan_reduction, reverse=True)[:n]

    def by_kind(self, kind: str) -> list[PerformanceIssue]:
        """Issues of one kind (``resource-bottleneck`` / ``imbalance``)."""
        return [i for i in self.issues if i.kind == kind]

    def by_subject(self, subject: str) -> list[PerformanceIssue]:
        """Issues about one subject (a resource name or phase path)."""
        return [i for i in self.issues if i.subject == subject]


def _bottleneck_reductions(
    resources: Iterable[str],
    trace: ExecutionTrace,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
) -> dict[str, dict[str, float]]:
    """Per resource, the per-instance duration reductions from removing its bottlenecks.

    For blocking resources, a phase recovers its full blocked time.  For
    consumable resources, each bottlenecked slice compresses until the
    busiest *other* resource the phase uses would saturate: a slice where
    another resource runs at utilization ``u`` can shrink to ``u`` of its
    width, recovering ``(1 - u) × slice_duration``.

    Each resource's utilization, masked by where each bottlenecked
    instance demands it, is built once; a resource's bottlenecks then take
    their next-busiest utilization as one ``(bottlenecks, slices)`` max
    and sum it over exactly their own slices, like a 1-D ``np.sum``.
    """
    sd = report.grid.slice_duration
    by_resource: dict[str, list[Bottleneck]] = {r: [] for r in resources}
    for b in report:
        if b.resource in by_resource:
            by_resource[b.resource].append(b)
    sliced = {
        r: [b for b in bs if b.kind != BottleneckKind.BLOCKING and b.slices is not None]
        for r, bs in by_resource.items()
    }
    iids = list(dict.fromkeys(b.instance_id for bs in sliced.values() for b in bs))
    row_of = {iid: k for k, iid in enumerate(iids)}
    # where(demand > eps, utilization, 0) per resource, one row per
    # bottlenecked instance (zeros where the instance has no demand row).
    masked: dict[str, np.ndarray] = {}
    if iids and attribution is not None:
        for other in upsampled.resources():
            if other not in attribution:
                continue
            rows = attribution.rows_of(iids, other)
            has = rows >= 0
            util = np.zeros((len(iids), report.grid.n_slices))
            util[has] = np.where(
                attribution[other].demand[rows[has]] > _EPS, upsampled[other].utilization, 0.0
            )
            masked[other] = util

    out: dict[str, dict[str, float]] = {}
    for resource, bottlenecks in by_resource.items():
        recovered: list[float] = []
        if sliced[resource]:
            ks = [row_of[b.instance_id] for b in sliced[resource]]
            next_util = np.zeros((len(ks), report.grid.n_slices))
            for other, util in masked.items():
                if other != resource:
                    np.maximum(next_util, util[ks], out=next_util)
            slices = np.stack([b.slices for b in sliced[resource]])
            remaining = 1.0 - np.minimum(next_util, 1.0)
            recovered = (_masked_row_sums(remaining, slices) * sd).tolist()
        reductions: dict[str, float] = {}
        consumable = iter(recovered)
        for b in bottlenecks:
            if b.kind == BottleneckKind.BLOCKING:
                red = b.duration
            elif b.slices is None:
                continue
            else:
                red = next(consumable)
                if not red > 0.0:
                    continue
            reductions[b.instance_id] = reductions.get(b.instance_id, 0.0) + red
        # A phase can never shrink below zero.
        out[resource] = {
            iid: min(red, trace[iid].duration) for iid, red in reductions.items()
        }
    return out


@dataclass
class _Scenario:
    """One what-if: duration overrides plus what to report about them."""

    kind: str
    subject: str
    what: str
    affected: tuple[str, ...]
    durations: dict[str, float]

    def issue(self, baseline: float, optimistic: float) -> PerformanceIssue:
        return PerformanceIssue(
            kind=self.kind,
            subject=self.subject,
            description=(
                f"{self.what} could reduce the makespan by {baseline - optimistic:.3f}s "
                f"({(baseline - optimistic) / max(baseline, _EPS):.1%})"
            ),
            affected_instances=self.affected,
            baseline_makespan=baseline,
            optimistic_makespan=optimistic,
        )


def _evaluate(
    sim: ReplaySimulator, scenarios: list[_Scenario], min_improvement: float
) -> IssueReport:
    """Replay the baseline and every scenario in one pass; keep the issues that matter."""
    baseline, *optimistic = sim.simulate_many(
        [None] + [s.durations for s in scenarios]
    ).tolist()
    issues = [s.issue(baseline, m) for s, m in zip(scenarios, optimistic)]
    return IssueReport(
        baseline_makespan=baseline,
        issues=[i for i in issues if i.improvement >= min_improvement],
    )


def _bottleneck_scenarios(
    trace: ExecutionTrace,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    resource_groups: dict[str, list[str]] | None,
) -> list[_Scenario]:
    if resource_groups is None:
        groups: dict[str, list[str]] = {r: [r] for r in sorted({b.resource for b in report})}
    else:
        groups = dict(resource_groups)
    per_resource = _bottleneck_reductions(
        (r for members in groups.values() for r in members),
        trace, report, upsampled, attribution,
    )
    scenarios = []
    for subject, members in groups.items():
        reductions: dict[str, float] = {}
        for resource in members:
            for iid, red in per_resource[resource].items():
                reductions[iid] = reductions.get(iid, 0.0) + red
        if not reductions:
            continue
        scenarios.append(
            _Scenario(
                kind="resource-bottleneck",
                subject=subject,
                what=f"Removing all bottlenecks on {subject!r}",
                affected=tuple(sorted(reductions)),
                durations={
                    iid: max(trace[iid].duration - red, 0.0) for iid, red in reductions.items()
                },
            )
        )
    return scenarios


def _imbalance_scenarios(
    trace: ExecutionTrace, model: ExecutionModel | None, min_group_size: int
) -> list[_Scenario]:
    # Collect candidate groups per phase type.
    groups_by_type: dict[str, list[list[str]]] = {}
    for (parent_id, phase_path), insts in trace.concurrent_groups().items():
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

    scenarios = []
    parents = {inst.parent_id for inst in trace.instances()}
    for phase_path, groups in sorted(groups_by_type.items()):
        durations: dict[str, float] = {}
        affected: list[str] = []
        for group in groups:
            mean = float(np.mean([trace[iid].duration for iid in group]))
            for iid in group:
                inst = trace[iid]
                if iid not in parents:
                    durations[iid] = mean
                else:
                    # Inner instance (e.g. a per-worker Compute wrapping its
                    # threads): equalize by scaling every leaf descendant —
                    # "perfectly balanced" across workers while leaf totals
                    # shrink/grow proportionally.
                    scale = mean / inst.duration if inst.duration > 0 else 1.0
                    for desc in trace.descendants_of(inst):
                        if desc.instance_id not in parents:
                            durations[desc.instance_id] = desc.duration * scale
                affected.append(iid)
        scenarios.append(
            _Scenario(
                kind="imbalance",
                subject=phase_path,
                what=(
                    f"Perfectly balancing {len(affected)} {phase_path!r} phases across "
                    f"{len(groups)} group(s)"
                ),
                affected=tuple(affected),
                durations=durations,
            )
        )
    return scenarios


def detect_bottleneck_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None = None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
    simulator: ReplaySimulator | None = None,
    resource_groups: dict[str, list[str]] | None = None,
) -> IssueReport:
    """Estimate the impact of removing all bottlenecks on each resource.

    ``resource_groups`` evaluates named groups of resources jointly instead
    of single resources — e.g. ``{"compute": ["cpu@m0", "cpu@m1", ...]}``
    simulates eliminating *all* CPU bottlenecks cluster-wide, which is how
    Figure 4 reports bottleneck impact per resource class.
    """
    sim = simulator or ReplaySimulator(trace, model)
    scenarios = _bottleneck_scenarios(trace, report, upsampled, attribution, resource_groups)
    return _evaluate(sim, scenarios, min_improvement)


def detect_imbalance_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
    min_group_size: int = 2,
    simulator: ReplaySimulator | None = None,
) -> IssueReport:
    """Estimate the impact of perfectly balancing concurrent same-type phases.

    Groups are (parent instance, phase type) sets; only groups whose phase
    type is marked ``concurrent`` in the model (or any group when no model
    is given) are considered, and only work within one group is treated as
    interchangeable — e.g. compute phases of one superstep, never across
    supersteps.  Issues are reported per phase *type*, rebalancing all of
    that type's groups at once, which is how Figure 5 aggregates them.
    """
    sim = simulator or ReplaySimulator(trace, model)
    return _evaluate(sim, _imbalance_scenarios(trace, model, min_group_size), min_improvement)


def detect_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None = None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
) -> IssueReport:
    """Run all issue detectors and merge their reports.

    The baseline and every scenario of both detectors replay in one
    :meth:`ReplaySimulator.simulate_many` pass.
    """
    scenarios = _bottleneck_scenarios(trace, report, upsampled, attribution, None)
    scenarios += _imbalance_scenarios(trace, model, 2)
    return _evaluate(ReplaySimulator(trace, model), scenarios, min_improvement)
