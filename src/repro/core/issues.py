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

Both run on arrays and read the trace through the replay graph's
(parent, phase type) group index (``traces._GroupIndex``): its groups
and each instance's leaf descendants.  Every what-if is one row of a
``(K, n_leaves)`` duration matrix in replay order:

* a resource bottleneck row shortens each bottlenecked leaf; the
  next-busiest utilization of a bottleneck is one max over its
  instance's rows for the other resources it demands, and the slice
  masks are one matrix
  (:meth:`~repro.core.bottlenecks.BottleneckReport.slice_masks`);
* an imbalance row gives each group's leaf members the group mean,
  summed one size class at a time as ``np.mean`` sums each group, and
  scales an inner member's leaves through the leaf CSR.

The baseline and every row replay in one
:meth:`ReplaySimulator.makespans` pass.  The one-bottleneck,
one-group-member and one-scenario-at-a-time references live in
``tests/core/oracles.py``; the arrays equal them bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .attribution import AttributionResult
from .bottlenecks import BottleneckKind, BottleneckReport
from .phases import ExecutionModel
from .simulation import ReplaySimulator, _distinct, _ranges
from .timeline import _masked_row_sums
from .traces import ExecutionTrace, _GroupIndex, _runs
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
    index: _GroupIndex,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Per resource, the per-instance duration reductions from removing its bottlenecks.

    For blocking resources, a phase recovers its full blocked time.  For
    consumable resources, each bottlenecked slice compresses until the
    busiest *other* resource the phase uses would saturate: a slice where
    another resource runs at utilization ``u`` can shrink to ``u`` of its
    width, recovering ``(1 - u) × slice_duration``.

    Returns ``(names, resource, instance, reduction)``: removing every
    bottleneck on ``names[resource[e]]`` shortens instance
    ``instance[e]`` (a position in ``index.columns``) by ``reduction[e]``
    seconds, at most its duration.  Entries run by resource, then by
    each instance's first bottleneck on it in report order.

    Each bottlenecked instance's utilization of every resource it
    demands (zero where it does not) is one row; a bottleneck's
    next-busiest utilization is one max over its instance's rows for
    the other resources.  The reductions sum over exactly each
    bottleneck's slices (rows of :meth:`BottleneckReport.slice_masks`),
    like a 1-D ``np.sum``, and ``np.add.at`` adds one instance's
    reductions in report order.
    """
    names = list(dict.fromkeys(resources))
    code = dict(zip(names, range(len(names))))
    sd = report.grid.slice_duration
    bs = report.bottlenecks
    blocking_kind = BottleneckKind.BLOCKING
    res = np.array([code.get(b.resource, -1) for b in bs], dtype=np.int64)
    blocking = np.array([b.kind == blocking_kind for b in bs], dtype=bool)
    sliced = np.array([b.slices is not None for b in bs], dtype=bool)
    red = np.array([b.duration for b in bs], dtype=np.float64)
    record = (res >= 0) & blocking

    consumable = np.flatnonzero((res >= 0) & ~blocking & sliced)
    if consumable.size:
        masks = report.slice_masks()[1][np.cumsum(sliced)[consumable] - 1]
        # A slice no other demanded resource runs in compresses fully:
        # such a bottleneck recovers its slice count (an exact sum of ones).
        recovered = np.count_nonzero(masks, axis=1).astype(np.float64)
        iids = [bs[k].instance_id for k in consumable.tolist()]
        distinct = dict.fromkeys(iids)
        row = dict(zip(distinct, range(len(distinct))))
        k_of = np.fromiter(map(row.__getitem__, iids), np.int64, len(iids))
        own = res[consumable]
        # One row per (instance, resource it demands), grouped by instance:
        # each resource's attribution rows of bottlenecked instances.
        pair_k, pair_res, util = [], [], []
        if attribution is not None:
            for other in upsampled.resources():
                if other not in attribution:
                    continue
                ra = attribution[other]
                ks = np.fromiter(
                    map(row.get, ra.instance_ids, itertools.repeat(-1)),
                    np.int64,
                    len(ra.instance_ids),
                )
                has = np.flatnonzero(ks >= 0)
                pair_k.append(ks[has])
                pair_res.append(np.full(has.size, code.get(other, -1)))
                util.append(
                    np.where(ra.demand[has] > _EPS, upsampled[other].utilization, 0.0)
                )
        if pair_k:
            pair_k = np.concatenate(pair_k)
            by_k = np.argsort(pair_k, kind="stable")
            pair_res = np.concatenate(pair_res)[by_k]
            util = np.concatenate(util)[by_k]
            ptr = np.searchsorted(pair_k[by_k], np.arange(len(distinct) + 1))
            # Each bottleneck's rows of other resources, and their max.
            counts = ptr[k_of + 1] - ptr[k_of]
            pair = _ranges(ptr[k_of], counts)
            entry = np.repeat(np.arange(consumable.size), counts)
            other = pair_res[pair] != own[entry]
            pair, entry = pair[other], entry[other]
            if pair.size:
                starts = np.flatnonzero(~_runs(entry))
                at = entry[starts]
                next_util = np.maximum(np.maximum.reduceat(util[pair], starts, axis=0), 0.0)
                remaining = 1.0 - np.minimum(next_util, 1.0)
                recovered[at] = _masked_row_sums(remaining, masks[at])
        recovered *= sd
        red[consumable] = recovered
        record[consumable] = recovered > 0.0

    entries = np.flatnonzero(record)
    position = index.columns.position
    inst = np.fromiter(
        (position[bs[e].instance_id] for e in entries.tolist()), np.int64, entries.size
    )
    n = len(index.columns)
    key = res[entries] * n + inst
    by_key = np.argsort(key, kind="stable")
    head = ~_runs(key[by_key])
    total = np.zeros(int(head.sum()))
    np.add.at(total, np.cumsum(head) - 1, red[entries][by_key])
    first = by_key[head]  # each (resource, instance)'s first entry
    order = np.lexsort((first, res[entries][first]))
    inst = inst[first][order]
    return (
        names,
        res[entries][first][order],
        inst,
        np.minimum(total[order], index.duration[inst]),
    )


@dataclass
class _Scenario:
    """One what-if: what to report about one row of the scenario matrix."""

    kind: str
    subject: str
    what: str
    affected: tuple[str, ...]

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
    sim: ReplaySimulator,
    scenarios: list[_Scenario],
    durations: np.ndarray,
    min_improvement: float,
) -> IssueReport:
    """Replay the baseline and every scenario row in one pass; keep the issues that matter."""
    baseline, *optimistic = sim.makespans(
        np.concatenate((sim.base_durations[None, :], durations))
    ).tolist()
    issues = [s.issue(baseline, m) for s, m in zip(scenarios, optimistic)]
    return IssueReport(
        baseline_makespan=baseline,
        issues=[i for i in issues if i.improvement >= min_improvement],
    )


def _bottleneck_scenarios(
    sim: ReplaySimulator,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    resource_groups: dict[str, list[str]] | None,
) -> tuple[list[_Scenario], np.ndarray]:
    """One scenario per resource (group) with bottlenecks, and its duration rows.

    A group's reduction of an instance is the sum of its members'
    reductions, in member order; the instance replays at its duration
    minus that sum (at least 0).  Only leaves replay, so a bottleneck on
    an inner instance is listed as affected but moves no leaf.
    """
    index = sim._index
    if resource_groups is None:
        groups: dict[str, list[str]] = {r: [r] for r in sorted({b.resource for b in report})}
    else:
        groups = dict(resource_groups)
    names, res, inst, red = _bottleneck_reductions(
        (r for members in groups.values() for r in members),
        index, report, upsampled, attribution,
    )
    # Each group's entries, member by member; a group without any is
    # left out.
    bounds = np.searchsorted(res, np.arange(len(names) + 1)).tolist()
    code = dict(zip(names, range(len(names))))
    subjects: list[str] = []
    span_subject: list[int] = []
    starts: list[int] = []
    counts: list[int] = []
    for subject, members in groups.items():
        spans = [(bounds[c], bounds[c + 1] - bounds[c]) for c in map(code.__getitem__, members)]
        if any(n for _, n in spans):
            for start, n in spans:
                span_subject.append(len(subjects))
                starts.append(start)
                counts.append(n)
            subjects.append(subject)
    if not subjects:
        return [], np.zeros((0, sim.base_durations.size))
    at = _ranges(np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64))
    subject_of = np.repeat(np.array(span_subject, dtype=np.int64), counts)
    reduction = np.zeros((len(subjects), len(index.columns)))
    np.add.at(reduction, (subject_of, inst[at]), red[at])
    touched = np.zeros(reduction.shape, dtype=bool)
    touched[subject_of, inst[at]] = True
    # Affected instances per group, sorted by id; only leaves replay.
    group, affected = np.nonzero(touched)
    by_id = np.lexsort((index.columns.id_rank[affected], group))
    group, affected = group[by_id], affected[by_id]
    rows = np.repeat(sim.base_durations[None, :], len(subjects), axis=0)
    leaf = index.leaf_position[affected]
    on = leaf >= 0
    rows[group[on], leaf[on]] = np.maximum(
        index.duration[affected[on]] - reduction[group[on], affected[on]], 0.0
    )
    ids = index.columns.ids
    affected_ids = [ids[i] for i in affected.tolist()]
    split = np.searchsorted(group, np.arange(len(subjects) + 1)).tolist()
    scenarios = [
        _Scenario(
            kind="resource-bottleneck",
            subject=subject,
            what=f"Removing all bottlenecks on {subject!r}",
            affected=tuple(affected_ids[split[k] : split[k + 1]]),
        )
        for k, subject in enumerate(subjects)
    ]
    return scenarios, rows


def _group_means(index: _GroupIndex, groups: np.ndarray) -> np.ndarray:
    """The mean duration of each group, as ``np.mean`` computes it.

    Groups of one size are one ``(groups, size)`` matrix whose rows hold
    their members in insertion order, so each row sums with the pairwise
    association ``np.mean`` gives that group's own 1-D array; the sum is
    then divided by the size, as ``np.mean`` does.
    """
    sizes = np.diff(index.bounds)[groups]
    means = np.empty(groups.size)
    for size in _distinct(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        first = index.bounds[groups[at]]
        members = index.members[first[:, None] + np.arange(size)]
        means[at] = np.add.reduce(index.duration[members], axis=1) / size
    return means


def _imbalance_scenarios(
    sim: ReplaySimulator, model: ExecutionModel | None, min_group_size: int
) -> tuple[list[_Scenario], np.ndarray]:
    """One scenario per balanceable phase type, and its duration rows.

    Every group of the type with at least ``min_group_size`` members
    gives each member the group's mean duration.  A leaf member replays
    at the mean; an inner member (e.g. a per-worker Compute wrapping its
    threads) scales every leaf descendant by ``mean / its duration``, so
    the workers are perfectly balanced while leaf totals shrink or grow
    proportionally.  Groups follow their first instance, members their
    insertion order, and a leaf set twice keeps the later value.
    """
    index = sim._index
    cols = index.columns
    sizes = np.diff(index.bounds)
    g_path = cols.path[index.members[index.bounds[:-1]]]
    balanceable = np.array([_balanceable(model, path) for path in cols.paths], dtype=bool)
    eligible = np.flatnonzero((sizes >= min_group_size) & balanceable[g_path])
    if not eligible.size:
        return [], np.zeros((0, sim.base_durations.size))
    # Phase types by path; each type's groups by their first instance.
    n_paths = len(cols.paths)
    path_rank = np.empty(n_paths, dtype=np.int64)
    path_rank[sorted(range(n_paths), key=cols.paths.__getitem__)] = np.arange(n_paths)
    first = index.members[index.bounds[eligible]]
    groups = eligible[np.lexsort((first, path_rank[g_path[eligible]]))]
    types = g_path[groups]
    new_type = ~_runs(types)
    scenario = np.cumsum(new_type) - 1

    # Members in order, each with its group's mean, then each member's
    # leaves with their new durations.
    counts = sizes[groups]
    member = index.members[_ranges(index.bounds[groups], counts)]
    mean = np.repeat(_group_means(index, groups), counts)
    dur = index.duration[member]
    scale = np.divide(mean, dur, out=np.ones_like(mean), where=dur > 0)
    n_leaves = index.leaf_ptr[member + 1] - index.leaf_ptr[member]
    leaf = index.leaf_idx[_ranges(index.leaf_ptr[member], n_leaves)]
    value = np.where(
        np.repeat(index.leaf_position[member] >= 0, n_leaves),
        np.repeat(mean, n_leaves),
        index.duration[index.leaves[leaf]] * np.repeat(scale, n_leaves),
    )
    row_of = np.repeat(np.repeat(scenario, counts), n_leaves)
    # Last write wins: keep each (scenario, leaf)'s last value.
    key = row_of * index.leaves.size + leaf
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    last = by_key[np.append(key[1:] != key[:-1], True)]
    rows = np.repeat(sim.base_durations[None, :], int(new_type.sum()), axis=0)
    rows[row_of[last], leaf[last]] = value[last]

    ids, paths = cols.ids, cols.paths
    member_ids = [ids[i] for i in member.tolist()]
    type_start = np.append(np.flatnonzero(new_type), groups.size)
    member_start = np.concatenate(([0], np.cumsum(counts)))[type_start].tolist()
    scenarios = []
    for k, (lo, hi) in enumerate(zip(type_start[:-1].tolist(), type_start[1:].tolist())):
        affected = tuple(member_ids[member_start[k] : member_start[k + 1]])
        phase_path = paths[types[lo]]
        scenarios.append(
            _Scenario(
                kind="imbalance",
                subject=phase_path,
                what=(
                    f"Perfectly balancing {len(affected)} {phase_path!r} phases across "
                    f"{hi - lo} group(s)"
                ),
                affected=affected,
            )
        )
    return scenarios, rows


def _balanceable(model: ExecutionModel | None, phase_path: str) -> bool:
    """Whether the imbalance analysis may rebalance groups of ``phase_path``."""
    if model is None:
        return True
    try:
        node = model[phase_path]
    except KeyError:
        return False
    return bool(node.concurrent and node.balanceable)


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
    scenarios, durations = _bottleneck_scenarios(
        sim, report, upsampled, attribution, resource_groups
    )
    return _evaluate(sim, scenarios, durations, min_improvement)


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
    scenarios, durations = _imbalance_scenarios(sim, model, min_group_size)
    return _evaluate(sim, scenarios, durations, min_improvement)


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
    :meth:`ReplaySimulator.makespans` pass.
    """
    return _detect_issues(
        ReplaySimulator(trace, model), model, report, upsampled, attribution, min_improvement
    )


def _detect_issues(
    sim: ReplaySimulator,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    min_improvement: float,
) -> IssueReport:
    """:func:`detect_issues` on a simulator already built for the trace."""
    scenarios, durations = _bottleneck_scenarios(sim, report, upsampled, attribution, None)
    imbalance, imbalance_durations = _imbalance_scenarios(sim, model, 2)
    return _evaluate(
        sim,
        scenarios + imbalance,
        np.concatenate((durations, imbalance_durations)),
        min_improvement,
    )
