"""Straggler/outlier detection among concurrent phases (paper §IV-D).

The paper's PowerGraph case study finds that within a set of concurrent
same-type phases (worker threads of one Gather step) some threads take far
longer than their siblings *on the same worker* — the signature of the
synchronization bug where one thread keeps draining a late message stream
while the others idle at a barrier.

This module detects such outliers: within each concurrent group, a phase is
an outlier when its duration exceeds ``threshold ×`` the median duration of
its same-worker siblings.  The estimated slowdown of the group is the ratio
between the slowest phase overall and the slowest non-outlier phase — i.e.
how much longer the step took because of the outliers, since a step ends
only when its slowest phase finishes.

Following the paper, only *non-trivial* groups (longest phase above a
minimum duration) enter the aggregate statistics.  The paper uses 1 s on
multi-minute cluster runs; the simulated runs last 1–20 s at the
``small`` preset, so the default here is 50 ms.

The groups are the trace's (parent, phase type) group index
(``traces._GroupIndex``), and one sort of all examined members by
(group, worker, duration) yields every same-worker median; the
group-at-a-time loop this replaces lives in ``tests/core/oracles.py``
as the reference the reports equal exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phases import ExecutionModel
from .simulation import _ranges
from .traces import ExecutionTrace, _GroupIndex, _runs

__all__ = ["OutlierPhase", "OutlierGroup", "OutlierReport", "find_outliers"]

#: Default multiple of the same-worker median above which a phase is an outlier.
DEFAULT_THRESHOLD = 1.5
#: Default minimum longest-phase duration for a group to be "non-trivial"
#: (the paper's 1 s, scaled to the simulated runs' seconds-long makespans).
DEFAULT_MIN_PHASE_DURATION = 0.05
#: Default smallest peer set for which a median is meaningful.
DEFAULT_MIN_GROUP_SIZE = 3


@dataclass(frozen=True)
class OutlierPhase:
    """One straggler phase and how far it deviates from its peers."""

    instance_id: str
    duration: float
    peer_median: float

    @property
    def factor(self) -> float:
        """Duration as a multiple of the same-worker median."""
        if self.peer_median <= 0.0:
            return float("inf")
        return self.duration / self.peer_median


@dataclass
class OutlierGroup:
    """Outlier analysis of one concurrent same-type phase group."""

    phase_path: str
    parent_id: str | None
    n_phases: int
    longest: float
    longest_without_outliers: float
    outliers: list[OutlierPhase] = field(default_factory=list)

    @property
    def has_outliers(self) -> bool:
        return bool(self.outliers)

    @property
    def slowdown(self) -> float:
        """Estimated slowdown of the step caused by the outliers.

        The step's duration is its slowest phase; without the outliers it
        would have been the slowest non-outlier phase.
        """
        if self.longest_without_outliers <= 0.0:
            return 1.0
        return self.longest / self.longest_without_outliers


@dataclass
class OutlierReport:
    """Outlier analysis across all concurrent groups of a run."""

    groups: list[OutlierGroup] = field(default_factory=list)
    min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION

    def __iter__(self):
        return iter(self.groups)

    def nontrivial_groups(self) -> list[OutlierGroup]:
        """Groups whose longest phase exceeds the minimum duration."""
        return [g for g in self.groups if g.longest >= self.min_phase_duration]

    def affected_groups(self) -> list[OutlierGroup]:
        """Non-trivial groups containing at least one outlier."""
        return [g for g in self.nontrivial_groups() if g.has_outliers]

    @property
    def affected_fraction(self) -> float:
        """Fraction of non-trivial groups with at least one outlier (§IV-D's 20 %)."""
        nt = self.nontrivial_groups()
        if not nt:
            return 0.0
        return len(self.affected_groups()) / len(nt)

    def slowdowns(self) -> list[float]:
        """Slowdown factors of the affected non-trivial groups."""
        return [g.slowdown for g in self.affected_groups()]


def find_outliers(
    trace: ExecutionTrace,
    model: ExecutionModel | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
) -> OutlierReport:
    """Detect straggler phases in concurrent same-type groups.

    Only groups whose phase type is marked ``concurrent`` in the model are
    examined (all groups when no model is given).  ``min_group_size`` is the
    smallest peer set for which a median is meaningful.
    """
    return _find_outliers(
        _GroupIndex.of(trace.columns()), model, threshold, min_phase_duration, min_group_size
    )


def _find_outliers(
    index: _GroupIndex,
    model: ExecutionModel | None,
    threshold: float,
    min_phase_duration: float,
    min_group_size: int,
) -> OutlierReport:
    """:func:`find_outliers` over a trace's (parent, phase type) group index."""
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    report = OutlierReport(min_phase_duration=min_phase_duration)
    cols = index.columns
    sizes = np.diff(index.bounds)
    first = index.members[index.bounds[:-1]]
    concurrent = np.array([_concurrent(model, path) for path in cols.paths], dtype=bool)
    eligible = np.flatnonzero((sizes >= min_group_size) & concurrent[cols.path[first]])
    if not eligible.size:
        return report
    # Groups by parent id and phase path, ties by their first instance.
    ids, paths = cols.ids, cols.paths
    parent = cols.parent[first].tolist()
    path = cols.path[first].tolist()
    groups = np.array(
        sorted(
            eligible[np.argsort(first[eligible])].tolist(),
            key=lambda g: (str(ids[parent[g]]) if parent[g] >= 0 else "None", paths[path[g]]),
        ),
        dtype=np.int64,
    )

    # Members group by group, then per-worker peer sets sorted by
    # duration: one sort gives every (group, worker) median.
    counts = sizes[groups]
    member = index.members[_ranges(index.bounds[groups], counts)]
    slot = np.repeat(np.arange(groups.size), counts)
    worker = cols.worker[member]
    dur = index.duration[member]
    by_peer = np.lexsort((dur, worker, slot))
    peer_key = slot[by_peer] * (int(worker.max()) + 1) + worker[by_peer]
    peer_start = np.flatnonzero(~_runs(peer_key))
    peer_size = np.diff(np.append(peer_start, member.size))
    ordered = dur[by_peer]
    mid = peer_start + peer_size // 2
    median = np.where(peer_size % 2 == 1, ordered[mid], (ordered[mid - 1] + ordered[mid]) / 2)
    # A peer set lists its instances by their first member, then in
    # insertion order.
    peer_first = np.minimum.reduceat(np.arange(member.size)[by_peer], peer_start)
    peer = np.empty(member.size, dtype=np.int64)
    peer[by_peer] = np.repeat(np.arange(peer_start.size), peer_size)
    med = median[peer]
    tested = (peer_size[peer] >= min_group_size) & (med > 0.0)
    is_outlier = np.zeros(member.size, dtype=bool)
    is_outlier[tested] = dur[tested] > threshold * med[tested]

    group_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    longest = np.maximum.reduceat(dur, group_start)
    longest_wo = np.maximum.reduceat(np.where(is_outlier, -np.inf, dur), group_start)
    longest_wo = np.where(longest_wo == -np.inf, longest, longest_wo)

    out = np.flatnonzero(is_outlier)
    factor = dur[out] / med[out]
    out = out[np.lexsort((out, peer_first[peer[out]], -factor, slot[out]))]
    split = np.searchsorted(slot[out], np.arange(groups.size + 1)).tolist()
    outliers = [
        OutlierPhase(ids[i], d, m)
        for i, d, m in zip(member[out].tolist(), dur[out].tolist(), med[out].tolist())
    ]
    for s, (g, n, top, top_wo) in enumerate(
        zip(groups.tolist(), counts.tolist(), longest.tolist(), longest_wo.tolist())
    ):
        report.groups.append(
            OutlierGroup(
                phase_path=paths[path[g]],
                parent_id=ids[parent[g]] if parent[g] >= 0 else None,
                n_phases=n,
                longest=top,
                longest_without_outliers=top_wo,
                outliers=outliers[split[s] : split[s + 1]],
            )
        )
    return report


def _concurrent(model: ExecutionModel | None, phase_path: str) -> bool:
    """Whether the outlier test examines groups of ``phase_path``."""
    if model is None:
        return True
    try:
        return bool(model[phase_path].concurrent)
    except KeyError:
        return False
