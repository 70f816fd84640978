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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from .phases import ExecutionModel
from .traces import ExecutionTrace, PhaseInstance

__all__ = ["OutlierPhase", "OutlierGroup", "OutlierReport", "find_outliers"]

#: Default multiple of the same-worker median above which a phase is an outlier.
DEFAULT_THRESHOLD = 1.5
#: Default minimum longest-phase duration for a group to be "non-trivial"
#: (the paper's 1 s, scaled to the simulated runs' seconds-long makespans).
DEFAULT_MIN_PHASE_DURATION = 0.05


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


def _worker_key(inst: PhaseInstance) -> tuple[str | None, str | None]:
    return (inst.machine, inst.worker)


def find_outliers(
    trace: ExecutionTrace,
    model: ExecutionModel | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
    min_group_size: int = 3,
) -> OutlierReport:
    """Detect straggler phases in concurrent same-type groups.

    Only groups whose phase type is marked ``concurrent`` in the model are
    examined (all groups when no model is given).  ``min_group_size`` is the
    smallest peer set for which a median is meaningful.
    """
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
            by_worker.setdefault(_worker_key(inst), []).append(inst)

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
