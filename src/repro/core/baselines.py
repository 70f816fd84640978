"""Baseline analyses the paper compares Grade10 against.

Two comparators appear in the paper:

* the **constant-rate upsampling strawman** of Table II — implemented in
  :func:`repro.core.upsample.upsample_constant`;
* **blocked time analysis** (Ousterhout et al., NSDI'15) — the paper's
  closest prior art for issue-impact estimation.  BTA estimates how much
  faster an application could run if tasks never blocked on a blockable
  resource, by replaying with the blocked time removed.  Crucially, BTA
  sees only *blocking*: it cannot detect consumable-resource bottlenecks
  (a saturated CPU, a capped Exact share) or workload imbalance — the gap
  Grade10 closes.

:func:`blocked_time_analysis` implements BTA on the same replay simulator
Grade10's detectors use, so the two are directly comparable: the
``bench_ablation_baselines`` benchmark shows BTA recovering only the
GC/queue blocking fraction of what Grade10's full analysis finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .phases import ExecutionModel
from .simulation import ReplaySimulator
from .traces import ExecutionTrace

__all__ = ["BlockedTimeResult", "blocked_time_analysis"]

_EPS = 1e-12


@dataclass
class BlockedTimeResult:
    """Per-resource and overall optimistic estimates from blocked time."""

    baseline_makespan: float
    #: makespan with blocking removed on *all* resources at once
    optimistic_makespan: float
    #: per blocking resource: makespan with only that resource's blocking removed
    per_resource: dict[str, float] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        if self.baseline_makespan <= _EPS:
            return 0.0
        return (self.baseline_makespan - self.optimistic_makespan) / self.baseline_makespan

    def improvement_for(self, resource: str) -> float:
        """Fractional improvement from removing one resource's blocking."""
        if self.baseline_makespan <= _EPS or resource not in self.per_resource:
            return 0.0
        return (self.baseline_makespan - self.per_resource[resource]) / self.baseline_makespan


def blocked_time_analysis(
    trace: ExecutionTrace,
    model: ExecutionModel | None = None,
    *,
    simulator: ReplaySimulator | None = None,
) -> BlockedTimeResult:
    """Ousterhout-style blocked time analysis on an execution trace.

    For each blocking resource, every phase's duration is reduced by the
    time it spent blocked on that resource, and the trace is replayed.
    The ``optimistic_makespan`` removes blocking on every resource at once
    (the classic "what if tasks never blocked" upper bound).
    """
    sim = simulator or ReplaySimulator(trace, model)
    resources = sorted({ev.resource for inst in trace.instances() for ev in inst.blocking})

    scenarios: list[dict[str, float]] = []
    for resource in resources:
        durations: dict[str, float] = {}
        for inst in trace.instances():
            blocked = inst.blocked_time(resource)
            if blocked > 0.0:
                durations[inst.instance_id] = max(inst.duration - blocked, 0.0)
        scenarios.append(durations)

    all_durations: dict[str, float] = {}
    for inst in trace.instances():
        blocked = sum(e - s for s, e in inst.blocked_intervals())
        if blocked > 0.0:
            all_durations[inst.instance_id] = max(inst.duration - blocked, 0.0)

    # The baseline, every per-resource scenario and the all-resources one
    # replay together.
    baseline, *per_resource_makespans, optimistic = sim.simulate_many(
        [None, *scenarios, all_durations]
    ).tolist()
    per_resource = dict(zip(resources, per_resource_makespans))

    return BlockedTimeResult(
        baseline_makespan=baseline,
        optimistic_makespan=optimistic,
        per_resource=per_resource,
    )
