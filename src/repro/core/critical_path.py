"""Critical-path analysis over the replayed execution.

A complement to the issue detectors: the *critical path* is the chain of
phase instances whose durations determine the makespan — shortening any
phase off the path cannot speed the application up at all.  Combined with
Grade10's per-phase bottleneck attribution, it tells an analyst not just
*what* is bottlenecked but *which* bottlenecked phases are worth fixing
first.

The analysis runs on the same dependency graph as the replay simulator
(precedence from the execution model's sibling DAGs, same-location
sequencing, barrier semantics), so its makespan equals the replay baseline
by construction.  Wait phases are elastic there, so they never appear on
the path — the path runs through real work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .phases import ExecutionModel
from .simulation import ReplaySimulator
from .traces import ExecutionTrace, PhaseInstance

__all__ = ["CriticalPath", "critical_path"]

_EPS = 1e-12


@dataclass
class CriticalPath:
    """The chain of leaf phase instances that determines the makespan."""

    instances: list[PhaseInstance] = field(default_factory=list)
    makespan: float = 0.0

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    @property
    def total_duration(self) -> float:
        return sum(i.duration for i in self.instances)

    def time_by_phase_type(self) -> dict[str, float]:
        """Critical-path seconds per phase type, descending."""
        out: dict[str, float] = {}
        for inst in self.instances:
            out[inst.phase_path] = out.get(inst.phase_path, 0.0) + inst.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def time_by_machine(self) -> dict[str, float]:
        """Critical-path seconds per machine (``?`` for unlocated phases)."""
        out: dict[str, float] = {}
        for inst in self.instances:
            key = inst.machine or "?"
            out[key] = out.get(key, 0.0) + inst.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def fraction_of_makespan(self) -> float:
        """How much of the makespan the path's work explains (≤ 1.0;
        the remainder is elastic wait time between path segments)."""
        if self.makespan <= _EPS:
            return 0.0
        return min(self.total_duration / self.makespan, 1.0)


def critical_path(
    trace: ExecutionTrace,
    model: ExecutionModel | None = None,
    *,
    simulator: ReplaySimulator | None = None,
) -> CriticalPath:
    """Compute the critical path of a run's replayed schedule.

    Walks backwards from the instance that finishes last, at each step
    moving to the predecessor that *binds* the current instance's start
    time (the one whose simulated end equals it).  Gaps (an instance that
    starts strictly after every predecessor ends — only possible for
    sources) terminate the walk.
    """
    sim = simulator or ReplaySimulator(trace, model)
    schedule = sim.baseline()
    if not schedule.end:
        return CriticalPath()

    wait_paths = sim._wait_paths

    last_id = max(schedule.end, key=lambda iid: (schedule.end[iid], iid))
    path: list[PhaseInstance] = []
    current: str | None = last_id
    visited: set[str] = set()
    while current is not None and current not in visited:
        visited.add(current)
        inst = trace[current]
        if inst.phase_path not in wait_paths and inst.duration > _EPS:
            path.append(inst)
        start = schedule.start[current]
        binding: str | None = None
        for pid in sim._predecessor_ids(current):  # leaf ids, sorted by id
            end = schedule.end.get(pid)
            if end is not None and abs(end - start) <= 1e-9 and start > _EPS:
                if binding is None or schedule.end[pid] > schedule.end[binding]:
                    binding = pid
        current = binding

    path.reverse()
    return CriticalPath(instances=path, makespan=schedule.makespan)
