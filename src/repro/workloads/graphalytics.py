"""Graphalytics-style benchmark suite driver.

The paper's workloads come from LDBC Graphalytics (its Figure 1's
component 2).  This module provides the suite-level view Graphalytics
reports — per-workload makespans, processing time, and EVPS (edges+vertices
per second, Graphalytics' throughput metric) — on the simulated systems,
plus an optional Grade10 characterization of every job.

It doubles as the "run many jobs cheaply and characterize them all"
workflow the paper credits for finding the sync bug: Grade10's low
overhead makes it feasible to profile entire benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..core import PerformanceProfile
from ..parallel import CellSpec, EngineStats, run_grid
from ..progress import RunStatus
from .experiments import EVALUATION_GRID
from .runner import WorkloadSpec

__all__ = ["SuiteResult", "SuiteEntry", "run_suite"]


@dataclass(frozen=True)
class SuiteEntry:
    """One benchmark job's suite-level metrics."""

    spec: WorkloadSpec
    makespan: float
    processing_time: float  # the algorithm-execution part (Graphalytics Tproc)
    evps: float  # (|V| + |E|) / processing_time
    n_iterations: int
    profile: PerformanceProfile | None = None

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class SuiteResult:
    """All jobs of one suite sweep."""

    entries: list[SuiteEntry] = field(default_factory=list)
    stats: EngineStats | None = None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, system: str, dataset: str, algorithm: str) -> SuiteEntry:
        """Look up one job's entry (``KeyError`` if absent)."""
        for e in self.entries:
            s = e.spec
            if (s.system, s.dataset, s.algorithm) == (system, dataset, algorithm):
                return e
        raise KeyError(f"no suite entry for {system}/{dataset}/{algorithm}")

    def speedup(self, dataset: str, algorithm: str) -> float:
        """PowerGraph-over-Giraph processing-time ratio for one workload."""
        g = self.entry("giraph", dataset, algorithm)
        p = self.entry("powergraph", dataset, algorithm)
        if p.processing_time <= 0:
            return float("inf")
        return g.processing_time / p.processing_time


def run_suite(
    *,
    preset: str = "small",
    systems: tuple[str, ...] = ("giraph", "powergraph"),
    grid: tuple[tuple[str, str], ...] = EVALUATION_GRID,
    characterize: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    on_status: Callable[[RunStatus], None] | None = None,
) -> SuiteResult:
    """Run the benchmark grid on the requested systems.

    With ``characterize=True`` every job also gets a Grade10 profile (the
    low-overhead sweep workflow of §IV-D).  ``jobs`` fans the grid out
    across a process pool; ``cache_dir`` enables the layered
    content-addressed run cache — unchanged cells replay their archived
    trace instead of re-simulating, and even on a trace miss the generated
    graph is shared across all cells of the same (dataset, preset) through
    the ``graph/`` layer.  Per-layer hit/miss counts land on
    :attr:`SuiteResult.stats` (:class:`~repro.parallel.EngineStats`).
    Every cell simulates with ``seed``.  ``on_status`` receives
    the sweep's live :class:`~repro.progress.RunStatus` before the first
    cell starts (how ``repro serve`` exposes the run over HTTP).
    """
    cells = [
        CellSpec(
            WorkloadSpec(system, dataset, algorithm, preset=preset, seed=seed),
            characterize=characterize,
        )
        for system in systems
        for dataset, algorithm in grid
    ]
    results, stats = run_grid(
        cells, jobs=jobs, cache_dir=cache_dir, on_status=on_status
    )
    entries = [
        SuiteEntry(
            spec=r.spec,
            makespan=r.makespan,
            processing_time=r.processing_time,
            evps=r.evps,
            n_iterations=r.n_iterations,
            profile=r.profile,
        )
        for r in results
    ]
    return SuiteResult(entries=entries, stats=stats)
