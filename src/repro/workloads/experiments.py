"""Drivers for every table and figure of the paper's evaluation (§IV).

Each ``experiment_*`` function runs the required workloads on the simulated
cluster, feeds the artifacts through Grade10, and returns a structured
result object that the benchmark harness renders as the paper's rows /
series.  All drivers take a size ``preset`` so tests can run them tiny
while benchmarks run them at full scale.

Experiment index (see DESIGN.md):

* :func:`experiment_table2` — upsampling error vs. ratio, Grade10 vs the
  constant strawman, for Giraph untuned / Giraph tuned / PowerGraph tuned;
* :func:`experiment_fig3`  — attributed CPU usage and demand of one
  worker's Compute phase with and without attribution rules;
* :func:`experiment_fig4`  — per-resource-class optimistic bottleneck
  impact over the 2-datasets × 4-algorithms grid on both systems;
* :func:`experiment_fig5`  — imbalance impact per phase type for the eight
  PowerGraph jobs;
* :func:`experiment_fig6`  — per-thread Gather durations and sync-bug
  outlier statistics for CDLP on PowerGraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adapters import parse_execution_trace
from ..core.demand import estimate_demand
from ..core.issues import detect_bottleneck_issues, detect_imbalance_issues
from ..core.outliers import find_outliers
from ..core.simulation import ReplaySimulator
from ..core.timeline import TimeGrid
from ..core.upsample import relative_sampling_error, upsample, upsample_constant
from ..parallel import parallel_map
from ..systems import GiraphRun, PowerGraphConfig, PowerGraphRun, SyncBug
from .runner import WorkloadSpec, analysis_inputs, characterize_run, run_workload

__all__ = [
    "GROUND_TRUTH_INTERVAL",
    "UPSAMPLING_RATIOS",
    "Table2Row",
    "experiment_table2",
    "Fig3Series",
    "experiment_fig3",
    "Fig4Cell",
    "experiment_fig4",
    "Fig5Cell",
    "experiment_fig5",
    "Fig6Result",
    "experiment_fig6",
    "EVALUATION_GRID",
]

#: Ground-truth monitoring granularity (the paper's 50 ms reference).
GROUND_TRUTH_INTERVAL = 0.05
#: Upsampling ratios of Table II (coarse interval = ratio × ground truth).
UPSAMPLING_RATIOS = (2, 4, 8, 16, 32, 64)

#: The paper's 2-datasets × 4-algorithms evaluation grid.
EVALUATION_GRID = tuple(
    (dataset, algorithm)
    for dataset in ("graph500", "datagen")
    for algorithm in ("bfs", "pr", "wcc", "cdlp")
)

#: Scale-appropriate "non-trivial phase" thresholds per preset (the paper
#: uses 1 s on a physical cluster; simulated runs are shorter).
_MIN_PHASE_DURATION = {"tiny": 0.002, "small": 0.01, "full": 0.05}


# ---------------------------------------------------------------------- #
# Table II — accuracy of the upsampling process
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table2Row:
    """One cell group of Table II: errors at one ratio for one model config."""

    config: str  # "giraph-untuned" | "giraph-tuned" | "powergraph-tuned"
    ratio: int
    interval_ms: float
    grade10_error: float  # relative sampling error, percent
    constant_error: float


def _cpu_sampling_errors(
    run: GiraphRun | PowerGraphRun,
    *,
    tuned: bool,
    ratio: int,
) -> tuple[float, float]:
    """Grade10 and constant-strawman CPU upsampling errors for one run."""
    _, resources, rules = analysis_inputs(run, tuned=tuned)
    trace = parse_execution_trace(run.log, include_blocking=True, include_gc_phases=tuned)

    grid = TimeGrid.covering(0.0, run.makespan, GROUND_TRUTH_INTERVAL)
    demand = estimate_demand(trace, resources, rules, grid)
    coarse = run.recorder.sample(GROUND_TRUTH_INTERVAL * ratio, t_end=grid.t_end)

    up_g10 = upsample(coarse, demand, grid)
    up_const = upsample_constant(coarse, demand, grid)

    cpu_names = [name for name in resources.consumable if name.startswith("cpu@")]
    gt = np.concatenate([run.recorder.rate_on_grid(name, grid) for name in cpu_names])
    est_g10 = np.concatenate(
        [up_g10[n].rate if n in up_g10 else np.zeros(grid.n_slices) for n in cpu_names]
    )
    est_const = np.concatenate(
        [up_const[n].rate if n in up_const else np.zeros(grid.n_slices) for n in cpu_names]
    )
    return (
        relative_sampling_error(est_g10, gt),
        relative_sampling_error(est_const, gt),
    )


def experiment_table2(
    preset: str = "small",
    *,
    ratios: tuple[int, ...] = UPSAMPLING_RATIOS,
    dataset: str = "graph500",
) -> list[Table2Row]:
    """Reproduce Table II: upsampling error vs. ratio for three model configs."""
    giraph_run = run_workload(WorkloadSpec("giraph", dataset, "pr", preset=preset)).system_run
    pg_run = run_workload(WorkloadSpec("powergraph", dataset, "pr", preset=preset)).system_run

    rows: list[Table2Row] = []
    for config, run, tuned in (
        ("giraph-untuned", giraph_run, False),
        ("giraph-tuned", giraph_run, True),
        ("powergraph-tuned", pg_run, True),
    ):
        for ratio in ratios:
            g10_err, const_err = _cpu_sampling_errors(run, tuned=tuned, ratio=ratio)
            rows.append(
                Table2Row(
                    config=config,
                    ratio=ratio,
                    interval_ms=GROUND_TRUTH_INTERVAL * ratio * 1000.0,
                    grade10_error=g10_err,
                    constant_error=const_err,
                )
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 3 — impact of attribution rules
# ---------------------------------------------------------------------- #


@dataclass
class Fig3Series:
    """Per-timeslice series for one configuration (rules on or off)."""

    config: str  # "with-rules" | "without-rules"
    times: np.ndarray  # slice centers, seconds
    attributed_cpu: np.ndarray  # CPU cores attributed to the Compute phase
    estimated_demand: np.ndarray  # estimated CPU demand of the Compute phase
    bottlenecked: np.ndarray  # bool: CPU bottleneck detected for the phase
    n_threads: int  # compute threads on the worker (demand should not exceed)


def experiment_fig3(preset: str = "small", *, machine: str = "m0") -> list[Fig3Series]:
    """Reproduce Figure 3: attribution of one worker's Compute phase.

    Returns two series (with / without tuned rules) of attributed CPU usage,
    estimated demand, and bottleneck presence over the run.
    """
    run = run_workload(WorkloadSpec("giraph", "graph500", "pr", preset=preset))
    out: list[Fig3Series] = []
    for config, tuned in (("with-rules", True), ("without-rules", False)):
        profile = characterize_run(run, tuned=tuned)
        trace = profile.execution_trace
        cpu = f"cpu@{machine}"
        usage = np.zeros(profile.grid.n_slices)
        demand = np.zeros(profile.grid.n_slices)
        bottleneck = np.zeros(profile.grid.n_slices, dtype=bool)
        for inst in trace.instances("/Execute/Superstep/Compute"):
            if inst.machine != machine:
                continue
            usage += profile.attribution.usage(inst, cpu)
            for kid in trace.descendants_of(inst):
                demand += profile.attribution.demand_of(kid, cpu)
                bottleneck |= profile.bottlenecks.bottleneck_mask(kid.instance_id, cpu)
            demand += profile.attribution.demand_of(inst, cpu)
            bottleneck |= profile.bottlenecks.bottleneck_mask(inst.instance_id, cpu)
        out.append(
            Fig3Series(
                config=config,
                times=profile.grid.centers,
                attributed_cpu=usage,
                estimated_demand=demand,
                bottlenecked=bottleneck,
                n_threads=run.system_run.config.threads_per_machine,
            )
        )
    return out


# ---------------------------------------------------------------------- #
# Figure 4 — resource bottlenecks across the workload grid
# ---------------------------------------------------------------------- #

#: Resource-class prefixes reported in Figure 4.
RESOURCE_CLASSES = ("cpu", "net", "gc", "queue")


@dataclass(frozen=True)
class Fig4Cell:
    """Optimistic bottleneck impact of one resource class on one workload."""

    system: str
    dataset: str
    algorithm: str
    resource_class: str
    improvement: float  # fraction of the makespan
    makespan: float


def _fig4_cells_for(system: str, dataset: str, algorithm: str, preset: str) -> list[Fig4Cell]:
    """One workload's Figure-4 cells (top-level: pool workers pickle this)."""
    run = run_workload(WorkloadSpec(system, dataset, algorithm, preset=preset))
    profile = characterize_run(
        run, tuned=True, min_phase_duration=_MIN_PHASE_DURATION[preset]
    )
    model = analysis_inputs(run)[0]
    seen = {b.resource for b in profile.bottlenecks}
    groups = {cls: [r for r in seen if r.startswith(f"{cls}@")] for cls in RESOURCE_CLASSES}
    groups = {cls: rs for cls, rs in groups.items() if rs}
    issues = detect_bottleneck_issues(
        profile.execution_trace,
        model,
        profile.bottlenecks,
        profile.upsampled,
        profile.attribution,
        min_improvement=0.0,
        resource_groups=groups,
    )
    by_subject = {i.subject: i.improvement for i in issues}
    return [
        Fig4Cell(
            system=system,
            dataset=dataset,
            algorithm=algorithm,
            resource_class=cls,
            improvement=by_subject.get(cls, 0.0),
            makespan=run.makespan,
        )
        for cls in RESOURCE_CLASSES
    ]


def experiment_fig4(preset: str = "small", *, jobs: int = 1) -> list[Fig4Cell]:
    """Reproduce Figure 4: per-class bottleneck impact, 8 workloads × 2 systems.

    ``jobs > 1`` fans the 16 independent workloads out across a process
    pool; results are identical to the serial sweep in the same order.
    """
    tasks = [
        (system, dataset, algorithm, preset)
        for system in ("giraph", "powergraph")
        for dataset, algorithm in EVALUATION_GRID
    ]
    per_workload = parallel_map(_fig4_cells_for, tasks, jobs=jobs)
    return [cell for cells in per_workload for cell in cells]


# ---------------------------------------------------------------------- #
# Figure 5 — workload imbalance in PowerGraph
# ---------------------------------------------------------------------- #

#: The five phase types of Figure 5.
FIG5_PHASES = (
    "/Load/LoadWorker",
    "/Execute/Iteration/Gather",
    "/Execute/Iteration/Apply",
    "/Execute/Iteration/Scatter",
    "/Execute/Iteration/Sync",
)


@dataclass(frozen=True)
class Fig5Cell:
    """Imbalance impact of one phase type on one PowerGraph job."""

    dataset: str
    algorithm: str
    phase: str
    improvement: float  # fraction of the makespan


def _fig5_cells_for(dataset: str, algorithm: str, preset: str, sync_bug: bool) -> list[Fig5Cell]:
    """One PowerGraph job's Figure-5 cells (top-level: pool workers pickle this)."""
    cfg = PowerGraphConfig(sync_bug=SyncBug(enabled=sync_bug, seed=7))
    run = run_workload(
        WorkloadSpec("powergraph", dataset, algorithm, preset=preset),
        powergraph_config=cfg,
    )
    profile = characterize_run(run, tuned=True)
    issues = detect_imbalance_issues(
        profile.execution_trace,
        analysis_inputs(run)[0],
        min_improvement=0.0,
    )
    by_subject = {i.subject: i.improvement for i in issues}
    return [
        Fig5Cell(
            dataset=dataset,
            algorithm=algorithm,
            phase=phase,
            improvement=by_subject.get(phase, 0.0),
        )
        for phase in FIG5_PHASES
    ]


def experiment_fig5(
    preset: str = "small", *, sync_bug: bool = False, jobs: int = 1
) -> list[Fig5Cell]:
    """Reproduce Figure 5: imbalance impact per phase type, 8 PowerGraph jobs."""
    tasks = [(dataset, algorithm, preset, sync_bug) for dataset, algorithm in EVALUATION_GRID]
    per_job = parallel_map(_fig5_cells_for, tasks, jobs=jobs)
    return [cell for cells in per_job for cell in cells]


# ---------------------------------------------------------------------- #
# Figure 6 — sync-bug outliers in PowerGraph gather threads
# ---------------------------------------------------------------------- #


@dataclass
class Fig6Result:
    """Per-thread Gather durations and aggregate outlier statistics."""

    thread_durations: dict[str, list[float]]  # worker -> durations, first iteration
    affected_fraction: float
    slowdowns: list[float] = field(default_factory=list)
    bug_injections: int = 0
    worst_outlier_factor: float = 0.0
    step_slowdown: float = 1.0  # slowest-with vs slowest-without outliers


def experiment_fig6(
    preset: str = "small", *, bug_enabled: bool = True, seed: int = 5
) -> Fig6Result:
    """Reproduce Figure 6 and the §IV-D statistics: CDLP on PowerGraph."""
    cfg = PowerGraphConfig(sync_bug=SyncBug(enabled=bug_enabled, probability=0.2, seed=seed))
    run = run_workload(
        WorkloadSpec("powergraph", "graph500", "cdlp", preset=preset), powergraph_config=cfg
    )
    profile = characterize_run(run, tuned=True)
    trace = profile.execution_trace

    # Per-thread durations of the *first* iteration's Gather step.
    iterations = sorted(trace.instances("/Execute/Iteration"), key=lambda i: i.t_start)
    first = iterations[0]
    thread_durations: dict[str, list[float]] = {}
    for inst in trace.children_of(first):
        if inst.phase_path == "/Execute/Iteration/Gather":
            thread_durations.setdefault(inst.worker or "?", []).append(inst.duration)

    report = find_outliers(
        trace,
        analysis_inputs(run)[0],
        min_phase_duration=_MIN_PHASE_DURATION[preset],
    )
    worst_factor = 0.0
    step_slowdown = 1.0
    for g in report.affected_groups():
        if g.outliers and g.outliers[0].factor > worst_factor:
            worst_factor = g.outliers[0].factor
            step_slowdown = g.slowdown
    return Fig6Result(
        thread_durations=thread_durations,
        affected_fraction=report.affected_fraction,
        slowdowns=sorted(report.slowdowns()),
        bug_injections=getattr(run.system_run, "bug_injections", 0),
        worst_outlier_factor=worst_factor,
        step_slowdown=step_slowdown,
    )
