"""End-to-end workload runner: generate → execute → characterize.

``run_workload`` executes one (system, dataset, algorithm) combination on
the simulated cluster; ``characterize_run`` feeds the run's artifacts —
and nothing else — through Grade10 with either the tuned or the untuned
expert model, mirroring how the real tool is applied to a finished job's
logs and monitoring data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import obs
from ..obs_logging import get_logger
from ..adapters import (
    RUN_SYSTEMS,
    expert_models,
    merge_blocking_into_resource_trace,
    parse_execution_trace,
)
from ..algorithms import ALGORITHMS, AlgorithmResult
from ..core import Grade10, PerformanceProfile
from ..core.outliers import DEFAULT_MIN_PHASE_DURATION
from ..core.traces import ResourceTrace
from ..graph import Graph
from ..systems import (
    GiraphConfig,
    GiraphRun,
    PowerGraphConfig,
    PowerGraphRun,
    run_giraph,
    run_powergraph,
)
from ..systems.sparklike import (
    SparkLikeConfig,
    SparkLikeJob,
    SparkLikeRun,
    StageSpec,
    run_sparklike,
)
from .datasets import get_dataset, traversal_source

__all__ = [
    "WorkloadSpec",
    "WorkloadRun",
    "run_workload",
    "analysis_inputs",
    "characterize_run",
    "effective_powergraph_config",
    "processing_time",
    "sparklike_job_for",
]

SYSTEMS = ("giraph", "powergraph", "sparklike")

_LOG = get_logger("repro.workloads.runner")


@dataclass(frozen=True)
class WorkloadSpec:
    """One cell of the paper's evaluation grid."""

    system: str
    dataset: str
    algorithm: str
    preset: str = "small"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; available: {sorted(ALGORITHMS)}"
            )

    @property
    def label(self) -> str:
        return f"{self.system}/{self.dataset}/{self.algorithm}"


@dataclass
class WorkloadRun:
    """A completed workload execution and everything it produced."""

    spec: WorkloadSpec
    graph: Graph
    algorithm: AlgorithmResult
    system_run: GiraphRun | PowerGraphRun | SparkLikeRun

    @property
    def makespan(self) -> float:
        return self.system_run.makespan


def _run_algorithm(spec: WorkloadSpec, graph: Graph) -> AlgorithmResult:
    fn = ALGORITHMS[spec.algorithm]
    if spec.algorithm in ("bfs", "sssp"):
        return fn(graph, traversal_source(graph))
    if spec.algorithm == "pr":
        iters = {"tiny": 5, "small": 10, "full": 15}[spec.preset]
        return fn(graph, iterations=iters)
    if spec.algorithm == "cdlp":
        iters = {"tiny": 4, "small": 8, "full": 10}[spec.preset]
        return fn(graph, iterations=iters)
    return fn(graph)


def effective_powergraph_config(
    spec: WorkloadSpec, config: PowerGraphConfig | None = None
) -> PowerGraphConfig:
    """The PowerGraph config actually used for ``spec`` (CDLP override applied)."""
    cfg = config if config is not None else PowerGraphConfig()
    if spec.algorithm == "cdlp" and not cfg.gather_superlinear:
        # CDLP's gather builds neighbor-label histograms: superlinear in
        # degree, the amplifier behind the paper's Figure 5/6 imbalance.
        cfg = replace(cfg, gather_superlinear=True)
    return cfg


#: Per-edge compute / load costs of the dataflow mapping (core-seconds).
_SPARKLIKE_COST_PER_EDGE = 4e-6
_SPARKLIKE_LOAD_COST_PER_EDGE = 1.2e-6
_SPARKLIKE_BYTES_PER_MESSAGE = 100.0


def sparklike_job_for(
    spec: WorkloadSpec,
    graph: Graph,
    algorithm: AlgorithmResult,
    config: SparkLikeConfig | None = None,
) -> SparkLikeJob:
    """Map a graph workload onto the dataflow engine's stage DAG.

    The algorithm's per-iteration activity profile becomes a chain of
    shuffle-separated stages (one per superstep, work proportional to the
    edges it actually traversed), bracketed by a load stage — the same
    structural translation GraphX applies to Pregel programs.
    """
    cfg = config if config is not None else SparkLikeConfig()
    n_tasks = cfg.n_machines * cfg.cores_per_machine
    stages = [
        StageSpec(
            "load",
            n_tasks=n_tasks,
            work=graph.n_edges * _SPARKLIKE_LOAD_COST_PER_EDGE,
            shuffle_mb=graph.n_edges * 16.0 / 1e6,  # repartition by vertex cut
            skew=1.2,
        )
    ]
    prev = "load"
    for it in algorithm.iterations:
        name = f"iter{it.iteration:03d}"
        stages.append(
            StageSpec(
                name,
                n_tasks=n_tasks,
                work=it.edges_processed * _SPARKLIKE_COST_PER_EDGE,
                parents=(prev,),
                shuffle_mb=it.messages * _SPARKLIKE_BYTES_PER_MESSAGE / 1e6,
                # Hub-dominated frontiers make the straggler tail heavier.
                skew=1.5 if it.active_count >= graph.n_vertices // 2 else 2.5,
            )
        )
        prev = name
    stages.append(
        StageSpec("store", n_tasks=max(n_tasks // 2, 1),
                  work=graph.n_vertices * 1.5e-6, parents=(prev,), skew=1.1)
    )
    return SparkLikeJob(f"{spec.algorithm}-{spec.dataset}", stages)


def run_workload(
    spec: WorkloadSpec,
    *,
    giraph_config: GiraphConfig | None = None,
    powergraph_config: PowerGraphConfig | None = None,
    sparklike_config: SparkLikeConfig | None = None,
    graph: Graph | None = None,
) -> WorkloadRun:
    """Execute one workload on the simulated cluster.

    ``graph`` short-circuits dataset generation with a pre-built graph —
    how the run cache's ``graph/`` layer (:mod:`repro.parallel`) shares
    one generation across every cell of a sweep.  The caller is
    responsible for passing the graph the dataset would have generated;
    the deterministic generators make that a pure function of
    ``(spec.dataset, spec.preset)``.
    """
    _LOG.debug("workload started", label=spec.label, preset=spec.preset, seed=spec.seed)
    with obs.span("generate", label=spec.label, preset=spec.preset):
        if graph is None:
            with obs.span("generate.dataset", dataset=spec.dataset):
                graph = get_dataset(spec.dataset).graph(spec.preset)
        with obs.span("generate.algorithm", algorithm=spec.algorithm):
            algorithm = _run_algorithm(spec, graph)
        with obs.span("generate.system", system=spec.system):
            if spec.system == "giraph":
                system_run = run_giraph(graph, algorithm, giraph_config, seed=spec.seed)
            elif spec.system == "powergraph":
                cfg = effective_powergraph_config(spec, powergraph_config)
                system_run = run_powergraph(graph, algorithm, cfg, seed=spec.seed)
            else:
                job = sparklike_job_for(spec, graph, algorithm, sparklike_config)
                system_run = run_sparklike(job, sparklike_config, seed=spec.seed)
    _LOG.debug("workload finished", label=spec.label, makespan_s=system_run.makespan)
    return WorkloadRun(spec=spec, graph=graph, algorithm=algorithm, system_run=system_run)


def processing_time(run: GiraphRun | PowerGraphRun | SparkLikeRun) -> float:
    """The algorithm-execution (Graphalytics Tproc) part of a run's makespan.

    The graph engines log it as the ``/Execute`` phase; the dataflow engine
    as ``/Job``.  Falls back to the makespan when neither is present.
    """
    starts = {e["id"]: e for e in run.log.of_kind("phase_start")}
    ends = {e["id"]: e["t"] for e in run.log.of_kind("phase_end")}
    for iid, ev in starts.items():
        if ev["path"] in ("/Execute", "/Job"):
            return float(ends.get(iid, run.makespan)) - float(ev["t"])
    return run.makespan


def analysis_inputs(
    run: WorkloadRun | GiraphRun | PowerGraphRun | SparkLikeRun,
    *,
    tuned: bool = True,
):
    """The expert-model triple ``(execution model, resource model, rules)``.

    The run's system, config and machines looked up in
    :func:`repro.adapters.expert_models`.
    """
    system_run = run.system_run if isinstance(run, WorkloadRun) else run
    return expert_models(
        RUN_SYSTEMS[type(system_run)],
        system_run.config,
        system_run.machine_names,
        tuned=tuned,
    )


def characterize_run(
    run: WorkloadRun | GiraphRun | PowerGraphRun | SparkLikeRun,
    *,
    tuned: bool = True,
    slice_duration: float = 0.01,
    monitoring_interval: float = 0.4,
    min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
) -> PerformanceProfile:
    """Run the Grade10 pipeline on a finished workload's artifacts.

    ``tuned`` selects the expert model variant: the tuned model includes
    attribution rules and first-class GC phases; the untuned model has no
    rules (implicit Variable 1×) and no GC modeling, as in §IV-B.
    """
    system_run = run.system_run if isinstance(run, WorkloadRun) else run
    return _characterize(
        system_run,
        _sample_monitoring(system_run, monitoring_interval),
        tuned=tuned,
        slice_duration=slice_duration,
        min_phase_duration=min_phase_duration,
    )


def _sample_monitoring(
    system_run: GiraphRun | PowerGraphRun | SparkLikeRun, interval: float
) -> ResourceTrace:
    """The run's coarse monitoring: its recorder sampled every ``interval`` seconds."""
    with obs.span("sample", interval=interval):
        return system_run.recorder.sample(interval, t_end=system_run.makespan)


def _characterize(
    system_run: GiraphRun | PowerGraphRun | SparkLikeRun,
    monitoring: ResourceTrace,
    *,
    tuned: bool = True,
    slice_duration: float = 0.01,
    min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
) -> PerformanceProfile:
    """:func:`characterize_run` on monitoring already sampled from the run.

    The log's blocking events are merged into ``monitoring``.
    """
    model, resources, rules = analysis_inputs(system_run, tuned=tuned)
    execution_trace = parse_execution_trace(
        system_run.log,
        include_blocking=True,
        include_gc_phases=tuned,
    )
    merge_blocking_into_resource_trace(system_run.log, monitoring)
    g10 = Grade10(
        model,
        resources,
        rules,
        slice_duration=slice_duration,
        min_phase_duration=min_phase_duration,
    )
    return g10.characterize(execution_trace, monitoring)
