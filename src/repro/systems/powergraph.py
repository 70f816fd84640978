"""PowerGraph-like GAS engine simulation.

Executes an algorithm's per-iteration activity profile with PowerGraph's
architecture, contrasting with the Giraph simulation in exactly the ways
the paper measures:

* **Vertex-cut partitioning** — edges placed on machines, vertices
  replicated (master + mirrors);
* **Gather / Apply / Scatter steps** per iteration, each run by per-core
  worker threads over the machine's local edges/masters;
* **Interleaved computation and communication** — threads never stall on
  explicit queues, and there is **no garbage collector** (C++ runtime), so
  neither blocking resource exists in PowerGraph runs (Figure 4's
  cross-system contrast);
* a small non-CPU **engine overhead** per work chunk (fine-grained lock
  waits), which keeps CPU utilization below saturation — the paper's
  observation that PowerGraph fails to use all compute resources;
* **mirror synchronization** after Scatter: each machine ships activated
  mirror state through its NIC and all machines meet at a barrier
  (``Sync`` phases);
* the optional **barrier synchronization bug** (:mod:`repro.systems.bugs`)
  that occasionally keeps one thread draining messages while its siblings
  idle — the §IV-D discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms.base import AlgorithmResult
from ..cluster.machine import Cluster
from ..cluster.metrics import MetricsRecorder
from ..graph.graph import Graph
from ..graph.partition import VertexCutPartition, grid_vertex_cut
from .bugs import SyncBug
from .logging import EventLog, PhaseHandle

__all__ = ["PowerGraphConfig", "PowerGraphRun", "run_powergraph"]


@dataclass
class PowerGraphConfig:
    """Tunable constants of the simulated PowerGraph deployment."""

    n_machines: int = 4
    threads_per_machine: int = 4
    net_bandwidth: float = 50e6
    # Compute costs (seconds).
    gather_cost_per_edge: float = 3e-6
    apply_cost_per_vertex: float = 2e-6
    scatter_cost_per_edge: float = 1.5e-6
    load_cost_per_edge: float = 1.0e-6
    # Engine overhead: non-CPU time per work chunk (lock waits, scheduling).
    overhead_per_chunk: float = 0.002
    chunk_edges: int = 2048
    # Mirror synchronization.
    bytes_per_mirror_sync: float = 150.0
    # Per-chunk effective CPU utilization range (memory stalls).
    cpu_efficiency_min: float = 0.93
    cpu_efficiency_max: float = 1.0
    # Value-dependent gather cost: CDLP-style algorithms build per-vertex
    # neighbor-label histograms, so gather work grows superlinearly with
    # degree — the amplifier behind the paper's Figure 5/6 hub imbalance.
    gather_superlinear: bool = False
    # Record per-phase-instance CPU ground truth into a side recorder
    # (see the Giraph engine and bench_validation_attribution).
    record_per_phase_truth: bool = False
    # Injectable §IV-D synchronization bug.
    sync_bug: SyncBug = field(default_factory=SyncBug)

    def __post_init__(self) -> None:
        if self.n_machines <= 0:
            raise ValueError("n_machines must be > 0")
        if self.threads_per_machine <= 0:
            raise ValueError("threads_per_machine must be > 0")
        if self.chunk_edges <= 0:
            raise ValueError("chunk_edges must be > 0")


@dataclass
class PowerGraphRun:
    """Artifacts of one simulated PowerGraph job."""

    config: PowerGraphConfig
    log: EventLog
    recorder: MetricsRecorder
    partition: VertexCutPartition
    makespan: float
    n_iterations: int
    bug_injections: int = 0
    machine_names: list[str] = field(default_factory=list)
    #: per-instance CPU ground truth (resource name = instance id), only
    #: populated when ``config.record_per_phase_truth`` is set
    truth_recorder: MetricsRecorder | None = None


def _split_counts(per_vertex_counts: np.ndarray, vertices: np.ndarray, n_threads: int) -> list[float]:
    """Assign vertices (with their local edge counts) to threads contiguously.

    PowerGraph hands each worker thread a contiguous range of local
    vertices; a vertex's edges cannot split across threads, so degree skew
    becomes thread imbalance.
    """
    chunks = np.array_split(vertices, n_threads)
    return [float(per_vertex_counts[c].sum()) if c.size else 0.0 for c in chunks]


def run_powergraph(
    graph: Graph,
    algorithm: AlgorithmResult,
    config: PowerGraphConfig | None = None,
    *,
    partition: VertexCutPartition | None = None,
    seed: int = 0,
) -> PowerGraphRun:
    """Simulate a PowerGraph job executing ``algorithm`` over ``graph``."""
    cfg = config or PowerGraphConfig()
    if partition is None:
        partition = grid_vertex_cut(graph, cfg.n_machines, seed=seed)
    elif partition.n_machines != cfg.n_machines:
        raise ValueError(
            f"partition has {partition.n_machines} machines, config wants {cfg.n_machines}"
        )

    cluster = Cluster(
        cfg.n_machines, n_cores=cfg.threads_per_machine, net_bandwidth=cfg.net_bandwidth
    )
    sim, recorder = cluster.sim, cluster.recorder
    log = EventLog()
    rng = np.random.default_rng(seed + 0x9A5)
    truth = MetricsRecorder() if cfg.record_per_phase_truth else None

    src, dst = graph.edges()
    n = graph.n_vertices
    edge_machine = partition.edge_machine
    master = partition.master

    # Per-machine local edge endpoints (for activity-driven work counts).
    local_src = [src[edge_machine == m] for m in range(cfg.n_machines)]
    local_dst = [dst[edge_machine == m] for m in range(cfg.n_machines)]
    # Vertex presence per machine, for mirror-sync volume.
    presence = np.zeros((cfg.n_machines, n), dtype=bool)
    for m in range(cfg.n_machines):
        presence[m, local_src[m]] = True
        presence[m, local_dst[m]] = True

    # Pre-compute per-iteration work: gather (in-edges of active), apply
    # (active masters), scatter (out-edges of active), sync (active mirrors).
    gather_work: list[list[list[float]]] = []
    scatter_work: list[list[list[float]]] = []
    apply_work: list[list[float]] = []
    sync_bytes: list[list[float]] = []
    for it in algorithm.iterations:
        active = it.active
        g_m, s_m, a_m, y_m = [], [], [], []
        active_masters = np.bincount(master[np.nonzero(active)[0]], minlength=cfg.n_machines)
        for m in range(cfg.n_machines):
            ld, ls = local_dst[m], local_src[m]
            g_counts = np.bincount(ld[active[ld]], minlength=n).astype(np.float64)
            s_counts = np.bincount(ls[active[ls]], minlength=n)
            if cfg.gather_superlinear:
                # Histogram-building gather: cost per vertex ~ d * log2(1+d).
                g_counts = g_counts * np.log2(1.0 + g_counts + 1e-12)
            g_vertices = np.nonzero(g_counts)[0]
            s_vertices = np.nonzero(s_counts)[0]
            g_m.append(_split_counts(g_counts, g_vertices, cfg.threads_per_machine))
            s_m.append(_split_counts(s_counts, s_vertices, cfg.threads_per_machine))
            a_m.append(float(active_masters[m]))
            mirrors = presence[m] & active & (master != m)
            y_m.append(float(np.count_nonzero(mirrors)) * cfg.bytes_per_mirror_sync)
        gather_work.append(g_m)
        scatter_work.append(s_m)
        apply_work.append(a_m)
        sync_bytes.append(y_m)

    edges_per_machine = np.bincount(edge_machine, minlength=cfg.n_machines).astype(float)
    barrier = sim.barrier(cfg.n_machines)
    load_barrier = sim.barrier(cfg.n_machines)
    state: dict[str, object] = {"makespan": 0.0, "bugs": 0}

    def step_thread(
        m: int,
        phase: str,
        thread_idx: int,
        parent: PhaseHandle,
        seconds: float,
        extra_solo: float = 0.0,
    ):
        """One worker thread of a Gather/Scatter step.

        ``extra_solo`` is the injected sync-bug stint: the thread keeps
        draining messages after its nominal work while siblings idle.
        """
        machine = cluster[m]
        handle = log.start_phase(
            phase,
            sim.now,
            parent=parent,
            machine=machine.name,
            worker=machine.name,
            thread=f"{machine.name}-t{thread_idx}",
        )
        if seconds > 0:
            n_chunks = max(1, int(seconds / (cfg.chunk_edges * cfg.gather_cost_per_edge)) or 1)
            dt = seconds / n_chunks
            # Correlated over the thread-step, jittered per chunk (see the
            # Giraph engine for why this drives Table II's ratio curve).
            eff_base = rng.uniform(cfg.cpu_efficiency_min, cfg.cpu_efficiency_max)
            for _ in range(n_chunks):
                eff = min(max(eff_base + rng.uniform(-0.04, 0.04), 0.05), 1.0)
                if truth is not None:
                    truth.record(handle.instance_id, sim.now, sim.now + dt, eff)
                yield machine.work(dt, cpu_rate=eff)
                if cfg.overhead_per_chunk > 0:
                    # Fine-grained lock waits: wall time without CPU use.
                    yield sim.timeout(cfg.overhead_per_chunk)
        if extra_solo > 0:
            if truth is not None:
                truth.record(handle.instance_id, sim.now, sim.now + extra_solo, 1.0)
            yield machine.work(extra_solo)
        log.end_phase(handle, sim.now)

    def machine_iteration(m: int, it: int, iter_handle: PhaseHandle):
        machine = cluster[m]

        # ---- Gather step ------------------------------------------------
        per_thread = gather_work[it][m]
        durations = [cfg.gather_cost_per_edge * e for e in per_thread]
        extra = _bug_extras(cfg.sync_bug, durations, state)
        procs = [
            sim.process(
                step_thread(
                    m, "/Execute/Iteration/Gather", t, iter_handle, durations[t], extra.get(t, 0.0)
                )
            )
            for t in range(cfg.threads_per_machine)
        ]
        for p in procs:
            yield p.completion

        # ---- Apply step (masters only, split evenly over threads) -------
        apply_seconds = cfg.apply_cost_per_vertex * apply_work[it][m] / cfg.threads_per_machine
        procs = [
            sim.process(
                step_thread(m, "/Execute/Iteration/Apply", t, iter_handle, apply_seconds)
            )
            for t in range(cfg.threads_per_machine)
        ]
        for p in procs:
            yield p.completion

        # ---- Scatter step ------------------------------------------------
        per_thread = scatter_work[it][m]
        durations = [cfg.scatter_cost_per_edge * e for e in per_thread]
        extra = _bug_extras(cfg.sync_bug, durations, state)
        procs = [
            sim.process(
                step_thread(
                    m, "/Execute/Iteration/Scatter", t, iter_handle, durations[t], extra.get(t, 0.0)
                )
            )
            for t in range(cfg.threads_per_machine)
        ]
        for p in procs:
            yield p.completion

        # ---- Mirror synchronization, then the global barrier -------------
        sync = log.start_phase(
            "/Execute/Iteration/Sync",
            sim.now,
            parent=iter_handle,
            machine=machine.name,
            worker=machine.name,
        )
        yield machine.send(sync_bytes[it][m])
        log.end_phase(sync, sim.now)
        wait = log.start_phase(
            "/Execute/Iteration/SyncBarrier",
            sim.now,
            parent=iter_handle,
            machine=machine.name,
            worker=machine.name,
        )
        yield barrier.arrive()
        log.end_phase(wait, sim.now)

    def worker_load(m: int, parent: PhaseHandle):
        machine = cluster[m]
        handle = log.start_phase(
            "/Load/LoadWorker",
            sim.now,
            parent=parent,
            machine=machine.name,
            worker=machine.name,
        )
        yield machine.work(cfg.load_cost_per_edge * edges_per_machine[m])
        log.end_phase(handle, sim.now)
        yield load_barrier.arrive()

    def master_proc():
        load = log.start_phase("/Load", sim.now)
        loaders = [sim.process(worker_load(m, load)) for m in range(cfg.n_machines)]
        for p in loaders:
            yield p.completion
        log.end_phase(load, sim.now)

        execute = log.start_phase("/Execute", sim.now)
        for it in range(len(algorithm.iterations)):
            iter_handle = log.start_phase("/Execute/Iteration", sim.now, parent=execute)
            workers = [
                sim.process(machine_iteration(m, it, iter_handle))
                for m in range(cfg.n_machines)
            ]
            for p in workers:
                yield p.completion
            log.end_phase(iter_handle, sim.now)
        log.end_phase(execute, sim.now)
        state["makespan"] = sim.now

    sim.process(master_proc())
    sim.run()

    return PowerGraphRun(
        config=cfg,
        log=log,
        recorder=recorder,
        partition=partition,
        makespan=float(state["makespan"]),
        n_iterations=len(algorithm.iterations),
        bug_injections=int(state["bugs"]),
        machine_names=[m.name for m in cluster],
        truth_recorder=truth,
    )


def _bug_extras(bug: SyncBug, durations: list[float], state: dict) -> dict[int, float]:
    """Draw a sync-bug injection for one step on one machine."""
    positive = sorted(d for d in durations if d > 0)
    if not positive:
        return {}
    typical = positive[len(positive) // 2]
    drawn = bug.draw(len(durations), typical)
    if drawn is None:
        return {}
    victim, extra = drawn
    state["bugs"] = int(state["bugs"]) + 1
    return {victim: extra}
