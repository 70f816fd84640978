"""Giraph-like BSP engine simulation.

Executes a real algorithm's per-iteration work profile (from
:mod:`repro.algorithms`) on a simulated cluster, with the architectural
traits that drive Giraph's performance behaviour in the paper:

* **BSP supersteps** — per superstep, every worker (machine) runs a
  ``Prepare`` step, a set of parallel ``ComputeThread`` phases (one per
  core), and a ``Communicate`` phase that drains outbound messages; a
  global ``WorkerBarrier`` closes the superstep.
* **Hash edge-cut partitioning** — vertices hashed onto workers; the
  degree skew of real graphs makes per-thread work unequal (imbalance).
* **Bounded message queues** — producers stall when the network cannot
  keep up (the ``queue@…`` blocking bottleneck of Figure 4).
* **Managed runtime** — a stop-the-world GC with safepoints
  (:mod:`repro.systems.gc`): the ``gc@…`` blocking bottleneck, absent in
  the PowerGraph simulation.

The run emits a structured event log and machine-level metrics through the
shared recorder — the only artifacts Grade10 sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms.base import AlgorithmResult
from ..cluster.machine import Cluster
from ..cluster.metrics import MetricsRecorder
from ..graph.graph import Graph
from ..graph.partition import EdgeCutPartition, hash_edge_cut
from .gc import GarbageCollector
from .logging import EventLog, PhaseHandle
from .queues import BoundedMessageQueue

__all__ = ["GiraphConfig", "GiraphRun", "run_giraph"]


@dataclass
class GiraphConfig:
    """Tunable constants of the simulated Giraph deployment."""

    n_machines: int = 4
    threads_per_machine: int = 4
    # Slightly under-provisioned relative to message production, like the
    # paper's cluster: Giraph's communication subsystem is its bottleneck.
    net_bandwidth: float = 50e6  # bytes/s per machine egress
    # Compute costs (seconds).
    cost_per_edge: float = 4e-6
    cost_per_vertex: float = 1e-6
    prepare_cost: float = 0.01
    load_cost_per_edge: float = 1.2e-6
    store_cost_per_vertex: float = 1.5e-6
    # Messaging.
    bytes_per_message: float = 100.0
    # Fraction of messages surviving the combiner (1.0 = no combining).
    # Giraph combiners merge messages to the same destination before they
    # are queued, trading CPU for network volume.
    combiner_ratio: float = 1.0
    chunk_vertices: int = 256
    # Graph partitions handed to each compute thread; > 1 enables Giraph's
    # dynamic partition-pull scheduling (finer load balancing).
    partitions_per_thread: int = 1
    queue_capacity_bytes: float = 2e6
    drain_chunk_bytes: float = 1e6
    # Garbage collection.
    alloc_per_message: float = 150.0
    alloc_per_vertex: float = 64.0
    young_gen_bytes: float = 12e6
    gc_base_pause: float = 0.03
    gc_pause_per_byte: float = 2.0e-10
    gc_enabled: bool = True
    # Per-chunk effective CPU utilization range (memory stalls): the tuned
    # model assumes exactly one core per thread, so this is the model
    # mismatch that drives Table II's residual error.
    cpu_efficiency_min: float = 0.93
    cpu_efficiency_max: float = 1.0
    # Record per-phase-instance CPU ground truth into a side recorder.
    # The paper could not validate per-phase attribution against a ground
    # truth (§IV-B); the simulator can — see bench_validation_attribution.
    record_per_phase_truth: bool = False

    def __post_init__(self) -> None:
        if self.n_machines <= 0:
            raise ValueError("n_machines must be > 0")
        if self.threads_per_machine <= 0:
            raise ValueError("threads_per_machine must be > 0")
        if self.chunk_vertices <= 0:
            raise ValueError("chunk_vertices must be > 0")
        if not 0.0 < self.combiner_ratio <= 1.0:
            raise ValueError("combiner_ratio must be in (0, 1]")
        if self.partitions_per_thread < 1:
            raise ValueError("partitions_per_thread must be >= 1")


@dataclass
class GiraphRun:
    """Artifacts of one simulated Giraph job."""

    config: GiraphConfig
    log: EventLog
    recorder: MetricsRecorder
    partition: EdgeCutPartition
    makespan: float
    n_supersteps: int
    gc_collections: int = 0
    queue_stall_time: float = 0.0
    machine_names: list[str] = field(default_factory=list)
    #: per-instance CPU ground truth (resource name = instance id), only
    #: populated when ``config.record_per_phase_truth`` is set
    truth_recorder: MetricsRecorder | None = None


def _per_thread_work(
    active_ids: np.ndarray,
    out_deg: np.ndarray,
    remote_out: np.ndarray,
    n_threads: int,
    partitions_per_thread: int = 1,
) -> list[tuple[int, float, float]]:
    """Split a worker's active vertices over threads.

    Returns per-thread ``(n_vertices, n_edges, n_remote_edges)``.  Giraph
    divides each worker's vertices into graph *partitions* and its compute
    threads pull whole partitions from a shared queue — so the unit of
    imbalance is a partition, and more partitions per thread means finer
    dynamic load balancing at the cost of scheduling overhead.

    With ``partitions_per_thread == 1`` every thread owns one contiguous
    range (maximal skew exposure).  With more, partitions are dealt
    greedily to the least-loaded thread in descending size order (an LPT
    approximation of Giraph's pull scheduling).
    """
    n_partitions = max(n_threads * max(partitions_per_thread, 1), 1)
    chunks = [c for c in np.array_split(active_ids, n_partitions)]
    loads = [
        (
            int(c.size),
            float(out_deg[c].sum()) if c.size else 0.0,
            float(remote_out[c].sum()) if c.size else 0.0,
        )
        for c in chunks
    ]
    if partitions_per_thread <= 1:
        return loads
    # LPT: sort partitions by edge work, assign each to the lightest thread.
    threads = [[0, 0.0, 0.0] for _ in range(n_threads)]
    for n_v, n_e, n_r in sorted(loads, key=lambda t: -t[1]):
        tgt = min(range(n_threads), key=lambda k: threads[k][1])
        threads[tgt][0] += n_v
        threads[tgt][1] += n_e
        threads[tgt][2] += n_r
    return [(int(t[0]), t[1], t[2]) for t in threads]


def run_giraph(
    graph: Graph,
    algorithm: AlgorithmResult,
    config: GiraphConfig | None = None,
    *,
    partition: EdgeCutPartition | None = None,
    seed: int = 0,
) -> GiraphRun:
    """Simulate a Giraph job executing ``algorithm`` over ``graph``."""
    cfg = config or GiraphConfig()
    if partition is None:
        partition = hash_edge_cut(graph, cfg.n_machines, seed=seed)
    elif partition.n_partitions != cfg.n_machines:
        raise ValueError(
            f"partition has {partition.n_partitions} parts, config wants {cfg.n_machines}"
        )

    cluster = Cluster(
        cfg.n_machines, n_cores=cfg.threads_per_machine, net_bandwidth=cfg.net_bandwidth
    )
    sim, recorder = cluster.sim, cluster.recorder
    log = EventLog()
    rng = np.random.default_rng(seed + 0x5EED)
    truth = MetricsRecorder() if cfg.record_per_phase_truth else None

    owner = partition.owner
    src, dst = graph.edges()
    out_deg = np.asarray(graph.out_degree(), dtype=np.float64)
    remote_mask = owner[src] != owner[dst]
    remote_out = np.bincount(
        src, weights=remote_mask.astype(np.float64), minlength=graph.n_vertices
    )

    queues = [
        BoundedMessageQueue(
            sim,
            m,
            capacity_bytes=cfg.queue_capacity_bytes,
            drain_chunk_bytes=cfg.drain_chunk_bytes,
        )
        for m in cluster
    ]
    gcs = [
        GarbageCollector(
            sim,
            m,
            recorder,
            log,
            young_gen_bytes=cfg.young_gen_bytes,
            base_pause=cfg.gc_base_pause,
            pause_per_byte=cfg.gc_pause_per_byte,
        )
        if cfg.gc_enabled
        else None
        for m in cluster
    ]

    # Pre-compute the per-superstep, per-machine, per-thread work table from
    # the algorithm's actual activity profile.
    work_table: list[list[list[tuple[int, float, float]]]] = []
    for it in algorithm.iterations:
        per_machine = []
        active_idx = np.nonzero(it.active)[0]
        active_owner = owner[active_idx]
        for m in range(cfg.n_machines):
            ids = active_idx[active_owner == m]
            per_machine.append(
                _per_thread_work(
                    ids, out_deg, remote_out, cfg.threads_per_machine,
                    cfg.partitions_per_thread,
                )
            )
        work_table.append(per_machine)

    edges_per_machine = np.bincount(owner[src], minlength=cfg.n_machines).astype(float)
    vertices_per_machine = np.bincount(owner, minlength=cfg.n_machines).astype(float)

    barrier = sim.barrier(cfg.n_machines)
    load_barrier = sim.barrier(cfg.n_machines)
    store_barrier = sim.barrier(cfg.n_machines)

    # Shared mutable state for coordinating phase boundaries.
    state: dict[str, object] = {"makespan": 0.0, "queue_stalls": 0.0}

    def thread_proc(m: int, thread_idx: int, parent: PhaseHandle, work: tuple[int, float, float]):
        machine = cluster[m]
        gc = gcs[m]
        n_v, n_e, n_remote = work
        handle = log.start_phase(
            "/Execute/Superstep/Compute/ComputeThread",
            sim.now,
            parent=parent,
            machine=machine.name,
            worker=machine.name,
            thread=f"{machine.name}-t{thread_idx}",
        )
        if n_v > 0:
            n_chunks = max(1, n_v // cfg.chunk_vertices)
            dt = (cfg.cost_per_vertex * n_v + cfg.cost_per_edge * n_e) / n_chunks
            remote_bytes = cfg.bytes_per_message * n_remote * cfg.combiner_ratio / n_chunks
            alloc = (cfg.alloc_per_vertex * n_v + cfg.alloc_per_message * n_e) / n_chunks
            # Effective CPU utilization is correlated over a thread's
            # superstep (cache behaviour depends on the data it processes),
            # with small per-chunk jitter.  Correlated mismatch is what
            # coarse monitoring windows genuinely lose — the reason
            # Table II's error grows with the upsampling ratio.
            eff_base = rng.uniform(cfg.cpu_efficiency_min, cfg.cpu_efficiency_max)
            for _ in range(n_chunks):
                # Safepoint: join any in-progress stop-the-world pause.
                if gc is not None:
                    until = gc.safepoint()
                    if until > sim.now:
                        log.block(handle, gc.resource_name, sim.now, until)
                        yield sim.timeout(until - sim.now)
                eff = min(max(eff_base + rng.uniform(-0.05, 0.05), 0.05), 1.0)
                if truth is not None:
                    truth.record(handle.instance_id, sim.now, sim.now + dt, eff)
                yield machine.work(dt, cpu_rate=eff)
                if gc is not None:
                    until = gc.allocate(alloc)
                    if until > sim.now:
                        log.block(handle, gc.resource_name, sim.now, until)
                        yield sim.timeout(until - sim.now)
                if remote_bytes > 0:
                    t0 = sim.now
                    stall = yield from queues[m].put(remote_bytes)
                    if stall > 0:
                        log.block(handle, queues[m].resource_name, t0, sim.now)
        log.end_phase(handle, sim.now)

    def worker_superstep(m: int, s: int, ss_handle: PhaseHandle):
        machine = cluster[m]
        prep = log.start_phase(
            "/Execute/Superstep/Prepare",
            sim.now,
            parent=ss_handle,
            machine=machine.name,
            worker=machine.name,
        )
        yield machine.work(cfg.prepare_cost)
        log.end_phase(prep, sim.now)

        compute = log.start_phase(
            "/Execute/Superstep/Compute",
            sim.now,
            parent=ss_handle,
            machine=machine.name,
            worker=machine.name,
        )
        communicate = log.start_phase(
            "/Execute/Superstep/Communicate",
            sim.now,
            parent=ss_handle,
            machine=machine.name,
            worker=machine.name,
        )
        threads = [
            sim.process(thread_proc(m, t, compute, work))
            for t, work in enumerate(work_table[s][m])
        ]
        for p in threads:
            yield p.completion
        log.end_phase(compute, sim.now)
        log.end_phase(communicate, sim.now)
        # Flush: the superstep's remaining outbound traffic must drain
        # before the barrier releases (BSP message delivery guarantee).
        flush = log.start_phase(
            "/Execute/Superstep/Flush",
            sim.now,
            parent=ss_handle,
            machine=machine.name,
            worker=machine.name,
        )
        yield queues[m].drained()
        log.end_phase(flush, sim.now)

        wb = log.start_phase(
            "/Execute/Superstep/WorkerBarrier",
            sim.now,
            parent=ss_handle,
            machine=machine.name,
            worker=machine.name,
        )
        yield barrier.arrive()
        log.end_phase(wb, sim.now)

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

    def worker_store(m: int, parent: PhaseHandle):
        machine = cluster[m]
        handle = log.start_phase(
            "/Store/StoreWorker",
            sim.now,
            parent=parent,
            machine=machine.name,
            worker=machine.name,
        )
        yield machine.work(cfg.store_cost_per_vertex * vertices_per_machine[m])
        log.end_phase(handle, sim.now)
        yield store_barrier.arrive()

    def master():
        load = log.start_phase("/Load", sim.now)
        loaders = [sim.process(worker_load(m, load)) for m in range(cfg.n_machines)]
        for p in loaders:
            yield p.completion
        log.end_phase(load, sim.now)

        execute = log.start_phase("/Execute", sim.now)
        for s in range(len(work_table)):
            ss = log.start_phase("/Execute/Superstep", sim.now, parent=execute)
            workers = [sim.process(worker_superstep(m, s, ss)) for m in range(cfg.n_machines)]
            for p in workers:
                yield p.completion
            log.end_phase(ss, sim.now)
        log.end_phase(execute, sim.now)

        store = log.start_phase("/Store", sim.now)
        storers = [sim.process(worker_store(m, store)) for m in range(cfg.n_machines)]
        for p in storers:
            yield p.completion
        log.end_phase(store, sim.now)
        state["makespan"] = sim.now

    sim.process(master())
    sim.run()

    return GiraphRun(
        config=cfg,
        log=log,
        recorder=recorder,
        partition=partition,
        makespan=float(state["makespan"]),
        n_supersteps=len(work_table),
        gc_collections=sum(g.collections for g in gcs if g is not None),
        queue_stall_time=sum(q.total_stall_time for q in queues),
        machine_names=[m.name for m in cluster],
        truth_recorder=truth,
    )
