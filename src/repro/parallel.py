"""Parallel batch characterization with a content-addressed run cache.

Grade10's value is the suite-scale sweep: the paper characterizes a grid
of (system, dataset, algorithm) runs, and the sweep is embarrassingly
parallel — every cell is an independent, seeded simulation.  This module
is the batch engine behind ``repro suite --jobs N`` and the parallel
experiment drivers:

* :func:`run_grid` fans a list of :class:`CellSpec` out across a
  ``ProcessPoolExecutor`` (``jobs=1`` runs inline through the identical
  code path, which is what the equivalence tests pin down);
* :class:`RunCache` is a content-addressed on-disk store, layered by
  sub-artifact so grid cells share upstream work:

  - the ``graph/`` layer holds generated graphs, keyed on the dataset
    spec (name, preset, family) and the generator seed — every cell of a
    sweep that touches the same dataset replays one generation;
  - the ``trace/`` layer holds run archives (see
    :mod:`repro.workloads.archive`), keyed on the graph key plus the
    *trace-affecting* inputs only (system name + effective config,
    algorithm, preset, seed, tuned model fingerprints, archive sampling
    parameters).  Downstream knobs — ``characterize``, ``live``, fault
    specs applied later — are excluded, so cells differing only in
    analysis options share one simulated trace instead of re-simulating it.

  Every layer uses the same publish discipline: write into a temp
  directory, mark completeness with the layer's marker file, then
  ``os.replace`` into place — concurrent workers race benignly;
* :class:`EngineStats` summarizes a sweep: cells run, per-layer cache
  hits, wall-clock, and the serial-equivalent speedup.

Cache-key invariants (locked down by Hypothesis property tests):

* **deterministic** — the same material always hashes to the same key;
* **order-insensitive** — dict insertion order never changes the key
  (canonical JSON with sorted keys);
* **input-sensitive** — changing any field of the material (a config
  constant, the seed, a rule proportion, a model phase) changes the key.

Profile equality across paths: a cold cell characterizes its run in
memory (:func:`~repro.workloads.runner.characterize_run`) and only a
trace-cache hit reads an archive
(:func:`~repro.workloads.archive.characterize_archive`).  Both use the
same expert models and defaults, and the archive's JSONL and
monitoring-CSV round trips are exact, so cold and warm cells give
bit-identical profiles; ``tests/workloads/test_one_path.py`` holds that.

Workloads imports happen inside functions: this module is imported by
:mod:`repro.workloads.experiments` / ``graphalytics`` at module load, so
top-level imports of the workloads package would be circular.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from . import obs, progress
from .obs_logging import get_logger
from .progress import RunStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import PerformanceProfile
    from .workloads.runner import WorkloadSpec

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CellSpec",
    "CellResult",
    "EngineStats",
    "RunCache",
    "cache_key",
    "canonical_json",
    "derive_cell_seed",
    "execute_cell",
    "graph_key_material",
    "model_fingerprints",
    "parallel_map",
    "run_grid",
    "trace_key_material",
]

#: Bump to invalidate every cached payload (layout or semantics change).
#: Version 2 introduced the layered ``graph/`` + ``trace/`` store.
CACHE_FORMAT_VERSION = 2

_LOG = get_logger("repro.parallel")

#: Archive sampling parameters baked into the cache payload (and its key).
_MONITORING_INTERVAL = 0.4
_GROUND_TRUTH_INTERVAL = 0.05

#: About this many windows per live cell (:func:`_publish_windows`).
_LIVE_WINDOWS = 8

#: Per-layer completeness markers: a payload directory without its marker
#: (a crashed writer) is treated as a miss.  The trace layer's marker is
#: ``cell.json`` — the suite-level metrics the warm path replays.
_LAYER_MARKERS = {"graph": "graph.json", "trace": "cell.json"}
_CELL_JSON = _LAYER_MARKERS["trace"]
_GRAPH_EDGES = "edges.npy"


# ---------------------------------------------------------------------- #
# Cache keys
# ---------------------------------------------------------------------- #


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and no whitespace.

    The canonical form is what makes :func:`cache_key` insensitive to dict
    insertion order while remaining sensitive to every value.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not canonicalizable: {type(obj).__name__}")


def cache_key(material: Mapping[str, Any]) -> str:
    """Stable content hash of one cell's full input material."""
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


def derive_cell_seed(base_seed: int, label: str) -> int:
    """A deterministic, order-independent per-cell seed.

    Each grid cell gets an independent seed derived from the sweep's base
    seed and the cell's identity — never from execution order — so serial
    and parallel sweeps simulate identical runs.
    """
    digest = hashlib.blake2s(
        f"{base_seed}:{label}".encode("utf-8"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def _system_config(spec: "WorkloadSpec"):
    """The effective (default) engine config for one cell."""
    from .systems import GiraphConfig
    from .systems.sparklike import SparkLikeConfig
    from .workloads.runner import effective_powergraph_config

    if spec.system == "giraph":
        return GiraphConfig()
    if spec.system == "powergraph":
        return effective_powergraph_config(spec)
    return SparkLikeConfig()


def model_fingerprints(system: str, config: Any) -> dict[str, str]:
    """Content hashes of the tuned expert models a cell's archive stores.

    Any edit to an execution model's phase hierarchy, a resource model's
    capacities, or an attribution rule changes the fingerprint — and with
    it the cache key — which is exactly the invalidation rule the paper's
    "refine the model, re-analyze" workflow needs.
    """
    from .adapters import expert_models
    from .core.model_io import (
        execution_model_to_dict,
        resource_model_to_dict,
        rules_to_dict,
    )

    names = [f"m{i}" for i in range(config.n_machines)]
    model, resources, rules = expert_models(system, config, names)

    def h(doc: Mapping[str, Any]) -> str:
        return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()

    return {
        "execution_model": h(execution_model_to_dict(model)),
        "resource_model": h(resource_model_to_dict(resources)),
        "rules": h(rules_to_dict(rules)),
    }


# ---------------------------------------------------------------------- #
# Cell specifications and results
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CellSpec:
    """One picklable unit of sweep work: a workload plus analysis options.

    ``characterize`` runs the Grade10 pipeline with the tuned model and
    the defaults ``repro run`` and ``repro analyze`` use.  ``live``
    publishes the cell's bottleneck report cut into windows before
    ``cell.finished``; it needs ``characterize``.
    """

    spec: "WorkloadSpec"
    characterize: bool = False
    live: bool = False

    def __post_init__(self) -> None:
        if self.live and not self.characterize:
            raise ValueError("a live cell must be characterized")

    @property
    def label(self) -> str:
        return self.spec.label


def graph_key_material(spec: "WorkloadSpec") -> dict[str, Any]:
    """The input material of the ``graph/`` cache layer.

    A generated graph depends on the dataset spec (name, family, preset)
    and the generator seed — and on nothing else.  System, algorithm, and
    the per-cell simulation seed are deliberately absent: every cell of a
    sweep that reads the same dataset shares one generation.
    """
    from .workloads.datasets import GENERATOR_SEED, get_dataset

    dataset = get_dataset(spec.dataset)
    return {
        "format": CACHE_FORMAT_VERSION,
        "kind": "graph",
        "dataset": {
            "name": dataset.name,
            "family": dataset.family,
            "preset": spec.preset,
        },
        "seed": GENERATOR_SEED,
    }


def trace_key_material(cell: CellSpec) -> dict[str, Any]:
    """The input material of the ``trace/`` cache layer.

    Composition: the graph key plus everything that shapes the simulated
    run — system name + effective config, algorithm, preset (it sets the
    iteration counts), seed, the *tuned* model fingerprints (the archive's
    ``models.json`` always stores the tuned models, whatever the analysis
    later selects), and the archive sampling parameters.  Downstream knobs
    (``characterize``, ``live``) are excluded: they are applied on top of
    the archived trace, so one payload serves every analysis variant.
    """
    spec = cell.spec
    config = _system_config(spec)
    return {
        "format": CACHE_FORMAT_VERSION,
        "kind": "trace",
        "graph": cache_key(graph_key_material(spec)),
        "system": {"name": spec.system, "config": asdict(config)},
        "algorithm": spec.algorithm,
        "preset": spec.preset,
        "seed": spec.seed,
        "models": model_fingerprints(spec.system, config),
        "archive": {
            "monitoring_interval": _MONITORING_INTERVAL,
            "ground_truth_interval": _GROUND_TRUTH_INTERVAL,
        },
    }


@dataclass
class CellResult:
    """One finished cell: suite metrics, optional profile, provenance."""

    spec: "WorkloadSpec"
    key: str
    makespan: float
    processing_time: float
    evps: float
    n_iterations: int
    n_vertices: int
    n_edges: int
    profile: "PerformanceProfile | None" = None
    cached: bool = False
    duration: float = 0.0  # wall-clock seconds spent on this cell
    #: Per-layer cache outcome: ``True``/``False`` hit/miss, ``None`` when
    #: the layer was not consulted (no cache dir; graph layer skipped on a
    #: trace hit).  ``cached`` above mirrors ``trace_hit is True``.
    trace_hit: bool | None = None
    graph_hit: bool | None = None
    #: Tracer snapshot recorded by a pool worker (``None`` unless the sweep
    #: ran with tracing enabled and this cell executed out-of-process).
    trace: dict | None = None

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class EngineStats:
    """Summary of one sweep through the batch engine."""

    n_cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_clock: float = 0.0
    cell_seconds: float = 0.0  # sum of per-cell wall-clock (serial equivalent)
    # Per-layer cache outcomes (counted only when the layer was consulted):
    # trace hits mirror cache_hits; graph hits count replayed generations
    # on the trace-miss path.
    graph_hits: int = 0
    graph_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.n_cells if self.n_cells else 0.0

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall-clock (≥ 1 when winning)."""
        return self.cell_seconds / self.wall_clock if self.wall_clock > 0 else 1.0

    def summary(self) -> str:
        """One-line human-readable sweep report (the CLI prints this)."""
        line = (
            f"{self.n_cells} cells: {self.executed} run, "
            f"{self.cache_hits} cache hits ({self.hit_rate:.0%}); "
            f"wall-clock {self.wall_clock:.2f}s, "
            f"serial-equivalent {self.cell_seconds:.2f}s "
            f"(speedup {self.speedup:.1f}x, jobs={self.jobs})"
        )
        if self.graph_hits or self.graph_misses or self.trace_hits or self.trace_misses:
            line += (
                f"; layers: graph {self.graph_hits}h/{self.graph_misses}m, "
                f"trace {self.trace_hits}h/{self.trace_misses}m"
            )
        return line

    def to_dict(self) -> dict[str, Any]:
        """JSON-native form (embedded in suite report indexes).

        The keys are stable for ``BENCH_pipeline.json`` and suite-report
        consumers.
        """
        return {
            "n_cells": self.n_cells,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "jobs": self.jobs,
            "wall_clock": self.wall_clock,
            "cell_seconds": self.cell_seconds,
            "speedup": self.speedup,
            "graph_hits": self.graph_hits,
            "graph_misses": self.graph_misses,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
        }


# ---------------------------------------------------------------------- #
# Content-addressed run cache
# ---------------------------------------------------------------------- #


class RunCache:
    """Layered content-addressed store of sub-artifacts, keyed by material.

    Layout: ``<root>/<layer>/<key[:2]>/<key>/`` with one directory tree
    per layer:

    ``trace/``
        run archives (``events.jsonl``, ``monitoring.csv``,
        ``models.json``, ``meta.json``, …) plus ``cell.json`` with the
        suite-level metrics;
    ``graph/``
        generated graphs (``edges.npy``) plus ``graph.json`` with the
        vertex/edge counts.

    Each layer's marker file is written last and doubles as the
    completeness marker: a directory without it (a crashed writer) is
    treated as a miss.  Writes go to a temp directory and are published
    with an atomic rename, so concurrent workers computing the same
    artifact race benignly.  The default layer is ``trace`` — the layer
    whose payloads back whole cells — so single-layer callers keep the
    historical one-argument API.
    """

    LAYERS = tuple(_LAYER_MARKERS)

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _marker(self, layer: str) -> str:
        try:
            return _LAYER_MARKERS[layer]
        except KeyError:
            raise ValueError(
                f"unknown cache layer {layer!r}; choose from {self.LAYERS}"
            ) from None

    def path_for(self, key: str, layer: str = "trace") -> Path:
        """The payload directory for one key (fanned out over 256 shards)."""
        self._marker(layer)
        return self.root / layer / key[:2] / key

    def has(self, key: str, layer: str = "trace") -> bool:
        """True when a *complete* payload exists (marker file present)."""
        return (self.path_for(key, layer) / self._marker(layer)).is_file()

    def load_meta(self, key: str, layer: str = "trace") -> dict[str, Any]:
        """The cached payload's metadata (from the layer's marker file)."""
        return json.loads(
            (self.path_for(key, layer) / self._marker(layer)).read_text()
        )

    def store(
        self, key: str, write_payload: Callable[[Path], None], layer: str = "trace"
    ) -> Path:
        """Publish a payload: write into a temp dir, atomically rename in.

        ``write_payload`` receives the temp directory and must leave a
        complete payload (including the layer's marker file) inside it.
        """
        final = self.path_for(key, layer)
        if self.has(key, layer):
            return final
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(prefix=f".tmp-{key[:8]}-{uuid.uuid4().hex[:8]}-",
                             dir=final.parent)
        )
        try:
            write_payload(tmp)
            try:
                os.replace(tmp, final)
            except OSError:
                if self.has(key, layer):
                    # Lost the publication race: keep the winner's payload.
                    shutil.rmtree(tmp, ignore_errors=True)
                else:
                    # Stale incomplete leftover from a crashed writer.
                    shutil.rmtree(final, ignore_errors=True)
                    os.replace(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return final

    def count(self, layer: str = "trace") -> int:
        """Complete payloads in one layer."""
        marker = self._marker(layer)
        base = self.root / layer
        if not base.is_dir():
            return 0
        return sum(1 for p in base.glob("??/*") if (p / marker).is_file())

    def __len__(self) -> int:
        return self.count("trace")


# ---------------------------------------------------------------------- #
# Cell execution (top-level: must be picklable for the process pool)
# ---------------------------------------------------------------------- #


def _write_graph_payload(graph: Any, spec: "WorkloadSpec", tmp: Path) -> None:
    """Write one graph-layer payload (edge arrays + marker) into ``tmp``."""
    import numpy as np

    src, dst = graph.edges()
    np.save(tmp / _GRAPH_EDGES, np.stack([src, dst]))
    (tmp / _LAYER_MARKERS["graph"]).write_text(
        json.dumps(
            {
                "n_vertices": int(graph.n_vertices),
                "n_edges": int(graph.n_edges),
                "dataset": spec.dataset,
                "preset": spec.preset,
            },
            indent=2,
        )
    )


def _load_graph_payload(directory: Path):
    """Rebuild a :class:`~repro.graph.Graph` from a graph-layer payload.

    The edge arrays were saved in CSR order, so the constructor's order
    check passes and it keeps them as loaded: a load costs ``np.load``,
    that check and one ``bincount``, and the round-tripped graph carries
    the exact arrays of the generated one (and with it, bit-identical
    downstream traces).
    """
    import numpy as np

    from .graph import Graph

    meta = json.loads((directory / _LAYER_MARKERS["graph"]).read_text())
    edges = np.load(directory / _GRAPH_EDGES)
    return Graph(int(meta["n_vertices"]), edges[0], edges[1])


def execute_cell(
    cell: CellSpec,
    cache_dir: str | Path | None = None,
    collect_trace: bool = False,
) -> CellResult:
    """Run (or replay) one cell; the unit of work the pool distributes.

    With ``collect_trace=True`` (how :func:`run_grid` submits cells when
    the parent process is tracing) a pool worker installs a fresh local
    tracer, records the cell's spans into it, and ships the snapshot back
    on :attr:`CellResult.trace` for the parent to merge.  A tracer that is
    already active *in this process* (the inline ``jobs=1`` path) records
    directly; a tracer inherited across ``fork`` from the parent is
    replaced, never appended to — its events belong to the parent.
    """
    local_tracer = None
    inherited = None
    if collect_trace:
        active = obs.current()
        if active is None or active.pid != os.getpid():
            inherited = obs.uninstall()
            local_tracer = obs.install()
    progress.publish("cell.started", cell.label, seed=cell.spec.seed)
    live: dict[str, int] = {}
    try:
        result = _execute_cell(cell, cache_dir)
        if cell.live:
            live = _publish_windows(cell.label, result.profile)
    except BaseException as exc:
        progress.publish("cell.failed", cell.label, error=repr(exc))
        _LOG.warning("cell failed", label=cell.label, error=repr(exc))
        raise
    finally:
        if local_tracer is not None:
            obs.uninstall()
            if inherited is not None:
                obs.install(inherited)
    if local_tracer is not None:
        result.trace = local_tracer.snapshot()
    progress.publish(
        "cell.finished",
        cell.label,
        duration=result.duration,
        cached=result.cached,
        makespan=result.makespan,
        **live,
    )
    _LOG.debug(
        "cell finished",
        label=cell.label,
        duration_s=result.duration,
        cached=result.cached,
    )
    return result


def _publish_windows(label: str, profile: "PerformanceProfile") -> dict[str, int]:
    """Publish a live cell's windows: each one's bottleneck shares, then the window.

    The width gives about :data:`_LIVE_WINDOWS` windows per run.  Returns
    the counts ``cell.finished`` carries.
    """
    from .core.incremental import cut_windows

    with obs.span("windows", label=label):
        width = max(1, profile.grid.n_slices // _LIVE_WINDOWS)
        windows = cut_windows(profile.bottlenecks, profile.execution_trace, width)
        for w in windows:
            for b in w.bottlenecks:
                progress.publish("bottleneck.detected", label, **b.to_dict(), seconds=b.duration)
            progress.publish(
                "window.analyzed",
                label,
                index=w.index,
                t_start=w.t_start,
                t_end=w.t_end,
                n_rows=w.n_rows,
                n_bottlenecks=len(w.bottlenecks),
                lag_seconds=w.lag_seconds,
            )
    return {"windows": len(windows), "bottlenecks": len(profile.bottlenecks)}


def _execute_cell(cell: CellSpec, cache_dir: str | Path | None) -> CellResult:
    from .workloads.archive import _save_run, characterize_archive
    from .workloads.runner import (
        _characterize,
        _sample_monitoring,
        processing_time,
        run_workload,
    )

    t0 = time.perf_counter()
    with obs.span("cell", label=cell.label, seed=cell.spec.seed):
        cache = RunCache(cache_dir) if cache_dir is not None else None
        key = cache_key(trace_key_material(cell))

        if cache is not None and cache.has(key, "trace"):
            obs.counter("cache.trace.hit")
            progress.publish("cell.cache_hit", cell.label, key=key)
            meta = cache.load_meta(key, "trace")
            profile = (
                characterize_archive(cache.path_for(key, "trace"))
                if cell.characterize
                else None
            )
            return CellResult(
                spec=cell.spec,
                key=key,
                makespan=meta["makespan"],
                processing_time=meta["processing_time"],
                evps=meta["evps"],
                n_iterations=meta["n_iterations"],
                n_vertices=meta["n_vertices"],
                n_edges=meta["n_edges"],
                profile=profile,
                cached=True,
                trace_hit=True,
                duration=time.perf_counter() - t0,
            )

        graph = None
        graph_hit: bool | None = None
        graph_key = None
        if cache is not None:
            obs.counter("cache.trace.miss")
            # Trace miss: the generated graph may still be shared — every
            # cell on the same (dataset, preset) replays one generation.
            graph_key = cache_key(graph_key_material(cell.spec))
            if cache.has(graph_key, "graph"):
                obs.counter("cache.graph.hit")
                graph_hit = True
                progress.publish("cell.graph_hit", cell.label, key=graph_key)
                with obs.span("generate.dataset.cached", dataset=cell.spec.dataset):
                    graph = _load_graph_payload(cache.path_for(graph_key, "graph"))
            else:
                obs.counter("cache.graph.miss")
                graph_hit = False
        progress.publish("stage", cell.label, stage="simulate")
        run = run_workload(cell.spec, graph=graph)
        t_proc = processing_time(run.system_run)
        size = run.graph.n_vertices + run.graph.n_edges
        metrics = {
            "label": cell.label,
            "makespan": run.makespan,
            "processing_time": t_proc,
            "evps": size / t_proc if t_proc > 0 else 0.0,
            "n_iterations": run.algorithm.n_iterations,
            "n_vertices": int(run.graph.n_vertices),
            "n_edges": int(run.graph.n_edges),
        }

        # One monitoring sample serves both the archive (which writes its
        # measurements) and the profile (which then merges the log's
        # blocking events into it).
        monitoring = (
            _sample_monitoring(run.system_run, _MONITORING_INTERVAL)
            if cache is not None or cell.characterize
            else None
        )
        if cache is not None:
            if graph_hit is False:
                cache.store(
                    graph_key,
                    lambda tmp: _write_graph_payload(run.graph, cell.spec, tmp),
                    "graph",
                )

            def write_payload(tmp: Path) -> None:
                _save_run(
                    run.system_run,
                    tmp,
                    monitoring,
                    monitoring_interval=_MONITORING_INTERVAL,
                    ground_truth_interval=_GROUND_TRUTH_INTERVAL,
                )
                (tmp / _CELL_JSON).write_text(json.dumps(metrics, indent=2))

            progress.publish("stage", cell.label, stage="archive")
            with obs.span("archive", label=cell.label):
                cache.store(key, write_payload, "trace")
        profile = None
        if cell.characterize:
            progress.publish("stage", cell.label, stage="characterize")
            profile = _characterize(run.system_run, monitoring)

        return CellResult(
            spec=cell.spec,
            key=key,
            profile=profile,
            cached=False,
            trace_hit=False if cache is not None else None,
            graph_hit=graph_hit,
            duration=time.perf_counter() - t0,
            **{k: v for k, v in metrics.items() if k != "label"},
        )


# ---------------------------------------------------------------------- #
# The batch engine
# ---------------------------------------------------------------------- #


def _progress_worker_init(queue: "multiprocessing.Queue") -> None:
    """Pool initializer: route this worker's progress events to the parent.

    Also drops any tracer overlay inherited across ``fork``: a job
    worker thread in the parent may have had a per-job tracer installed
    as its thread overlay (:func:`repro.obs.set_thread_tracer`) at fork
    time, and its spans belong to the parent, not this worker.  The
    overlay resolver already ignores wrong-pid tracers; clearing it here
    just releases the reference.
    """
    obs.set_thread_tracer(None)
    progress.set_sink(queue.put)


def _drain_progress(queue: "multiprocessing.Queue", status: RunStatus) -> None:
    """Parent-side drainer thread: queue → :meth:`RunStatus.record`.

    Runs until the ``None`` sentinel arrives, then keeps draining until
    the queue first reads empty — worker feeder threads may still be
    flushing when the parent enqueues the sentinel, so trailing events
    get a grace window instead of being dropped.
    """
    from queue import Empty

    sentinel_seen = False
    while True:
        try:
            item = queue.get(timeout=0.25)
        except Empty:
            if sentinel_seen:
                return
            continue
        except (EOFError, OSError):  # queue torn down under us
            return
        if item is None:
            sentinel_seen = True
            continue
        try:
            status.record(item)
        except Exception:  # a malformed event must not kill the drainer
            pass


def run_grid(
    cells: Sequence[CellSpec],
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    on_status: Callable[[RunStatus], None] | None = None,
    status: RunStatus | None = None,
) -> tuple[list[CellResult], EngineStats]:
    """Execute a grid of cells, optionally in parallel and/or cached.

    Results come back in input order regardless of completion order.
    ``jobs=1`` executes inline through the exact same per-cell code path
    as the pooled variant — the serial/parallel equivalence the test
    layer asserts holds by construction plus per-cell determinism.

    ``on_status`` receives the sweep's live :class:`~repro.progress.RunStatus`
    *before* the first cell starts — ``repro serve`` registers it with the
    telemetry server so ``/runs``, ``/metrics``, and ``/events`` observe
    the run in flight.  Workers publish typed progress events (cell
    started/finished/failed/cache-hit, stage transitions) over a
    ``multiprocessing.Queue``; a parent-side drainer thread folds them
    into the status model, which also enriches every event with the
    current queue depth and in-flight count.

    ``status`` reuses an externally constructed
    :class:`~repro.progress.RunStatus` (same cell labels) instead of
    creating a fresh one — the analysis service (:mod:`repro.jobs`)
    builds a job's status at *submission* time so ``/runs`` and
    ``/events`` report the job while it is still queued, then hands it to
    ``run_grid`` when a worker picks the job up.

    Tracing resolves through :func:`repro.obs.current`, which honors the
    calling thread's tracer overlay: a job worker that installed a
    per-job tracer gets every span of this sweep — inline spans directly,
    pooled workers' snapshots via ingest — merged into that job's trace.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    t0 = time.perf_counter()
    tracer = obs.current()
    if status is None:
        status = RunStatus((c.label for c in cells), jobs=jobs)
    if on_status is not None:
        on_status(status)
    status.record(progress.ProgressEvent(kind="run.started"))
    try:
        if jobs == 1 or len(cells) <= 1:
            # Thread-local: concurrent inline sweeps on different threads
            # (job-queue workers) must not publish into each other's run.
            previous = progress.set_thread_sink(status.record)
            try:
                results = [execute_cell(cell, cache_dir) for cell in cells]
            finally:
                progress.set_thread_sink(previous)
        else:
            queue: multiprocessing.Queue = multiprocessing.Queue()
            drainer = threading.Thread(
                target=_drain_progress, args=(queue, status),
                name="grade10-progress-drain", daemon=True,
            )
            drainer.start()
            try:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(cells)),
                    initializer=_progress_worker_init,
                    initargs=(queue,),
                ) as pool:
                    futures = [
                        pool.submit(execute_cell, cell, cache_dir, tracer is not None)
                        for cell in cells
                    ]
                    results = [f.result() for f in futures]
            finally:
                queue.put(None)
                drainer.join(timeout=10.0)
                queue.close()
            if tracer is not None:
                # Merge the workers' spans/counters into the parent's tracer;
                # events keep their worker pids so Perfetto shows one track
                # group per worker process.
                for r in results:
                    if r.trace is not None:
                        tracer.ingest(r.trace)
    finally:
        status.finish()
    stats = EngineStats(
        n_cells=len(results),
        executed=sum(1 for r in results if not r.cached),
        cache_hits=sum(1 for r in results if r.cached),
        jobs=jobs,
        wall_clock=time.perf_counter() - t0,
        cell_seconds=sum(r.duration for r in results),
        graph_hits=sum(1 for r in results if r.graph_hit is True),
        graph_misses=sum(1 for r in results if r.graph_hit is False),
        trace_hits=sum(1 for r in results if r.trace_hit is True),
        trace_misses=sum(1 for r in results if r.trace_hit is False),
    )
    _LOG.debug(
        "grid run finished",
        run_id=status.run_id,
        cells=stats.n_cells,
        cache_hits=stats.cache_hits,
        wall_clock_s=stats.wall_clock,
    )
    return results, stats


def parallel_map(
    fn: Callable[..., Any],
    argument_tuples: Iterable[tuple],
    *,
    jobs: int = 1,
) -> list[Any]:
    """Order-preserving map over a process pool (inline when ``jobs=1``).

    ``fn`` must be a picklable top-level function; each element of
    ``argument_tuples`` is splatted into one call.  The experiment drivers
    use this to fan their per-workload loops out across workers.

    When the parent process is tracing (:func:`repro.obs.install`), each
    pooled call records into a worker-local tracer whose snapshot is
    merged back into the parent's — same protocol as :func:`run_grid`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    args = list(argument_tuples)
    if jobs == 1 or len(args) <= 1:
        return [fn(*a) for a in args]
    tracer = obs.current()
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        if tracer is None:
            futures = [pool.submit(fn, *a) for a in args]
            return [f.result() for f in futures]
        futures = [pool.submit(_call_traced, fn, a) for a in args]
        results = []
        for f in futures:
            result, snapshot = f.result()
            if snapshot is not None:
                tracer.ingest(snapshot)
            results.append(result)
        return results


def _call_traced(fn: Callable[..., Any], args: tuple) -> tuple[Any, dict | None]:
    """Run ``fn(*args)`` under a fresh worker-local tracer (picklable)."""
    active = obs.current()
    if active is not None and active.pid == os.getpid():
        # Already tracing in-process; events land there, nothing to ship.
        return fn(*args), None
    inherited = obs.uninstall()
    local = obs.install()
    try:
        result = fn(*args)
    finally:
        obs.uninstall()
        if inherited is not None:
            obs.install(inherited)
    return result, local.snapshot()
