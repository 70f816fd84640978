"""Analysis-as-a-service job model: spec validation and a bounded queue.

``repro serve`` historically was a read-only window onto a run executing
in the same process.  This module is the *write side* that turns it into
a service: clients ``POST /jobs`` a run/suite spec, get a job id back,
and a bounded worker pool executes jobs through the existing batch
engine (:func:`repro.parallel.run_grid`).  Three pieces:

* :func:`parse_job_spec` validates an untrusted JSON body against the
  repo's grid/config model (systems, datasets, algorithms, presets) and
  normalizes it into an immutable :class:`JobSpec`.  Every rejection is
  a typed :class:`JobSpecError` carrying the offending field — the HTTP
  layer maps it to a structured 400 and *nothing* is enqueued.
* :class:`JobQueue` is the bounded submit-and-execute engine.  Admission
  is atomic: a submitted job either occupies a queue slot, is registered
  with the :class:`~repro.progress.RunRegistry`, and has a live
  :class:`~repro.progress.RunStatus` (so ``/runs``, ``/events`` and
  ``/metrics`` report it with zero new read-side code), or it is
  rejected with :class:`QueueFullError` (HTTP 429 + ``Retry-After``)
  and leaves no trace.  ``workers`` daemon threads drain the queue and
  run each job's cells via ``run_grid`` with the job's pre-built status.
* The job lifecycle is ``queued → running → done|failed|cancelled``.
  ``cancel`` flips a *queued* job to ``cancelled`` (a running job runs to
  completion — the drain contract); every path, including cancellation,
  ends with the status's terminal ``run.finished`` event, so an SSE
  consumer needs exactly one stop condition.

Events recorded on a job's status beyond the batch engine's own:
``job.queued`` (admission), ``job.started`` (a worker picked it up),
``job.failed`` (executor raised) and ``job.cancelled``.

Every job also carries a distributed trace: :meth:`JobQueue.submit`
accepts the ``trace_id``/``parent_span_id`` the HTTP layer parsed off the
client's ``traceparent`` header, the worker records explicit
``job.queued-wait`` and ``job.execute`` spans onto a per-job
:class:`~repro.obs.Tracer` (installed as the worker thread's tracer
overlay so every pipeline-stage span lands on it too), and
:func:`assemble_job_trace` merges the server-side HTTP spans with the
job's own into one Chrome-trace document for ``GET /jobs/<id>/trace``.
Queue-wait and execution durations additionally feed the
``job_queue_wait_seconds`` / ``job_execute_seconds`` histogram families
exposed on ``/metrics``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from . import obs
from .obs_logging import get_logger
from .progress import ProgressEvent, RunRegistry, RunStatus

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_WORKERS",
    "JOB_STATES",
    "MAX_CELLS_PER_JOB",
    "MAX_JOBS_PER_JOB",
    "PRESETS",
    "TERMINAL_STATES",
    "Job",
    "JobError",
    "JobNotCancellableError",
    "JobQueue",
    "JobSpec",
    "JobSpecError",
    "QueueClosedError",
    "QueueFullError",
    "UnknownJobError",
    "assemble_job_trace",
    "parse_job_spec",
]

_LOG = get_logger("repro.jobs")

#: Dataset presets a job may request (mirrors the CLI choices).
PRESETS = ("tiny", "small", "full")
#: Upper bound on ``len(systems) × len(grid)`` — one submission cannot
#: monopolize the service with an unbounded sweep.
MAX_CELLS_PER_JOB = 64
#: Upper bound on the per-job worker processes a spec may request.
MAX_JOBS_PER_JOB = 8
#: Default bounded-queue capacity (queued jobs; running jobs don't count).
DEFAULT_CAPACITY = 32
#: Default worker-thread pool size.
DEFAULT_WORKERS = 2

#: The job lifecycle states, in order of first possible occurrence.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Fallback ``Retry-After`` hint when no job has completed yet.  Also the
#: floor of every hint: HTTP clients round the header down to whole
#: seconds, so anything below 1 reads as "retry immediately" and turns
#: backpressure into a retry storm when jobs finish in microseconds.
_DEFAULT_RETRY_AFTER_S = 1.0

#: How many recent job durations feed the backpressure estimate (and the
#: bound on the duration history — older entries never influence it).
_RETRY_WINDOW = 16


class JobError(Exception):
    """Base of every typed job-service failure."""


class JobSpecError(JobError):
    """A submitted job spec failed validation (maps to HTTP 400)."""

    def __init__(self, message: str, *, job_field: str | None = None) -> None:
        super().__init__(message)
        self.job_field = job_field

    def to_doc(self) -> dict[str, Any]:
        """Structured error body the HTTP layer returns verbatim."""
        doc: dict[str, Any] = {"error": str(self)}
        if self.job_field is not None:
            doc["field"] = self.job_field
        return doc


class QueueFullError(JobError):
    """The bounded queue is at capacity (maps to HTTP 429)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"job queue full; retry after {retry_after_s:.1f}s"
        )
        self.retry_after_s = retry_after_s


class QueueClosedError(JobError):
    """The queue no longer accepts submissions (shutting down)."""


class UnknownJobError(JobError):
    """No job with the requested id exists (maps to HTTP 404)."""


class JobNotCancellableError(JobError):
    """The job already left the ``queued`` state (maps to HTTP 409)."""

    def __init__(self, job_id: str, state: str) -> None:
        super().__init__(f"job {job_id} is {state}; only queued jobs can be cancelled")
        self.state = state


# ---------------------------------------------------------------------- #
# Job specs: validation and normalization
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalized run/suite request.

    The canonical JSON form (:meth:`to_dict`) round-trips through
    :func:`parse_job_spec` unchanged — the property the Hypothesis suite
    pins so a spec read back off ``/runs`` can be resubmitted verbatim.
    """

    preset: str = "tiny"
    systems: tuple[str, ...] = ("giraph",)
    grid: tuple[tuple[str, str], ...] = (("graph500", "pr"),)
    seed: int = 0
    characterize: bool = False
    jobs: int = 1
    cache: bool = True
    #: Live windows: each cell is characterized, and its profile's
    #: bottleneck report is published cut into windows
    #: (:func:`repro.core.incremental.cut_windows`) as ``window.analyzed``
    #: / ``bottleneck.detected`` events before ``cell.finished``.  Live
    #: cells honour ``cache`` and ``jobs`` like any other.
    live: bool = False

    @property
    def n_cells(self) -> int:
        """Cells this job expands into (systems × grid)."""
        return len(self.systems) * len(self.grid)

    def labels(self) -> list[str]:
        """The cell labels, in execution order (the RunStatus vocabulary)."""
        return [
            f"{system}/{dataset}/{algorithm}"
            for system in self.systems
            for dataset, algorithm in self.grid
        ]

    def cells(self) -> list:
        """Expand into the batch engine's :class:`~repro.parallel.CellSpec` list."""
        from .parallel import CellSpec
        from .workloads.runner import WorkloadSpec

        return [
            CellSpec(
                WorkloadSpec(
                    system, dataset, algorithm, preset=self.preset, seed=self.seed
                ),
                characterize=self.characterize or self.live,
                live=self.live,
            )
            for system in self.systems
            for dataset, algorithm in self.grid
        ]

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-native form (fixed key set, lists not tuples)."""
        return {
            "preset": self.preset,
            "systems": list(self.systems),
            "grid": [[dataset, algorithm] for dataset, algorithm in self.grid],
            "seed": self.seed,
            "characterize": self.characterize,
            "jobs": self.jobs,
            "cache": self.cache,
            "live": self.live,
        }


def _require_str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise JobSpecError(
            f"{name} must be a string, got {type(value).__name__}", job_field=name
        )
    return value


def _require_int(value: Any, name: str) -> int:
    # bool is an int subclass; a spec saying "seed": true is a mistake.
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(
            f"{name} must be an integer, got {value!r}", job_field=name
        )
    return value


def _require_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise JobSpecError(
            f"{name} must be a boolean, got {value!r}", job_field=name
        )
    return value


def _parse_grid_entry(entry: Any, index: int, *, datasets: tuple[str, ...],
                      algorithms: tuple[str, ...]) -> tuple[str, str]:
    name = f"grid[{index}]"
    if isinstance(entry, str):
        dataset, sep, algorithm = entry.partition("/")
        if not sep:
            raise JobSpecError(
                f"{name}: expected 'dataset/algorithm', got {entry!r}",
                job_field="grid",
            )
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        dataset, algorithm = entry
    else:
        raise JobSpecError(
            f"{name}: expected a [dataset, algorithm] pair, got {entry!r}",
            job_field="grid",
        )
    dataset = _require_str(dataset, f"{name}.dataset")
    algorithm = _require_str(algorithm, f"{name}.algorithm")
    if dataset not in datasets:
        raise JobSpecError(
            f"{name}: unknown dataset {dataset!r}; choose from {list(datasets)}",
            job_field="grid",
        )
    if algorithm not in algorithms:
        raise JobSpecError(
            f"{name}: unknown algorithm {algorithm!r}; choose from {list(algorithms)}",
            job_field="grid",
        )
    return dataset, algorithm


def parse_job_spec(body: Any) -> JobSpec:
    """Validate an untrusted JSON body into a :class:`JobSpec`.

    Raises :class:`JobSpecError` (with the offending field name) on any
    problem: non-object bodies, unknown keys, wrong types, unknown
    systems/datasets/algorithms/presets, duplicate systems or grid
    entries, and sweeps larger than :data:`MAX_CELLS_PER_JOB` cells.
    """
    from .algorithms import ALGORITHMS
    from .workloads import dataset_names
    from .workloads.runner import SYSTEMS

    if not isinstance(body, Mapping):
        raise JobSpecError(
            f"job spec must be a JSON object, got {type(body).__name__}"
        )
    known = {"preset", "systems", "grid", "seed", "characterize", "jobs", "cache", "live"}
    unknown = sorted(set(body) - known)
    if unknown:
        raise JobSpecError(
            f"unknown field(s): {', '.join(map(repr, unknown))}",
            job_field=unknown[0],
        )

    defaults = JobSpec()
    preset = _require_str(body.get("preset", defaults.preset), "preset")
    if preset not in PRESETS:
        raise JobSpecError(
            f"unknown preset {preset!r}; choose from {list(PRESETS)}",
            job_field="preset",
        )

    raw_systems = body.get("systems", list(defaults.systems))
    if isinstance(raw_systems, str):
        raw_systems = [raw_systems]
    if not isinstance(raw_systems, (list, tuple)) or not raw_systems:
        raise JobSpecError(
            "systems must be a non-empty list of system names",
            job_field="systems",
        )
    systems: list[str] = []
    for i, system in enumerate(raw_systems):
        system = _require_str(system, f"systems[{i}]")
        if system not in SYSTEMS:
            raise JobSpecError(
                f"unknown system {system!r}; choose from {list(SYSTEMS)}",
                job_field="systems",
            )
        if system in systems:
            raise JobSpecError(
                f"duplicate system {system!r}", job_field="systems"
            )
        systems.append(system)

    datasets = tuple(dataset_names())
    algorithms = tuple(sorted(ALGORITHMS))
    raw_grid = body.get("grid", [list(pair) for pair in defaults.grid])
    if not isinstance(raw_grid, (list, tuple)) or not raw_grid:
        raise JobSpecError(
            "grid must be a non-empty list of [dataset, algorithm] pairs",
            job_field="grid",
        )
    grid: list[tuple[str, str]] = []
    for i, entry in enumerate(raw_grid):
        pair = _parse_grid_entry(entry, i, datasets=datasets, algorithms=algorithms)
        if pair in grid:
            raise JobSpecError(
                f"duplicate grid entry {'/'.join(pair)!r}", job_field="grid"
            )
        grid.append(pair)

    seed = _require_int(body.get("seed", defaults.seed), "seed")
    characterize = _require_bool(
        body.get("characterize", defaults.characterize), "characterize"
    )
    cache = _require_bool(body.get("cache", defaults.cache), "cache")
    live = _require_bool(body.get("live", defaults.live), "live")
    jobs = _require_int(body.get("jobs", defaults.jobs), "jobs")
    if not (1 <= jobs <= MAX_JOBS_PER_JOB):
        raise JobSpecError(
            f"jobs must be in [1, {MAX_JOBS_PER_JOB}], got {jobs}", job_field="jobs"
        )

    n_cells = len(systems) * len(grid)
    if n_cells > MAX_CELLS_PER_JOB:
        raise JobSpecError(
            f"job expands to {n_cells} cells, over the {MAX_CELLS_PER_JOB}-cell limit",
            job_field="grid",
        )
    return JobSpec(
        preset=preset,
        systems=tuple(systems),
        grid=tuple(grid),
        seed=seed,
        characterize=characterize,
        jobs=jobs,
        cache=cache,
        live=live,
    )


# ---------------------------------------------------------------------- #
# The bounded queue and worker pool
# ---------------------------------------------------------------------- #

#: Never-recycled per-process job number (atomic under the GIL).
_JOB_SERIAL = itertools.count(1)


@dataclass
class Job:
    """One submitted job: spec, live status, and lifecycle bookkeeping.

    ``trace_id`` ties the job to the distributed trace it belongs to
    (the client's ``traceparent`` trace id, or a freshly minted one);
    ``submit_span_id`` is the server-side HTTP span that admitted it —
    the parent of the ``job.queued-wait`` span.  ``tracer`` collects
    every span the job produces (queue wait, execution, pipeline
    stages); ``submitted_perf`` anchors the queue-wait interval on the
    monotonic clock the tracer uses.
    """

    id: str
    spec: JobSpec
    status: RunStatus
    state: str = "queued"
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    trace_id: str = ""
    submit_span_id: str | None = None
    tracer: obs.Tracer = field(default_factory=obs.Tracer, repr=False)
    submitted_perf: float = field(default_factory=time.perf_counter, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-native job document (``POST /jobs`` and ``GET /jobs`` body)."""
        return {
            "id": self.id,
            "run_id": self.status.run_id,
            "state": self.state,
            "error": self.error,
            "spec": self.spec.to_dict(),
            "n_cells": self.spec.n_cells,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "last_event_id": self.status.last_event_id,
            "trace_id": self.trace_id,
        }


class JobQueue:
    """Bounded submit-and-execute engine behind ``POST /jobs``.

    ``capacity`` bounds *queued* jobs (running jobs have already left the
    queue); ``workers`` daemon threads execute jobs through ``executor``
    — by default :meth:`execute_job`, which reuses
    :func:`repro.parallel.run_grid` with the job's pre-registered status.
    ``registry`` is the same :class:`~repro.progress.RunRegistry` the
    telemetry server reads, which is what makes every submitted job
    visible on ``/runs``/``/events``/``/metrics`` for free.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        workers: int = DEFAULT_WORKERS,
        registry: RunRegistry | None = None,
        cache_dir: str | Path | None = None,
        executor: Callable[[Job], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.capacity = capacity
        self.workers = workers
        self.registry = registry if registry is not None else RunRegistry()
        self.cache_dir = cache_dir
        self._executor = executor if executor is not None else self.execute_job
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._pending: queue.Queue[str | None] = queue.Queue(maxsize=capacity)
        self._job_durations: list[float] = []
        self._closed = False
        self._threads: list[threading.Thread] = []
        self.queue_wait_seconds = obs.HistogramFamily(
            "job_queue_wait_seconds",
            "Time a job spent queued between admission and worker pickup.",
        )
        self.execute_seconds = obs.HistogramFamily(
            "job_execute_seconds",
            "Wall-clock execution time of one job, by terminal state.",
            label_names=("state",),
        )
        #: Stage-name → merged :class:`~repro.obs.Histogram` folded in from
        #: every finished job's tracer (pipeline stage durations).
        self._stage_hists: dict[str, obs.Histogram] = {}

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "JobQueue":
        """Start the worker threads; returns self (context-manager entry)."""
        if self._threads:
            raise RuntimeError("job queue already started")
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"grade10-job-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        _LOG.debug("job queue started", workers=self.workers, capacity=self.capacity)
        return self

    def shutdown(self, *, drain: bool = False, timeout: float | None = 30.0) -> None:
        """Stop accepting jobs and wind the workers down.

        With ``drain=False`` (the SIGTERM path) every still-queued job is
        cancelled and only in-flight jobs run to completion; with
        ``drain=True`` the workers first execute the whole backlog.
        Idempotent; safe to call before :meth:`start`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = [j for j in self._jobs.values() if j.state == "queued"]
        if not drain:
            for job in queued:
                self._cancel_job(job)
        for _ in self._threads:
            self._pending.put(None)  # one sentinel per worker, FIFO after backlog
        for thread in self._threads:
            thread.join(timeout=timeout)
        _LOG.debug("job queue stopped", drained=drain)

    def __enter__(self) -> "JobQueue":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- submission and cancellation ------------------------------------ #
    def submit(
        self,
        body: Any,
        *,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ) -> Job:
        """Validate, admit, and enqueue one job; returns it.

        Admission is all-or-nothing: on :class:`JobSpecError` /
        :class:`QueueFullError` / :class:`QueueClosedError` nothing is
        registered and no id is allocated to the caller.

        ``trace_id``/``parent_span_id`` continue a distributed trace
        (the HTTP layer passes the client's trace id and its own request
        span); omitted, the job mints a fresh trace id so its spans are
        always joinable.
        """
        spec = body if isinstance(body, JobSpec) else parse_job_spec(body)
        job_id = f"job-{next(_JOB_SERIAL):06d}-{uuid.uuid4().hex[:8]}"
        if trace_id is None:
            trace_id = obs.new_trace_id()
        status = RunStatus(
            spec.labels(),
            jobs=spec.jobs,
            run_id=job_id,
            meta={"kind": "job", "spec": spec.to_dict(), "trace_id": trace_id},
        )
        job = Job(
            id=job_id,
            spec=spec,
            status=status,
            trace_id=trace_id,
            submit_span_id=parent_span_id,
        )
        with self._lock:
            if self._closed:
                raise QueueClosedError("job queue is shutting down")
            try:
                self._pending.put_nowait(job_id)
            except queue.Full:
                raise QueueFullError(self._retry_after_locked()) from None
            self._jobs[job_id] = job
            self._order.append(job_id)
            # Record admission while still holding the lock: a worker that
            # pops the id immediately blocks on this same lock, so
            # job.queued is always event #1, before its job.started.
            status.record(ProgressEvent(kind="job.queued", data={"job_id": job_id}))
        self.registry.register(status)
        _LOG.debug("job queued", job_id=job_id, cells=spec.n_cells)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job; running/terminal jobs raise.

        Raises :class:`UnknownJobError` for unknown ids and
        :class:`JobNotCancellableError` once the job left ``queued`` —
        in-flight work is never killed (the drain contract).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"no job {job_id!r}")
            if job.state != "queued":
                raise JobNotCancellableError(job_id, job.state)
            job.state = "cancelled"
            job.finished_at = time.time()
        self._finalize_cancelled(job)
        return job

    def _cancel_job(self, job: Job) -> None:
        """Shutdown-path cancellation (already closed; races are benign)."""
        with self._lock:
            if job.state != "queued":
                return
            job.state = "cancelled"
            job.finished_at = time.time()
        self._finalize_cancelled(job)

    def _finalize_cancelled(self, job: Job) -> None:
        job.status.record(
            ProgressEvent(kind="job.cancelled", data={"job_id": job.id})
        )
        job.status.finish()  # run.finished: the one terminal SSE event
        _LOG.debug("job cancelled", job_id=job.id)

    # -- reading -------------------------------------------------------- #
    def get(self, job_id: str) -> Job:
        """The job submitted as ``job_id`` (:class:`UnknownJobError` if absent)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every tracked job, oldest submission first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def gauges(self) -> dict[str, float]:
        """Live job-queue gauges merged into the ``/metrics`` exposition."""
        counts = self.counts()
        return {
            "jobqueue_capacity": float(self.capacity),
            "jobqueue_workers": float(self.workers),
            "jobqueue_depth": float(counts["queued"]),
            "jobqueue_running": float(counts["running"]),
            "jobqueue_done": float(counts["done"]),
            "jobqueue_failed": float(counts["failed"]),
            "jobqueue_cancelled": float(counts["cancelled"]),
        }

    def histogram_families(self) -> list[obs.HistogramFamily]:
        """The queue's latency families for the ``/metrics`` exposition."""
        return [self.queue_wait_seconds, self.execute_seconds]

    def stage_snapshots(self) -> dict[str, dict[str, Any]]:
        """Stage-name → histogram snapshot folded from finished jobs.

        Same shape as :meth:`~repro.obs.Tracer.histogram_snapshots`, so
        it merges with the live tracer's through
        :func:`~repro.obs.stage_histogram_family`.
        """
        with self._lock:
            hists = dict(self._stage_hists)
        return {name: hist.snapshot() for name, hist in hists.items()}

    def _fold_job_histograms(self, job: Job) -> None:
        """Merge a finished job's per-stage histograms into the queue's.

        ``job.queued-wait``/``job.execute`` are skipped — they are already
        first-class families — so what remains is the pipeline-stage
        distribution (``cell``, ``generate``, ``parse``, …).
        """
        snaps = job.tracer.histogram_snapshots()
        with self._lock:
            for name, snap in snaps.items():
                if name in ("job.queued-wait", "job.execute"):
                    continue
                hist = self._stage_hists.get(name)
                if hist is None:
                    try:
                        hist = self._stage_hists[name] = obs.Histogram(
                            tuple(snap.get("bounds", ()))
                        )
                    except (TypeError, ValueError):
                        continue
                try:
                    hist.ingest(snap)
                except (KeyError, TypeError, ValueError):
                    continue  # mismatched bounds or malformed: drop

    def retry_after_s(self) -> float:
        """The backpressure hint sent with a 429 (seconds, >= 1)."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        backlog = sum(
            1 for j in self._jobs.values() if j.state in ("queued", "running")
        )
        if not self._job_durations:
            return _DEFAULT_RETRY_AFTER_S
        recent = self._job_durations[-_RETRY_WINDOW:]
        mean = sum(recent) / len(recent)
        hint = mean * backlog / self.workers
        # The recorded durations are clamped to finite non-negatives, but
        # keep the floor unconditional: near-zero job durations (or an
        # empty backlog) must never advertise a zero/negative Retry-After.
        if not (hint >= _DEFAULT_RETRY_AFTER_S):  # also catches NaN
            return _DEFAULT_RETRY_AFTER_S
        return hint

    def _record_duration_locked(self, seconds: float) -> None:
        """Record one job's wall-clock duration for the backpressure hint.

        ``time.time`` is not monotonic — NTP steps can make ``finished_at``
        precede ``started_at`` — so negative or non-finite samples are
        dropped rather than poisoning the mean.  The history is bounded to
        the estimate's window.
        """
        if not (0.0 <= seconds < float("inf")):
            return
        self._job_durations.append(seconds)
        if len(self._job_durations) > _RETRY_WINDOW:
            del self._job_durations[: -_RETRY_WINDOW]

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- execution ------------------------------------------------------ #
    def execute_job(self, job: Job) -> None:
        """Default executor: run the job's cells through the batch engine.

        Reuses the job's pre-registered status, so every progress event
        lands on the same gap-free event log clients started streaming at
        submission time.  A ``"live": true`` job takes the same path; its
        cells publish their windows before ``cell.finished``.
        """
        from .parallel import run_grid

        run_grid(
            job.spec.cells(),
            jobs=job.spec.jobs,
            cache_dir=self.cache_dir if job.spec.cache else None,
            status=job.status,
        )

    def _worker_loop(self) -> None:
        while True:
            job_id = self._pending.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                if job.state != "queued":
                    continue  # cancelled while waiting in the queue
                job.state = "running"
                job.started_at = time.time()
            # The queue-wait interval starts on the submitting thread and
            # ends here, so it is recorded retroactively from its measured
            # endpoints rather than held open as a context manager.
            wait_s = max(time.perf_counter() - job.submitted_perf, 0.0)
            wait_span = job.tracer.record_span(
                "job.queued-wait",
                start_s=job.submitted_perf,
                duration_s=wait_s,
                parent_id=job.submit_span_id,
                trace_id=job.trace_id,
                job_id=job_id,
            )
            self.queue_wait_seconds.observe(
                wait_s, exemplar={"span_id": wait_span, "trace_id": job.trace_id}
            )
            job.status.record(
                ProgressEvent(kind="job.started", data={"job_id": job_id})
            )
            # The job tracer becomes this thread's tracer overlay for the
            # duration: every pipeline-stage span the executor opens (and
            # every worker snapshot run_grid ingests) lands on it.
            previous = obs.set_thread_tracer(job.tracer)
            execute_span = job.tracer.span(
                "job.execute",
                parent_id=wait_span,
                trace_id=job.trace_id,
                job_id=job_id,
            )
            t0 = time.perf_counter()
            state = "failed"
            try:
                with execute_span:
                    self._executor(job)
            except Exception as exc:
                with self._lock:
                    job.state = "failed"
                    job.error = repr(exc)
                    job.finished_at = time.time()
                job.status.record(
                    ProgressEvent(
                        kind="job.failed", data={"job_id": job_id, "error": repr(exc)}
                    )
                )
                _LOG.warning("job failed", job_id=job_id, error=repr(exc))
            else:
                state = "done"
                with self._lock:
                    job.state = "done"
                    job.finished_at = time.time()
                _LOG.debug("job done", job_id=job_id)
            finally:
                obs.set_thread_tracer(previous)
                self.execute_seconds.observe(
                    max(time.perf_counter() - t0, 0.0),
                    labels={"state": state},
                    exemplar={
                        "span_id": execute_span.span_id,
                        "trace_id": job.trace_id,
                    },
                )
                self._fold_job_histograms(job)
                with self._lock:
                    if job.started_at is not None and job.finished_at is not None:
                        self._record_duration_locked(job.finished_at - job.started_at)
                if not job.status.finished:
                    job.status.finish()


# ---------------------------------------------------------------------- #
# Trace assembly: one Chrome-trace document per job
# ---------------------------------------------------------------------- #


def assemble_job_trace(
    job: Job, extra_events: Iterable[Mapping[str, Any]] = ()
) -> dict[str, Any]:
    """Merge a job's spans with the server's into one Chrome trace.

    ``extra_events`` is the serving process's HTTP-span event list; only
    complete (``"X"``) events tagged with the job's trace id are taken —
    the submitting ``POST /jobs`` request span, plus any other request
    the client stamped with the same ``traceparent``.  The job tracer
    contributes ``job.queued-wait``, ``job.execute``, and every pipeline
    stage span (both threads share the machine-wide monotonic clock, so
    the merged intervals nest without translation).

    The result is one rooted tree: a synthetic ``job`` span covering the
    whole interval adopts every span whose recorded parent is outside
    the document (e.g. the HTTP span's client-side parent, preserved as
    ``args.client_parent``), preferring the smallest span that strictly
    encloses the orphan.  Timestamps are rebased so the trace starts at
    zero.  No span in the output has a dangling parent reference.
    """
    trace_id = job.trace_id
    events: list[dict[str, Any]] = []
    for event in extra_events:
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        if args.get("trace") != trace_id:
            continue
        events.append({**event, "args": dict(args)})
    for event in job.tracer.snapshot()["events"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        args.setdefault("trace", trace_id)
        events.append({**event, "args": args})

    t_min = min((e["ts"] for e in events), default=0.0)
    t_max = max((e["ts"] + float(e.get("dur", 0.0)) for e in events), default=0.0)
    root_id = f"job:{job.id}"
    known = {args["id"] for e in events if (args := e["args"]).get("id")}
    known.add(root_id)
    # Longest-first, so the smallest strictly-enclosing candidate wins.
    by_size = sorted(events, key=lambda e: -float(e.get("dur", 0.0)))
    for e in events:
        parent = e["args"].get("parent")
        if parent in known:
            continue
        if parent is not None:
            # The client's span id off the traceparent header: outside
            # this document but worth keeping for cross-system joins.
            e["args"]["client_parent"] = parent
        ts, dur = e["ts"], float(e.get("dur", 0.0))
        adoptive = root_id
        for other in by_size:
            if other is e or float(other.get("dur", 0.0)) <= dur:
                continue
            o_ts, o_dur = other["ts"], float(other.get("dur", 0.0))
            if o_ts <= ts and ts + dur <= o_ts + o_dur and other["args"].get("id"):
                adoptive = other["args"]["id"]
        e["args"]["parent"] = adoptive

    events.append(
        {
            "ph": "X",
            "cat": "job",
            "name": "job",
            "pid": job.tracer.pid,
            "tid": 0,
            "ts": t_min,
            "dur": max(t_max - t_min, 0.0),
            "args": {
                "id": root_id,
                "trace": trace_id,
                "job_id": job.id,
                "state": job.state,
            },
        }
    )
    for e in events:
        e["ts"] = e["ts"] - t_min
    events.sort(key=lambda e: (e["ts"], -float(e.get("dur", 0.0))))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "job_id": job.id,
            "run_id": job.status.run_id,
            "trace_id": trace_id,
            "state": job.state,
        },
    }
