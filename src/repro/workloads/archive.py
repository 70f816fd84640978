"""Run archival: persist and reload a run's artifacts for offline analysis.

Grade10's decoupling from the system under test is file-based: the
framework writes logs and the cluster monitor writes samples; the analysis
runs later, elsewhere, possibly many times with refined models.  This
module materializes that workflow for the simulated systems:

* :func:`save_run` writes a run directory::

      <dir>/
        events.jsonl        execution log
        monitoring.csv      coarse monitoring samples
        ground_truth.csv    fine samples (for Table II-style validation)
        models.json         the tuned expert models for this run
        meta.json           system, config snapshot, makespan

* :func:`load_run` reads it back into the traces + models Grade10 needs;
* :func:`characterize_archive` is the one-call offline analysis.  It
  gives the profile :func:`~repro.workloads.runner.characterize_run`
  computes from the run in memory, bit for bit, tuned or untuned.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .. import obs
from ..adapters import (
    RUN_SYSTEMS,
    expert_models,
    merge_blocking_into_resource_trace,
    parse_execution_trace,
)
from ..cluster.monitor import read_monitoring_csv, write_monitoring_csv
from ..core import Grade10, PerformanceProfile
from ..core.model_io import load_models, save_models
from ..core.rules import RuleMatrix
from ..core.traces import ExecutionTrace, ResourceTrace
from ..systems import read_jsonl, write_jsonl

__all__ = [
    "ArchiveError",
    "ArchiveNotFoundError",
    "ArchiveCorruptError",
    "EVENTS_FILE",
    "MONITORING_FILE",
    "GROUND_TRUTH_FILE",
    "MODELS_FILE",
    "META_FILE",
    "REQUIRED_FILES",
    "save_run",
    "load_run",
    "characterize_archive",
]

#: Archive member file names (the on-disk run-archive layout).
EVENTS_FILE = "events.jsonl"
MONITORING_FILE = "monitoring.csv"
GROUND_TRUTH_FILE = "ground_truth.csv"
MODELS_FILE = "models.json"
META_FILE = "meta.json"

#: Files a readable archive must contain (ground truth is optional extra).
REQUIRED_FILES = (EVENTS_FILE, MONITORING_FILE, MODELS_FILE, META_FILE)


class ArchiveError(Exception):
    """A run archive cannot be read (missing, incomplete, or corrupt)."""


class ArchiveNotFoundError(ArchiveError, FileNotFoundError):
    """The archive directory, or required files inside it, do not exist."""


class ArchiveCorruptError(ArchiveError, ValueError):
    """The archive exists but its contents cannot be parsed or are truncated."""


def save_run(
    run,
    directory: str | Path,
    *,
    monitoring_interval: float = 0.4,
    ground_truth_interval: float = 0.05,
) -> Path:
    """Persist one run's artifacts; returns the directory path."""
    return _save_run(
        run,
        directory,
        run.recorder.sample(monitoring_interval, t_end=run.makespan),
        monitoring_interval=monitoring_interval,
        ground_truth_interval=ground_truth_interval,
    )


def _save_run(
    run,
    directory: str | Path,
    monitoring: ResourceTrace,
    *,
    monitoring_interval: float,
    ground_truth_interval: float,
) -> Path:
    """:func:`save_run` with the run's monitoring already sampled.

    ``monitoring`` is the run's recorder sampled every
    ``monitoring_interval`` seconds; only its measurements are written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    write_jsonl(run.log, directory / EVENTS_FILE)
    write_monitoring_csv(monitoring, directory / MONITORING_FILE)
    write_monitoring_csv(
        run.recorder.sample(ground_truth_interval, t_end=run.makespan),
        directory / GROUND_TRUTH_FILE,
    )
    model, resources, rules = expert_models(
        RUN_SYSTEMS[type(run)], run.config, run.machine_names
    )
    save_models(
        directory / MODELS_FILE,
        execution_model=model,
        resource_model=resources,
        rules=rules,
    )
    config = asdict(run.config) if hasattr(run, "config") else {}
    config.pop("sync_bug", None)  # nested dataclass; not needed offline
    meta = {
        "system": type(run).__name__,
        "makespan": run.makespan,
        "machines": run.machine_names,
        "monitoring_interval": monitoring_interval,
        "ground_truth_interval": ground_truth_interval,
        "config": {k: v for k, v in config.items() if isinstance(v, (int, float, str, bool))},
    }
    (directory / META_FILE).write_text(json.dumps(meta, indent=2))
    return directory


def load_run(
    directory: str | Path,
    *,
    tuned: bool = True,
) -> tuple[ExecutionTrace, ResourceTrace, tuple, dict]:
    """Load an archived run: traces, (model, resources, rules), metadata.

    ``tuned=False`` loads the untuned model: the archived execution and
    resource models with the empty rule matrix, and no GC phases.

    Raises :class:`ArchiveNotFoundError` when the directory or any required
    file is absent, and :class:`ArchiveCorruptError` when a file exists but
    cannot be parsed (truncated writes, bad JSON).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ArchiveNotFoundError(f"run archive not found: {directory}")
    missing = [name for name in REQUIRED_FILES if not (directory / name).is_file()]
    if missing:
        raise ArchiveNotFoundError(
            f"run archive at {directory} is incomplete: missing {', '.join(missing)}"
        )
    try:
        with obs.span("load"):
            meta = json.loads((directory / META_FILE).read_text())
            # strict: an archive is a sealed write — a torn tail here is
            # byte-level truncation, not a racing writer, and must surface.
            log = read_jsonl(directory / EVENTS_FILE, strict=True)
            models = load_models(directory / MODELS_FILE)
            resource_trace = read_monitoring_csv(directory / MONITORING_FILE)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ArchiveCorruptError(f"run archive at {directory} is corrupt: {exc}") from exc
    if not any(event["event"] == "phase_start" for event in log.events):
        raise ArchiveCorruptError(
            f"run archive at {directory} is corrupt: {EVENTS_FILE} holds no phase events"
        )
    if not tuned:
        models = (models[0], models[1], RuleMatrix())
    try:
        execution_trace = parse_execution_trace(
            log, include_blocking=True, include_gc_phases=tuned
        )
        merge_blocking_into_resource_trace(log, resource_trace)
    except (KeyError, TypeError, ValueError) as exc:
        # Degraded logs (truncated writes, injected faults, foreign tools)
        # surface as one typed, catchable failure — never a raw crash.
        raise ArchiveCorruptError(
            f"run archive at {directory} holds an unparseable event log: {exc}"
        ) from exc
    return execution_trace, resource_trace, models, meta


def characterize_archive(
    directory: str | Path,
    *,
    slice_duration: float = 0.01,
    tuned: bool = True,
) -> PerformanceProfile:
    """One-call offline analysis of an archived run."""
    execution_trace, resource_trace, (model, resources, rules), _ = load_run(
        directory, tuned=tuned
    )
    if model is None or resources is None:
        raise ArchiveCorruptError(f"archive at {directory} has no models.json content")
    g10 = Grade10(model, resources, rules, slice_duration=slice_duration)
    return g10.characterize(execution_trace, resource_trace)
