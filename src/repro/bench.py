"""Pipeline benchmark harness: times every stage, seeds ``BENCH_pipeline.json``.

The ROADMAP's "as fast as the hardware allows" needs a measurement
baseline before any hot-path PR can claim a win.  This harness runs the
full pipeline (generate → parse → demand → upsample → attribute →
bottleneck → simulate/issues → outliers) on fixed seeded workloads for
every simulated system, collects per-stage wall-clock through the
:mod:`repro.obs` tracer, and writes the result in a documented schema.

Schema (``BENCH_pipeline.json``, version ``grade10-bench-pipeline/1``)::

    {
      "schema": "grade10-bench-pipeline/1",
      "preset": "small",                 # dataset preset benched
      "dataset": "graph500",
      "algorithm": "pr",
      "repeats": 3,                      # timed repetitions per system
      "seed": 0,
      "tracing_overhead": 0.0123,        # (traced - untraced) / untraced
      "systems": {
        "<system>": {
          "total_s": {"mean": ..., "median": ..., "min": ..., "max": ...},
          "stages": {
            "<stage>": {"mean_s": ..., "median_s": ..., "min_s": ...,
                        "max_s": ...,
                        "calls": N},     # span count per repeat (mean)
            ...
          }
        }, ...
      },
      "environment": {"python": "3.12.x", "platform": "..."}
    }

Stage names are the tracer's span names; nested spans (``generate.*``,
``simulate`` inside ``issues``) are reported under their own names, so
top-level stage times must not be summed with their children.

Regenerate with ``make bench`` (or
``python -m repro bench --preset small --out BENCH_pipeline.json``).
"""

from __future__ import annotations

import json
import platform
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from . import obs
from .ioutils import atomic_write_text
from .obs_logging import get_logger

_LOG = get_logger("repro.bench")

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_MIN_ABS_S",
    "DEFAULT_NOISE_FACTOR",
    "DEFAULT_REL_THRESHOLD",
    "SERVE_BENCH_SCHEMA",
    "BenchComparison",
    "BenchDelta",
    "bench_pipeline",
    "compare_bench_docs",
    "PIPELINE_STAGES",
    "read_bench_json",
    "render_bench_comparison",
    "validate_bench_doc",
    "validate_serve_bench_doc",
    "write_bench_json",
]

#: Schema identifier stamped into every benchmark document.
BENCH_SCHEMA = "grade10-bench-pipeline/1"

#: Schema identifier of the service load-test baseline
#: (``BENCH_serve.json``, written by :mod:`repro.loadgen`).
SERVE_BENCH_SCHEMA = "grade10-bench-serve/1"

#: Stages every bench document must report for every system (exact span
#: names; the trace also holds nested ``generate.*`` / ``simulate.build``
#: spans, reported when present).
PIPELINE_STAGES = (
    "generate",
    "parse",
    "demand",
    "upsample",
    "attribute",
    "bottlenecks",
    "simulate",
    "issues",
    "outliers",
)


def _run_once(spec) -> None:
    from .workloads.runner import characterize_run, run_workload

    characterize_run(run_workload(spec))


def bench_pipeline(
    *,
    preset: str = "small",
    systems: Sequence[str] | None = None,
    dataset: str = "graph500",
    algorithm: str = "pr",
    repeats: int = 3,
    seed: int = 0,
    measure_overhead: bool = True,
) -> dict[str, Any]:
    """Time the pipeline stages per system; returns the schema document.

    Each repeat runs the full generate+characterize pipeline under a
    fresh local tracer and reads the per-stage wall-clock out of the
    trace.  ``measure_overhead`` adds one warmup-paired untraced run per
    system to estimate the cost of tracing itself (the *disabled* tracer
    is a no-op guard; this measures the enabled one).
    """
    from .workloads.runner import SYSTEMS, WorkloadSpec

    if systems is None:
        systems = SYSTEMS
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    previous = obs.uninstall()  # bench owns the tracer for the duration
    try:
        doc_systems: dict[str, Any] = {}
        traced_total = 0.0
        untraced_total = 0.0
        for system in systems:
            spec = WorkloadSpec(system, dataset, algorithm, preset=preset, seed=seed)
            _LOG.debug("benching system", system=system, preset=preset, repeats=repeats)
            _run_once(spec)  # warmup: imports, caches, JIT-able paths

            per_stage: dict[str, list[tuple[float, int]]] = {}
            totals: list[float] = []
            for _ in range(repeats):
                tracer = obs.install()
                t0 = time.perf_counter()
                _run_once(spec)
                total = time.perf_counter() - t0
                obs.uninstall()
                totals.append(total)
                traced_total += total
                for name, stat in tracer.stage_totals().items():
                    per_stage.setdefault(name, []).append((stat.total_s, stat.count))

            if measure_overhead:
                t0 = time.perf_counter()
                _run_once(spec)
                untraced_total += time.perf_counter() - t0

            stages = {
                name: {
                    "mean_s": sum(s for s, _ in samples) / len(samples),
                    "median_s": median(s for s, _ in samples),
                    "min_s": min(s for s, _ in samples),
                    "max_s": max(s for s, _ in samples),
                    "calls": round(sum(c for _, c in samples) / len(samples)),
                }
                for name, samples in sorted(per_stage.items())
            }
            doc_systems[system] = {
                "total_s": {
                    "mean": sum(totals) / len(totals),
                    "median": median(totals),
                    "min": min(totals),
                    "max": max(totals),
                },
                "stages": stages,
            }

        overhead = None
        if measure_overhead and untraced_total > 0:
            # One untraced run per system vs the mean traced run.
            mean_traced = traced_total / max(repeats, 1)
            overhead = (mean_traced - untraced_total) / untraced_total
        return {
            "schema": BENCH_SCHEMA,
            "preset": preset,
            "dataset": dataset,
            "algorithm": algorithm,
            "repeats": repeats,
            "seed": seed,
            "tracing_overhead": overhead,
            "systems": doc_systems,
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
        }
    finally:
        obs.uninstall()
        if previous is not None:
            obs.install(previous)


def validate_bench_doc(doc: dict[str, Any]) -> list[str]:
    """Sanity-check a bench document; returns a list of problems (empty = ok).

    The CI smoke job runs this against the freshly generated
    ``BENCH_pipeline.json``: non-empty stage tables, finite non-negative
    timings, and every canonical pipeline stage present per system.
    """
    problems: list[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    systems = doc.get("systems")
    if not isinstance(systems, dict) or not systems:
        return problems + ["no systems section"]
    for system, entry in systems.items():
        stages = entry.get("stages", {})
        if not stages:
            problems.append(f"{system}: empty stage table")
            continue
        missing = [s for s in PIPELINE_STAGES if s not in stages]
        if missing:
            problems.append(f"{system}: missing stages {', '.join(missing)}")
        for name, stat in stages.items():
            for field in ("mean_s", "min_s", "max_s"):
                value = stat.get(field)
                if not isinstance(value, (int, float)) or not (0.0 <= value < float("inf")):
                    problems.append(f"{system}/{name}: bad {field}={value!r}")
        total = entry.get("total_s", {}).get("mean")
        if not isinstance(total, (int, float)) or not (0.0 < total < float("inf")):
            problems.append(f"{system}: bad total_s.mean={total!r}")
    return problems


def validate_serve_bench_doc(doc: dict[str, Any]) -> list[str]:
    """Sanity-check a ``grade10-bench-serve/1`` document (empty = ok).

    Checked: the schema id, a non-empty ``ops`` section with finite
    non-negative latency stats, the mirrored ``systems`` section that
    feeds :func:`compare_bench_docs`, and the load-harness health
    invariants — zero SSE id gaps, zero dropped (incomplete) streams,
    and zero transport-level HTTP errors.  Backpressure rejections
    (``errors.rejected``) are a legitimate outcome and never a problem.
    """
    problems: list[str] = []
    if doc.get("schema") != SERVE_BENCH_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {SERVE_BENCH_SCHEMA!r}"
        )
    ops = doc.get("ops")
    if not isinstance(ops, dict) or not ops:
        return problems + ["no ops section"]
    for op, stats in ops.items():
        count = stats.get("count")
        if not isinstance(count, int) or count < 1:
            problems.append(f"{op}: bad count={count!r}")
        for key in ("mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
            value = stats.get(key)
            if not isinstance(value, (int, float)) or not (0.0 <= value < float("inf")):
                problems.append(f"{op}: bad {key}={value!r}")
    systems = doc.get("systems")
    if not isinstance(systems, dict) or set(systems) != set(ops):
        problems.append("systems section must mirror the ops section")
    server = doc.get("server")
    if server is not None:
        # Optional: the server-measured submit latency scraped from the
        # http_request_duration_seconds histogram during the run.
        submit = server.get("submit") if isinstance(server, dict) else None
        if not isinstance(submit, dict):
            problems.append("server section present but has no submit stats")
        else:
            count = submit.get("count")
            if not isinstance(count, int) or count < 1:
                problems.append(f"server.submit: bad count={count!r}")
            mean = submit.get("mean_s")
            if not isinstance(mean, (int, float)) or not (0.0 <= mean < float("inf")):
                problems.append(f"server.submit: bad mean_s={mean!r}")
    sse = doc.get("sse", {})
    if sse.get("gaps", 0) != 0:
        problems.append(f"sse id gaps detected: {sse.get('gaps')}")
    errors = doc.get("errors", {})
    for key in ("http", "incomplete"):
        if errors.get(key, 0) != 0:
            problems.append(f"errors.{key}={errors.get(key)} (expected 0)")
    if not doc.get("periods"):
        problems.append("no periods section (per-period latency tables missing)")
    return problems


def write_bench_json(doc: dict[str, Any], path: str | Path) -> Path:
    """Atomically persist a bench document."""
    return atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=False) + "\n")


def read_bench_json(path: str | Path) -> dict[str, Any]:
    """Load a bench document; raises ``ValueError`` on malformed content."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bench document must be a JSON object")
    return doc


# ---------------------------------------------------------------------- #
# Regression gate (``repro bench --diff BASELINE`` → exit 4 on regression)
# ---------------------------------------------------------------------- #

#: A stage regresses when its mean grows by more than this fraction …
DEFAULT_REL_THRESHOLD = 0.30
#: … or more than this multiple of the measured tracing-overhead floor,
#: whichever is larger (noisy hosts record a large overhead; scale with it).
DEFAULT_NOISE_FACTOR = 4.0
#: Absolute guard: deltas below this many seconds never count (microsecond
#: stages jitter by large fractions without meaning anything).
DEFAULT_MIN_ABS_S = 0.005

#: Synthetic stage name carrying a system's ``total_s.mean``.
TOTAL_STAGE = "total"


@dataclass(frozen=True)
class BenchDelta:
    """One stage's timing change between two bench documents."""

    system: str
    stage: str  # a pipeline stage name, or :data:`TOTAL_STAGE`
    baseline_s: float
    candidate_s: float

    @property
    def delta_s(self) -> float:
        return self.candidate_s - self.baseline_s

    @property
    def rel_delta(self) -> float:
        if self.baseline_s <= 0.0:
            return float("inf") if self.candidate_s > 0.0 else 0.0
        return self.delta_s / self.baseline_s


@dataclass
class BenchComparison:
    """Outcome of comparing a candidate bench document against a baseline."""

    effective_threshold: float
    noise_floor: float
    min_abs_s: float
    regressions: list[BenchDelta] = field(default_factory=list)
    improvements: list[BenchDelta] = field(default_factory=list)
    unchanged: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no stage regressed beyond the gate's thresholds."""
        return not self.regressions


def _tracing_overhead(doc: dict[str, Any]) -> float:
    value = doc.get("tracing_overhead")
    return abs(float(value)) if isinstance(value, (int, float)) else 0.0


def compare_bench_docs(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    noise_factor: float = DEFAULT_NOISE_FACTOR,
    min_abs_s: float = DEFAULT_MIN_ABS_S,
) -> BenchComparison:
    """Compare two bench documents with noise-aware thresholds.

    A stage (or a system total) counts as a **regression** when its mean
    grew by more than the *effective* relative threshold — the larger of
    ``rel_threshold`` and ``noise_factor ×`` the measured tracing-overhead
    floor of either document — *and* by more than ``min_abs_s`` seconds.
    Improvements are reported symmetrically, for the changelog.

    Metadata differences (schema, preset, dataset, algorithm) and
    systems/stages present in only one document never fail the gate; they
    are surfaced as warnings so a misconfigured comparison is visible
    rather than silently vacuous.
    """
    floor = max(_tracing_overhead(baseline), _tracing_overhead(candidate))
    effective = max(rel_threshold, noise_factor * floor)
    cmp = BenchComparison(
        effective_threshold=effective, noise_floor=floor, min_abs_s=min_abs_s
    )

    for key in ("schema", "preset", "dataset", "algorithm"):
        if baseline.get(key) != candidate.get(key):
            cmp.warnings.append(
                f"{key} differs: baseline {baseline.get(key)!r} "
                f"vs candidate {candidate.get(key)!r}"
            )

    base_systems = baseline.get("systems", {})
    cand_systems = candidate.get("systems", {})
    for missing in sorted(set(base_systems) ^ set(cand_systems)):
        side = "candidate" if missing in base_systems else "baseline"
        cmp.warnings.append(f"system {missing!r} absent from the {side} document")

    def classify(system: str, stage: str, base_s: float, cand_s: float) -> None:
        delta = BenchDelta(system, stage, float(base_s), float(cand_s))
        if abs(delta.delta_s) <= min_abs_s or abs(delta.rel_delta) <= effective:
            cmp.unchanged += 1
        elif delta.delta_s > 0:
            cmp.regressions.append(delta)
        else:
            cmp.improvements.append(delta)

    for system in sorted(set(base_systems) & set(cand_systems)):
        base_entry, cand_entry = base_systems[system], cand_systems[system]
        classify(
            system,
            TOTAL_STAGE,
            base_entry.get("total_s", {}).get("mean", 0.0),
            cand_entry.get("total_s", {}).get("mean", 0.0),
        )
        base_stages = base_entry.get("stages", {})
        cand_stages = cand_entry.get("stages", {})
        for missing in sorted(set(base_stages) ^ set(cand_stages)):
            side = "candidate" if missing in base_stages else "baseline"
            cmp.warnings.append(
                f"{system}/{missing}: stage absent from the {side} document"
            )
        for stage in sorted(set(base_stages) & set(cand_stages)):
            classify(
                system,
                stage,
                base_stages[stage].get("mean_s", 0.0),
                cand_stages[stage].get("mean_s", 0.0),
            )

    cmp.regressions.sort(key=lambda d: -d.delta_s)
    cmp.improvements.sort(key=lambda d: d.delta_s)
    return cmp


def render_bench_comparison(cmp: BenchComparison) -> str:
    """Human-readable gate verdict (what ``bench --diff`` prints)."""
    lines = [
        f"bench gate: threshold {cmp.effective_threshold:.0%} relative "
        f"(noise floor {cmp.noise_floor:.1%}), min {cmp.min_abs_s * 1e3:.1f}ms absolute",
    ]
    for w in cmp.warnings:
        lines.append(f"  warning: {w}")

    def describe(d: BenchDelta) -> str:
        return (
            f"  {d.system}/{d.stage}: {d.baseline_s * 1e3:.1f}ms -> "
            f"{d.candidate_s * 1e3:.1f}ms ({d.rel_delta:+.0%})"
        )

    if cmp.regressions:
        lines.append(f"REGRESSED ({len(cmp.regressions)}):")
        lines.extend(describe(d) for d in cmp.regressions)
    if cmp.improvements:
        lines.append(f"improved ({len(cmp.improvements)}):")
        lines.extend(describe(d) for d in cmp.improvements)
    verdict = "FAIL" if cmp.regressions else "OK"
    lines.append(
        f"{verdict}: {len(cmp.regressions)} regression(s), "
        f"{len(cmp.improvements)} improvement(s), {cmp.unchanged} within noise"
    )
    return "\n".join(lines)
