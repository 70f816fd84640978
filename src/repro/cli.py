"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``run``
    Execute one workload on a simulated system and print the Grade10
    report (optionally exporting the profile as JSON):
    ``python -m repro run giraph graph500 pr --preset small --json out.json``

``experiment``
    Regenerate one of the paper's evaluation artifacts:
    ``python -m repro experiment table2|fig3|fig4|fig5|fig6 --preset small``
    (grid-shaped artifacts accept ``--jobs N``)

``suite``
    Run the Graphalytics-style benchmark grid, optionally in parallel and
    backed by the content-addressed run cache:
    ``python -m repro suite --jobs 4 --cache-dir .grade10-cache``

``faults``
    Produce a fault-perturbed copy of a run archive, or sweep a fault
    type × severity grid and report which pipeline invariants break:
    ``python -m repro faults RUN_DIR OUT_DIR --fault drop_samples:0.3``
    ``python -m repro faults RUN_DIR --grid --jobs 4``

``stats``
    Print the per-stage timing table of a captured pipeline trace
    (``--format json`` for machine-readable output):
    ``python -m repro stats trace.json``

``report``
    Render an archived run as one self-contained HTML report, optionally
    with a before/after diff section against a second archive:
    ``python -m repro report RUN_DIR --html report.html --diff-against BASE_DIR``

``metrics``
    Export an archived run's profile as an OpenMetrics/Prometheus text
    exposition (stdout by default):
    ``python -m repro metrics RUN_DIR --out metrics.txt``

``bench``
    Time the pipeline stages per system and write ``BENCH_pipeline.json``;
    with ``--diff BASELINE`` the result is gated against a baseline
    document and a regression exits with code 4:
    ``python -m repro bench --preset small --out BENCH_pipeline.json``
    ``python -m repro bench --diff BENCH_pipeline.json --preset small``

``serve``
    Run the benchmark suite while serving live telemetry over HTTP —
    ``/metrics`` (OpenMetrics counters, gauges, and latency histograms:
    ``http_request_duration_seconds``, ``job_queue_wait_seconds``,
    ``job_execute_seconds``, ``pipeline_stage_duration_seconds``),
    ``/healthz``, ``/runs`` (JSON status), ``/events`` (SSE progress
    stream) — plus the job API: ``POST /jobs`` enqueues analysis runs
    onto a bounded queue drained by ``--workers`` threads (429 +
    ``Retry-After`` when full), ``DELETE /jobs/<id>`` cancels queued
    jobs, and ``GET /jobs/<id>/trace`` returns the job's end-to-end
    Chrome trace (HTTP handling, queue wait, execution, and every
    pipeline stage in one span tree).  Requests may carry a W3C
    ``traceparent`` header; every response echoes the trace id as
    ``X-Request-Id``.  ``--no-suite`` skips the local sweep and serves
    the job API only; see ``docs/serving.md``:
    ``python -m repro serve --no-suite --port 8321``
    (``suite --serve PORT`` serves the read-only endpoints for one sweep)

``loadgen``
    Open-loop load generator against a live ``serve``: submit jobs at a
    fixed arrival rate (each request stamped with a fresh ``traceparent``
    header), stream every job's SSE events to completion, and print
    per-period p50/p90/p99 latency tables.  Each period also shows the
    server-measured submit latency (scraped from ``/metrics``) next to
    the client-measured one and warns when they disagree by more than
    10%; ``--no-server-latency`` skips the scrapes.  ``--out`` writes a
    ``grade10-bench-serve/1`` document gateable with ``bench --diff``:
    ``python -m repro loadgen http://127.0.0.1:8321 --rate 2 --duration 30``

``datasets``
    List the available datasets and their preset sizes.

``systems``
    List the simulated systems and algorithms.

``run``, ``suite``, and ``analyze`` accept ``--trace PATH``: the whole
invocation is traced through :mod:`repro.obs` (including pool workers)
and exported as a Chrome-trace JSON loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.

``run``, ``analyze``, ``suite``, ``bench``, ``report``, and ``serve``
share one output option group: ``--quiet`` (warnings only),
``--log-level LEVEL``, and ``--log-json`` (stderr diagnostics as JSON
lines carrying the active span id; also ``REPRO_LOG=json``) — see
:mod:`repro.obs_logging`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from statistics import median

from . import obs, obs_logging
from .algorithms import ALGORITHMS
from .bench import DEFAULT_REL_THRESHOLD
from .core import render_report
from .core.export import write_profile_json
from .core.simulation import SimulationError
from .viz import Table, format_table, sparkline
from .workloads import (
    UPSAMPLING_RATIOS,
    WorkloadSpec,
    characterize_run,
    dataset_names,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_table2,
    get_dataset,
    run_workload,
)
from .workloads.experiments import FIG5_PHASES, RESOURCE_CLASSES
from .workloads.runner import SYSTEMS

__all__ = ["main", "build_parser"]

_LOG = obs_logging.get_logger("repro.cli")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    """The shared verbosity/structured-logging option group.

    One helper instead of per-command ad-hoc prints: every command that
    emits informational stderr goes through :mod:`repro.obs_logging`, so
    ``--quiet`` silences it uniformly and ``--log-json`` turns the same
    stream into span-correlated JSON lines.
    """
    group = parser.add_argument_group("output")
    group.add_argument(
        "--quiet", action="store_true",
        help="suppress informational stderr output (warnings still show)",
    )
    group.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        help="stderr verbosity (default: info)",
    )
    group.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as JSON lines with span-id "
             "correlation (also: REPRO_LOG=json)",
    )


def _configure_logging(args: argparse.Namespace) -> None:
    """Apply the shared output options (safe for commands without them)."""
    mode = "json" if getattr(args, "log_json", False) else None
    level = getattr(args, "log_level", None)
    if getattr(args, "quiet", False):
        level = "warning"
    obs_logging.configure(mode=mode, level=level)


def _positive_int(text: str) -> int:
    """Argparse type for values that must be whole numbers >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_UNTUNED_HELP = "use the untuned model: no attribution rules, no GC phases"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grade10 reproduction: characterize simulated graph-processing runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload and print its Grade10 profile")
    p_run.add_argument("system", choices=SYSTEMS)
    p_run.add_argument("dataset", choices=dataset_names())
    p_run.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p_run.add_argument("--preset", default="small", choices=("tiny", "small", "full"))
    p_run.add_argument("--untuned", action="store_true", help=_UNTUNED_HELP)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--json", metavar="PATH", help="export the profile summary as JSON")
    p_run.add_argument(
        "--archive", metavar="DIR", help="persist the run's artifacts for offline analysis"
    )
    p_run.add_argument(
        "--extended", action="store_true",
        help="include the phase tree and utilization heatmap in the report",
    )
    p_run.add_argument(
        "--trace", metavar="PATH",
        help="capture a Chrome-trace of the pipeline run (open in Perfetto)",
    )
    _add_output_options(p_run)

    p_an = sub.add_parser("analyze", help="characterize an archived run directory")
    p_an.add_argument("directory")
    p_an.add_argument("--untuned", action="store_true", help=_UNTUNED_HELP)
    p_an.add_argument("--slice", type=float, default=0.01, help="timeslice duration (s)")
    p_an.add_argument(
        "--follow", action="store_true",
        help="tail events.jsonl through the incremental analyzer, rendering "
             "a rolling bottleneck table as windows seal (works on logs "
             "still being written)",
    )
    p_an.add_argument(
        "--follow-timeout", type=float, default=2.0, metavar="S",
        help="stop following once the log stops growing for this many "
             "seconds (default: %(default)s)",
    )
    p_an.add_argument(
        "--window", type=float, default=0.08, metavar="S",
        help="live analysis window width in seconds for --follow "
             "(default: %(default)s)",
    )
    p_an.add_argument(
        "--extended", action="store_true",
        help="include the phase tree, heatmap, and recommendations",
    )
    p_an.add_argument(
        "--check-invariants", action="store_true",
        help="run the pipeline invariant checker after analysis "
             "(exit 3 when a violation is found)",
    )
    p_an.add_argument(
        "--trace", metavar="PATH",
        help="capture a Chrome-trace of the analysis (open in Perfetto)",
    )
    _add_output_options(p_an)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "artifact", choices=("table2", "fig3", "fig4", "fig5", "fig6", "all")
    )
    p_exp.add_argument("--preset", default="small", choices=("tiny", "small", "full"))
    p_exp.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for grid-shaped experiments (fig4, fig5)",
    )

    p_suite = sub.add_parser("suite", help="run the Graphalytics-style benchmark grid")
    p_suite.add_argument("--preset", default="small", choices=("tiny", "small", "full"))
    p_suite.add_argument(
        "--systems", default="giraph,powergraph", help="comma-separated system list"
    )
    p_suite.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes to fan the grid out across",
    )
    p_suite.add_argument(
        "--cache-dir", default=".grade10-cache", metavar="DIR",
        help="content-addressed run cache location (default: %(default)s)",
    )
    p_suite.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate; neither read nor write the run cache",
    )
    p_suite.add_argument(
        "--characterize", action="store_true",
        help="also run the Grade10 pipeline on every cell",
    )
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument(
        "--trace", metavar="PATH",
        help="capture a Chrome-trace of the sweep, merging pool-worker "
             "spans and cache hit/miss counters (open in Perfetto)",
    )
    p_suite.add_argument(
        "--report-dir", metavar="DIR",
        help="write per-cell HTML reports plus an index.html here "
             "(requires --characterize)",
    )
    p_suite.add_argument(
        "--serve", type=int, metavar="PORT", dest="serve_port",
        help="serve live telemetry (/metrics, /healthz, /runs, /events) "
             "on this port for the duration of the sweep (0 = any free port)",
    )
    _add_output_options(p_suite)

    p_serve = sub.add_parser(
        "serve",
        help="run the benchmark suite while serving live telemetry over HTTP",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="HTTP port (0 = any free port; default: %(default)s)",
    )
    p_serve.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port here once listening (for automation)",
    )
    p_serve.add_argument("--preset", default="small", choices=("tiny", "small", "full"))
    p_serve.add_argument(
        "--systems", default="giraph,powergraph", help="comma-separated system list"
    )
    p_serve.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes to fan the grid out across",
    )
    p_serve.add_argument(
        "--cache-dir", default=".grade10-cache", metavar="DIR",
        help="content-addressed run cache location (default: %(default)s)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate; neither read nor write the run cache",
    )
    p_serve.add_argument(
        "--characterize", action="store_true",
        help="also run the Grade10 pipeline on every cell",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--no-linger", action="store_true",
        help="exit when the suite completes instead of serving until "
             "SIGTERM/SIGINT",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="/events heartbeat cadence while idle (default: %(default)s)",
    )
    p_serve.add_argument(
        "--no-suite", action="store_true",
        help="skip the local benchmark sweep; serve the job API only",
    )
    p_serve.add_argument(
        "--queue-size", type=_positive_int, default=32, metavar="N",
        help="bounded job-queue capacity; a full queue answers POST /jobs "
             "with 429 + Retry-After (default: %(default)s)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="worker threads draining the job queue (default: %(default)s)",
    )
    _add_output_options(p_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a live `repro serve`",
    )
    p_loadgen.add_argument(
        "url", help="base URL of the service, e.g. http://127.0.0.1:8321"
    )
    p_loadgen.add_argument(
        "--rate", type=float, default=2.0, metavar="OPS_PER_S",
        help="fixed arrival rate of job submissions (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--duration", type=float, default=30.0, metavar="SECONDS",
        help="length of the arrival schedule (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--period", type=float, default=5.0, metavar="SECONDS",
        help="latency-table reporting period (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--max-in-flight", type=_positive_int, default=64, metavar="N",
        help="client-side concurrency cap; arrivals beyond it count as "
             "overload instead of shifting the schedule (default: %(default)s)",
    )
    p_loadgen.add_argument("--preset", default="tiny", choices=("tiny", "small", "full"))
    p_loadgen.add_argument(
        "--systems", default="giraph", help="comma-separated system list"
    )
    p_loadgen.add_argument(
        "--grid", default="graph500/pr",
        help="comma-separated dataset/algorithm cells (default: %(default)s)",
    )
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument(
        "--characterize", action="store_true",
        help="submitted jobs also run the Grade10 pipeline",
    )
    p_loadgen.add_argument(
        "--spec", metavar="PATH",
        help="JSON job-spec file posted verbatim; overrides the spec flags",
    )
    p_loadgen.add_argument(
        "--live-fraction", type=float, default=0.0, metavar="F",
        help="fraction of arrivals submitted as live jobs (streaming "
             "window frames), measured as separate submit_live/e2e_live ops "
             "(default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--no-server-latency", action="store_true",
        help="skip the per-period /metrics scrapes that report "
             "server-measured submit latency next to the client-measured one",
    )
    p_loadgen.add_argument(
        "--out", metavar="PATH",
        help="write the grade10-bench-serve/1 document here",
    )
    _add_output_options(p_loadgen)

    p_stats = sub.add_parser(
        "stats", help="per-stage timing table of a captured pipeline trace"
    )
    p_stats.add_argument("trace", help="trace file written by --trace")
    p_stats.add_argument(
        "--sort", choices=("total", "mean", "count", "name"), default="total",
        help="sort order of the stage table (default: %(default)s)",
    )
    p_stats.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s)",
    )

    p_report = sub.add_parser(
        "report", help="render an archived run as a self-contained HTML report"
    )
    p_report.add_argument("directory", help="run archive to characterize")
    p_report.add_argument(
        "--html", default="grade10-report.html", metavar="PATH",
        help="where to write the report (default: %(default)s)",
    )
    p_report.add_argument("--title", help="report title (default: derived from the archive)")
    p_report.add_argument(
        "--diff-against", metavar="DIR",
        help="baseline archive; adds a before/after diff section",
    )
    p_report.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="how to print the diff on stdout when --diff-against is given "
             "(default: %(default)s)",
    )
    p_report.add_argument(
        "--trace", metavar="PATH",
        help="pipeline trace written by --trace; adds a pipeline section",
    )
    p_report.add_argument(
        "--bench", metavar="PATH",
        help="BENCH_pipeline.json document; adds a bench section",
    )
    p_report.add_argument(
        "--open", action="store_true", help="open the report in a browser"
    )
    p_report.add_argument("--untuned", action="store_true", help=_UNTUNED_HELP)
    p_report.add_argument("--slice", type=float, default=0.01, help="timeslice duration (s)")
    _add_output_options(p_report)

    p_metrics = sub.add_parser(
        "metrics", help="OpenMetrics text exposition of an archived run"
    )
    p_metrics.add_argument("directory", help="run archive to characterize")
    p_metrics.add_argument(
        "--out", metavar="PATH",
        help="write the exposition here instead of stdout",
    )
    p_metrics.add_argument(
        "--trace", metavar="PATH",
        help="pipeline trace; exports its counters as a metric family too",
    )
    p_metrics.add_argument("--untuned", action="store_true", help=_UNTUNED_HELP)
    p_metrics.add_argument("--slice", type=float, default=0.01, help="timeslice duration (s)")

    p_bench = sub.add_parser(
        "bench", help="time the pipeline stages and write BENCH_pipeline.json"
    )
    p_bench.add_argument("--preset", default="small", choices=("tiny", "small", "full"))
    p_bench.add_argument(
        "--systems", default=",".join(SYSTEMS), help="comma-separated system list"
    )
    p_bench.add_argument("--dataset", default="graph500", choices=dataset_names())
    p_bench.add_argument("--algorithm", default="pr", choices=sorted(ALGORITHMS))
    p_bench.add_argument("--repeats", type=_positive_int, default=3, metavar="N")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--out", default="BENCH_pipeline.json", metavar="PATH",
        help="where to write the benchmark document (default: %(default)s)",
    )
    p_bench.add_argument(
        "--diff", metavar="BASELINE",
        help="compare against this bench document; exit 4 on regression",
    )
    p_bench.add_argument(
        "--candidate", metavar="DOC",
        help="with --diff: compare this pre-recorded document instead of "
             "running the bench",
    )
    p_bench.add_argument(
        "--threshold", type=float, metavar="FRACTION",
        help="relative regression threshold for --diff "
             f"(default: {DEFAULT_REL_THRESHOLD})",
    )
    _add_output_options(p_bench)

    p_faults = sub.add_parser(
        "faults", help="perturb a run archive with injected faults"
    )
    p_faults.add_argument("source", nargs="?", help="run archive to perturb")
    p_faults.add_argument("dest", nargs="?", help="where to write the perturbed copy")
    p_faults.add_argument(
        "--fault", action="append", default=[], metavar="NAME[:SEVERITY]",
        help="fault to inject (repeatable, applied in order); "
             "severity in [0, 1], default 0.3",
    )
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument(
        "--list", action="store_true", help="list the available fault types"
    )
    p_faults.add_argument(
        "--grid", action="store_true",
        help="sweep fault type x severity and report which invariants break",
    )
    p_faults.add_argument(
        "--severities", default="0.1,0.3,0.5", metavar="S1,S2,...",
        help="severity levels for --grid (default: %(default)s)",
    )
    p_faults.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for --grid",
    )
    p_faults.add_argument(
        "--work-dir", metavar="DIR",
        help="keep --grid's perturbed archives here instead of a temp dir",
    )

    sub.add_parser("datasets", help="list datasets")
    sub.add_parser("systems", help="list systems and algorithms")
    return parser


@contextlib.contextmanager
def _tracing(path: str | None):
    """Trace the enclosed work and export it to ``path`` (no-op when None)."""
    if not path:
        yield None
        return
    tracer = obs.install()
    try:
        yield tracer
    finally:
        obs.uninstall()
        tracer.export_chrome_trace(path)
        _LOG.info(f"trace written to {path} (open in chrome://tracing or "
                  "https://ui.perfetto.dev)")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(args.system, args.dataset, args.algorithm, preset=args.preset,
                        seed=args.seed)
    _LOG.info(f"running {spec.label} (preset={args.preset}) ...")
    with _tracing(args.trace):
        run = run_workload(spec)
        profile = characterize_run(run, tuned=not args.untuned)
    print(render_report(profile, extended=args.extended))
    if args.json:
        write_profile_json(profile, args.json)
        _LOG.info(f"profile exported to {args.json}")
    if args.archive:
        from .workloads.archive import save_run

        save_run(run.system_run, args.archive)
        _LOG.info(f"run archived to {args.archive}")
    return 0


def _cmd_analyze_follow(args: argparse.Namespace) -> int:
    """``repro analyze --follow``: stream an archive's log as it grows.

    Tails ``events.jsonl`` in raw chunks through
    :class:`~repro.core.incremental.IncrementalProfile`, printing one
    table row per sealed analysis window (rolling bottleneck view), and
    finishes with the exact batch report once the log stops growing for
    ``--follow-timeout`` seconds.
    """
    import time as _time
    from pathlib import Path

    from .cluster.monitor import read_monitoring_csv
    from .core.incremental import IncrementalProfile
    from .core.model_io import load_models
    from .core.rules import RuleMatrix
    from .workloads.archive import ArchiveError, ArchiveNotFoundError

    directory = Path(args.directory)
    models_path = directory / "models.json"
    if not models_path.is_file():
        _LOG.error(f"error: run archive not found (no {models_path})")
        return 2
    try:
        model, resources, rules = load_models(models_path)
    except (ValueError, KeyError) as exc:
        _LOG.error(f"error: cannot load models.json: {exc}")
        return 2
    if args.untuned:
        rules = RuleMatrix()

    rows: list[list[str]] = []

    def on_window(summary) -> None:
        top = max(summary.bottlenecks, key=lambda b: b.duration, default=None)
        rows.append([
            str(summary.index),
            f"{summary.t_start:.2f}-{summary.t_end:.2f}",
            str(summary.n_rows),
            str(len(summary.bottlenecks)),
            f"{top.kind} {top.resource} ({top.duration:.3f}s)" if top else "-",
            f"{summary.lag_seconds:.2f}",
        ])
        print(
            f"window {summary.index:>4}  [{summary.t_start:8.2f}, {summary.t_end:8.2f})  "
            f"phases={summary.n_rows:<4} bottlenecks={len(summary.bottlenecks):<3} "
            f"lag={summary.lag_seconds:.2f}s"
        )

    inc = IncrementalProfile(
        model,
        resources,
        rules,
        slice_duration=args.slice,
        include_gc_phases=not args.untuned,
        window_slices=max(1, round(args.window / args.slice)),
        on_window=on_window,
    )
    monitoring = directory / "monitoring.csv"
    if monitoring.is_file():
        inc.feed_resource_trace(read_monitoring_csv(monitoring))

    events_path = directory / "events.jsonl"
    deadline = _time.monotonic() + args.follow_timeout
    fh = None
    try:
        while True:
            if fh is None:
                if events_path.is_file():
                    fh = open(events_path, "r")
                elif _time.monotonic() >= deadline:
                    _LOG.error(f"error: no event log appeared at {events_path}")
                    return 2
                else:
                    _time.sleep(0.05)
                    continue
            chunk = fh.read(65536)
            if chunk:
                inc.feed_text(chunk)
                deadline = _time.monotonic() + args.follow_timeout
            elif _time.monotonic() >= deadline:
                break
            else:
                _time.sleep(0.05)
    finally:
        if fh is not None:
            fh.close()

    try:
        profile = inc.finalize()
    except (ArchiveError, ArchiveNotFoundError, ValueError) as exc:
        _LOG.error(f"error: incremental analysis failed: {exc}")
        return 2
    print(format_table(
        ["window", "span (s)", "phases", "bottlenecks", "top bottleneck", "lag (s)"],
        rows,
        title=f"Live analysis — {inc.windows_analyzed} windows, "
              f"{inc.events_ingested} events",
    ))
    series = sorted(inc.bottleneck_seconds.items())
    if series:
        print(format_table(
            ["resource", "kind", "seconds"],
            [[resource, kind, f"{seconds:.3f}"] for (resource, kind), seconds in series],
            title="Cumulative live bottleneck seconds",
        ))
    print(render_report(profile, extended=args.extended))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .workloads.archive import ArchiveError, characterize_archive

    if args.follow:
        return _cmd_analyze_follow(args)
    try:
        with _tracing(args.trace):
            profile = characterize_archive(
                args.directory,
                slice_duration=args.slice,
                tuned=not args.untuned,
            )
    except ArchiveError as exc:
        _LOG.error(f"error: {exc}")
        return 2
    print(render_report(profile, extended=args.extended))
    if args.check_invariants:
        report = profile.check_invariants()
        print(report.render())
        if not report.ok:
            return 3
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import (
        FAULTS,
        FaultError,
        apply_faults,
        parse_fault,
        run_fault_grid,
    )
    from .workloads.archive import ArchiveError

    if args.list:
        rows = [
            [name, (cls.__doc__ or "").strip().splitlines()[0]]
            for name, cls in FAULTS.items()
        ]
        print(format_table(["fault", "description"], rows, title="Fault taxonomy"))
        return 0
    if args.source is None:
        _LOG.error("error: a source archive is required (or use --list)")
        return 2
    try:
        if args.grid:
            severities = tuple(
                float(s) for s in args.severities.split(",") if s.strip()
            )
            cells = run_fault_grid(
                args.source,
                severities=severities,
                seed=args.seed,
                jobs=args.jobs,
                work_dir=args.work_dir,
            )
            by_fault: dict[str, dict[float, str]] = {}
            for c in cells:
                short = {
                    "ok": "ok",
                    "error": "typed error",
                    "violations": f"{c.n_violations} violation(s): "
                                  + ",".join(c.invariants),
                }[c.outcome]
                by_fault.setdefault(c.fault, {})[c.severity] = short
            print(format_table(
                ["fault"] + [f"{s:g}" for s in severities],
                [[f] + [row.get(s, "-") for s in severities]
                 for f, row in by_fault.items()],
                title="Fault grid — analysis outcome per fault x severity",
            ))
            return 0
        if args.dest is None or not args.fault:
            _LOG.error("error: perturbing needs SOURCE DEST and at least one --fault")
            return 2
        faults = [parse_fault(text) for text in args.fault]
        dest = apply_faults(args.source, args.dest, faults, seed=args.seed)
    except (FaultError, ArchiveError) as exc:
        _LOG.error(f"error: {exc}")
        return 2
    applied = ", ".join(f.describe() for f in faults)
    _LOG.info(f"perturbed archive written to {dest} ({applied})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", 1)
    if args.artifact == "all":
        import argparse as _argparse

        for artifact in ("table2", "fig3", "fig4", "fig5", "fig6"):
            print(f"\n=== {artifact} ===")
            _cmd_experiment(
                _argparse.Namespace(artifact=artifact, preset=args.preset, jobs=jobs)
            )
        return 0
    if args.artifact == "table2":
        rows = experiment_table2(args.preset)
        by_config: dict[str, dict[int, tuple[float, float]]] = {}
        for r in rows:
            by_config.setdefault(r.config, {})[r.ratio] = (r.grade10_error, r.constant_error)
        out = []
        for config, data in by_config.items():
            for idx, method in enumerate(("grade10", "constant")):
                out.append([config if idx == 0 else "", method]
                           + [f"{data[k][idx]:.2f}" for k in UPSAMPLING_RATIOS])
        print(format_table(
            ["config", "method"] + [f"{r}x" for r in UPSAMPLING_RATIOS], out,
            title="Table II — relative sampling error (%)",
        ))
    elif args.artifact == "fig3":
        for s in experiment_fig3(args.preset):
            cap = float(s.n_threads)
            print(f"[{s.config}]")
            print(f"  usage  {sparkline(s.attributed_cpu, max_value=cap)}")
            print(f"  demand {sparkline(s.estimated_demand, max_value=cap)}")
    elif args.artifact == "fig4":
        cells = experiment_fig4(args.preset, jobs=jobs)
        grid: dict[str, dict[str, float]] = {}
        for c in cells:
            grid.setdefault(f"{c.system}/{c.dataset}/{c.algorithm}", {})[
                c.resource_class
            ] = c.improvement
        print(format_table(
            ["workload"] + list(RESOURCE_CLASSES),
            [[w] + [f"{v.get(k, 0):.1%}" for k in RESOURCE_CLASSES] for w, v in grid.items()],
            title="Figure 4 — bottleneck impact",
        ))
    elif args.artifact == "fig5":
        cells = experiment_fig5(args.preset, jobs=jobs)
        jobs: dict[str, dict[str, float]] = {}
        for c in cells:
            jobs.setdefault(f"{c.dataset}/{c.algorithm}", {})[c.phase] = c.improvement
        print(format_table(
            ["job"] + [p.rsplit("/", 1)[-1] for p in FIG5_PHASES],
            [[j] + [f"{v.get(p, 0):.1%}" for p in FIG5_PHASES] for j, v in jobs.items()],
            title="Figure 5 — imbalance impact",
        ))
    else:  # fig6
        res = experiment_fig6(args.preset, bug_enabled=True)
        print("Figure 6 — per-thread Gather durations, first iteration")
        for worker, durs in sorted(res.thread_durations.items()):
            med = median(durs)
            marks = " ".join(
                f"{d * 1000:.0f}ms" + ("*" if med > 0 and d > 1.5 * med else "")
                for d in sorted(durs)
            )
            print(f"  {worker}: {marks}")
        print(f"affected non-trivial steps: {res.affected_fraction:.0%}")
        if res.slowdowns:
            print(f"slowdowns: {min(res.slowdowns):.2f}x - {max(res.slowdowns):.2f}x")
    return 0


def _print_suite_result(result, preset: str) -> None:
    rows = [
        [e.label, f"{e.makespan:.2f}s", f"{e.processing_time:.2f}s",
         f"{e.evps / 1e6:.2f}M", e.n_iterations]
        for e in result
    ]
    print(format_table(
        ["workload", "makespan", "Tproc", "EVPS", "iterations"],
        rows,
        title=f"Benchmark suite ({preset})",
    ))
    if result.stats is not None:
        _LOG.info(result.stats.summary())


def _cmd_suite(args: argparse.Namespace) -> int:
    from .workloads.graphalytics import run_suite

    if args.report_dir and not args.characterize:
        _LOG.error("error: --report-dir requires --characterize")
        return 2
    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    server = None
    if args.serve_port is not None:
        from .serve import TelemetryServer

        server = TelemetryServer(port=args.serve_port).start()
        _LOG.info(f"serving live telemetry on {server.url}")
    try:
        with _tracing(args.trace):
            result = run_suite(
                preset=args.preset,
                systems=systems,
                seed=args.seed,
                characterize=args.characterize,
                jobs=args.jobs,
                cache_dir=None if args.no_cache else args.cache_dir,
                on_status=server.register if server is not None else None,
            )
    finally:
        if server is not None:
            server.stop()
    _print_suite_result(result, args.preset)
    if args.report_dir:
        from .report import write_suite_report

        index = write_suite_report(
            result, args.report_dir, title=f"Grade10 suite report ({args.preset})"
        )
        _LOG.info(f"suite report written to {index}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .jobs import JobQueue
    from .serve import TelemetryServer

    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    stop = threading.Event()

    def _on_signal(signum: int, _frame: object) -> None:
        _LOG.info(f"received signal {signum}, shutting down")
        stop.set()

    # Install before the suite starts so a mid-run SIGTERM still exits
    # cleanly (the suite finishes its in-flight cells; KeyboardInterrupt
    # semantics stay with Ctrl-C's default only until we take over here).
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    queue = JobQueue(
        capacity=args.queue_size,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    server = TelemetryServer(
        args.host, args.port, heartbeat_s=args.heartbeat, queue=queue
    ).start()
    queue.start()
    try:
        _LOG.info(f"serving live telemetry and job API on {server.url}")
        if args.port_file:
            from .ioutils import atomic_write_text

            atomic_write_text(args.port_file, f"{server.port}\n")
        if not args.no_suite:
            from .workloads.graphalytics import run_suite

            tracer = obs.install()
            try:
                result = run_suite(
                    preset=args.preset,
                    systems=systems,
                    seed=args.seed,
                    characterize=args.characterize,
                    jobs=args.jobs,
                    cache_dir=None if args.no_cache else args.cache_dir,
                    on_status=server.register,
                )
            finally:
                obs.uninstall()
                # /metrics keeps exposing the finished run's counters while
                # the server lingers for late scrapes.
                server.tracer_fn = lambda: tracer
            _print_suite_result(result, args.preset)
            if args.no_linger:
                return 0
            _LOG.info("suite finished; serving until SIGTERM/SIGINT")
        elif args.no_linger:
            return 0
        else:
            _LOG.info("job API ready; serving until SIGTERM/SIGINT")
        while not stop.wait(0.2):
            pass
        return 0
    finally:
        # Clean drain: in-flight jobs finish, still-queued jobs are
        # cancelled (each ends with its terminal run.finished event).
        queue.shutdown(drain=False, timeout=30.0)
        server.stop()
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .jobs import JobSpecError
    from .loadgen import LoadgenError, render_load_summary, run_loadgen

    if args.spec:
        from pathlib import Path

        try:
            spec = json.loads(Path(args.spec).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _LOG.error(f"error: cannot read spec {args.spec}: {exc}")
            return 2
    else:
        spec = {
            "preset": args.preset,
            "systems": [s.strip() for s in args.systems.split(",") if s.strip()],
            "grid": [g.strip() for g in args.grid.split(",") if g.strip()],
            "seed": args.seed,
            "characterize": args.characterize,
        }
    try:
        doc = run_loadgen(
            args.url,
            rate=args.rate,
            duration_s=args.duration,
            spec=spec,
            period_s=args.period,
            max_in_flight=args.max_in_flight,
            server_latency=not args.no_server_latency,
            live_fraction=args.live_fraction,
            echo=print,
        )
    except JobSpecError as exc:
        _LOG.error(f"error: invalid job spec: {exc}")
        return 2
    except (LoadgenError, ValueError) as exc:
        _LOG.error(f"error: {exc}")
        return 2
    print(render_load_summary(doc))
    if args.out:
        from .bench import write_bench_json

        write_bench_json(doc, args.out)
        _LOG.info(f"load document written to {args.out}")
    from .bench import validate_serve_bench_doc

    problems = validate_serve_bench_doc(doc)
    if problems:
        for p in problems:
            _LOG.error(f"error: load run unhealthy: {p}")
        return 3
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        events = obs.read_trace_events(args.trace)
    except (OSError, ValueError) as exc:
        _LOG.error(f"error: {exc}")
        return 2
    stages = obs.aggregate_stages(events)
    if not stages:
        _LOG.error("trace holds no span events")
        return 2
    wall_us = max(
        (e["ts"] + e.get("dur", 0.0) for e in events if e.get("ph") == "X"),
        default=0.0,
    ) - min((e["ts"] for e in events if e.get("ph") == "X"), default=0.0)
    keys = {
        "total": lambda s: -s.total_us,
        "mean": lambda s: -s.mean_us,
        "count": lambda s: -s.count,
        "name": lambda s: s.name,
    }
    # One row model, two renderers: raw numbers feed both the JSON output
    # and the formatted text table, so the two can never drift apart.
    raw_rows = [
        [
            s.name,
            s.count,
            s.total_us / 1e3,
            s.mean_us / 1e3,
            s.min_us / 1e3,
            s.max_us / 1e3,
            s.total_us / wall_us if wall_us > 0 else None,
        ]
        for s in sorted(stages.values(), key=keys[args.sort])
    ]
    headers = ["stage", "calls", "total ms", "mean ms", "min ms", "max ms", "% wall"]
    counters = obs.final_counters(events)
    counter_table = Table(
        ["counter", "value"],
        [[name, value] for name, value in sorted(counters.items())],
        title="Counters",
    )
    if args.format == "json":
        stage_table = Table(headers, raw_rows, title="Pipeline stage timings")
        payload = {
            "trace": args.trace,
            "wall_ms": wall_us / 1e3,
            "stages": stage_table.to_dict(),
            "counters": counter_table.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    text_rows = [
        [name, count, f"{total:.2f}", f"{mean:.3f}", f"{lo:.3f}", f"{hi:.3f}",
         f"{frac:.1%}" if frac is not None else "-"]
        for name, count, total, mean, lo, hi, frac in raw_rows
    ]
    print(Table(
        headers, text_rows, title=f"Pipeline stage timings — {args.trace}"
    ).render())
    if counters:
        print(format_table(
            ["counter", "value"],
            [[name, f"{value:g}"] for name, value in sorted(counters.items())],
            title="Counters",
        ))
    return 0


def _read_archive_meta(directory: str) -> dict:
    """Best-effort read of an archive's ``meta.json`` (empty dict on failure)."""
    from pathlib import Path

    try:
        return json.loads((Path(directory) / "meta.json").read_text())
    except (OSError, ValueError):
        return {}


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.diff import compare_profiles, diff_to_dict, render_diff
    from .report import write_html_report
    from .workloads.archive import ArchiveError, characterize_archive

    try:
        profile = characterize_archive(
            args.directory, slice_duration=args.slice, tuned=not args.untuned
        )
        diff = None
        if args.diff_against:
            baseline = characterize_archive(
                args.diff_against, slice_duration=args.slice, tuned=not args.untuned
            )
            diff = compare_profiles(baseline, profile)
    except ArchiveError as exc:
        _LOG.error(f"error: {exc}")
        return 2

    trace_events = None
    if args.trace:
        try:
            trace_events = obs.read_trace_events(args.trace)
        except (OSError, ValueError) as exc:
            _LOG.error(f"error: {exc}")
            return 2
    bench = None
    if args.bench:
        from .bench import read_bench_json

        try:
            bench = read_bench_json(args.bench)
        except (OSError, ValueError) as exc:
            _LOG.error(f"error: {exc}")
            return 2

    meta = _read_archive_meta(args.directory)
    title = args.title
    if not title:
        name = Path(args.directory).name or args.directory
        system = meta.get("system")
        title = f"Grade10 run report — {name}" + (f" ({system})" if system else "")

    path = write_html_report(
        profile, args.html, title=title, diff=diff,
        trace_events=trace_events, bench=bench,
    )
    _LOG.info(f"report written to {path}")
    if diff is not None:
        if args.format == "json":
            print(json.dumps(diff_to_dict(diff), indent=2))
        else:
            print(render_diff(diff))
    if args.open:
        import webbrowser

        webbrowser.open(path.resolve().as_uri())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .ioutils import atomic_write_text
    from .workloads.archive import ArchiveError, characterize_archive

    try:
        profile = characterize_archive(
            args.directory, slice_duration=args.slice, tuned=not args.untuned
        )
    except ArchiveError as exc:
        _LOG.error(f"error: {exc}")
        return 2
    counters = None
    if args.trace:
        try:
            counters = obs.final_counters(obs.read_trace_events(args.trace))
        except (OSError, ValueError) as exc:
            _LOG.error(f"error: {exc}")
            return 2
    meta = _read_archive_meta(args.directory)
    labels = {"system": meta["system"]} if meta.get("system") else None
    text = obs.metrics_exposition(profile, counters, labels=labels)
    if args.out:
        atomic_write_text(args.out, text)
        _LOG.info(f"exposition written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import compare_bench_docs, read_bench_json, render_bench_comparison

    baseline = None
    if args.candidate and not args.diff:
        _LOG.error("error: --candidate requires --diff BASELINE")
        return 2
    if args.diff:
        try:
            baseline = read_bench_json(args.diff)
        except (OSError, ValueError) as exc:
            _LOG.error(f"error: {exc}")
            return 2

    def gate(candidate: dict) -> int:
        kwargs = {}
        if args.threshold is not None:
            kwargs["rel_threshold"] = args.threshold
        cmp = compare_bench_docs(baseline, candidate, **kwargs)
        print(render_bench_comparison(cmp))
        return 0 if cmp.ok else 4

    if args.candidate:
        try:
            candidate = read_bench_json(args.candidate)
        except (OSError, ValueError) as exc:
            _LOG.error(f"error: {exc}")
            return 2
        return gate(candidate)
    return _bench_run(args, baseline, gate)


def _bench_run(args: argparse.Namespace, baseline, gate) -> int:
    from .bench import bench_pipeline, validate_bench_doc, write_bench_json

    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    _LOG.info(
        f"benchmarking pipeline stages: systems={','.join(systems)} "
        f"preset={args.preset} repeats={args.repeats} ..."
    )
    doc = bench_pipeline(
        preset=args.preset,
        systems=systems,
        dataset=args.dataset,
        algorithm=args.algorithm,
        repeats=args.repeats,
        seed=args.seed,
    )
    problems = validate_bench_doc(doc)
    if problems:
        for p in problems:
            _LOG.error(f"error: bench document invalid: {p}")
        return 2
    write_bench_json(doc, args.out)
    rows = [
        [
            system,
            f"{entry['total_s']['mean'] * 1e3:.1f}",
        ]
        + [
            f"{entry['stages'][stage]['mean_s'] * 1e3:.1f}"
            if stage in entry["stages"]
            else "-"
            for stage in ("generate", "parse", "demand", "upsample", "attribute",
                          "bottlenecks", "issues", "outliers")
        ]
        for system, entry in doc["systems"].items()
    ]
    print(format_table(
        ["system", "total ms", "generate", "parse", "demand", "upsample",
         "attribute", "bottlenecks", "issues", "outliers"],
        rows,
        title=f"Pipeline bench ({args.preset}, mean of {args.repeats})",
    ))
    if doc.get("tracing_overhead") is not None:
        _LOG.info(f"tracing overhead: {doc['tracing_overhead']:+.1%}")
    _LOG.info(f"benchmark document written to {args.out}")
    if baseline is not None:
        return gate(doc)
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        d = get_dataset(name)
        tiny = d.graph("tiny")
        small = d.graph("small")
        rows.append([name, d.family, f"{tiny.n_edges}", f"{small.n_edges}", d.description])
    print(format_table(["name", "family", "tiny |E|", "small |E|", "description"], rows))
    return 0


def _cmd_systems(_: argparse.Namespace) -> int:
    print("systems:    " + ", ".join(SYSTEMS))
    print("algorithms: " + ", ".join(sorted(ALGORITHMS)))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    handlers = {
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "experiment": _cmd_experiment,
        "suite": _cmd_suite,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "faults": _cmd_faults,
        "stats": _cmd_stats,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "bench": _cmd_bench,
        "datasets": _cmd_datasets,
        "systems": _cmd_systems,
    }
    try:
        return handlers[args.command](args)
    except SimulationError as exc:
        # Same contract as the ArchiveError family: a typed, user-facing
        # failure maps to exit 2, never a raw traceback.
        _LOG.error(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
