"""Workload ``analyze``: offline characterization of archived runs.

What a user of ``repro analyze RUN_DIR`` waits for: read the archive,
run the Grade10 pipeline, render the report.  Set-up simulates one run
per input cell at the ``small`` preset and archives it with ``save_run``;
the timed loop then analyzes the archives round-robin, one at a time
(a closed loop with one client), for the requested number of seconds.

The benchmark wraps its own span around each call into a layer
(``load`` = ``load_run``, ``characterize`` = ``Grade10.characterize``,
``report`` = ``render_report``).  With tracing on, a fresh
:class:`repro.obs.Tracer` per operation also collects the pipeline's
stage spans beneath them.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

import common

#: Archives analyzed round-robin: one block of the mix, so every
#: (system, algorithm) pair appears exactly once.
N_ARCHIVES = 15
#: ``repro analyze``'s default timeslice.
SLICE_DURATION = 0.01


def _analyze(directory: Path) -> tuple[str, Any]:
    from repro import obs
    from repro.core import Grade10, render_report
    from repro.workloads.archive import load_run

    with obs.span("analyze"):
        with obs.span("load"):
            execution_trace, resource_trace, (model, resources, rules), _ = load_run(directory)
        with obs.span("characterize"):
            profile = Grade10(
                model, resources, rules, slice_duration=SLICE_DURATION
            ).characterize(execution_trace, resource_trace)
        with obs.span("report"):
            text = render_report(profile)
    return text, profile


def _set_up(
    cells: list[common.Cell], directory: Path, seed: int
) -> tuple[list[Path], list[str]]:
    """Archive one simulated run per cell, then analyze each once."""
    common.archive_runs(cells, directory, stream=f"analyze:{seed}")
    archives = sorted(directory.iterdir())
    reports = [_analyze(path)[0] for path in archives]
    return archives, reports


def run(work: Path, seed: int, seconds: float, trace: bool, setups: int) -> dict[str, Any]:
    """Set up ``setups`` times, then analyze archives for ``seconds``."""
    from repro import obs

    cells = common.cells(seed, N_ARCHIVES, stream="analyze")
    setup_s = []
    for k in range(setups):
        t0 = time.perf_counter()
        archives, reports = _set_up(cells, work / f"setup-{k}", seed)
        setup_s.append(time.perf_counter() - t0)

    latencies: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = 0
    problems: list[str] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        path, report = archives[attempted % len(archives)], reports[attempted % len(archives)]
        attempted += 1
        tracer = obs.install(obs.Tracer()) if trace else None
        t0 = time.perf_counter()
        try:
            text, _ = _analyze(path)
        except Exception as exc:  # an operation that fails is counted, not fatal
            problems.append(f"{path.name}: {exc!r}")
            continue
        finally:
            if tracer is not None:
                obs.uninstall()
        latency = time.perf_counter() - t0
        if text != report:
            problems.append(f"{path.name}: report differs from the set-up analysis")
            continue
        latencies.append(latency)
        if tracer is not None:
            layers.append(
                common.partition_ms([e for e in tracer.events if e.get("ph") == "X"])
            )
    elapsed = time.perf_counter() - t_start

    # Outputs must be sound, not only repeatable: every archive's profile
    # satisfies the pipeline's invariants (conservation of attributed
    # usage, bottleneck and issue consistency) and names its phases.
    for path, report in zip(archives, reports):
        _, profile = _analyze(path)
        invariants = profile.check_invariants()
        if not invariants.ok:
            problems.append(f"{path.name}: invariants violated:\n{invariants.render()}")
        if not report.strip() or len(profile.execution_trace) == 0:
            problems.append(f"{path.name}: empty report or trace")

    return {
        "attempted": attempted,
        "failed": attempted - len(latencies),
        "problems": problems,
        "latencies_s": latencies,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "layers": layers,
        "counts": {"cache_hit_ratio": 0.0},
    }
