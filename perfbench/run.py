"""Benchmark of record for the Grade10 reproduction.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``analyze``
    Offline ``repro analyze``: load an archived run, characterize it,
    render the report; closed loop, one client.
``serve_cold``
    Open-loop ``POST /jobs`` traffic against ``repro serve`` where every
    job misses the run cache (generate + simulate + archive + analyze).
``serve_warm``
    The same traffic over a working set the cache already holds (every
    job re-analyzes a cached archive).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (latency median and 80th percentile, throughput,
set-up time), measured with the program's tracer off; ``--trace 1``
repeats the run with spans collected and reports the per-layer metrics
(median per operation of the time each layer holds the operation, plus
counts).  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common

WORKLOADS = ("analyze", "serve_cold", "serve_warm")
#: Set-up is repeated and its median reported, so one slow repetition
#: (page cache, a noisy neighbour) does not move ``setup_s``.
SETUPS = 3

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p80_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
}
#: Per-layer times, each the median over operations of the layer's share.
LAYER_METRICS = (
    "generator_lag_ms",
    "submit_ms",
    "delivery_ms",
    "http_request_ms",
    "queue_wait_ms",
    "unspanned_ms",
    "generate_ms",
    "archive_ms",
    "load_ms",
    *common.ANALYSIS_LAYERS,
    "report_ms",
)
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_METRICS},
    "analysis_ms": "ms",
    "ops_completed": "count",
    "cache_hit_ratio": "ratio",
}


def _import_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _metrics(result: dict, trace: bool) -> dict[str, dict[str, float | str]]:
    latencies = result["latencies_s"]
    if not latencies:
        raise SystemExit("perfbench: no operation completed; nothing to report")
    if trace:
        rows = result["layers"]
        values = {
            name: statistics.median(row.get(name, 0.0) for row in rows)
            for name in LAYER_METRICS
        }
        values["analysis_ms"] = statistics.median(
            sum(row.get(name, 0.0) for name in common.ANALYSIS_LAYERS) for row in rows
        )
        values["ops_completed"] = len(latencies)
        values.update(result["counts"])
        units = PER_LAYER_UNITS
    else:
        values = {
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p80_ms": common.percentile(latencies, 80) * 1000.0,
            "throughput_per_s": len(latencies) / result["elapsed_s"],
            "setup_s": statistics.median(result["setup_s"]),
        }
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Everything the run and its child processes write stays in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    t0 = time.perf_counter()
    try:
        if args.workload == "analyze":
            import analyze_workload

            result = analyze_workload.run(
                work, args.seed, args.seconds, bool(args.trace), SETUPS
            )
        else:
            import service_workload

            result = service_workload.run(
                args.workload, root, work, args.seed, args.seconds, bool(args.trace), SETUPS
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed}: {result['attempted']} ops, "
        f"{result['failed']} failed, {time.perf_counter() - t0:.1f} s wall",
        file=sys.stderr,
    )
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _metrics(result, bool(args.trace)),
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
