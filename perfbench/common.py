"""Shared pieces of the benchmark: the input mix, statistics, and the
layer-by-layer partition of one operation's span tree.

``repro`` is imported only inside functions, after ``run.py`` has
checked that the checkout holds the package.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Every job and archive uses the ``small`` preset: tens of thousands of
#: edges, so the analysis stages (the paper's pipeline) are a large share
#: of each operation rather than HTTP and bookkeeping overhead.
PRESET = "small"
SYSTEMS = ("giraph", "powergraph", "sparklike")
DATASETS = ("graph500", "datagen")
#: ``lcc`` is left out: one run of it takes seconds at this preset.
ALGORITHMS = ("bfs", "cdlp", "pr", "sssp", "wcc")
#: New simulation seeds tried for a cell whose run cannot be archived.
MAX_REDRAWS = 5


@dataclass(frozen=True)
class Cell:
    """One (system, dataset, algorithm, simulation seed) workload cell."""

    system: str
    dataset: str
    algorithm: str
    seed: int

    @property
    def label(self) -> str:
        """``system/dataset/algorithm``, the service's cell label."""
        return f"{self.system}/{self.dataset}/{self.algorithm}"

    def job_spec(self) -> dict[str, Any]:
        """The ``POST /jobs`` body running this cell through the pipeline."""
        return {
            "preset": PRESET,
            "systems": [self.system],
            "grid": [[self.dataset, self.algorithm]],
            "seed": self.seed,
            "characterize": True,
        }


def cells(seed: int, n: int, *, stream: str) -> list[Cell]:
    """``n`` cells drawn from ``seed``; ``stream`` keeps draws independent.

    Cells come in blocks of 15 that hold every (system, algorithm) pair
    once, in a seeded order.  The datasets alternate between blocks on a
    fixed pattern, so every seed runs the same mix of work and only the
    simulation seeds and the order change between seeds.
    """
    rng = random.Random(f"{stream}:{seed}")
    pairs = [(system, algorithm) for system in SYSTEMS for algorithm in ALGORITHMS]
    out: list[Cell] = []
    block = 0
    while len(out) < n:
        cells_of_block = [
            Cell(system, DATASETS[(i + block) % len(DATASETS)], algorithm,
                 rng.randrange(1, 1 << 30))
            for i, (system, algorithm) in enumerate(pairs)
        ]
        rng.shuffle(cells_of_block)
        out.extend(cells_of_block)
        block += 1
    return out[:n]


def archive_runs(cells: list[Cell], directory: Path, *, stream: str) -> list[tuple[Cell, float]]:
    """Simulate each cell and archive its run as the run cache does.

    Archive ``i`` is written to ``directory / f"run-{i:03d}"``.  Returns
    each cell with its run's makespan, the value the service must report
    for it.  Rarely ``save_run`` rejects a run (float cancellation leaves
    an idle machine's monitoring sample at -1e-16); such a cell gets a new
    simulation seed, drawn from ``stream`` so the inputs still follow
    from the benchmark seed, and every input is one the program can
    process.
    """
    from repro.workloads import WorkloadSpec, run_workload
    from repro.workloads.archive import save_run

    out = []
    for i, cell in enumerate(cells):
        redraw = random.Random(f"{stream}:redraw:{i}")
        for attempt in range(MAX_REDRAWS + 1):
            spec = WorkloadSpec(
                cell.system, cell.dataset, cell.algorithm, preset=PRESET, seed=cell.seed
            )
            run = run_workload(spec).system_run
            try:
                save_run(run, directory / f"run-{i:03d}")
            except ValueError:
                if attempt == MAX_REDRAWS:
                    raise
                cell = dataclasses.replace(cell, seed=redraw.randrange(1, 1 << 30))
            else:
                out.append((cell, run.makespan))
                break
    return out


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------- #
# Layer-by-layer partition of one operation
# ---------------------------------------------------------------------- #

#: Span name -> per-layer metric.  A span whose name is not listed (a
#: span a later version of the program adds) counts towards the metric
#: of its nearest listed ancestor, so each metric keeps covering the same
#: layer when finer spans appear inside it.
LAYER_OF_SPAN = {
    # the benchmark's own spans around its calls into the program
    "analyze": "unspanned_ms",
    "load": "load_ms",
    "characterize": "unspanned_ms",
    "report": "report_ms",
    # the job service (server-side trace of one job)
    "job": "unspanned_ms",
    "http.request": "http_request_ms",
    "job.queued-wait": "queue_wait_ms",
    "job.execute": "unspanned_ms",
    "cell": "unspanned_ms",
    # dataset generation and system simulation (cold jobs only)
    "generate": "generate_ms",
    "archive": "archive_ms",
    # the Grade10 pipeline
    "parse": "parse_ms",
    "demand": "demand_ms",
    "upsample": "upsample_ms",
    "attribute": "attribute_ms",
    "bottlenecks": "bottlenecks_ms",
    "issues": "issues_ms",
    "simulate.build": "whatif_simulate_ms",
    "simulate": "whatif_simulate_ms",
    "outliers": "outliers_ms",
}

#: Layers of the paper's pipeline; their sum is reported as ``analysis_ms``.
ANALYSIS_LAYERS = (
    "parse_ms",
    "demand_ms",
    "upsample_ms",
    "attribute_ms",
    "bottlenecks_ms",
    "issues_ms",
    "whatif_simulate_ms",
    "outliers_ms",
)


def partition_ms(spans: list[Mapping[str, Any]]) -> dict[str, float]:
    """Split one operation's wall time among layers, in milliseconds.

    ``spans`` are Chrome-trace ``"X"`` events (``ts``/``dur`` in µs,
    ``args.id``/``args.parent`` linking them into a tree).  Every instant
    covered by a span goes to the deepest span open at that instant
    (the latest-started one on a tie), and from there to that span's
    layer.  So the layers add up exactly to the time the spans cover,
    and time inside a layer that no finer span covers stays with it.
    """
    by_id = {s["args"]["id"]: s for s in spans if s.get("args", {}).get("id")}

    def ancestry(span: Mapping[str, Any]) -> list[Mapping[str, Any]]:
        chain = [span]
        seen = {id(span)}
        parent = span.get("args", {}).get("parent")
        while parent in by_id and id(by_id[parent]) not in seen:
            span = by_id[parent]
            seen.add(id(span))
            chain.append(span)
            parent = span.get("args", {}).get("parent")
        return chain

    intervals = []
    for span in spans:
        chain = ancestry(span)
        layer = next(
            (LAYER_OF_SPAN[s["name"]] for s in chain if s["name"] in LAYER_OF_SPAN),
            "unspanned_ms",
        )
        start = float(span["ts"])
        intervals.append((start, start + float(span.get("dur", 0.0)), len(chain), layer))

    bounds = sorted({t for lo, hi, _, _ in intervals for t in (lo, hi)})
    out: dict[str, float] = defaultdict(float)
    for lo, hi in zip(bounds, bounds[1:]):
        active = [iv for iv in intervals if iv[0] <= lo and iv[1] >= hi]
        if active:
            deepest = max(active, key=lambda iv: (iv[2], iv[0]))
            out[deepest[3]] += (hi - lo) / 1000.0
    return dict(out)
