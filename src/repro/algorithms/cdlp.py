"""Community detection by label propagation (Graphalytics CDLP).

Every vertex adopts the label most frequent among its incoming neighbors,
breaking ties toward the smallest label, for a fixed number of iterations
(the Graphalytics/Raghavan et al. formulation).  All vertices are active
every iteration and each iteration scans every edge — CDLP is the
heaviest of the paper's four algorithms, and its Gather-step imbalance on
PowerGraph is the centerpiece of the paper's Figure 5/6 case study.

The per-iteration mode is one ``np.sort`` of the int64 keys
``dst * n + label`` plus run-length reductions over the sorted keys:
``O(E log E)`` with no Python loop over edges and no ``np.lexsort``
(DESIGN.md, "Sorted int64 keys").
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .base import AlgorithmResult, IterationStats

__all__ = ["cdlp"]


def _mode_per_vertex(dst: np.ndarray, labels_in: np.ndarray, n: int) -> np.ndarray:
    """For each destination vertex, the most frequent incoming label.

    Ties break toward the smaller label.  Vertices with no incoming edge
    get label ``-1`` (caller keeps their old label).  Labels are vertex
    ids, so ``dst * n + label`` is injective and sorting it groups the
    edges by destination with the labels ascending inside each group.
    """
    out = np.full(n, -1, dtype=np.int64)
    if dst.size == 0:
        return out
    key = np.sort(dst * n + labels_in)
    # Runs of identical (dst, label) keys.
    run_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_counts = np.diff(np.append(run_starts, key.size))
    run_dst, run_label = np.divmod(key[run_starts], n)
    # Runs of one destination are contiguous: take each one's highest
    # count, then the first run reaching it.  Runs are label-sorted, so
    # that run carries the smallest of the most frequent labels.
    group_starts = np.flatnonzero(np.concatenate(([True], run_dst[1:] != run_dst[:-1])))
    group_sizes = np.diff(np.append(group_starts, run_dst.size))
    best = np.repeat(np.maximum.reduceat(run_counts, group_starts), group_sizes)
    modal = np.flatnonzero(run_counts == best)
    first = np.concatenate(([True], run_dst[modal[1:]] != run_dst[modal[:-1]]))
    out[run_dst[modal[first]]] = run_label[modal[first]]
    return out


def cdlp(graph: Graph, *, iterations: int = 10) -> AlgorithmResult:
    """Community detection by label propagation; values are final labels."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = graph.n_vertices
    src, dst = graph.edges()
    labels = np.arange(n, dtype=np.int64)
    result = AlgorithmResult("cdlp", labels)
    all_active = np.ones(n, dtype=bool)

    for it in range(iterations):
        incoming = _mode_per_vertex(dst, labels[src], n)
        new_labels = np.where(incoming >= 0, incoming, labels)
        labels = new_labels
        result.iterations.append(
            IterationStats(
                iteration=it,
                active=all_active,
                edges_processed=graph.n_edges,
                messages=graph.n_edges,
            )
        )
    result.values = labels
    return result
