"""Local clustering coefficient (Graphalytics LCC).

For each vertex, the fraction of pairs of its (undirected) neighbors that
are themselves connected.  One conceptual superstep with per-vertex work
proportional to the square of the degree — the most work-skewed of the
Graphalytics kernels, useful for stressing the imbalance analysis.

Triangles are counted with sparse matrix products over a degree
orientation: each undirected edge points from the lower to the higher
``(degree, id)`` endpoint, giving a 0/1 matrix ``L``.  A triangle
``a < b < c`` in that order has the edges ``a→b``, ``a→c`` and ``b→c``,
so ``(L @ L) ∘ L`` has one entry per triangle at ``(a, c)`` and
``(Lᵀ @ L) ∘ L`` one at ``(b, c)``.  A vertex's triangles are then the
row plus column sums of the first (as the lowest and as the highest
corner) plus the row sums of the second (as the middle corner).  The
orientation keeps every out-degree of ``L`` at most ``√(2E)``, so the
products stay small on skewed graphs.  Counts are exact integers and a
coefficient is one integer division, the same float a per-vertex
neighbor-intersection loop computes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph import Graph
from .base import AlgorithmResult, IterationStats

__all__ = ["lcc"]


def _triangles_per_vertex(und: Graph, deg: np.ndarray) -> np.ndarray:
    """Triangles through each vertex of a symmetric graph without self-loops."""
    n = und.n_vertices
    src, dst = und.edges()
    up = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    ones = np.ones(int(np.count_nonzero(up)), dtype=np.int64)
    lower = sp.csr_array((ones, (src[up], dst[up])), shape=(n, n))
    low_high = (lower @ lower).multiply(lower)
    middle = (lower.T @ lower).multiply(lower)
    return (
        np.asarray(low_high.sum(axis=1)).ravel()
        + np.asarray(low_high.sum(axis=0)).ravel()
        + np.asarray(middle.sum(axis=1)).ravel()
    )


def lcc(graph: Graph) -> AlgorithmResult:
    """Local clustering coefficient per vertex (on the undirected view)."""
    n = graph.n_vertices
    und = graph.to_undirected()
    deg = np.asarray(und.out_degree(), dtype=np.int64)
    coeff = np.zeros(n, dtype=np.float64)
    ok = deg >= 2
    # d (d - 1) counts ordered neighbor pairs; a triangle links two of them.
    links = 2 * _triangles_per_vertex(und, deg)
    coeff[ok] = links[ok] / (deg[ok] * (deg[ok] - 1))

    result = AlgorithmResult("lcc", coeff)
    result.iterations.append(
        IterationStats(
            iteration=0,
            active=np.ones(n, dtype=bool),
            edges_processed=int(np.sum(deg**2)),
            messages=und.n_edges,
        )
    )
    return result
