"""Reference implementations of the graph substrate's sort-based kernels.

``repro.graph`` and ``repro.algorithms`` sort one int64 key per edge
(``src * n + dst``, ``dst * n + label``) and find runs by adjacent
difference.  Each function here is the multi-key or per-vertex form that
kernel replaced:

* :func:`csr_arrays` — hash ``np.unique`` deduplication, then a stable
  ``np.lexsort`` by (source, destination) (``Graph.__init__``);
* :func:`mode_per_vertex` and :func:`cdlp_labels` — the label mode by two
  ``np.lexsort`` passes over (destination, label) runs
  (``repro.algorithms.cdlp``);
* :func:`lcc_coefficients` — one neighbor-list intersection per
  (vertex, neighbor) pair (``repro.algorithms.lcc``);
* :func:`wcc_labels` — SciPy's weakly connected components, labelled by
  their smallest vertex id (``repro.algorithms.wcc``).

The kernels must equal these with ``np.array_equal``, never within a
tolerance, on the inputs :func:`edge_lists` draws.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components


@st.composite
def edge_lists(draw, max_n=30, max_m=120):
    """``(n, src, dst)``: duplicates, self-loops and isolated vertices all occur."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_m
        )
    )
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, src, dst


def csr_arrays(
    n_vertices: int, src, dst, *, dedup: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, indptr)`` of the CSR graph on these edges."""
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if dedup and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        key = src * n_vertices + dst
        _, unique_idx = np.unique(key, return_index=True)
        src, dst = src[unique_idx], dst[unique_idx]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return src, dst, indptr


def undirected_arrays(
    n_vertices: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of both orientations of every edge, deduplicated, no loops."""
    return csr_arrays(
        n_vertices, np.concatenate([src, dst]), np.concatenate([dst, src]), dedup=True
    )


def mode_per_vertex(dst: np.ndarray, labels_in: np.ndarray, n: int) -> np.ndarray:
    """Most frequent incoming label per vertex, smallest on ties, else -1."""
    if dst.size == 0:
        return np.full(n, -1, dtype=np.int64)
    order = np.lexsort((labels_in, dst))
    d = dst[order]
    l = labels_in[order]
    boundary = np.empty(d.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (d[1:] != d[:-1]) | (l[1:] != l[:-1])
    run_starts = np.nonzero(boundary)[0]
    run_counts = np.diff(np.append(run_starts, d.size))
    run_dst = d[run_starts]
    run_label = l[run_starts]
    out = np.full(n, -1, dtype=np.int64)
    # (dst, count desc, label asc): the first run of each destination.
    order2 = np.lexsort((run_label, -run_counts, run_dst))
    rd = run_dst[order2]
    first = np.empty(rd.size, dtype=bool)
    first[0] = True
    first[1:] = rd[1:] != rd[:-1]
    out[rd[first]] = run_label[order2][first]
    return out


def cdlp_labels(n: int, src: np.ndarray, dst: np.ndarray, iterations: int) -> np.ndarray:
    """Final CDLP labels after ``iterations`` synchronous rounds."""
    labels = np.arange(n, dtype=np.int64)
    for _ in range(iterations):
        incoming = mode_per_vertex(dst, labels[src], n)
        labels = np.where(incoming >= 0, incoming, labels)
    return labels


def lcc_coefficients(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Clustering coefficient per vertex of a symmetric, loop-free CSR graph."""
    coeff = np.zeros(n, dtype=np.float64)
    for v in range(n):
        nbrs = indices[indptr[v] : indptr[v + 1]]
        d = nbrs.size
        if d < 2:
            continue
        # Edges among the neighbors: for each neighbor u, |N(u) ∩ N(v)|.
        links = 0
        for u in nbrs:
            u_nbrs = indices[indptr[u] : indptr[u + 1]]
            pos = np.searchsorted(u_nbrs, nbrs)
            pos = np.minimum(pos, u_nbrs.size - 1)
            links += int(np.count_nonzero(u_nbrs[pos] == nbrs)) if u_nbrs.size else 0
        coeff[v] = links / (d * (d - 1))
    return coeff


def wcc_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each vertex's weakly connected component, named by its smallest id."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adjacency = coo_array((np.ones(src.size), (src, dst)), shape=(n, n))
    n_components, component = connected_components(adjacency, connection="weak")
    smallest = np.full(n_components, n, dtype=np.int64)
    np.minimum.at(smallest, component, np.arange(n, dtype=np.int64))
    return smallest[component]
