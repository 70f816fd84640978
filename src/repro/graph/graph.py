"""Compressed-sparse-row graph representation.

The simulated systems and the vectorized algorithms both operate on a CSR
adjacency structure (contiguous numpy arrays), the idiomatic layout for
vectorized graph kernels: neighbor expansion of a vertex set is two array
gathers, degree queries are a diff of the index array, and everything stays
cache-friendly.

Graphs are directed; undirected graphs are represented by storing both
orientations of every edge (:meth:`Graph.to_undirected`).

CSR order is the order of the int64 key ``src * n_vertices + dst``.  The
key is injective on ``(src, dst)``, so sorting it sorts the edges by
source, then destination, and ``np.divmod(key, n_vertices)`` gives the
pairs back.  Construction therefore costs one order check (input that is
already in CSR order, like a graph-cache payload, is kept as it is), or
one ``np.sort`` of the keys — never a multi-key ``np.lexsort`` or a
hash-based ``np.unique``, both many times slower (DESIGN.md, "Sorted
int64 keys").  The key bounds ``n_vertices`` by :data:`MAX_VERTICES`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Graph", "MAX_VERTICES", "sorted_unique"]

#: Largest vertex count whose edge keys ``src * n + dst`` (at most
#: ``n**2 - 1``) fit in an int64: ``isqrt(2**63)``.
MAX_VERTICES = 3_037_000_499


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.

    Equal to ``np.unique(values)``, computed by one ``np.sort`` and an
    adjacent-difference mask instead of NumPy's hash-based unique.
    """
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


class Graph:
    """A directed graph in CSR form.

    Parameters
    ----------
    n_vertices:
        Number of vertices, ids ``0 .. n_vertices - 1``.
    src, dst:
        Parallel edge arrays.  Duplicate edges and self-loops are kept
        unless ``dedup`` is set.  Arrays already in CSR order are kept
        without a copy, so the graph may share them with the caller.
    dedup:
        Remove duplicate edges (keeping one copy) and self-loops.
    """

    def __init__(
        self,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        dedup: bool = False,
    ) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        if n_vertices > MAX_VERTICES:
            raise ValueError(
                f"n_vertices must be <= {MAX_VERTICES:,} (edge keys "
                f"src * n_vertices + dst must fit in int64), got {n_vertices:,}"
            )
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size and (src.min() < 0 or src.max() >= n_vertices):
            raise ValueError("src contains out-of-range vertex ids")
        if dst.size and (dst.min() < 0 or dst.max() >= n_vertices):
            raise ValueError("dst contains out-of-range vertex ids")

        key = src * n_vertices + dst
        if dedup:
            src, dst = np.divmod(sorted_unique(key[src != dst]), n_vertices)
        elif np.any(key[1:] < key[:-1]):
            # Duplicate edges are equal pairs, so decoding the sorted keys
            # gives exactly the stable reorder of the input arrays.
            src, dst = np.divmod(np.sort(key), n_vertices)

        self.n_vertices = int(n_vertices)
        self._src = np.ascontiguousarray(src)
        self._dst = np.ascontiguousarray(dst)
        counts = np.bincount(self._src, minlength=n_vertices)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self._in_degree: np.ndarray | None = None
        self._reverse: "Graph | None" = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        return int(self._dst.size)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer: out-edges of ``v`` are ``indices[indptr[v]:indptr[v+1]]``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (edge destinations in source-sorted order)."""
        return self._dst

    @property
    def edge_sources(self) -> np.ndarray:
        """Edge source array aligned with :attr:`indices`."""
        return self._src

    def out_degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degrees of all vertices (or of ``v``)."""
        degs = np.diff(self._indptr)
        if v is None:
            return degs
        if np.ndim(v) == 0:
            return int(degs[v])
        return degs[np.asarray(v)]

    def in_degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """In-degrees of all vertices (or of ``v``), computed lazily."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self._dst, minlength=self.n_vertices)
        if v is None:
            return self._in_degree
        if np.ndim(v) == 0:
            return int(self._in_degree[v])
        return self._in_degree[np.asarray(v)]

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (a view into the CSR arrays)."""
        return self._dst[self._indptr[v] : self._indptr[v + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays in CSR order (views; do not mutate)."""
        return self._src, self._dst

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def reverse(self) -> "Graph":
        """The transpose graph (cached); used by pull-style kernels."""
        if self._reverse is None:
            self._reverse = Graph(self.n_vertices, self._dst, self._src)
        return self._reverse

    def to_undirected(self) -> "Graph":
        """Both orientations of every edge, deduplicated, no self-loops."""
        src = np.concatenate([self._src, self._dst])
        dst = np.concatenate([self._dst, self._src])
        return Graph(self.n_vertices, src, dst, dedup=True)

    # ------------------------------------------------------------------ #
    # Interop & debugging
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (for validation in tests)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n_vertices))
        g.add_edges_from(zip(self._src.tolist(), self._dst.tolist()))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"
