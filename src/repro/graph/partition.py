"""Graph partitioning: edge-cut (Giraph-style) and vertex-cut (PowerGraph-style).

Distributed graph frameworks distribute work by partitioning the graph:

* **Edge-cut** partitioners assign *vertices* to workers; a worker owns its
  vertices and their out-edges, and messages crossing the cut travel over
  the network.  Giraph hash-partitions vertices by default.
* **Vertex-cut** partitioners assign *edges* to machines; vertices spanning
  several machines are replicated (one master, n-1 mirrors), and mirror
  synchronization is what crosses the network.  PowerGraph introduced this
  to split high-degree vertices.

Partition quality (balance, cut size / replication factor) drives the
workload imbalance the paper measures, so the partitioners expose those
statistics directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, sorted_unique

__all__ = [
    "EdgeCutPartition",
    "VertexCutPartition",
    "hash_edge_cut",
    "range_edge_cut",
    "random_vertex_cut",
    "grid_vertex_cut",
    "greedy_vertex_cut",
]

# Multiplicative hash constant (Knuth); cheap, vectorized, well-mixing.
_HASH_MULT = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as signed


def _mix_hash(x: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized 64-bit integer mix for bucket assignment."""
    with np.errstate(over="ignore"):
        h = (np.asarray(x, dtype=np.int64) + np.int64(seed)) * _HASH_MULT
        h ^= h >> np.int64(31)
        h *= _HASH_MULT
        h ^= h >> np.int64(29)
    return np.abs(h)


@dataclass
class EdgeCutPartition:
    """Vertex ownership for an edge-cut partitioning.

    ``owner[v]`` is the partition owning vertex ``v``; edges belong to the
    partition of their source (out-edge ownership, as in Pregel/Giraph).
    """

    graph: Graph
    n_partitions: int
    owner: np.ndarray

    def __post_init__(self) -> None:
        if self.owner.shape != (self.graph.n_vertices,):
            raise ValueError("owner must have one entry per vertex")
        if self.owner.size and (self.owner.min() < 0 or self.owner.max() >= self.n_partitions):
            raise ValueError("owner contains out-of-range partition ids")

    def vertices_of(self, p: int) -> np.ndarray:
        """Vertex ids owned by partition ``p``."""
        return np.nonzero(self.owner == p)[0]

    def vertex_counts(self) -> np.ndarray:
        """Vertices per partition."""
        return np.bincount(self.owner, minlength=self.n_partitions)

    def edge_counts(self) -> np.ndarray:
        """Out-edges owned by each partition."""
        src, _ = self.graph.edges()
        return np.bincount(self.owner[src], minlength=self.n_partitions)

    def cut_edges(self) -> int:
        """Number of edges whose endpoints live on different partitions."""
        src, dst = self.graph.edges()
        return int(np.count_nonzero(self.owner[src] != self.owner[dst]))

    def cut_fraction(self) -> float:
        """Fraction of edges crossing partitions."""
        if self.graph.n_edges == 0:
            return 0.0
        return self.cut_edges() / self.graph.n_edges

    def edge_balance(self) -> float:
        """Max/mean ratio of per-partition edge counts (1.0 = perfect)."""
        counts = self.edge_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0


@dataclass
class VertexCutPartition:
    """Edge placement for a vertex-cut partitioning.

    ``edge_machine[e]`` is the machine of edge ``e`` (CSR order);
    ``master[v]`` is the machine holding vertex ``v``'s master replica.
    """

    graph: Graph
    n_machines: int
    edge_machine: np.ndarray
    master: np.ndarray

    def __post_init__(self) -> None:
        if self.edge_machine.shape != (self.graph.n_edges,):
            raise ValueError("edge_machine must have one entry per edge")
        if self.master.shape != (self.graph.n_vertices,):
            raise ValueError("master must have one entry per vertex")

    def edge_counts(self) -> np.ndarray:
        """Edges per machine."""
        return np.bincount(self.edge_machine, minlength=self.n_machines)

    def replicas_of(self, v: int) -> np.ndarray:
        """Machines holding a replica of ``v`` (master included)."""
        src, dst = self.graph.edges()
        machines = np.concatenate(
            [
                self.edge_machine[src == v],
                self.edge_machine[dst == v],
                [self.master[v]],
            ]
        )
        return sorted_unique(machines)

    def replication_factor(self) -> float:
        """Average number of replicas per vertex (PowerGraph's key metric)."""
        if self.graph.n_vertices == 0:
            return 0.0
        src, dst = self.graph.edges()
        # Count distinct (vertex, machine) pairs over both endpoints + masters.
        v_all = np.concatenate([src, dst, np.arange(self.graph.n_vertices)])
        m_all = np.concatenate([self.edge_machine, self.edge_machine, self.master])
        pairs = v_all * np.int64(self.n_machines) + m_all
        return float(sorted_unique(pairs).size / self.graph.n_vertices)

    def edge_balance(self) -> float:
        """Max/mean ratio of per-machine edge counts (1.0 = perfect)."""
        counts = self.edge_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0


# ---------------------------------------------------------------------- #
# Edge-cut partitioners
# ---------------------------------------------------------------------- #


def hash_edge_cut(graph: Graph, n_partitions: int, *, seed: int = 0) -> EdgeCutPartition:
    """Giraph's default: hash vertex ids onto partitions.

    Balances vertex counts well but ignores edge skew — high-degree
    vertices make some partitions edge-heavy, the irregularity Grade10's
    imbalance analysis surfaces.
    """
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be > 0, got {n_partitions}")
    owner = _mix_hash(np.arange(graph.n_vertices), seed) % n_partitions
    return EdgeCutPartition(graph, n_partitions, owner.astype(np.int64))


def range_edge_cut(graph: Graph, n_partitions: int) -> EdgeCutPartition:
    """Contiguous id ranges with (approximately) equal vertex counts."""
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be > 0, got {n_partitions}")
    owner = (
        np.arange(graph.n_vertices, dtype=np.int64) * n_partitions // max(graph.n_vertices, 1)
    )
    return EdgeCutPartition(graph, n_partitions, np.minimum(owner, n_partitions - 1))


# ---------------------------------------------------------------------- #
# Vertex-cut partitioners
# ---------------------------------------------------------------------- #


def _masters_from_edges(graph: Graph, n_machines: int, seed: int) -> np.ndarray:
    """Assign each vertex's master by hashing, like PowerGraph."""
    return (_mix_hash(np.arange(graph.n_vertices), seed + 1) % n_machines).astype(np.int64)


def random_vertex_cut(graph: Graph, n_machines: int, *, seed: int = 0) -> VertexCutPartition:
    """PowerGraph's *random* ingress: hash each edge onto a machine."""
    if n_machines <= 0:
        raise ValueError(f"n_machines must be > 0, got {n_machines}")
    src, dst = graph.edges()
    with np.errstate(over="ignore"):
        key = src * np.int64(0x1F123BB5) + dst
    machine = (_mix_hash(key, seed) % n_machines).astype(np.int64)
    return VertexCutPartition(graph, n_machines, machine, _masters_from_edges(graph, n_machines, seed))


def grid_vertex_cut(graph: Graph, n_machines: int, *, seed: int = 0) -> VertexCutPartition:
    """PowerGraph's *grid* ingress: constrain edge (u, v) to the
    intersection of u's row and v's column in a machine grid.

    Bounds the replication factor at ``2√M - 1`` while staying fully
    vectorized.  When ``n_machines`` is not a perfect square the grid is
    rectangular (``r × c`` with ``r*c >= n_machines``) and cells are folded
    back onto real machines modulo ``n_machines``.
    """
    if n_machines <= 0:
        raise ValueError(f"n_machines must be > 0, got {n_machines}")
    rows = int(np.floor(np.sqrt(n_machines)))
    cols = int(np.ceil(n_machines / rows))
    src, dst = graph.edges()
    r = _mix_hash(src, seed) % rows
    c = _mix_hash(dst, seed + 7) % cols
    machine = ((r * cols + c) % n_machines).astype(np.int64)
    return VertexCutPartition(graph, n_machines, machine, _masters_from_edges(graph, n_machines, seed))


def greedy_vertex_cut(graph: Graph, n_machines: int, *, seed: int = 0) -> VertexCutPartition:
    """PowerGraph's *greedy (oblivious)* ingress.

    Sequential over edges (the heuristic is inherently stateful): place
    edge (u, v) on a machine already holding replicas of both endpoints if
    possible, else of one endpoint (the one with more unplaced edges), else
    the least-loaded machine.  Use for small/medium graphs; the hashed
    cuts above are the vectorized choices for large ones.
    """
    if n_machines <= 0:
        raise ValueError(f"n_machines must be > 0, got {n_machines}")
    src, dst = graph.edges()
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    replicas = np.zeros((n, n_machines), dtype=bool)
    load = np.zeros(n_machines, dtype=np.int64)
    remaining = np.asarray(graph.out_degree()) + np.asarray(graph.in_degree())
    machine = np.empty(graph.n_edges, dtype=np.int64)

    order = rng.permutation(graph.n_edges)
    for e in order:
        u, v = src[e], dst[e]
        both = replicas[u] & replicas[v]
        if both.any():
            cands = np.nonzero(both)[0]
        else:
            ru, rv = replicas[u], replicas[v]
            if ru.any() or rv.any():
                # Favour the endpoint with more work left to place.
                cands = np.nonzero(ru if remaining[u] >= remaining[v] else rv)[0]
                if cands.size == 0:
                    cands = np.nonzero(ru | rv)[0]
            else:
                cands = np.arange(n_machines)
        m = cands[np.argmin(load[cands])]
        machine[e] = m
        replicas[u, m] = True
        replicas[v, m] = True
        load[m] += 1
        remaining[u] -= 1
        remaining[v] -= 1
    return VertexCutPartition(graph, n_machines, machine, _masters_from_edges(graph, n_machines, seed))
