"""Edge-list I/O.

Graphalytics distributes datasets as whitespace-separated edge lists with
one ``src dst`` pair per line (``.e`` files) and a vertex list (``.v``).
This module reads and writes that format, so externally produced datasets
can be fed to the simulated systems.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path

import numpy as np

from .graph import Graph, sorted_unique

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(
    path: str | Path | io.TextIOBase,
    *,
    n_vertices: int | None = None,
    comments: str = "#",
    dedup: bool = False,
) -> Graph:
    """Read a ``src dst`` edge list into a :class:`Graph`.

    Vertex ids need not be contiguous: ids are compacted to ``0..n-1``
    unless ``n_vertices`` is given, in which case ids are taken literally
    and must fall in range.
    """
    with warnings.catch_warnings():
        # Empty files are a legal edge list; silence numpy's empty-input note.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, dtype=np.int64, comments=comments, ndmin=2)
    if data.size == 0:
        return Graph(n_vertices or 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if data.shape[1] < 2:
        raise ValueError("edge list must have at least two columns (src dst)")
    src, dst = data[:, 0], data[:, 1]
    if n_vertices is None:
        ids = sorted_unique(np.concatenate([src, dst]))
        lookup = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        return Graph(ids.size, lookup[0], lookup[1], dedup=dedup)
    return Graph(n_vertices, src, dst, dedup=dedup)


def write_edge_list(graph: Graph, path: str | Path | io.TextIOBase) -> None:
    """Write a graph as a ``src dst`` edge list."""
    src, dst = graph.edges()
    data = np.column_stack([src, dst])
    np.savetxt(path, data, fmt="%d")
