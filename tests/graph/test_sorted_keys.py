"""The sorted-int64-key graph kernels equal their lexsort/unique oracles.

``Graph`` builds CSR order from one sort of ``src * n + dst`` (or keeps
input already in that order), and ``read_edge_list`` and
``replication_factor`` deduplicate by ``sorted_unique``.  Every property
here requires exact equality with :mod:`tests.graph.oracles` or with
``np.unique``.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import Graph, random_vertex_cut, read_edge_list
from repro.graph.graph import MAX_VERTICES, sorted_unique

from . import oracles
from .oracles import edge_lists


def _assert_csr_equal(graph: Graph, expected) -> None:
    src, dst, indptr = expected
    for got, want in zip((*graph.edges(), graph.indptr), (src, dst, indptr)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestConstructionMatchesOracle:
    @given(edge_lists(), st.booleans(), st.booleans())
    @settings(max_examples=200)
    @example((1, np.zeros(0, np.int64), np.zeros(0, np.int64)), False, False)
    @example((1, np.zeros(3, np.int64), np.zeros(3, np.int64)), True, False)
    @example((5, np.array([4, 4, 0, 4]), np.array([1, 1, 2, 1])), False, False)
    def test_csr_arrays(self, case, dedup, presorted):
        n, src, dst = case
        if presorted:
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        graph = Graph(n, src, dst, dedup=dedup)
        _assert_csr_equal(graph, oracles.csr_arrays(n, src, dst, dedup=dedup))

    @given(edge_lists(), st.booleans())
    @settings(max_examples=100)
    def test_reverse_and_undirected(self, case, dedup):
        n, src, dst = case
        graph = Graph(n, src, dst, dedup=dedup)
        o_src, o_dst, _ = oracles.csr_arrays(n, src, dst, dedup=dedup)
        _assert_csr_equal(graph.reverse(), oracles.csr_arrays(n, o_dst, o_src))
        _assert_csr_equal(graph.to_undirected(), oracles.undirected_arrays(n, o_src, o_dst))

    def test_no_vertices(self):
        empty = np.zeros(0, dtype=np.int64)
        for dedup in (False, True):
            _assert_csr_equal(Graph(0, empty, empty, dedup=dedup), (empty, empty, [0]))

    def test_csr_ordered_input_is_kept(self):
        src = np.array([0, 0, 1, 2, 2], dtype=np.int64)
        dst = np.array([1, 1, 0, 0, 2], dtype=np.int64)
        graph = Graph(3, src, dst)
        assert np.shares_memory(graph.edges()[0], src)
        assert np.shares_memory(graph.edges()[1], dst)


class TestVertexLimit:
    def test_limit_is_the_largest_int64_safe_count(self):
        assert (MAX_VERTICES**2 - 1) <= np.iinfo(np.int64).max
        assert ((MAX_VERTICES + 1) ** 2 - 1) > np.iinfo(np.int64).max

    def test_over_limit_rejected_before_allocation(self):
        # Empty edge arrays: a graph of this size would allocate its
        # bincount of n_vertices, so only the refusal can run here.
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="3,037,000,499"):
            Graph(MAX_VERTICES + 1, empty, empty)


class TestSortedUnique:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=200))
    @settings(max_examples=150)
    def test_equals_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        got = sorted_unique(values)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(values))

    @given(edge_lists(max_n=15, max_m=40))
    @settings(max_examples=60)
    def test_edge_list_relabelling(self, case):
        n, src, dst = case
        ids = np.array([3, 10, 11, 40, 41, 100, 7, 8, 9, 1000, 5, 6, 2, 999, 12])[:n]
        text = "".join(f"{ids[s]} {ids[d]}\n" for s, d in zip(src, dst))
        graph = read_edge_list(io.StringIO(text))
        seen = np.unique(np.concatenate([ids[src], ids[dst]]))
        lookup = np.searchsorted(seen, ids[src]), np.searchsorted(seen, ids[dst])
        _assert_csr_equal(graph, oracles.csr_arrays(seen.size, *lookup))

    @given(edge_lists(), st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=60)
    def test_replication_factor(self, case, k, seed):
        n, src, dst = case
        part = random_vertex_cut(Graph(n, src, dst), k, seed=seed)
        g_src, g_dst = part.graph.edges()
        v_all = np.concatenate([g_src, g_dst, np.arange(n)])
        m_all = np.concatenate([part.edge_machine, part.edge_machine, part.master])
        expected = np.unique(v_all * np.int64(k) + m_all).size / n
        assert part.replication_factor() == expected
