"""CDLP, LCC and WCC equal their reference forms exactly.

CDLP's label mode sorts one int64 key per edge, LCC counts triangles with
sparse products over a degree orientation, and both, like WCC, run on
graphs built by sorting int64 edge keys.  The references live in
:mod:`tests.graph.oracles`; every comparison is ``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import cdlp, lcc, wcc
from repro.algorithms.cdlp import _mode_per_vertex
from repro.graph import Graph, generators
from repro.workloads.datasets import get_dataset

from ..graph import oracles
from ..graph.oracles import edge_lists


class TestCdlp:
    @given(edge_lists(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=200)
    def test_mode_on_label_ties(self, case, n_labels, seed):
        # A handful of labels over many edges makes most modes ties.
        n, _, dst = case
        labels_in = np.random.default_rng(seed).integers(0, min(n_labels, n), size=dst.size)
        got = _mode_per_vertex(dst, labels_in, n)
        assert np.array_equal(got, oracles.mode_per_vertex(dst, labels_in, n))

    @given(edge_lists(), st.integers(1, 6))
    @settings(max_examples=100)
    def test_labels(self, case, iterations):
        n, src, dst = case
        graph = Graph(n, src, dst)
        g_src, g_dst = graph.edges()
        expected = oracles.cdlp_labels(n, g_src, g_dst, iterations)
        assert np.array_equal(cdlp(graph, iterations=iterations).values, expected)


class TestLcc:
    @given(edge_lists(max_n=25, max_m=150), st.booleans())
    @settings(max_examples=150)
    def test_coefficients_and_work(self, case, dedup):
        n, src, dst = case
        graph = Graph(n, src, dst, dedup=dedup)
        u_src, u_dst, u_indptr = oracles.undirected_arrays(n, *graph.edges())
        result = lcc(graph)
        assert np.array_equal(result.values, oracles.lcc_coefficients(n, u_indptr, u_dst))
        (stats,) = result.iterations
        degrees = np.diff(u_indptr)
        assert stats.edges_processed == int(np.sum(degrees**2))
        assert stats.messages == u_src.size
        assert stats.active.all() and stats.active.size == n

    def test_empty_graph(self):
        empty = np.zeros(0, dtype=np.int64)
        assert lcc(Graph(0, empty, empty)).values.size == 0
        assert np.array_equal(lcc(Graph(3, empty, empty)).values, np.zeros(3))


class TestWcc:
    @given(edge_lists())
    @settings(max_examples=100)
    def test_labels(self, case):
        n, src, dst = case
        expected = oracles.wcc_labels(n, src, dst)
        assert np.array_equal(wcc(Graph(n, src, dst)).values, expected)


@pytest.fixture(scope="module", params=["graph500", "datagen"])
def small_dataset(request):
    """``(graph, oracle CSR arrays)`` of a ``small`` dataset.

    The oracle arrays are built from the very edge arrays the generator
    hands to ``Graph``, captured on their way in.
    """
    captured = []
    real_graph = generators.Graph

    def capture(n, src, dst, *, dedup=False):
        captured.append(oracles.csr_arrays(n, src, dst, dedup=dedup))
        return real_graph(n, src, dst, dedup=dedup)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "Graph", capture)
        graph = get_dataset(request.param).graph("small")
    (expected,) = captured
    return graph, expected


class TestSmallDatasetsGolden:
    """The ``small`` datasets of the paper grid, kernel by kernel."""

    def test_graph_arrays(self, small_dataset):
        graph, (src, dst, indptr) = small_dataset
        n = graph.n_vertices
        assert np.array_equal(graph.edges()[0], src)
        assert np.array_equal(graph.edges()[1], dst)
        assert np.array_equal(graph.indptr, indptr)
        for derived, expected in (
            (graph.reverse(), oracles.csr_arrays(n, dst, src)),
            (graph.to_undirected(), oracles.undirected_arrays(n, src, dst)),
        ):
            for got, want in zip((*derived.edges(), derived.indptr), expected):
                assert np.array_equal(got, want)

    def test_algorithm_values(self, small_dataset):
        graph, (src, dst, _) = small_dataset
        n = graph.n_vertices
        # CDLP at the small preset's iteration count.
        assert np.array_equal(cdlp(graph, iterations=8).values, oracles.cdlp_labels(n, src, dst, 8))
        assert np.array_equal(wcc(graph).values, oracles.wcc_labels(n, src, dst))
        _, u_dst, u_indptr = oracles.undirected_arrays(n, src, dst)
        assert np.array_equal(lcc(graph).values, oracles.lcc_coefficients(n, u_indptr, u_dst))
