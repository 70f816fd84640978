"""Tests for the timeslice grid and interval rasterization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeline import (
    TimeGrid,
    interval_slice_overlap,
    rasterize_intervals,
    rasterize_rows,
)


class TestTimeGrid:
    def test_covering_exact_multiple(self):
        grid = TimeGrid.covering(0.0, 1.0, 0.1)
        assert grid.n_slices == 10
        assert grid.t_end == pytest.approx(1.0)

    def test_covering_rounds_up(self):
        grid = TimeGrid.covering(0.0, 1.05, 0.1)
        assert grid.n_slices == 11

    def test_covering_empty_span_single_slice(self):
        grid = TimeGrid.covering(5.0, 5.0, 0.01)
        assert grid.n_slices == 1
        assert grid.t0 == 5.0

    def test_covering_rejects_negative_span(self):
        with pytest.raises(ValueError):
            TimeGrid.covering(1.0, 0.0, 0.1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 0)

    def test_edges_and_centers(self):
        grid = TimeGrid(1.0, 0.5, 4)
        np.testing.assert_allclose(grid.edges, [1.0, 1.5, 2.0, 2.5, 3.0])
        np.testing.assert_allclose(grid.centers, [1.25, 1.75, 2.25, 2.75])

    def test_slice_of_scalar(self):
        grid = TimeGrid(0.0, 0.1, 10)
        assert grid.slice_of(0.0) == 0
        assert grid.slice_of(0.05) == 0
        assert grid.slice_of(0.95) == 9

    def test_slice_of_snaps_boundary_roundoff(self):
        grid = TimeGrid(0.0, 0.1, 10)
        # 0.3 is not exactly representable; 3 * 0.1 may land just below 0.3.
        assert grid.slice_of(3 * 0.1) == 3
        assert grid.slice_of(7 * 0.1) == 7

    def test_slice_of_clips_to_grid(self):
        grid = TimeGrid(0.0, 0.1, 10)
        assert grid.slice_of(-1.0) == 0
        assert grid.slice_of(99.0) == 9

    def test_slice_of_vectorized(self):
        grid = TimeGrid(0.0, 1.0, 5)
        idx = grid.slice_of(np.array([0.0, 1.5, 4.9]))
        np.testing.assert_array_equal(idx, [0, 1, 4])

    def test_slice_range_basic(self):
        grid = TimeGrid(0.0, 1.0, 10)
        assert grid.slice_range(2.0, 5.0) == (2, 5)
        assert grid.slice_range(2.5, 5.5) == (2, 6)

    def test_slice_range_empty(self):
        grid = TimeGrid(0.0, 1.0, 10)
        lo, hi = grid.slice_range(3.0, 3.0)
        assert lo == hi

    def test_slice_range_rejects_inverted(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            grid.slice_range(5.0, 2.0)

    def test_time_of(self):
        grid = TimeGrid(10.0, 2.0, 5)
        assert grid.time_of(0) == 10.0
        assert grid.time_of(3) == 16.0

    def test_coarsen(self):
        grid = TimeGrid(0.0, 0.05, 64)
        coarse = grid.coarsen(8)
        assert coarse.slice_duration == pytest.approx(0.4)
        assert coarse.n_slices == 8
        assert coarse.t0 == grid.t0

    def test_coarsen_partial_trailing_slice(self):
        grid = TimeGrid(0.0, 0.1, 10)
        coarse = grid.coarsen(3)
        assert coarse.n_slices == 4
        assert coarse.t_end >= grid.t_end

    def test_coarsen_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 10).coarsen(0)


class TestIntervalSliceOverlap:
    def test_aligned_interval(self):
        grid = TimeGrid(0.0, 1.0, 10)
        lo, hi, frac = interval_slice_overlap(grid, 2.0, 4.0)
        assert (lo, hi) == (2, 4)
        np.testing.assert_allclose(frac, [1.0, 1.0])

    def test_fractional_edges(self):
        grid = TimeGrid(0.0, 1.0, 10)
        lo, hi, frac = interval_slice_overlap(grid, 1.5, 3.25)
        assert (lo, hi) == (1, 4)
        np.testing.assert_allclose(frac, [0.5, 1.0, 0.25])

    def test_interval_within_one_slice(self):
        grid = TimeGrid(0.0, 1.0, 10)
        lo, hi, frac = interval_slice_overlap(grid, 2.25, 2.5)
        assert (lo, hi) == (2, 3)
        np.testing.assert_allclose(frac, [0.25])

    def test_interval_beyond_grid_is_clipped(self):
        grid = TimeGrid(0.0, 1.0, 4)
        lo, hi, frac = interval_slice_overlap(grid, 3.5, 10.0)
        assert (lo, hi) == (3, 4)
        np.testing.assert_allclose(frac, [0.5])

    def test_empty_interval(self):
        grid = TimeGrid(0.0, 1.0, 4)
        lo, hi, frac = interval_slice_overlap(grid, 1.0, 1.0)
        assert lo == hi
        assert frac.size == 0


class TestRasterizeIntervals:
    def test_single_aligned_interval(self):
        grid = TimeGrid(0.0, 1.0, 5)
        out = rasterize_intervals(grid, np.array([1.0]), np.array([3.0]))
        np.testing.assert_allclose(out, [0, 1, 1, 0, 0])

    def test_fractional_interval(self):
        grid = TimeGrid(0.0, 1.0, 5)
        out = rasterize_intervals(grid, np.array([0.5]), np.array([2.25]))
        np.testing.assert_allclose(out, [0.5, 1.0, 0.25, 0, 0])

    def test_sub_slice_interval(self):
        grid = TimeGrid(0.0, 1.0, 3)
        out = rasterize_intervals(grid, np.array([1.25]), np.array([1.75]))
        np.testing.assert_allclose(out, [0, 0.5, 0])

    def test_weights(self):
        grid = TimeGrid(0.0, 1.0, 4)
        out = rasterize_intervals(grid, np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([2.0, 3.0]))
        np.testing.assert_allclose(out, [2.0, 5.0, 3.0, 0.0])

    def test_total_mass_conserved(self):
        grid = TimeGrid(0.0, 0.1, 100)
        rng = np.random.default_rng(42)
        starts = rng.uniform(0, 9, size=50)
        ends = starts + rng.uniform(0, 1, size=50)
        out = rasterize_intervals(grid, starts, ends)
        # Mass in slice units equals total interval length / slice duration.
        assert out.sum() == pytest.approx((ends - starts).sum() / grid.slice_duration)

    def test_indicator_mode(self):
        grid = TimeGrid(0.0, 1.0, 5)
        out = rasterize_intervals(
            grid, np.array([0.5]), np.array([2.1]), fractional=False
        )
        np.testing.assert_allclose(out, [1, 1, 1, 0, 0])

    def test_empty_input(self):
        grid = TimeGrid(0.0, 1.0, 5)
        out = rasterize_intervals(grid, np.array([]), np.array([]))
        np.testing.assert_allclose(out, np.zeros(5))

    def test_interval_at_grid_right_edge(self):
        grid = TimeGrid(0.0, 1.0, 4)
        out = rasterize_intervals(grid, np.array([3.0]), np.array([4.0]))
        np.testing.assert_allclose(out, [0, 0, 0, 1.0])

    def test_mismatched_shapes_rejected(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            rasterize_intervals(grid, np.array([1.0]), np.array([2.0, 3.0]))

    @pytest.mark.parametrize("fractional", [True, False])
    def test_no_residue_after_every_interval_ends(self, fractional):
        """Regression: the body cumsum of 0.1 + 0.1 + 1.1 - ... left -2.2e-16.

        Slices 5-7 lie after every interval; they must read exactly 0, not
        the difference array's cancellation residue.
        """
        grid = TimeGrid(0.0, 1.0, 8)
        out = rasterize_intervals(
            grid,
            np.array([0.0, 1.0, 2.0]),
            np.array([3.0, 4.0, 5.0]),
            np.array([0.1, 0.1, 1.1]),
            fractional=fractional,
        )
        assert (out >= 0.0).all()
        assert (out[5:] == 0.0).all()
        np.testing.assert_allclose(out[:5], [0.1, 0.2, 1.3, 1.2, 1.1])

    def test_negative_weights_are_not_clamped(self):
        grid = TimeGrid(0.0, 1.0, 4)
        out = rasterize_intervals(grid, np.array([0.0]), np.array([3.0]), np.array([-2.0]))
        np.testing.assert_allclose(out, [-2.0, -2.0, -2.0, 0.0])


_weights = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
_ends = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)


class TestRasterizeResidueProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_ends, _ends, _weights), min_size=1, max_size=12),
        st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0]),
        st.booleans(),
    )
    def test_nonnegative_weights_give_clean_raster(self, ivs, sd, fractional):
        """Non-negative weights: raster >= 0 everywhere, == 0 where nothing overlaps."""
        grid = TimeGrid(0.0, sd, int(round(10.0 / sd)))
        starts = np.array([min(a, b) for a, b, _ in ivs])
        ends = np.array([max(a, b) for a, b, _ in ivs])
        weights = np.array([w for _, _, w in ivs])
        out = rasterize_intervals(grid, starts, ends, weights, fractional=fractional)
        assert (out >= 0.0).all()
        edges = grid.edges
        for k in range(grid.n_slices):
            if fractional:
                touched = np.any((starts < edges[k + 1]) & (ends > edges[k]))
            else:
                touched = any(
                    lo <= k < hi for lo, hi in (grid.slice_range(s, e) for s, e in zip(starts, ends))
                )
            if not touched:
                assert out[k] == 0.0, (k, out[k])


class TestRasterizeRows:
    def test_each_row_matches_one_dimensional_raster(self):
        grid = TimeGrid(0.5, 0.25, 24)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=30)
        starts = rng.uniform(0.0, 6.0, size=30)
        ends = starts + rng.uniform(0.0, 2.0, size=30)
        out = rasterize_rows(grid, rows, starts, ends, 5)
        assert out.shape == (5, 24)
        for r in range(5):
            sel = rows == r
            assert np.array_equal(out[r], rasterize_intervals(grid, starts[sel], ends[sel]))

    def test_empty_input(self):
        out = rasterize_rows(TimeGrid(0.0, 1.0, 3), [], [], [], 2)
        assert np.array_equal(out, np.zeros((2, 3)))


# ---------------------------------------------------------------------- #
# Batched grid lookups agree with the scalar path everywhere, including
# dyadic slice widths, non-representable widths like 1/3, and timestamps
# perturbed by sub-tolerance jitter around slice boundaries (the
# boundary-snapping path).
# ---------------------------------------------------------------------- #

#: Grid origins and widths chosen to stress both exactly representable
#: (dyadic) and non-representable arithmetic.
_origins = st.sampled_from([0.0, 0.1, 1.0 / 3.0, 2.5, -1.25])
_widths = st.sampled_from([0.125, 0.25, 0.01, 0.1, 1.0 / 3.0, 0.0003])
_jitters = st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8])

_timestamps = st.tuples(
    st.integers(-2, 60),
    st.sampled_from([0.0, 0.25, 0.5, 1.0 - 1e-12]),
    _jitters,
)


class TestSliceRangeBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        _origins, _widths,
        st.lists(st.tuples(_timestamps, _timestamps), min_size=1, max_size=8),
    )
    def test_batch_matches_scalar(self, t0, sd, pairs):
        grid = TimeGrid(t0, sd, 40)

        def ts(spec):
            k, frac, jitter = spec
            return t0 + (k + frac) * sd + jitter * sd

        starts, ends = [], []
        for a, b in pairs:
            x, y = sorted((ts(a), ts(b)))
            starts.append(x)
            ends.append(y)
        lo, hi = grid.slice_range_batch(np.asarray(starts), np.asarray(ends))
        assert lo.dtype == np.int64 and hi.dtype == np.int64
        for i, (s, e) in enumerate(zip(starts, ends)):
            assert (lo[i], hi[i]) == grid.slice_range(s, e), (
                f"batch disagrees with scalar at t0={t0} sd={sd} [{s}, {e})"
            )

    def test_batch_rejects_inverted_intervals(self):
        grid = TimeGrid(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            grid.slice_range_batch(np.array([1.0]), np.array([0.5]))

    def test_batch_empty_input(self):
        grid = TimeGrid(0.0, 0.5, 10)
        lo, hi = grid.slice_range_batch(np.array([]), np.array([]))
        assert lo.size == 0 and hi.size == 0


# ---------------------------------------------------------------------- #
# Boundary snapping properties (dyadic durations are float-exact, so any
# disagreement between covering() and the index-lookup round path is a
# genuine tolerance bug, not arithmetic noise).
# ---------------------------------------------------------------------- #


class TestDyadicSnapProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=20),
        m=st.integers(min_value=1, max_value=100_000),
        j=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_exact_multiple_spans_cover_exactly_m_slices(self, a, m, j):
        """A span of exactly m slices yields exactly m slices — never m+1."""
        slice_duration = 2.0**-a
        t0 = j * slice_duration
        t_end = t0 + m * slice_duration
        grid = TimeGrid.covering(t0, t_end, slice_duration)
        assert grid.n_slices == m
        # covering() and the round-based index lookup must agree.
        assert grid.slice_range(t0, t_end) == (0, m)
        # The end of the span lands in the last slice, the start in the first.
        assert grid.slice_of(t_end) == m - 1
        assert grid.slice_of(t0) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=20),
        m=st.integers(min_value=1, max_value=100_000),
        k=st.integers(min_value=0, max_value=100_000),
    )
    def test_interior_boundaries_floor_into_the_right_slice(self, a, m, k):
        """Each interior boundary k*slice belongs to slice k (half-open)."""
        slice_duration = 2.0**-a
        grid = TimeGrid(0.0, slice_duration, m)
        k = min(k, m - 1)
        assert grid.slice_of(k * slice_duration) == k
        assert grid.slice_range(0.0, k * slice_duration) == (0, k)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=20),
        m=st.integers(min_value=1, max_value=100_000),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_partial_trailing_slice_rounds_up_once(self, a, m, frac):
        slice_duration = 2.0**-a
        t_end = (m - 1 + frac) * slice_duration
        grid = TimeGrid.covering(0.0, t_end, slice_duration)
        assert grid.n_slices == m
        assert grid.t_end >= t_end

    def test_covering_agrees_with_slice_range_for_large_slice_counts(self):
        """Regression: quotient round-off grows with the slice count.

        For this span the float quotient lands ~4e-9 *above* the exact
        multiple — within the relative snap tolerance used by slice_of /
        slice_range, but beyond the absolute tolerance the old covering()
        applied before flooring.  covering() used to answer m + 1 here
        while slice_range answered m, leaving a trailing slice beyond
        every event.
        """
        m = 29_999_524
        t_end = m * 0.1
        assert t_end / 0.1 > m  # the round-off direction that triggered it
        grid = TimeGrid.covering(0.0, t_end, 0.1)
        assert grid.n_slices == m
        assert grid.slice_range(0.0, t_end) == (0, m)
        assert grid.slice_of(t_end) == m - 1
