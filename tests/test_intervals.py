from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympca import (
    BoundsPair,
    DataError,
    IntervalMatrix,
    interval_project,
    vertex_extremes,
)
from sympca.intervals import _spread


class TestInterval:
    """One closed interval [lo, hi], given to the oracle as one-entry bound
    arrays and projected onto the unit weight, which returns it unchanged."""

    def test_basic(self):
        assert vertex_extremes(np.array([1.0]), np.array([2.5]), [1.0]) == (1.0, 2.5)

    def test_degenerate_allowed(self):
        assert vertex_extremes(np.array([5.0]), np.array([5.0]), [1.0]) == (5.0, 5.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(DataError) as info:
            vertex_extremes(np.array([2.0]), np.array([1.0]), [1.0])
        assert str(info.value) == "lower bound exceeds upper bound at index 0: 2.0 > 1.0"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            vertex_extremes(np.array([bad]), np.array([bad]), [1.0])
        with pytest.raises(DataError, match="high contains non-finite"):
            vertex_extremes(np.array([0.0]), np.array([bad]), [1.0])


class TestBoundsPair:
    def test_one_dimensional_bounds_rejected(self):
        with pytest.raises(DataError) as info:
            BoundsPair([0.0], [1.0])
        assert str(info.value) == "low must be 2-D, got shape (1,)"


class TestIntervalMatrix:
    def test_shape_and_cells(self):
        t = IntervalMatrix(("a", "b"), ("x",), [[0.0], [1.0]], [[0.5], [2.0]])
        assert t.shape == (2, 1)
        assert (t.lo[1, 0], t.hi[1, 0]) == (1.0, 2.0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError) as info:
            IntervalMatrix(("a", "a"), ("x",), [[0.0], [0.0]], [[1.0], [1.0]])
        assert str(info.value) == "duplicate row label: 'a'"
        with pytest.raises(DataError) as info:
            IntervalMatrix(("a",), ("x", "x"), [[0.0, 0.0]], [[1.0, 1.0]])
        assert str(info.value) == "duplicate column label: 'x'"

    def test_inverted_cell_rejected(self):
        with pytest.raises(DataError) as info:
            IntervalMatrix(("a",), ("x",), [[2.0]], [[1.0]])
        assert str(info.value) == "lower bound exceeds upper bound at (row 'a', column 'x')"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError) as info:
            IntervalMatrix(("a",), ("x", "y"), [[0.0]], [[1.0]])
        assert str(info.value) == "grid shape (1, 1)/(1, 1) does not match labels (1, 2)"

    def test_without_columns(self):
        t = IntervalMatrix(
            ("a",), ("x", "y", "z"), [[0.0, 1.0, 2.0]], [[1.0, 2.0, 3.0]]
        )
        kept = t.without_columns(["y"])
        assert kept.cols == ("x", "z")
        assert (kept.lo[0, 1], kept.hi[0, 1]) == (2.0, 3.0)
        assert kept == IntervalMatrix(kept.rows, kept.cols, kept.lo, kept.hi)
        assert not np.shares_memory(kept.lo, t.lo)
        with pytest.raises(DataError, match="no column named"):
            t.without_columns(["nope"])
        with pytest.raises(DataError, match="no data column left"):
            t.without_columns(["x", "y", "z"])

    def test_spread_checks_finiteness(self):
        # The half-widths overflow, or are NaN where an infinite radius meets
        # a zero weight; either way the spread refuses.
        centre = np.zeros((1, 2))
        for radius, weights in (([[1e308, 1.0]], [[1e10, 0.0], [0.0, 1.0]]),
                                ([[np.inf, 1.0]], [[0.0, 0.0], [1.0, 1.0]])):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    DataError, match="interval grid contains non-finite entries"):
                _spread(centre, np.array(radius), np.array(weights), ("a",), ("x", "y"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, bad):
        for lo, hi in (([[bad]], [[1.0]]), ([[0.0]], [[bad]])):
            with pytest.raises(DataError) as info:
                IntervalMatrix(("a",), ("x",), lo, hi)
            assert str(info.value) == "interval grid contains non-finite entries"

    def test_equality(self):
        args = (("a",), ("x",), [[0.0]], [[1.0]])
        assert IntervalMatrix(*args) == IntervalMatrix(*args)
        assert IntervalMatrix(*args) != IntervalMatrix(("b",), ("x",), [[0.0]], [[1.0]])
        # Another type is not equal: __eq__ returns NotImplemented for it.
        assert (IntervalMatrix(*args) == 1) is False


def _random_bounds(rng, m, n) -> BoundsPair:
    center = rng.normal(size=(m, n))
    half = rng.uniform(0, 1, size=(m, n))
    return BoundsPair(center - half, center + half)


_coords = st.floats(-1e6, 1e6)
_widths = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
_weights = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def _projection_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 3))
    low = np.array(draw(st.lists(_coords, min_size=m * n, max_size=m * n)))
    width = np.array(draw(st.lists(_widths, min_size=m * n, max_size=m * n)))
    w = np.array(draw(st.lists(_weights, min_size=n * q, max_size=n * q)))
    low = low.reshape(m, n)
    return BoundsPair(low, low + width.reshape(m, n)), w.reshape(n, q)


class TestIntervalProject:
    @settings(deadline=None, max_examples=300)
    @given(_projection_cases())
    def test_matches_vertex_oracle_property(self, case):
        # Rounding error scales with the magnitudes summed, not with the
        # result, which can cancel to zero.
        bounds, w = case
        out = interval_project(bounds, w)
        scale = (np.abs(bounds.low) + np.abs(bounds.high)) @ np.abs(w)
        m, q = out.shape
        for i in range(m):
            for k in range(q):
                lo, hi = vertex_extremes(bounds.low[i], bounds.high[i], w[:, k])
                assert abs(out.lo[i, k] - lo) <= 1e-12 * scale[i, k]
                assert abs(out.hi[i, k] - hi) <= 1e-12 * scale[i, k]

    def test_degenerate_equals_dot_product(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        out = interval_project(BoundsPair(p, p), w)
        assert np.allclose(out.lo, p @ w)
        assert np.allclose(out.hi, p @ w)

    def test_sign_split_by_hand(self):
        # positive weight keeps bounds, negative weight swaps them
        bounds = BoundsPair([[0.0, 0.0]], [[1.0, 1.0]])
        out = interval_project(bounds, [[1.0], [-1.0]])
        assert (out.lo[0, 0], out.hi[0, 0]) == (-1.0, 1.0)

    def test_zero_weights_contribute_nothing(self):
        bounds = BoundsPair([[0.0, -5.0]], [[1.0, 7.0]])
        out = interval_project(bounds, [[2.0], [0.0]])
        assert (out.lo[0, 0], out.hi[0, 0]) == (0.0, 2.0)

    def test_matches_vertex_oracle_on_seeded_columns(self):
        # fixed-seed 3x2 bounds projected columnwise onto one weight vector
        rng = np.random.default_rng(42)
        bounds = _random_bounds(rng, 3, 2)
        w = np.array([[0.6], [-0.8], [0.0]])
        cols = BoundsPair(bounds.low.T, bounds.high.T)
        out = interval_project(cols, w)
        for i in range(2):
            lo, hi = vertex_extremes(cols.low[i], cols.high[i], w[:, 0])
            assert out.lo[i, 0] == pytest.approx(lo, abs=1e-12)
            assert out.hi[i, 0] == pytest.approx(hi, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 4))
        bounds = _random_bounds(rng, m, n)
        w = rng.normal(size=(n, q))
        w[rng.uniform(size=w.shape) < 0.2] = 0.0  # exercise the zero branch
        out = interval_project(bounds, w)
        for i in range(m):
            for k in range(q):
                lo, hi = vertex_extremes(bounds.low[i], bounds.high[i], w[:, k])
                scale = max(1.0, abs(lo), abs(hi))
                assert abs(out.lo[i, k] - lo) <= 1e-12 * scale
                assert abs(out.hi[i, k] - hi) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_containment_of_inner_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        bounds = _random_bounds(rng, 5, 4)
        w = rng.normal(size=(4, 3))
        out = interval_project(bounds, w)
        for _ in range(20):
            frac = rng.uniform(size=bounds.shape)
            p = bounds.low + frac * (bounds.high - bounds.low)
            proj = p @ w
            assert np.all(proj >= out.lo - 1e-12)
            assert np.all(proj <= out.hi + 1e-12)

    def test_widening_never_shrinks_output(self):
        rng = np.random.default_rng(7)
        bounds = _random_bounds(rng, 4, 4)
        w = rng.normal(size=(4, 2))
        base = interval_project(bounds, w)
        grow = rng.uniform(0, 0.5, size=bounds.shape)
        wider = BoundsPair(bounds.low - grow, bounds.high + grow)
        out = interval_project(wider, w)
        assert np.all(out.lo <= base.lo + 1e-12)
        assert np.all(out.hi >= base.hi - 1e-12)

    def test_dimension_mismatch(self):
        bounds = _random_bounds(np.random.default_rng(0), 3, 4)
        with pytest.raises(DataError, match="non-conformable"):
            interval_project(bounds, np.zeros((5, 2)))

    @pytest.mark.parametrize("weights, message", [
        ([1.0], "weights must be 2-D, got shape (1,)"),
        ([[1.0], [np.nan]], "weights contains non-finite entries"),
    ])
    def test_bad_weights_rejected(self, weights, message):
        bounds = _random_bounds(np.random.default_rng(0), 3, 2)
        with pytest.raises(DataError) as info:
            interval_project(bounds, weights)
        assert str(info.value) == message

    def test_labels(self):
        bounds = _random_bounds(np.random.default_rng(0), 2, 2)
        out = interval_project(bounds, np.eye(2), rows=("a", "b"), cols=("p", "q"))
        assert out.rows == ("a", "b") and out.cols == ("p", "q")
        auto = interval_project(bounds, np.eye(2))
        assert auto.rows == ("r1", "r2") and auto.cols == ("c1", "c2")


class TestVertexExtremes:
    def test_two_interval_example(self):
        # vertices 0-1, 0-0, 1-1, 1-0 give the range [-1, 1]
        out = vertex_extremes(np.zeros(2), np.ones(2), [1.0, -1.0])
        assert out == (-1.0, 1.0)

    def test_degenerate_row_is_single_vertex(self):
        p = np.array([2.0, -1.0, 0.5])
        w = [1.0, 2.0, -2.0]
        out = vertex_extremes(p, p, w)
        dot = 2 * 1 + (-1) * 2 + 0.5 * (-2)
        assert out == (dot, dot)

    def test_zero_weights(self):
        out = vertex_extremes(np.array([-3.0, 1.0]), np.array([5.0, 2.0]), [0.0, 0.0])
        assert out == (0.0, 0.0)

    def test_empty_row(self):
        assert vertex_extremes(np.zeros(0), np.zeros(0), []) == (0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError) as info:
            vertex_extremes(np.zeros(1), np.ones(1), [1.0, 2.0])
        assert str(info.value) == "length mismatch: 1 intervals vs 2 weights"
        with pytest.raises(DataError) as info:
            vertex_extremes(np.zeros(2), np.ones(3), [1.0, 2.0])
        assert str(info.value) == "bound lengths differ: 2 lows vs 3 highs"

    @pytest.mark.parametrize("low, high, weight, message", [
        (np.zeros((2, 2)), np.ones(2), [1.0, 1.0], "low must be 1-D, got shape (2, 2)"),
        (np.zeros(2), np.ones((1, 2)), [1.0, 1.0], "high must be 1-D, got shape (1, 2)"),
        (np.zeros(4), np.ones(4), np.ones((2, 2)), "weight must be 1-D, got shape (2, 2)"),
        ([0.0, 3.0], [1.0, 2.0], [1.0, 1.0],
         "lower bound exceeds upper bound at index 1: 3.0 > 2.0"),
    ], ids=["2-D low", "2-D high", "2-D weight", "inverted"])
    def test_arguments_checked_as_given(self, low, high, weight, message):
        # Each argument is one 1-D array, not a row of a matrix or a
        # flattened one.
        with pytest.raises(DataError) as info:
            vertex_extremes(low, high, weight)
        assert str(info.value) == message

    def test_enumeration_guard(self):
        with pytest.raises(DataError, match="enumeration limited"):
            vertex_extremes(np.zeros(26), np.ones(26), np.ones(26))

    def test_chunked_enumeration_consistent(self):
        # above one chunk (2^17 vertices) the running min/max must still agree
        rng = np.random.default_rng(3)
        c, h = rng.normal(size=17), rng.uniform(0, 1, size=17)
        low, high = c - h, c + h
        w = rng.normal(size=17)
        out = vertex_extremes(low, high, w)
        lo = sum(a * x if x > 0 else b * x for a, b, x in zip(low, high, w))
        hi = sum(b * x if x > 0 else a * x for a, b, x in zip(low, high, w))
        assert out[0] == pytest.approx(lo, abs=1e-12)
        assert out[1] == pytest.approx(hi, abs=1e-12)
