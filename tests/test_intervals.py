from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympca import (
    BoundsPair,
    DataError,
    Interval,
    IntervalMatrix,
    interval_project,
    vertex_extremes,
)


class TestInterval:
    def test_basic(self):
        iv = Interval(1.0, 2.5)
        assert iv.lo == 1.0 and iv.hi == 2.5

    def test_degenerate_allowed(self):
        iv = Interval(5, 5)
        assert iv.lo == iv.hi == 5.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(DataError, match="lower bound exceeds"):
            Interval(2, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DataError):
            Interval(bad, bad)


class TestIntervalMatrix:
    def test_shape_and_cells(self):
        t = IntervalMatrix(("a", "b"), ("x",), [[0.0], [1.0]], [[0.5], [2.0]])
        assert t.shape == (2, 1)
        assert t.cell(1, 0) == Interval(1.0, 2.0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError, match="duplicate row label"):
            IntervalMatrix(("a", "a"), ("x",), [[0.0], [0.0]], [[1.0], [1.0]])
        with pytest.raises(DataError, match="duplicate column label"):
            IntervalMatrix(("a",), ("x", "x"), [[0.0, 0.0]], [[1.0, 1.0]])

    def test_inverted_cell_rejected(self):
        with pytest.raises(DataError, match="row 'a'.*column 'x'"):
            IntervalMatrix(("a",), ("x",), [[2.0]], [[1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="does not match labels"):
            IntervalMatrix(("a",), ("x", "y"), [[0.0]], [[1.0]])

    def test_without_columns(self):
        t = IntervalMatrix(
            ("a",), ("x", "y", "z"), [[0.0, 1.0, 2.0]], [[1.0, 2.0, 3.0]]
        )
        kept = t.without_columns(["y"])
        assert kept.cols == ("x", "z")
        assert kept.cell(0, 1) == Interval(2.0, 3.0)
        with pytest.raises(DataError, match="no column named"):
            t.without_columns(["nope"])

    def test_equality(self):
        args = (("a",), ("x",), [[0.0]], [[1.0]])
        assert IntervalMatrix(*args) == IntervalMatrix(*args)
        assert IntervalMatrix(*args) != IntervalMatrix(("b",), ("x",), [[0.0]], [[1.0]])


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
            row = list(zip(bounds.low[i], bounds.high[i]))
            for k in range(q):
                expect = vertex_extremes(row, w[:, k])
                assert abs(out.lo[i, k] - expect.lo) <= 1e-12 * scale[i, k]
                assert abs(out.hi[i, k] - expect.hi) <= 1e-12 * scale[i, k]

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
        assert out.cell(0, 0) == Interval(-1.0, 1.0)

    def test_zero_weights_contribute_nothing(self):
        bounds = BoundsPair([[0.0, -5.0]], [[1.0, 7.0]])
        out = interval_project(bounds, [[2.0], [0.0]])
        assert out.cell(0, 0) == Interval(0.0, 2.0)

    def test_matches_vertex_oracle_on_seeded_columns(self):
        # fixed-seed 3x2 bounds projected columnwise onto one weight vector
        rng = np.random.default_rng(42)
        bounds = _random_bounds(rng, 3, 2)
        w = np.array([[0.6], [-0.8], [0.0]])
        cols = BoundsPair(bounds.low.T, bounds.high.T)
        out = interval_project(cols, w)
        for i in range(2):
            row = [Interval(cols.low[i, j], cols.high[i, j]) for j in range(3)]
            expect = vertex_extremes(row, w[:, 0])
            assert out.lo[i, 0] == pytest.approx(expect.lo, abs=1e-12)
            assert out.hi[i, 0] == pytest.approx(expect.hi, abs=1e-12)

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
            row = [Interval(bounds.low[i, j], bounds.high[i, j]) for j in range(n)]
            for k in range(q):
                expect = vertex_extremes(row, w[:, k])
                scale = max(1.0, abs(expect.lo), abs(expect.hi))
                assert abs(out.lo[i, k] - expect.lo) <= 1e-12 * scale
                assert abs(out.hi[i, k] - expect.hi) <= 1e-12 * scale

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

    def test_labels(self):
        bounds = _random_bounds(np.random.default_rng(0), 2, 2)
        out = interval_project(bounds, np.eye(2), rows=("a", "b"), cols=("p", "q"))
        assert out.rows == ("a", "b") and out.cols == ("p", "q")
        auto = interval_project(bounds, np.eye(2))
        assert auto.rows == ("r1", "r2") and auto.cols == ("c1", "c2")


class TestVertexExtremes:
    def test_two_interval_example(self):
        # vertices 0-1, 0-0, 1-1, 1-0 give the range [-1, 1]
        out = vertex_extremes([Interval(0, 1), Interval(0, 1)], [1.0, -1.0])
        assert out == Interval(-1.0, 1.0)

    def test_degenerate_row_is_single_vertex(self):
        row = [Interval(2, 2), Interval(-1, -1), Interval(0.5, 0.5)]
        w = [1.0, 2.0, -2.0]
        out = vertex_extremes(row, w)
        dot = 2 * 1 + (-1) * 2 + 0.5 * (-2)
        assert out == Interval(dot, dot)

    def test_zero_weights(self):
        out = vertex_extremes([Interval(-3, 5), Interval(1, 2)], [0.0, 0.0])
        assert out == Interval(0.0, 0.0)

    def test_accepts_plain_pairs(self):
        assert vertex_extremes([(0, 1)], [2.0]) == Interval(0.0, 2.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            vertex_extremes([Interval(0, 1)], [1.0, 2.0])

    def test_enumeration_guard(self):
        row = [Interval(0, 1)] * 26
        with pytest.raises(DataError, match="enumeration limited"):
            vertex_extremes(row, np.ones(26))

    def test_chunked_enumeration_consistent(self):
        # above one chunk (2^17 vertices) the running min/max must still agree
        rng = np.random.default_rng(3)
        row = [Interval(c - h, c + h) for c, h in
               zip(rng.normal(size=17), rng.uniform(0, 1, size=17))]
        w = rng.normal(size=17)
        out = vertex_extremes(row, w)
        lo = sum(iv.lo * x if x > 0 else iv.hi * x for iv, x in zip(row, w))
        hi = sum(iv.hi * x if x > 0 else iv.lo * x for iv, x in zip(row, w))
        assert out.lo == pytest.approx(lo, abs=1e-12)
        assert out.hi == pytest.approx(hi, abs=1e-12)
