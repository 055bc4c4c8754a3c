from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from helpers import (
    OILS_CENTER_CORR,
    OILS_CORR_HI,
    OILS_CORR_LO,
    OILS_SCORES_HI,
    OILS_SCORES_LO,
    aligned_interval_error,
    aligned_matrix_error,
)
from sympca import (
    BoundsPair,
    DataError,
    IntervalMatrix,
    centers_matrix,
    clamp_correlations,
    dual_transport,
    flip_component,
    load_oils_table,
    pca_auto,
    pca_ztz,
    pca_zzt,
    result_to_json,
    standardize,
    vertex_extremes,
)
from sympca.bench import random_interval_table
from sympca.pca import _standardize


def _degenerate(table: IntervalMatrix) -> IntervalMatrix:
    mids = centers_matrix(table)
    return IntervalMatrix(table.rows, table.cols, mids, mids)


def _edge_table(mids, lo=None, hi=None) -> IntervalMatrix:
    """Column x of degenerate cells at ``mids`` (its last cell [lo, hi] when
    given) beside a column y of (1, 3, 2, 4, ...)."""
    low = np.column_stack([mids, (1.0, 3.0, 2.0, 4.0)[:len(mids)]])
    high = low.copy()
    if lo is not None:
        low[-1, 0], high[-1, 0] = lo, hi
    return IntervalMatrix(("r", "s", "t", "u")[:len(mids)], ("x", "y"), low, high)


def _capped_scale_table() -> IntervalMatrix:
    """16 rows: column x of degenerate cells at ±0.9·2**-997, its last cell
    [-0.6·2**28, 0.6·2**28], beside a column y of cells [i, i + 1]."""
    m = 16
    low = np.column_stack([np.ldexp(0.9, -997) * (-1.0) ** np.arange(m),
                           np.arange(m, dtype=float)])
    high = low + [0.0, 1.0]
    low[-1, 0], high[-1, 0] = -np.ldexp(0.6, 28), np.ldexp(0.6, 28)
    return IntervalMatrix(tuple(f"r{i}" for i in range(m)), ("x", "y"), low, high)


def _assert_answered(table: IntervalMatrix) -> None:
    """standardize and both routes answer without a warning, and z's columns
    have zero mean and unit norm inside the box standardize returns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = standardize(table)
        for pca in (pca_zzt, pca_ztz):
            assert np.all(np.isfinite(pca(table).scores.hi))
    assert np.abs(np.linalg.norm(bundle.z, axis=0) - 1.0).max() <= 1e-15
    assert np.abs(bundle.z.sum(axis=0)).max() <= 1e-15
    assert np.all(bundle.bounds.low <= bundle.z)
    assert np.all(bundle.z <= bundle.bounds.high)


@st.composite
def _valid_tables(draw):
    """Interval tables that ``standardize`` accepts: every midpoint column
    has distinct entries; a few cells are degenerate."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 8))
    columns = [
        draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m, unique=True))
        for _ in range(n)
    ]
    radii = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=m * n, max_size=m * n
    ))
    mids = np.array(columns).T
    radius = np.array(radii).reshape(m, n)
    table = IntervalMatrix(
        tuple(f"r{i}" for i in range(m)), tuple(f"c{j}" for j in range(n)),
        mids - radius, mids + radius,
    )
    try:
        standardize(table)
    except DataError:
        reject()
    return table


class TestCentersMatrix:
    def test_oils_midpoints(self, oils):
        mids = centers_matrix(oils)
        assert mids[0, 0] == pytest.approx(0.9325)   # Linseed GRA
        assert mids[0, 1] == pytest.approx(-22.5)    # Linseed FRE

    def test_degenerate_cell(self):
        t = IntervalMatrix(("r", "s"), ("a",), [[7.0], [1.0]], [[7.0], [2.0]])
        assert centers_matrix(t)[0, 0] == 7.0


class TestStandardize:
    def test_unit_norm_zero_mean_columns(self, oils):
        b = standardize(oils)
        norms = np.linalg.norm(b.z, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10
        assert np.abs(b.z.mean(axis=0)).max() <= 1e-12

    def test_bounds_bracket_z(self, oils):
        b = standardize(oils)
        assert np.all(b.bounds.low <= b.z)
        assert np.all(b.z <= b.bounds.high)

    def test_degenerate_input_collapses_bounds(self, oils):
        b = standardize(_degenerate(oils))
        assert np.array_equal(b.bounds.low, b.z)
        assert np.array_equal(b.bounds.high, b.z)

    def test_population_std_convention(self, oils):
        b = standardize(oils)
        mids = centers_matrix(oils)
        m = mids.shape[0]
        expect = (mids - mids.mean(axis=0)) / (np.sqrt(m) * mids.std(axis=0, ddof=0))
        assert np.abs(b.z - expect).max() <= 1e-12

    def test_overflowing_column_named_in_error(self):
        # The midpoint variance of x overflows; x is scaled by 2**-667 first,
        # so the table gives the same bits as x times 2**-600 does.
        t = _edge_table((1e200, 2e200, 4e200))
        _assert_answered(t)
        lo, hi = t.lo.copy(), t.hi.copy()
        lo[:, 0], hi[:, 0] = np.ldexp(lo[:, 0], -600), np.ldexp(hi[:, 0], -600)
        want = pca_auto(IntervalMatrix(t.rows, t.cols, lo, hi))
        assert pca_auto(t).scores.lo.tobytes() == want.scores.lo.tobytes()

    @pytest.mark.parametrize("mids, lo, hi, match", [
        # The midpoint std is finite, but one wide cell's radius is not.
        ((0.0, 1e-150, 0.0), -1e308, 1e308,
         "column 'x' is too large in magnitude to standardize: its interval "
         "widths overflow when standardized"),
        # The midpoints differ, yet their squared deviations underflow: the
        # column is scaled by 2**997 first, and the table is answered.
        ((0.0, 5e-301, 0.0), 0.0, 0.0, None),
        # Both bounds standardize to a finite ±9.2e307, but their width does not.
        ((0.0, 1e-150, 0.0, 0.0), -8e157, 8e157,
         "column 'x' is too large in magnitude to standardize: its interval "
         "widths overflow when standardized"),
        # The variance, 1.2e-321, is subnormal: unscaled, z's column had norm
        # 1.00102 and pca_auto an eigenvalue of 2.00204 for a trace of 2.
        ((0.0, -6.8218e-161), -6.8218e-161, -6.8218e-161, None),
        # The midpoint of [0, 5e-324], 2**-1075, rounds to 0, but x is not
        # constant: the range test and the exponent read lo + hi.
        ((0.0, 0.0, 0.0), 0.0, 5e-324, None),
    ], ids=["bounds-overflow", "variance-underflow", "width-overflow",
            "variance-subnormal", "midpoint-rounds-to-zero"])
    def test_numeric_edge_named_in_error(self, mids, lo, hi, match):
        # A table at a numeric edge is refused, naming the column, or (match
        # None) answered once the column is scaled by a power of two.
        t = _edge_table(mids, lo, hi)
        if match is None:
            _assert_answered(t)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=match):
                standardize(t)
            with pytest.raises(DataError, match=match):
                pca_auto(t)

    @pytest.mark.parametrize("mids", [
        (0.0, 5e-324), (1e-320, 3e-320), (1.7e308, -1.7e308, 0.0),
    ], ids=["least-subnormal", "subnormals", "sum-overflow"])
    def test_column_out_of_range_answered(self, mids):
        # The variance of x is zero or infinite, and at 1.7e308 so is lo + hi;
        # scaled by 2**-e, e the exponent of its largest |midpoint|, x
        # standardizes as any column does. test_overflowing_column_named_in_error
        # and test_numeric_edge_named_in_error pin three more such tables.
        _assert_answered(_edge_table(mids))

    @pytest.mark.parametrize("m, cols, lo, hi", [
        # The widths standardize to a finite 1.3e308; sqrt(9) times the radii
        # does not. At m = 4 that product is the width, which standardize
        # checks, so the case needs m > 4.
        (9, ("x",), -6.1e157, 6.1e157),
        # sqrt(4) times each radius is finite, but the row's sum over two
        # such columns in the score product is not.
        (4, ("x", "w"), -7.5e157, 7.5e157),
    ], ids=["scaled-radius-overflow", "projected-radius-overflow"])
    def test_score_radius_overflow_named_in_error(self, m, cols, lo, hi):
        mids = np.zeros((m, len(cols)))
        mids[1] = 1e-150
        low = np.column_stack([mids, np.arange(m, dtype=float)])
        high = low.copy()
        high[:, -1] += 1.0
        low[-1, :-1], high[-1, :-1] = lo, hi
        # w's huge cell is a little narrower, so x holds the largest radius.
        high[-1, 1:-1] *= 0.99
        low[-1, 1:-1] *= 0.99
        t = IntervalMatrix(tuple("abcdefghi")[:m], cols + ("y",), low, high)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            standardize(t)
            with pytest.raises(DataError, match=(
                "column 'x' is too large in magnitude for interval PCA: its "
                "interval radii overflow when projected onto the components"
            )):
                pca_auto(t)

    def test_bounds_cap_the_column_scale(self):
        # x's midpoint variance underflows. Scaled by 2**997, the exponent of
        # its largest |midpoint|, the cell ±0.6·2**28 would overflow; 2**995
        # keeps every bound finite, and 2r is finite, so standardize answers.
        # sqrt(16) times the radius is not, so pca_auto refuses.
        t = _capped_scale_table()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = standardize(t).bounds
            assert np.isfinite(bounds.low).all() and np.isfinite(bounds.high).all()
            with pytest.raises(DataError, match=(
                "column 'x' is too large in magnitude for interval PCA: its "
                "interval radii overflow when projected onto the components"
            )):
                pca_auto(t)

    def test_column_flagged_at_unit_scale_refused(self):
        # The variance of midpoints 0, 1e-300, 0 underflows, and the bound
        # 1.5e308 caps the scale at 2**0: no scale helps, and 2r overflows.
        t = _edge_table((0.0, 1e-300, 0.0), -1.5e308, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=(
                "column 'x' is too large in magnitude to standardize: its "
                "interval widths overflow when standardized"
            )):
                standardize(t)

    def test_radii_exact_far_from_the_mean(self):
        # Cells 1e-3 to 2e-2 wide sit up to 2e7 widths from their column's
        # mean. The difference of the mapped bounds cancels there (it is off by
        # up to 7.4e-10 relative on this table); (hi - lo)·(s/2) rounds twice.
        rng = np.random.default_rng(19)
        mids = rng.normal(0.0, 1e4, (40, 3))
        half = rng.uniform(5e-4, 1e-2, (40, 3))
        t = IntervalMatrix(tuple(f"r{i}" for i in range(40)), ("a", "b", "c"),
                           mids - half, mids + half)
        radius = _standardize(t)[1]
        scale = _two_pass_scale(t)[1]
        for (i, j), got in np.ndenumerate(radius):
            exact = (Fraction(t.hi[i, j]) - Fraction(t.lo[i, j])) * Fraction(scale[j]) / 2
            assert abs(Fraction(got) - exact) <= 2 * Fraction(np.finfo(float).eps) * exact, (i, j)

    def test_radius_past_the_width_limit_answered(self):
        # hi - lo overflows for the cell [-1e308, 1e308], but its standardized
        # width, 1.4e158, does not: the radius is (hi/2 - lo/2)·s, the same value.
        low = np.column_stack([(1e150, -1e150, 0.0), (1.0, 3.0, 2.0)])
        high = low.copy()
        low[-1, 0], high[-1, 0] = -1e308, 1e308
        t = IntervalMatrix(("r", "s", "t"), ("x", "y"), low, high)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _standardize(t)[1][-1, 0] == 1e308 * _two_pass_scale(t)[1][0]
            for pca in (pca_zzt, pca_ztz):
                res = pca(t)
                assert res.scores.hi[-1, 0] == -res.scores.lo[-1, 0] > 8e157

    def test_constant_column_named_in_error(self):
        t = IntervalMatrix(
            ("r", "s"), ("flat", "x"),
            [[1.0, 0.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 3.0]],
        )
        with pytest.raises(DataError, match="'flat'"):
            standardize(t)

    @pytest.mark.parametrize("m", [2, 3, 7, 1000])
    @pytest.mark.parametrize("value", [
        0.1, -1 / 3, 0.7, 123456.789, 5e-324, 1e-310, 2.2250738585072014e-308,
        1e-160, 1e154, 1e300, 3e307, 8e307, 1.7e308,
    ])
    def test_constant_column_at_any_magnitude(self, value, m):
        # Summing m copies of a value can round, so the deviations of a
        # constant column need not be zero (0.1 at m = 3 gives std 1.4e-17);
        # their squares can overflow (1e300 at m = 7 gives an infinite std),
        # and the sum itself can (8e307), or lo + hi (1.7e308). Each is still
        # called constant.
        column = np.full(m, value)
        other = np.arange(m, dtype=float)
        t = IntervalMatrix(
            tuple(f"r{i}" for i in range(m)), ("y", "flat"),
            np.column_stack([other, column]), np.column_stack([other + 1.0, column]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column 'flat' is constant"):
                standardize(t)

    def test_needs_two_rows(self):
        t = IntervalMatrix(("r",), ("a",), [[0.0]], [[1.0]])
        with pytest.raises(DataError, match="at least 2 rows"):
            standardize(t)


class TestOilsGoldens:
    def test_correlations_match_reference(self, oils):
        res = pca_auto(oils)
        clamped = clamp_correlations(res.correlations)
        assert aligned_interval_error(clamped, OILS_CORR_LO, OILS_CORR_HI) <= 5e-3

    def test_center_correlations_match_reference(self, oils):
        res = pca_auto(oils)
        assert aligned_matrix_error(res.center_correlations, OILS_CENTER_CORR) <= 1e-5

    def test_scores_match_reference(self, oils):
        res = pca_auto(oils)
        assert aligned_interval_error(res.scores, OILS_SCORES_LO, OILS_SCORES_HI) <= 5e-3

    def test_raw_correlations_exceed_unit_ball(self, oils):
        # hypercube vertices may project beyond the unit circle; clamping
        # is a reporting step, the stored intervals stay raw
        res = pca_auto(oils)
        assert res.correlations.lo.min() < -1.0
        clamped = clamp_correlations(res.correlations)
        assert clamped.lo.min() >= -1.0 and clamped.hi.max() <= 1.0


class TestPcaStructure:
    def test_auto_dispatch(self, oils):
        assert pca_auto(oils).method_used == "ztz"          # m=8 > n=4
        rng = np.random.default_rng(0)
        wide = random_interval_table(3, 10, rng)
        assert pca_auto(wide).method_used == "zzt"          # m <= n

    def test_shapes_and_labels(self, oils):
        res = pca_ztz(oils)
        assert res.scores.rows == oils.rows
        assert res.correlations.rows == oils.cols
        assert res.scores.cols == ("PC1", "PC2", "PC3", "PC4")
        assert res.loadings_u.shape == (4, 4)
        assert res.axes_v.shape == (8, 4)
        assert res.center_scores.shape == (8, 4)

    def test_q_truncation(self, oils):
        res = pca_ztz(oils, q=2)
        assert res.eigenvalues.shape == (2,)
        assert res.scores.cols == ("PC1", "PC2")
        full = pca_ztz(oils)
        assert np.allclose(res.scores.lo, full.scores.lo[:, :2])

    def test_zero_columns_rejected(self):
        table = IntervalMatrix(("a", "b"), (), np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(DataError) as info:
            pca_auto(table)
        assert str(info.value) == "data has no positive-variance directions"

    @pytest.mark.parametrize("bad_q", [0, -1, 5])
    def test_q_out_of_range(self, oils, bad_q):
        with pytest.raises(DataError, match="out of range"):
            pca_ztz(oils, q=bad_q)

    def test_eigenvalue_sum_is_column_count(self, oils):
        res = pca_ztz(oils)
        assert res.eigenvalues.sum() == pytest.approx(4.0, abs=1e-9)

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables(), st.just(None))
    @example(load_oils_table(), 1e-14)
    def test_center_correlation_duality_identity(self, table, paper_tol):
        # The centres are U·sqrt(lam) and sqrt(m)·V·sqrt(lam), the duality
        # relations for the products Zt·V and sqrt(m)·Z·U. The two sides
        # differ by the eigenpair residual, about eps·lam_1, over sqrt(lam_k):
        # at most 6 times that in 10000 draws, against 64 allowed here.
        z = standardize(table).z
        m, n = z.shape
        for res in (pca_zzt(table), pca_ztz(table)):
            lam = res.eigenvalues
            tol = 64 * np.finfo(float).eps * lam[0] / np.sqrt(lam)
            assert np.all(np.abs(res.center_correlations - z.T @ res.axes_v) <= tol)
            products = (math.sqrt(m) * z) @ res.loadings_u
            assert np.all(np.abs(res.center_scores - products) <= math.sqrt(m) * tol)
            if paper_tol is None:
                continue
            # The paper's statement: a variable's coordinate on a component
            # is the classical correlation of its midpoints with the centre
            # scores. Checked on oils only: drawn midpoints can be too ill
            # conditioned for np.corrcoef (a spread of 1e-9 at 1e3).
            paper = np.corrcoef(centers_matrix(table), res.center_scores,
                                rowvar=False)[:n, n:]
            assert np.abs(res.center_correlations - paper).max() <= paper_tol


class TestContainment:
    def test_oils(self, oils):
        res = pca_auto(oils)
        assert np.all(res.scores.lo <= res.center_scores)
        assert np.all(res.center_scores <= res.scores.hi)
        assert np.all(res.correlations.lo <= res.center_correlations)
        assert np.all(res.center_correlations <= res.correlations.hi)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(400 + seed)
        table = random_interval_table(int(rng.integers(2, 9)), int(rng.integers(2, 9)), rng)
        res = pca_auto(table)
        assert np.all(res.scores.lo <= res.center_scores)
        assert np.all(res.center_scores <= res.scores.hi)
        assert np.all(res.correlations.lo <= res.center_correlations)
        assert np.all(res.center_correlations <= res.correlations.hi)


def _rescaled(table: IntervalMatrix) -> IntervalMatrix:
    """``table`` with each column whose midpoint variance is zero or subnormal
    multiplied by 2**-e, e the exponent of its largest |midpoint|: the exact
    scaling standardize gives such a column (drawn tables cannot overflow)."""
    mids = centers_matrix(table)
    flagged = np.var(mids, axis=0) < np.finfo(float).tiny
    e = np.where(flagged, np.frexp(np.abs(mids).max(axis=0))[1], 0)
    return IntervalMatrix(table.rows, table.cols, np.ldexp(table.lo, -e),
                          np.ldexp(table.hi, -e))


def _two_pass_scale(table: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """np.mean of the midpoints and the scale 1 / (sqrt(m)·np.std)."""
    mids = centers_matrix(table)
    return (np.mean(mids, axis=0),
            1.0 / (math.sqrt(mids.shape[0]) * np.std(mids, axis=0)))


def _standardize_two_pass(table: IntervalMatrix) -> np.ndarray:
    """Reference z: (mids - mean) * scale."""
    means, scale = _two_pass_scale(table)
    return (centers_matrix(table) - means) * scale


class TestStandardizeOnePass:
    @settings(deadline=None, max_examples=300)
    @given(_valid_tables())
    @example(IntervalMatrix(
        ("r0", "r1", "r2"), ("c0", "c1"),
        [[0.1, -1e-150], [0.1, 3e-150], [0.3, 2e-150]],
        [[0.1, 1e-150], [0.2, 4e-150], [0.7, 2e-150]],
    ))
    def test_bits_match_two_pass_formula(self, table):
        # The bounds are the box the routes project, z ∓ (hi - lo)·(scale/2).
        bundle = standardize(table)
        table = _rescaled(table)
        z = _standardize_two_pass(table)
        radius = (table.hi - table.lo) * (0.5 * _two_pass_scale(table)[1])
        assert np.array_equal(bundle.z, z)
        assert np.array_equal(bundle.bounds.low, z - radius)
        assert np.array_equal(bundle.bounds.high, z + radius)

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables())
    def test_derived_results_pass_the_public_checks(self, table):
        # Labels and lo <= hi are not re-checked on derived results; they hold.
        bundle = standardize(table)
        BoundsPair(bundle.bounds.low, bundle.bounds.high)
        res = pca_auto(table)
        for derived in (
            res.scores, res.correlations, clamp_correlations(res.correlations),
            flip_component(res, 0).scores, flip_component(res, 0).correlations,
        ):
            assert IntervalMatrix(derived.rows, derived.cols, derived.lo, derived.hi) == derived


def _reference_pca(table: IntervalMatrix, route: str) -> dict[str, np.ndarray]:
    """Every PcaResult array by the plain formulas, one new array per step:
    the two-pass z and scale of the rescaled table, eigh of A·At (A = Z or
    Zt) sorted stably by descending eigenvalue, the transport At·V / sqrt(lam), the sign rule on
    U, the centres U·sqrt(lam) and V·(sqrt(m)·sqrt(lam)), and the spreads
    c ± (sqrt(m)·r) @ |U| and c ± rt @ |V| with r = (hi - lo)·(scale/2)."""
    table = _rescaled(table)
    z = _standardize_two_pass(table)
    a = z if route == "zzt" else z.T
    values, vectors = np.linalg.eigh(a @ a.T)
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    q = int(np.sum(values > 1e-10 * values[0]))
    lam, solved = values[:q].copy(), vectors[:, :q].copy()
    carried = a.T @ solved / np.sqrt(lam)
    u, v = (carried, solved) if route == "zzt" else (solved, carried)
    mags = np.abs(u)
    pivots = np.argmax(mags >= mags.max(axis=0) * (1.0 - 1e-12), axis=0)
    signs = np.where(u[pivots, np.arange(q)] < 0, -1.0, 1.0)
    u, v = u * signs, v * signs
    root_m = math.sqrt(z.shape[0])
    center_scores = v * (root_m * np.sqrt(lam))
    center_correlations = u * np.sqrt(lam)
    radius = (table.hi - table.lo) * (0.5 * _two_pass_scale(table)[1])
    score_half = (root_m * radius) @ np.abs(u)
    corr_half = radius.T @ np.abs(v)
    return {
        "eigenvalues": lam, "loadings_u": u, "axes_v": v,
        "scores.lo": center_scores - score_half, "scores.hi": center_scores + score_half,
        "correlations.lo": center_correlations - corr_half,
        "correlations.hi": center_correlations + corr_half,
        "center_scores": center_scores, "center_correlations": center_correlations,
    }


class TestBitIdentity:
    @settings(deadline=None, max_examples=200)
    @given(_valid_tables())
    @example(load_oils_table())
    def test_every_array_matches_reference_formulas(self, table):
        # In-place steps and the order of the spreads save memory and time;
        # every bit, the sign of a zero included, stays the plain formulas'.
        for route, pca in (("zzt", pca_zzt), ("ztz", pca_ztz)):
            res = pca(table)
            for name, want in _reference_pca(table, route).items():
                got = res
                for part in name.split("."):
                    got = getattr(got, part)
                assert got.shape == want.shape, (route, name)
                assert got.tobytes() == want.tobytes(), (route, name)


def _column_times_power_of_two(table: IntervalMatrix, j: int, k: int) -> IntervalMatrix | None:
    """``table`` with column j multiplied by 2**k, or None where that is not
    exact: a bound or a midpoint of the column would round, or overflow."""
    lo, hi = table.lo.copy(), table.hi.copy()
    with np.errstate(over="ignore"):
        lo[:, j], hi[:, j] = np.ldexp(lo[:, j], k), np.ldexp(hi[:, j], k)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return None
        scaled = IntervalMatrix(table.rows, table.cols, lo, hi)
        pairs = ((scaled.lo, table.lo), (scaled.hi, table.hi),
                 (centers_matrix(scaled), centers_matrix(table)))
    exact = all(np.array_equal(np.ldexp(a[:, j], -k), b[:, j]) for a, b in pairs)
    return scaled if exact else None


@st.composite
def _dyadic_column_tables(draw):
    """Tables of 2, 4 or 8 rows whose column c0 has integer bounds of at most
    17 bits times 2**p. Its midpoints, their mean, deviations and squared
    deviations are then exact wherever c0 is standardized unscaled, and
    the variance is exact or normal."""
    m = draw(st.sampled_from((2, 4, 8)))
    p = draw(st.integers(-1074, 1000))
    ends = draw(st.lists(st.tuples(st.integers(-2**16, 2**16), st.integers(0, 2**16)),
                         min_size=m, max_size=m))
    other = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m, unique=True))
    lo = np.column_stack([np.ldexp([float(a) for a, _ in ends], p), other])
    hi = np.column_stack([np.ldexp([float(a + w) for a, w in ends], p), other])
    return IntervalMatrix(tuple(f"r{i}" for i in range(m)), ("c0", "c1"), lo, hi)


class TestPowerOfTwoScaling:
    # Multiplying a column by 2**k changes neither z nor the radii, and where
    # the scaling is exact it changes no bit of any output: a column whose
    # variance underflows or overflows is first brought to one scale by
    # standardize, and any other column is standardized where its roundings
    # scale with it. That last part needs exact intermediates: among
    # arbitrary floats, a mean that rounds in the subnormal range (3.9e-313
    # among midpoints near 0.03) moves z's last bits, so c0 is dyadic.
    @settings(deadline=None, max_examples=300)
    @given(_dyadic_column_tables(), st.integers(-2100, 2100))
    @example(_edge_table((0.0, 5e-324)), 1074)
    # The midpoint 2**-1075 of [0, 5e-324] rounds to 0; scaled, it is 0.5.
    @example(_edge_table((0.0, 0.0, 0.0), 0.0, 5e-324), 1074)
    @example(_edge_table((1e-320, 3e-320)), 1000)
    @example(_edge_table((0.0, 5e-301, 0.0, 0.0)), 900)
    @example(_edge_table((1.0, 2.0, 4.0, 0.0)), 1020)
    # The bound ±0.6·2**28 caps the scale of x; pca_auto refuses both.
    @example(_capped_scale_table(), 100)
    def test_every_array_keeps_its_bits(self, table, k):
        scaled = _column_times_power_of_two(table, 0, k)
        assume(scaled is not None)
        outcomes = []
        for t in (table, scaled):
            try:
                outcomes.append(pca_auto(t))
            except DataError as exc:
                outcomes.append(str(exc))
        res, other = outcomes
        if isinstance(res, str) or isinstance(other, str):
            assert res == other
            return
        for name in ("eigenvalues", "loadings_u", "axes_v", "center_scores",
                     "center_correlations", "scores.lo", "scores.hi",
                     "correlations.lo", "correlations.hi"):
            got, want = other, res
            for part in name.split("."):
                got, want = getattr(got, part), getattr(want, part)
            assert got.tobytes() == want.tobytes(), name


class TestPcaMemory:
    @pytest.mark.parametrize("m, n", [(2000, 20), (20, 2000), (500, 40)])
    def test_traced_peak(self, m, n):
        # Z and the radii are the only m x n arrays a call keeps, Z is freed
        # early, and the radii come from the widths without the mapped bounds:
        # 5.1, 5.8 and 5.4 times the input's lo were measured, against 9.2,
        # 7.9 and 9.4 times when every step formed a new array.
        x = random_interval_table(m, n, np.random.default_rng(7))
        pca_auto(x)
        tracemalloc.start()
        try:
            pca_auto(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * x.lo.nbytes


class TestContainmentProperty:
    @settings(deadline=None, max_examples=150)
    @given(_valid_tables())
    @example(IntervalMatrix(
        ("r0", "r1", "r2"), ("c0", "c1"),
        [[0.0, 0.0], [1.0, 1.0], [0.25, 0.5]], [[0.0, 0.0], [1.0, 1.0], [0.25, 0.5]],
    ))
    def test_centres_inside_without_slack(self, table):
        res = pca_auto(table)
        assert np.all(res.scores.lo <= res.center_scores)
        assert np.all(res.center_scores <= res.scores.hi)
        assert np.all(res.correlations.lo <= res.center_correlations)
        assert np.all(res.center_correlations <= res.correlations.hi)

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables())
    def test_degenerate_endpoints_equal_centres(self, table):
        res = pca_auto(_degenerate(table))
        assert np.array_equal(res.scores.lo, res.center_scores)
        assert np.array_equal(res.scores.hi, res.center_scores)
        assert np.array_equal(res.correlations.lo, res.center_correlations)
        assert np.array_equal(res.correlations.hi, res.center_correlations)


def _gapped(res) -> bool:
    """Every kept eigenvalue lies at least 1e-3 * lam_1 above the next one
    (the last kept one above zero)."""
    lam = res.eigenvalues
    return bool(np.all(-np.diff(np.append(lam, 0.0)) >= 1e-3 * lam[0]))


def _relative_errors(res, other, corr_lo, corr_hi) -> tuple[float, float, float]:
    """Eigenvalue, score and correlation differences of ``other`` from
    ``res`` (with correlations expected at corr_lo/corr_hi), each after
    per-component sign alignment and relative to the largest entry."""
    def scale(table):
        return max(1.0, np.abs(table.lo).max(), np.abs(table.hi).max())

    return (
        np.abs(other.eigenvalues - res.eigenvalues).max() / res.eigenvalues[0],
        aligned_interval_error(other.scores, res.scores.lo, res.scores.hi)
        / scale(res.scores),
        aligned_interval_error(other.correlations, corr_lo, corr_hi)
        / scale(res.correlations),
    )


# Shrunk counterexamples to the preconditions of the positive map: a tied
# spectrum (any rotation of the tied pair is an eigenbasis, and the mapped
# table picks another one), and a column that b turns constant. Both are
# rejected, so loosening either precondition fails on them.
_TIED = IntervalMatrix(
    ("r0", "r1", "r2"), ("c0", "c1", "c2"),
    [[0.0, 0.0, 1.0], [1.0, 5e-324, 5.11652694e-189], [5e-324, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [1.0, 5e-324, 5.11652694e-189], [5e-324, 1.0, 0.0]],
)
_TINY = IntervalMatrix(("r0", "r1"), ("c0",), [[0.0], [2.59637677e-33]],
                       [[0.0], [2.59637677e-33]])


class TestAffineEquivariance:
    # Eigenvectors are defined only up to the eigengap: by Davis-Kahan a
    # perturbation of size e turns them by about e / gap, and within a tied
    # pair any rotation is as valid. The roundoff of the mapped column is
    # such a perturbation, so both properties take only spectra whose kept
    # eigenvalues are gapped (_gapped). For the positive map, the column's
    # midpoint spread must also stay well above its magnitude and |b| / a,
    # or the map's own roundoff, not the method, sets the result.
    TOL = 1e-8

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables(), st.integers(0, 7), st.floats(1e-3, 1e3),
           st.floats(-1e3, 1e3))
    @example(_TIED, 0, 1.0, 1.0)
    @example(_TINY, 0, 1.0, 1.0)
    def test_positive_map_changes_nothing(self, table, j, a, b):
        j %= table.shape[1]
        res = pca_auto(table)
        assume(_gapped(res))
        magnitude = max(np.abs(table.lo[:, j]).max(), np.abs(table.hi[:, j]).max())
        assume(centers_matrix(table)[:, j].std() >= 1e-3 * (abs(b) / a + magnitude))
        lo, hi = table.lo.copy(), table.hi.copy()
        lo[:, j] = a * lo[:, j] + b
        hi[:, j] = a * hi[:, j] + b
        mapped = pca_auto(IntervalMatrix(table.rows, table.cols, lo, hi),
                          q=res.eigenvalues.size)
        errors = _relative_errors(res, mapped, res.correlations.lo, res.correlations.hi)
        assert max(errors) <= self.TOL

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables(), st.integers(0, 7))
    def test_negation_mirrors_the_column_correlation(self, table, j):
        j %= table.shape[1]
        res = pca_auto(table)
        assume(_gapped(res))
        lo, hi = table.lo.copy(), table.hi.copy()
        lo[:, j], hi[:, j] = -table.hi[:, j], -table.lo[:, j]
        negated = pca_auto(IntervalMatrix(table.rows, table.cols, lo, hi),
                           q=res.eigenvalues.size)
        # Column j's correlation interval [l, h] becomes [-h, -l].
        corr_lo, corr_hi = res.correlations.lo.copy(), res.correlations.hi.copy()
        corr_lo[j], corr_hi[j] = -res.correlations.hi[j], -res.correlations.lo[j]
        assert max(_relative_errors(res, negated, corr_lo, corr_hi)) <= self.TOL


class TestPermutationEquivariance:
    # Reordering rows or columns changes only the order of the sums, so the
    # results differ by roundoff, which the eigengap bounds (see
    # TestAffineEquivariance).
    TOL = 1e-8

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables(), st.data())
    def test_row_permutation_permutes_scores(self, table, data):
        res = pca_auto(table)
        assume(_gapped(res))
        perm = np.array(data.draw(st.permutations(range(table.shape[0]))))
        permuted = pca_auto(IntervalMatrix(
            tuple(table.rows[i] for i in perm), table.cols,
            table.lo[perm], table.hi[perm],
        ), q=res.eigenvalues.size)
        back = np.argsort(perm)
        scores = permuted.scores
        restored = replace(permuted, scores=IntervalMatrix(
            table.rows, scores.cols, scores.lo[back], scores.hi[back]))
        errors = _relative_errors(res, restored, res.correlations.lo, res.correlations.hi)
        assert max(errors) <= self.TOL

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables(), st.data())
    def test_column_permutation_permutes_correlations_and_u(self, table, data):
        res = pca_auto(table)
        assume(_gapped(res))
        perm = np.array(data.draw(st.permutations(range(table.shape[1]))))
        permuted = pca_auto(IntervalMatrix(
            table.rows, tuple(table.cols[j] for j in perm),
            table.lo[:, perm], table.hi[:, perm],
        ), q=res.eigenvalues.size)
        corr = res.correlations
        errors = _relative_errors(res, permuted, corr.lo[perm], corr.hi[perm])
        assert max(errors) <= self.TOL
        assert aligned_matrix_error(permuted.loadings_u, res.loadings_u[perm]) <= self.TOL


class TestPathEquivalence:
    def test_oils_all_fields(self, oils):
        a = pca_zzt(oils)
        b = pca_ztz(oils)
        assert a.method_used == "zzt" and b.method_used == "ztz"
        assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-9
        assert np.abs(a.loadings_u - b.loadings_u).max() <= 1e-9
        assert np.abs(a.axes_v - b.axes_v).max() <= 1e-9
        assert np.abs(a.scores.lo - b.scores.lo).max() <= 1e-9
        assert np.abs(a.scores.hi - b.scores.hi).max() <= 1e-9
        assert np.abs(a.correlations.lo - b.correlations.lo).max() <= 1e-9
        assert np.abs(a.correlations.hi - b.correlations.hi).max() <= 1e-9
        assert np.abs(a.center_scores - b.center_scores).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(777 + seed)
        table = random_interval_table(int(rng.integers(2, 11)), int(rng.integers(2, 11)), rng)
        a = pca_zzt(table)
        b = pca_ztz(table)
        assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-9
        assert np.abs(a.scores.lo - b.scores.lo).max() <= 1e-9
        assert np.abs(a.correlations.hi - b.correlations.hi).max() <= 1e-9


class TestVertexOracle:
    def test_oils_scores_and_correlations(self, oils):
        res = pca_ztz(oils)
        bundle = standardize(oils)
        m, n = oils.shape
        score_low = bundle.bounds.low * np.sqrt(m)
        score_high = bundle.bounds.high * np.sqrt(m)
        for i in range(m):
            for k in range(res.eigenvalues.size):
                lo, hi = vertex_extremes(score_low[i], score_high[i], res.loadings_u[:, k])
                assert res.scores.lo[i, k] == pytest.approx(lo, abs=1e-12)
                assert res.scores.hi[i, k] == pytest.approx(hi, abs=1e-12)
        for j in range(n):
            for k in range(res.eigenvalues.size):
                lo, hi = vertex_extremes(bundle.bounds.low[:, j], bundle.bounds.high[:, j],
                                         res.axes_v[:, k])
                assert res.correlations.lo[j, k] == pytest.approx(lo, abs=1e-12)
                assert res.correlations.hi[j, k] == pytest.approx(hi, abs=1e-12)


class TestDegenerateReduction:
    def test_outputs_degenerate_and_classical(self, oils):
        table = _degenerate(oils)
        res = pca_auto(table)
        assert np.array_equal(res.scores.lo, res.scores.hi)
        assert np.array_equal(res.correlations.lo, res.correlations.hi)
        assert np.array_equal(res.scores.lo, res.center_scores)
        assert np.array_equal(res.correlations.lo, res.center_correlations)
        # independent classical PCA of the midpoints via LAPACK
        mids = centers_matrix(oils)
        xs = (mids - mids.mean(axis=0)) / mids.std(axis=0)
        lam, u = np.linalg.eigh(xs.T @ xs / len(xs))
        order = np.argsort(lam)[::-1]
        scores = xs @ u[:, order]
        assert aligned_matrix_error(res.center_scores, scores) <= 1e-10
        assert aligned_matrix_error(res.scores.lo, scores) <= 1e-10

    @settings(deadline=None, max_examples=150)
    @given(_valid_tables())
    def test_matches_classical_pca(self, table):
        res = pca_auto(_degenerate(table))
        assume(_gapped(res))
        q = res.eigenvalues.size
        # Classical PCA of the midpoint correlation matrix, via LAPACK.
        mids = centers_matrix(_rescaled(table))
        xs = (mids - mids.mean(axis=0)) / mids.std(axis=0)
        lam, u = np.linalg.eigh(xs.T @ xs / len(xs))
        order = np.argsort(lam)[::-1][:q]
        lam, u = lam[order], u[:, order]
        scores = xs @ u
        scale = max(1.0, np.abs(scores).max())
        assert np.abs(res.eigenvalues - lam).max() <= 1e-8 * lam[0]
        assert aligned_matrix_error(res.scores.lo, scores) <= 1e-8 * scale
        assert aligned_matrix_error(res.correlations.lo, u * np.sqrt(lam)) <= 1e-8


def _pivots_positive(u: np.ndarray) -> bool:
    """Whether each column's pivot is positive: its first entry within a
    relative 1e-12 of the largest magnitude."""
    for column in u.T:
        mags = np.abs(column)
        pivot = np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))[0]
        if column[pivot] <= 0:
            return False
    return True


class TestSignRule:
    """Each component is oriented once, by U, on both routes: the lowest-index
    entry of (tied) largest magnitude is positive, and V flips alongside."""

    ROUTES = (pca_zzt, pca_ztz)

    def test_two_variables(self):
        # Midpoint columns (0, 1, 2) and (0, 2, 1) correlate at 0.5, so Zt·Z
        # is [[1, 0.5], [0.5, 1]] with eigenvectors (r, r) and (r, -r); their
        # entries tie in magnitude and the first is made positive.
        mids = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        table = IntervalMatrix(("a", "b", "c"), ("x", "y"), mids - 0.25, mids + 0.25)
        r = 1.0 / np.sqrt(2.0)
        for route in self.ROUTES:
            u = route(table).loadings_u
            assert np.allclose(u, [[r, r], [r, -r]], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50, 80])
    def test_pivot_positive_random(self, n):
        table = random_interval_table(n + 3, n, np.random.default_rng(n))
        for route in self.ROUTES:
            assert _pivots_positive(route(table).loadings_u)

    def test_sign_rule(self, corpus):
        for table in corpus:
            z = standardize(table).z
            for route in self.ROUTES:
                res = route(table)
                assert _pivots_positive(res.loadings_u)
                carried = dual_transport(z.T, res.loadings_u, res.eigenvalues)
                assert np.abs(res.axes_v - carried).max() <= 1e-9

    def test_sign_ties_break_at_lowest_index(self, corpus):
        # With two rows every entry of a retained U has the same magnitude,
        # so the first entry is the pivot and must be positive.
        two_row = [t for t in corpus if t.shape[0] == 2]
        assert two_row
        for table in two_row:
            for route in self.ROUTES:
                u = route(table).loadings_u
                mags = np.abs(u)
                assert np.all(mags.max(axis=0) - mags.min(axis=0) <= 1e-12)
                assert np.all(u[0] > 0)


class TestSignFlip:
    def test_flip_component_covariance(self, oils):
        res = pca_ztz(oils)
        flipped = flip_component(res, 1)
        assert np.array_equal(flipped.loadings_u[:, 1], -res.loadings_u[:, 1])
        assert np.array_equal(flipped.axes_v[:, 1], -res.axes_v[:, 1])
        assert np.array_equal(flipped.scores.lo[:, 1], -res.scores.hi[:, 1])
        assert np.array_equal(flipped.scores.hi[:, 1], -res.scores.lo[:, 1])
        # untouched components stay identical
        assert np.array_equal(flipped.scores.lo[:, 0], res.scores.lo[:, 0])
        # clamped magnitudes unchanged
        a = clamp_correlations(res.correlations)
        b = clamp_correlations(flipped.correlations)
        assert np.allclose(np.abs(a.lo[:, 1]), np.abs(b.hi[:, 1]))

    def test_double_flip_is_identity(self, oils):
        res = pca_ztz(oils)
        back = flip_component(flip_component(res, 0), 0)
        assert np.array_equal(back.scores.lo, res.scores.lo)
        assert np.array_equal(back.loadings_u, res.loadings_u)

    def test_flip_out_of_range(self, oils):
        with pytest.raises(DataError, match="out of range"):
            flip_component(pca_ztz(oils), 4)


class TestSerialization:
    def test_dict_structure(self, oils):
        res = pca_auto(oils)
        doc = json.loads(result_to_json(res))
        assert doc["method_used"] == "ztz"
        assert len(doc["eigenvalues"]) == 4
        assert doc["scores"]["rows"] == list(oils.rows)
        assert doc["correlations"]["cols"] == ["PC1", "PC2", "PC3", "PC4"]
        assert doc["center_scores"]["values"][0][0] == res.center_scores[0, 0]

    def test_clamp_flag(self, oils):
        res = pca_auto(oils)
        clamped = json.loads(result_to_json(res, clamp=True))
        raw = json.loads(result_to_json(res, clamp=False))
        assert min(min(r) for r in clamped["correlations"]["lo"]) >= -1.0
        assert min(min(r) for r in raw["correlations"]["lo"]) < -1.0
        # scores are never clamped
        assert clamped["scores"] == raw["scores"]

    def test_json_round_trip_and_determinism(self, oils):
        res = pca_auto(oils)
        text = result_to_json(res)
        assert json.loads(text)["method_used"] == "ztz"
        assert text == result_to_json(res)


class TestGramSizeLimit:
    # The limit is lowered so that no test forms a large matrix; oils is 8x4,
    # so zzt forms an 8x8 product (512 bytes) and ztz a 4x4 one (128 bytes).
    def test_zzt_over_limit_points_at_ztz(self, oils, monkeypatch):
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 511)
        with pytest.raises(DataError) as info:
            pca_zzt(oils)
        assert str(info.value) == (
            "the zzt route would form a 8x8 Gram matrix of 512 bytes, over the "
            "limit of 511 bytes; the ztz route's 4x4 one is smaller"
        )
        assert pca_ztz(oils).method_used == "ztz"
        assert pca_auto(oils).method_used == "ztz"

    def test_ztz_over_limit_on_wide_table(self, monkeypatch):
        wide = random_interval_table(3, 10, np.random.default_rng(4))
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 799)
        with pytest.raises(DataError, match=r"ztz route would form a 10x10 Gram matrix "
                           r"of 800 bytes.*; the zzt route's 3x3 one is smaller"):
            pca_ztz(wide)
        assert pca_zzt(wide).method_used == "zzt"

    def test_limit_is_inclusive_and_larger_other_route_not_named(self, oils, monkeypatch):
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 512)
        assert pca_zzt(oils).method_used == "zzt"
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 127)
        with pytest.raises(DataError) as info:
            pca_ztz(oils)
        assert str(info.value) == (
            "the ztz route would form a 4x4 Gram matrix of 128 bytes, over the "
            "limit of 127 bytes"
        )
