"""Shared test utilities: golden reference values for the oils data set,
sign-alignment helpers for comparing against published orientations, one
check per invariant of the paper (containment, vertex enumeration, route
agreement, the classical reference PCA), which the acceptance criteria run
on oils and the corpus and the properties in test_pca.py on drawn tables,
and the table of inputs at the numeric edges of standardization."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from sympca import IntervalMatrix, standardize, vertex_extremes

# ---------------------------------------------------------------------------
# Reference outputs for the bundled oils-and-fats table (PC1..PC4), quoted at
# published precision. Eigenvector orientation is not fixed by the method, so
# all comparisons go through the per-component alignment helpers below.
# ---------------------------------------------------------------------------

# Clamped interval correlations between variables and components.
OILS_CORR_LO = np.array([
    [0.827, -0.443, -0.038, -0.238],
    [-1.000, 0.044, -0.428, -0.288],
    [0.726, -0.124, -0.565, -0.024],
    [-1.000, -1.000, -0.442, -0.231],
])
OILS_CORR_HI = np.array([
    [1.000, -0.265, 0.087, -0.084],
    [-0.760, 0.372, -0.220, 0.019],
    [1.000, 0.191, -0.401, 0.161],
    [0.190, 0.371, 0.163, 0.325],
])

# Classical (midpoint) correlations between variables and components.
OILS_CENTER_CORR = np.array([
    [0.9210665, -0.3537703, 0.0246894, -0.1608524],
    [-0.9130654, 0.2080771, -0.3238118, -0.1347643],
    [0.8724116, 0.0337627, -0.4827661, 0.0685206],
    [-0.7354523, -0.6613331, -0.1397354, 0.0471425],
])

# Interval principal-component scores of the eight objects.
OILS_SCORES_LO = np.array([
    [1.275, -1.353, -1.025, -0.989],
    [1.059, -1.128, -1.508, -0.134],
    [-0.236, -0.969, -0.170, -0.246],
    [0.154, -0.745, -0.027, -0.369],
    [0.151, -0.881, 0.807, 0.113],
    [-0.594, -0.775, 0.019, -0.645],
    [-3.046, 0.234, -0.392, -0.530],
    [-2.900, 0.020, -0.729, -0.105],
])
OILS_SCORES_HI = np.array([
    [4.733, 4.428, 1.289, 0.989],
    [1.701, -0.343, -1.046, 0.334],
    [0.399, -0.213, 0.368, 0.204],
    [0.658, -0.179, 0.342, 0.028],
    [0.613, -0.437, 1.204, 0.538],
    [0.100, 0.043, 0.545, -0.101],
    [-2.226, 1.162, 0.152, 0.193],
    [-1.841, 1.135, 0.171, 0.720],
])


def aligned_interval_error(
    table: IntervalMatrix, ref_lo: np.ndarray, ref_hi: np.ndarray
) -> float:
    """Max absolute cell error against a reference, choosing for each
    component whichever global sign ([a,b] vs [-b,-a]) fits better."""
    worst = 0.0
    for k in range(len(table.cols)):
        direct = max(
            np.abs(table.lo[:, k] - ref_lo[:, k]).max(),
            np.abs(table.hi[:, k] - ref_hi[:, k]).max(),
        )
        flipped = max(
            np.abs(-table.hi[:, k] - ref_lo[:, k]).max(),
            np.abs(-table.lo[:, k] - ref_hi[:, k]).max(),
        )
        worst = max(worst, min(direct, flipped))
    return worst


def aligned_matrix_error(values: np.ndarray, ref: np.ndarray) -> float:
    """Columnwise sign-aligned max absolute error for plain matrices."""
    worst = 0.0
    for k in range(values.shape[1]):
        direct = np.abs(values[:, k] - ref[:, k]).max()
        flipped = np.abs(values[:, k] + ref[:, k]).max()
        worst = max(worst, min(direct, flipped))
    return worst


def interval_tables_close(
    a: IntervalMatrix, b: IntervalMatrix, atol: float
) -> bool:
    return (
        np.abs(a.lo - b.lo).max() <= atol and np.abs(a.hi - b.hi).max() <= atol
    )


# ---------------------------------------------------------------------------
# The paper's invariants, one check each.
# ---------------------------------------------------------------------------

ARRAYS = ("eigenvalues", "loadings_u", "axes_v", "center_scores", "center_correlations",
          "scores.lo", "scores.hi", "correlations.lo", "correlations.hi")


def assert_contained(res) -> None:
    """The classical (midpoint) scores and correlations lie inside their
    intervals, with no slack."""
    assert np.all(res.scores.lo <= res.center_scores)
    assert np.all(res.center_scores <= res.scores.hi)
    assert np.all(res.correlations.lo <= res.center_correlations)
    assert np.all(res.center_correlations <= res.correlations.hi)


def assert_vertex_extremes(table: IntervalMatrix, res) -> None:
    """Each score and correlation interval of ``res`` is the range of its
    hypercube's vertices (the rows of the standardized box times sqrt(m)
    onto U, its columns onto V), within 1e-12·max(1, |oracle|)."""
    box = standardize(table).bounds
    root_m = math.sqrt(table.shape[0])
    for low, high, weights, out in ((box.low * root_m, box.high * root_m, res.loadings_u,
                                     res.scores),
                                    (box.low.T, box.high.T, res.axes_v, res.correlations)):
        for (i, k), lo in np.ndenumerate(out.lo):
            oracle = vertex_extremes(low[i], high[i], weights[:, k])
            scale = max(1.0, abs(oracle[0]), abs(oracle[1]))
            assert abs(lo - oracle[0]) <= 1e-12 * scale, (out.cols[k], out.rows[i])
            assert abs(out.hi[i, k] - oracle[1]) <= 1e-12 * scale, (out.cols[k], out.rows[i])


def _magnitude(value) -> float:
    """The largest |entry| of an array, or of both ends of an interval table."""
    if isinstance(value, IntervalMatrix):
        return max(_magnitude(value.lo), _magnitude(value.hi))
    return float(np.abs(value).max())


def route_differences(zzt, ztz, relative: bool = False) -> dict[str, float]:
    """The largest difference between the two routes' values of each of
    ARRAYS, or that over the largest magnitude of the array, both ends of an
    interval table's (``relative``): one end alone can cancel to roundoff."""
    out = {}
    for name in ARRAYS:
        difference = np.abs(attrgetter(name)(zzt) - attrgetter(name)(ztz)).max()
        if relative:
            whole = name.split(".")[0]
            difference /= max(_magnitude(getattr(zzt, whole)), _magnitude(getattr(ztz, whole)))
        out[name] = float(difference)
    return out


def classical_pca(mids: np.ndarray, q: int | None = None):
    """Classical PCA of the standardized midpoints by LAPACK, the first q
    components by descending eigenvalue: eigenvalues, scores and
    correlations."""
    xs = (mids - mids.mean(axis=0)) / mids.std(axis=0)
    lam, u = np.linalg.eigh(xs.T @ xs / len(xs))
    order = np.argsort(lam)[::-1][:q]
    lam, u = lam[order], u[:, order]
    return lam, xs @ u, u * np.sqrt(lam)


# ---------------------------------------------------------------------------
# Tables at the numeric edges of standardization, each with what standardize
# does and what the routes (pca_zzt, pca_ztz, pca_auto and `sympca pca`) do:
# the exact DataError message, or ANSWERED. test_pca.py and test_cli.py run
# every row; README "Numerical conventions" states the rules they follow.
# ---------------------------------------------------------------------------

ANSWERED = "answered"
WIDTHS = ("column 'x' is too large in magnitude to standardize: its interval widths "
          "overflow when standardized")
RADII = ("column 'x' is too large in magnitude for interval PCA: its interval radii "
         "overflow when projected onto the components")
CONSTANT = "column 'flat' is constant (zero variance); it cannot be standardized"
ONE_ROW = "need at least 2 rows to standardize, got 1"


def cells(**columns) -> IntervalMatrix:
    """A table of the named columns of cells, rows r0, r1, ...: a number
    is a degenerate cell, a pair its bounds."""
    bounds = np.array([[c if isinstance(c, tuple) else (c, c) for c in column]
                       for column in columns.values()], dtype=float)
    return IntervalMatrix(tuple(f"r{i}" for i in range(bounds.shape[1])), tuple(columns),
                          bounds[..., 0].T, bounds[..., 1].T)


class Edge(NamedTuple):
    table: IntervalMatrix
    standardize: str = ANSWERED  # its DataError message, or ANSWERED
    routes: str = ANSWERED  # likewise, for each route and `sympca pca`


_Y = (1, 3, 2, 4, 5, 6, 7, 8, 9)
_TINY, _HUGE = np.ldexp(0.9, -997), np.ldexp(0.6, 28)
EDGES = {
    # The midpoint variance of x overflows; x is scaled by 2**-667 first.
    "overflow": Edge(cells(x=(1e200, 2e200, 4e200), y=_Y[:3])),
    # The midpoint std is finite, but one wide cell's radius is not.
    "bounds-overflow": Edge(cells(x=(0, 1e-150, (-1e308, 1e308)), y=_Y[:3]), WIDTHS, WIDTHS),
    # The midpoints differ, yet their squared deviations underflow: the
    # column is scaled by 2**997 first.
    "variance-underflow": Edge(cells(x=(0, 5e-301, 0), y=_Y[:3])),
    # Both bounds standardize to a finite ±9.2e307, but their width does not.
    "width-overflow": Edge(cells(x=(0, 1e-150, 0, (-8e157, 8e157)), y=_Y[:4]), WIDTHS, WIDTHS),
    # The variance, 1.2e-321, is subnormal: unscaled, z's column had norm
    # 1.00102 and pca_auto an eigenvalue of 2.00204 for a trace of 2.
    "variance-subnormal": Edge(cells(x=(0, -6.8218e-161), y=_Y[:2])),
    "variance-subnormal-other-y": Edge(cells(c1=(0, -6.8218e-161), c2=(-446.73, -173.39))),
    # The midpoint of [0, 5e-324], 2**-1075, rounds to 0, but x is not
    # constant: the range test and the exponent read lo + hi. λ = (1, 1).
    "midpoint-rounds-to-zero": Edge(cells(x=(0, 0, (0, 5e-324)), y=_Y[:3])),
    # The variance of x is zero or infinite, and at 1.7e308 so is lo + hi;
    # scaled by 2**-e, e the exponent of its largest |midpoint|, x
    # standardizes as any column does.
    "least-subnormal": Edge(cells(x=(0, 5e-324), y=_Y[:2])),
    "subnormals": Edge(cells(x=(1e-320, 3e-320), y=_Y[:2])),
    "sum-overflow": Edge(cells(x=(1.7e308, -1.7e308, 0), y=_Y[:3])),
    # The widths standardize to a finite 1.3e308; sqrt(9) times the radii
    # does not. At m = 4 that product is the width, which standardize
    # checks, so the table needs m > 4.
    "scaled-radius-overflow": Edge(cells(x=(0, 1e-150, *[0] * 6, (-6.1e157, 6.1e157)), y=_Y),
                                   routes=RADII),
    # sqrt(4) times each radius is finite, but the row's sum over two such
    # columns in the score product is not; w's cell is a little narrower.
    "projected-radius-overflow": Edge(
        cells(x=(0, 1e-150, 0, (-7.5e157, 7.5e157)), w=(0, 1e-150, 0, (-7.425e157, 7.425e157)),
              y=[(i, i + 1) for i in range(4)]),
        routes=RADII),
    # x's midpoint variance underflows. Scaled by 2**997, the exponent of its
    # largest |midpoint|, the cell ±0.6·2**28 would overflow; 2**995 keeps
    # every bound finite, and 2r is finite, so standardize answers. sqrt(16)
    # times the radius is not.
    "capped-scale": Edge(cells(x=(*[_TINY * (-1) ** i for i in range(15)], (-_HUGE, _HUGE)),
                               y=[(i, i + 1) for i in range(16)]),
                         routes=RADII),
    # The variance underflows, and the bound 1.5e308 caps the scale at 2**0:
    # no scale helps, and 2r overflows.
    "unit-scale": Edge(cells(x=(0, 1e-300, (-1.5e308, 1.5e308)), y=_Y[:3]), WIDTHS, WIDTHS),
    # hi - lo overflows for the cell [-1e308, 1e308], but its standardized
    # width, 1.4e158, does not: the radius is (hi/2 - lo/2)·s, the same value.
    "hi-lo-overflow": Edge(cells(x=(1e150, -1e150, (-1e308, 1e308)), y=_Y[:3])),
    "constant": Edge(cells(flat=(1, 1), x=((0, 1), (2, 3))), CONSTANT, CONSTANT),
    "one-row": Edge(cells(a=((0, 1),)), ONE_ROW, ONE_ROW),
}
