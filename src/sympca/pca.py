"""Interval principal component analysis on centered-and-reduced midpoints.

The pipeline: take the midpoint of every interval cell, standardize the
midpoint matrix to Z (zero-mean, unit-norm columns, so Zt·Z is the midpoint
correlation matrix), and eigendecompose either Z·Zt (``pca_zzt``) or Zt·Z
(``pca_ztz``). One body serves both routes: with A = Z or A = Zt it solves
the eigenproblem of A·At with LAPACK and recovers the other eigenvector family
by the transport of ``dual_transport`` (U = Zt·V / sqrt(lam), or V = Z·U /
sqrt(lam)), skipping the checks that ``eigen_sym`` and ``dual_transport`` make
of their arguments, as it formed both itself. Those two products, the Gram
product and the transport, are the only ones formed with Z. The classical
(midpoint) values follow from the eigenpairs by the same duality relations,
Z·U = V·sqrt(lam) and Zt·V = U·sqrt(lam), elementwise; each is then spread by
the interval radii projected onto |eigenvectors|:

* interval scores of the objects: sqrt(m)·V·sqrt(lam) = sqrt(m)·Z·U (in the
  unit-variance scale of the data) ± the object rows' radii projected onto
  |U|,
* interval correlations of the variables: U·sqrt(lam) = Zt·V, the
  correlations of the midpoint columns with the midpoint scores, ± the
  variable columns' radii projected onto |V|.

A call keeps two m x n arrays, Z and the radii, each formed once: the
midpoints are centred and scaled in place into Z, and the widths hi - lo are
scaled in place by s/2 into the radii, s = 1 / (sqrt(m)·std) being Z's column
scale. Two roundings keep each radius within 2 eps (relative) of the exact
(hi - lo)·s/2; the difference of the mapped bounds would cancel where a cell
lies far from its column's mean, and it costs more passes. Z goes once the
transport is formed; between the correlation and the score spreads the radii
are scaled by sqrt(m) in place.

``pca_auto`` picks whichever path has the smaller eigenproblem. The solver
leaves LAPACK's signs; each component is oriented here, once, by the sign
rule on U (its entry of largest magnitude is made positive; entries within a
relative 1e-12 of it tie, and the lowest index wins) with V flipped
alongside, so the routes agree on every output up to roundoff (for separated
eigenvalues). Midpoint (classical) scores and correlations lie inside their
interval counterparts exactly, and on degenerate input they equal both
endpoints bit for bit. Interval correlations are stored raw: hypercube
vertices can leave the unit ball, so an endpoint can exceed 1 in magnitude;
``clamp_correlations`` restricts them to [-1, 1] for reporting and plotting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .intervals import BoundsPair, IntervalMatrix, _default_labels, _spread
from .linalg import EigenDecomposition, _eigh_descending, _transport

__all__ = [
    "StandardizedBundle",
    "PcaResult",
    "centers_matrix",
    "standardize",
    "pca_zzt",
    "pca_ztz",
    "pca_auto",
    "clamp_correlations",
    "flip_component",
    "result_to_json",
]

# Largest float64 Gram product, Z·Zt or Zt·Z, that a route forms: 1 GiB, so
# a side of at most 11585. Past it the process is more likely killed for
# memory than finished, so the route raises DataError instead.
GRAM_LIMIT_BYTES = 1 << 30

# Eigenvector entries this close (relative) to the largest magnitude tie for
# the sign pivot, so rounding noise cannot pick among equal entries.
_SIGN_TIE_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_RADIUS_SAFE = float(np.finfo(float).max) / 4


@dataclass(frozen=True, eq=False)
class StandardizedBundle:
    """Standardized midpoint matrix with the interval box around it.

    ``z`` has zero-mean columns of unit Euclidean norm (population standard
    deviation with an extra 1/sqrt(m) factor); ``bounds`` is z ∓ r, r the
    radii (hi - lo)·s/2: the same affine map applied to the lower/upper
    interval bounds, formed as the routes project it, so bounds.low <= z <=
    bounds.high elementwise.
    """

    z: np.ndarray
    bounds: BoundsPair


@dataclass(frozen=True, eq=False)
class PcaResult:
    """Everything both analysis paths produce.

    ``loadings_u`` (n x q) are eigenvectors of Zt·Z; ``axes_v`` (m x q) are
    eigenvectors of Z·Zt. ``scores`` and ``correlations`` are interval
    matrices; ``center_scores`` / ``center_correlations`` are their
    classical midpoint counterparts and always lie inside them. The centres
    come from the duality relations: ``center_scores`` is
    sqrt(m)·V·sqrt(lam) (= sqrt(m)·Z·U) and ``center_correlations`` is
    U·sqrt(lam) (= Zt·V), so neither depends on how BLAS splits a product.
    """

    eigenvalues: np.ndarray
    loadings_u: np.ndarray
    axes_v: np.ndarray
    scores: IntervalMatrix
    correlations: IntervalMatrix
    center_scores: np.ndarray
    center_correlations: np.ndarray
    method_used: str


def centers_matrix(x: IntervalMatrix) -> np.ndarray:
    """Midpoint of every cell: (lo + hi) / 2."""
    mids = x.lo + x.hi
    mids *= 0.5  # the same bits as dividing by 2, and cheaper
    return mids


def _refuse_column(x: IntervalMatrix, bad: np.ndarray, reason: str) -> None:
    """Raise DataError naming the first column flagged in ``bad``."""
    if bad.any():
        raise DataError(f"column {x.cols[int(np.argmax(bad))]!r} {reason}")


def _refuse_overflow(x: IntervalMatrix, means: np.ndarray, scale: np.ndarray,
                     radius: np.ndarray) -> None:
    """Raise DataError naming the first column whose mapped bounds, their
    width or ``radius`` is not finite."""
    low = (x.lo - means) * scale
    high = (x.hi - means) * scale
    _refuse_column(x, ~(np.isfinite(low) & np.isfinite(high)).all(axis=0),
                   "is too large in magnitude to standardize: its "
                   "interval bounds overflow when standardized")
    _refuse_column(x, ~(np.isfinite(high - low) & np.isfinite(radius)).all(axis=0),
                   "is too large in magnitude to standardize: its "
                   "interval widths overflow when standardized")


def _standardize(x: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The body of ``standardize``: z and the radii (hi - lo)·(s/2), checked
    finite."""
    m = x.shape[0]
    if m < 2:
        raise DataError(f"need at least 2 rows to standardize, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        # z holds the midpoints, then (in place) the deviations that feed the
        # std by np.mean's and np.std's own steps (same bits), then z itself.
        z = centers_matrix(x)
        means = np.add.reduce(z, axis=0) / m
        z -= means
        var = np.add.reduce(z * z, axis=0) / m
        stds = np.sqrt(var)
        # The range test catches constant columns whose std rounds to a tiny
        # non-zero value. Summed in any order, m copies of c give a mean within
        # about (m - 1)·(eps/2)·|c| of c (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2002, §4.2), so a constant column's std is at
        # most about m·(eps/2)·|mean|, or infinite where the squared deviations
        # overflow; only columns within 8 times that need the range test. A
        # variance below the smallest normal float has lost precision.
        constant = (stds <= (4 * m * _EPS) * np.abs(means)) | (stds == np.inf)
        if (constant | ~(var >= _TINY) | ~np.isfinite(means)).any():
            constant[constant] = np.ptp(centers_matrix(x)[:, constant], axis=0) == 0.0
            _refuse_column(x, constant,
                           "is constant (zero variance); it cannot be standardized")
            _refuse_column(x, var == 0.0, "cannot be standardized: its midpoints "
                           "differ, but their variance underflows to zero")
            _refuse_column(x, var < _TINY, "cannot be standardized: its midpoint "
                           "variance is subnormal, too small to keep full precision")
            _refuse_column(x, ~(np.isfinite(means) & np.isfinite(stds)),
                           "is too large in magnitude to standardize: its midpoint "
                           "mean or standard deviation overflows")
        scale = 1.0 / (math.sqrt(m) * stds)
        z *= scale
        # The radii straight from the widths, rounded twice; the difference of
        # the mapped bounds cancels where a cell sits far from its column's
        # mean. hi >= lo and s > 0, so radius >= 0. A radius up to a quarter of
        # the largest float leaves the mapped bounds and their width finite;
        # past it, hi - lo may have overflowed where the standardized width
        # did not, and (hi/2 - lo/2)·s is the same value (halving is exact).
        radius = np.subtract(x.hi, x.lo)
        radius *= 0.5 * scale
        if not radius.max(initial=0.0) <= _RADIUS_SAFE:
            radius = np.where(np.isfinite(radius), radius,
                              (x.hi * 0.5 - x.lo * 0.5) * scale)
            _refuse_overflow(x, means, scale, radius)
    return z, radius


def standardize(x: IntervalMatrix) -> StandardizedBundle:
    """Center and reduce the midpoint matrix, with the box the routes project.

    Entry (i, j) of z is (mid_ij - mean_j) / (sqrt(m) * std_j) with std the
    population standard deviation (divisor m) of midpoint column j. Every
    column of z then has zero mean and unit norm, and Zt·Z is the midpoint
    correlation matrix. The bounds are z ∓ r with r = (hi - lo)·s/2 the
    radii, s = 1 / (sqrt(m) * std) the column scale: the same affine map of
    lo and hi, and the box that ``pca_zzt`` and ``pca_ztz`` project.

    Raises DataError when m < 2, or when a midpoint column is constant, its
    variance underflows to zero or is subnormal, its mean or std overflows,
    or its mapped bounds or their widths overflow.
    """
    z, radius = _standardize(x)
    return StandardizedBundle(z, BoundsPair(z - radius, z + radius))


def _check_gram_size(route: str, side: int, other: str, other_side: int) -> None:
    """Raise DataError when ``route``'s side x side Gram product would exceed
    GRAM_LIMIT_BYTES, pointing at the ``other`` route when its product is
    smaller."""
    size = 8 * side * side
    if size <= GRAM_LIMIT_BYTES:
        return
    message = (
        f"the {route} route would form a {side}x{side} Gram matrix of "
        f"{size:,} bytes, over the limit of {GRAM_LIMIT_BYTES:,} bytes"
    )
    if other_side < side:
        message += f"; the {other} route's {other_side}x{other_side} one is smaller"
    raise DataError(message)


def _resolve_q(eig: EigenDecomposition, q: int | None) -> int:
    rank = eig.positive_count
    if rank == 0:
        raise DataError("data has no positive-variance directions")
    if q is None:
        return rank
    if not 1 <= q <= rank:
        raise DataError(f"q={q} out of range: must be between 1 and rank {rank}")
    return q


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Per-column factor of -1 or 1 that makes each column's sign pivot,
    its lowest-index entry of (tied) largest magnitude, positive."""
    # Reduced along the rows of the contiguous transpose: a tall U's columns
    # are strided, and axis-0 reductions over them are slow.
    mags = np.abs(vectors.T, order="C")
    tied = mags >= mags.max(axis=1, keepdims=True) * (1.0 - _SIGN_TIE_RTOL)
    pivots = np.argmax(tied, axis=1)
    pivot_values = vectors[pivots, np.arange(vectors.shape[1])]
    return np.where(pivot_values < 0, -1.0, 1.0)


def _duality_pca(x: IntervalMatrix, q: int | None, route: str) -> PcaResult:
    """The one body behind both routes: solve the Gram product of
    A = Z (``"zzt"``) or A = Zt (``"ztz"``), carry the solved family across
    by the duality transport, orient by U, take the centres from the
    duality relations, and spread them."""
    z, radius = _standardize(x)
    a, other = (z, "ztz") if route == "zzt" else (z.T, "zzt")
    _check_gram_size(route, a.shape[0], other, a.shape[1])
    # A·At is exactly symmetric (one BLAS triangle, mirrored) and finite, as
    # |z| <= 1; the kept eigenvalues exceed 1e-10 times the largest, at least
    # 1 (the trace is n): neither eigen_sym's checks nor the transport's apply.
    eig = _eigh_descending(a @ a.T)
    q = _resolve_q(eig, q)
    lam = eig.values[:q].copy()
    root_lam = np.sqrt(lam)
    solved = eig.vectors[:, :q].copy()
    carried = _transport(a, solved, root_lam)
    del z, a
    u, v = (carried, solved) if route == "zzt" else (solved, carried)
    # Orient each component by the sign rule on U and flip V alongside, so
    # each column pair stays a transport pair.
    signs = _canonical_signs(u)
    u *= signs
    v *= signs
    pcs = _default_labels("PC", q)
    # Centres by the duality relations Zt·V = U·sqrt(lam) and Z·U = V·sqrt(lam);
    # scores live in the unit-variance scale of the data, sqrt(m) times z's.
    root_m = math.sqrt(x.shape[0])
    center_scores = v * (root_m * root_lam)
    center_correlations = u * root_lam
    # The radii are finite, but sqrt(m) times them, or their sums in a spread,
    # can overflow; _spread then refuses, and the column of the largest is named.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            correlations = _spread(center_correlations, radius.T, v, x.cols, pcs)
            radius *= root_m
            scores = _spread(center_scores, radius, u, x.rows, pcs)
    except DataError:
        widest = x.cols[int(np.argmax(_standardize(x)[1].max(axis=0)))]
        raise DataError(
            f"column {widest!r} is too large in magnitude for interval PCA: "
            "its interval radii overflow when projected onto the components"
        ) from None
    return PcaResult(lam, u, v, scores, correlations, center_scores,
                     center_correlations, route)


def pca_zzt(x: IntervalMatrix, q: int | None = None) -> PcaResult:
    """Interval PCA solving the m x m eigenproblem of Z·Zt.

    The object-side eigenvectors V come straight from the decomposition;
    the variable-side family U is recovered by the duality transport
    Zt·V / sqrt(lam). Components are oriented by U, as in ``pca_ztz``.
    Raises DataError when the m x m product would exceed GRAM_LIMIT_BYTES.
    """
    return _duality_pca(x, q, "zzt")


def pca_ztz(x: IntervalMatrix, q: int | None = None) -> PcaResult:
    """Interval PCA solving the n x n eigenproblem of Zt·Z.

    Mirror of ``pca_zzt``: U is solved directly, V is recovered by the
    transport Z·U / sqrt(lam). Raises DataError when the n x n product would
    exceed GRAM_LIMIT_BYTES.
    """
    return _duality_pca(x, q, "ztz")


def pca_auto(x: IntervalMatrix, q: int | None = None) -> PcaResult:
    """Dispatch to whichever path factors the smaller matrix.

    With m objects and n variables, m <= n makes the m x m product the
    cheaper eigenproblem (``pca_zzt``); otherwise the n x n product wins
    (``pca_ztz``). Both paths produce the same numbers.
    """
    m, n = x.shape
    return _duality_pca(x, q, "zzt" if m <= n else "ztz")


def clamp_correlations(table: IntervalMatrix) -> IntervalMatrix:
    """Clip interval endpoints to the unit ball [-1, 1]."""
    # Clipping both ends to one range keeps lo <= hi.
    return IntervalMatrix._derived(table.rows, table.cols, np.clip(table.lo, -1.0, 1.0),
                                   np.clip(table.hi, -1.0, 1.0))


def flip_component(result: PcaResult, k: int) -> PcaResult:
    """Negate component k throughout: eigenvector columns flip sign and
    every interval column k maps [a, b] -> [-b, -a].

    Useful for aligning orientations before comparing against published
    values, which fix no eigenvector sign.
    """
    if not 0 <= k < result.eigenvalues.size:
        raise DataError(f"component index {k} out of range")

    flip = np.arange(result.eigenvalues.size) == k
    sign = np.where(flip, -1.0, 1.0)

    def flip_intervals(table: IntervalMatrix) -> IntervalMatrix:
        lo = np.where(flip, -table.hi, table.lo)
        return IntervalMatrix._derived(table.rows, table.cols, lo,
                                       np.where(flip, -table.lo, table.hi))

    return replace(
        result, loadings_u=result.loadings_u * sign, axes_v=result.axes_v * sign,
        scores=flip_intervals(result.scores),
        correlations=flip_intervals(result.correlations),
        center_scores=result.center_scores * sign,
        center_correlations=result.center_correlations * sign,
    )


def _interval_payload(table: IntervalMatrix) -> dict:
    return {
        "rows": list(table.rows),
        "cols": list(table.cols),
        "lo": table.lo.tolist(),
        "hi": table.hi.tolist(),
    }


def _matrix_payload(rows, cols, values: np.ndarray) -> dict:
    return {"rows": list(rows), "cols": list(cols), "values": values.tolist()}


def result_to_json(result: PcaResult, clamp: bool = True) -> str:
    """The result as one line of JSON text, with ``json.dumps``'s default
    separators; correlations are clamped unless ``clamp=False``."""
    correlations = (
        clamp_correlations(result.correlations) if clamp else result.correlations
    )
    return json.dumps({
        "method_used": result.method_used,
        "eigenvalues": result.eigenvalues.tolist(),
        "scores": _interval_payload(result.scores),
        "correlations": _interval_payload(correlations),
        "center_scores": _matrix_payload(
            result.scores.rows, result.scores.cols, result.center_scores
        ),
        "center_correlations": _matrix_payload(
            result.correlations.rows, result.correlations.cols,
            result.center_correlations,
        ),
    })
