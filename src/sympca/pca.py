"""Interval principal component analysis on centered-and-reduced midpoints.

The pipeline: take the midpoint of every interval cell, standardize the
midpoint matrix to Z (zero-mean, unit-norm columns, so Zt·Z is the midpoint
correlation matrix), and eigendecompose either Z·Zt (``pca_zzt``) or Zt·Z
(``pca_ztz``). One body serves both routes: with A = Z or A = Zt it solves
the eigenproblem of A·At with LAPACK, as ``eigen_sym`` does but without
re-checking a product it formed itself, and recovers the other
eigenvector family with ``dual_transport(A, ...)`` (U = Zt·V / sqrt(lam), or
V = Z·U / sqrt(lam)), then spreads each classical (midpoint) value by the
interval radii projected onto |eigenvectors|:

* interval scores of the objects: Z·U (in the unit-variance scale of the
  data) ± the object rows' radii projected onto |U|,
* interval correlations of the variables: Zt·V ± the variable columns'
  radii projected onto |V|.

``pca_auto`` picks whichever path has the smaller eigenproblem. The solver
leaves LAPACK's signs; each component is oriented here, once, by the sign
rule on U (its entry of largest magnitude is made positive; entries within a
relative 1e-12 of it tie, and the lowest index wins) with V flipped
alongside, so the routes agree on every output up to roundoff (for separated
eigenvalues). Midpoint (classical) scores and correlations lie inside their
interval counterparts exactly, and on degenerate input they equal both
endpoints bit for bit.

Interval correlations are stored raw. Hypercube vertices can leave the unit
ball, so an endpoint can exceed 1 in magnitude; ``clamp_correlations``
restricts them to [-1, 1] for reporting and plotting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .intervals import BoundsPair, IntervalMatrix, _default_labels, _spread
from .linalg import EigenDecomposition, _eigh_descending, dual_transport

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


@dataclass(frozen=True, eq=False)
class StandardizedBundle:
    """Standardized midpoint matrix with matching interval bounds.

    ``z`` has zero-mean columns of unit Euclidean norm (population standard
    deviation with an extra 1/sqrt(m) factor); ``bounds`` applies the same
    affine map to the lower/upper interval bounds, so bounds.low <= z <=
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
    classical midpoint counterparts and always lie inside them.
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
    return (x.lo + x.hi) / 2.0


def _refuse_column(x: IntervalMatrix, bad: np.ndarray, reason: str) -> None:
    """Raise DataError naming the first column flagged in ``bad``."""
    if bad.any():
        raise DataError(f"column {x.cols[int(np.argmax(bad))]!r} {reason}")


def _standardize(
    x: IntervalMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The body of ``standardize``: z, the mapped lower and upper bounds,
    and their widths, every one checked finite."""
    m = x.shape[0]
    if m < 2:
        raise DataError(f"need at least 2 rows to standardize, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        mids = centers_matrix(x)
        means = mids.mean(axis=0)
        # The deviations feed the std by np.std's own steps (same bits), then
        # are scaled in place into z.
        z = mids - means
        stds = np.sqrt(np.add.reduce(z * z, axis=0) / m)
        # The range test catches constant columns whose std rounds to a tiny
        # non-zero value; a zero std over a non-zero range is an underflow.
        # Summed in any order, m copies of c give a mean within about
        # (m - 1)·(eps/2)·|c| of c (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2002, §4.2), so a constant column's std is
        # at most about m·(eps/2)·|mean|, or infinite where the squared
        # deviations overflow. A column over 8 times that bound is not
        # constant; only the others need the range test.
        constant = (stds <= (4 * m * _EPS) * np.abs(means)) | (stds == np.inf)
        constant[constant] = np.ptp(mids[:, constant], axis=0) == 0.0
        _refuse_column(x, constant,
                       "is constant (zero variance); it cannot be standardized")
        _refuse_column(x, stds == 0.0, "cannot be standardized: its midpoints "
                       "differ, but their variance underflows to zero")
        _refuse_column(x, ~(np.isfinite(means) & np.isfinite(stds)),
                       "is too large in magnitude to standardize: its midpoint "
                       "mean or standard deviation overflows")
        scale = 1.0 / (math.sqrt(m) * stds)
        z *= scale
        low = x.lo - means
        low *= scale
        high = x.hi - means
        high *= scale
        # Finite widths imply finite bounds: inf - x and nan - x are not finite.
        width = high - low
    if not np.isfinite(width).all():
        _refuse_column(x, ~(np.isfinite(low) & np.isfinite(high)).all(axis=0),
                       "is too large in magnitude to standardize: its interval "
                       "bounds overflow when standardized")
        _refuse_column(x, ~np.isfinite(width).all(axis=0),
                       "is too large in magnitude to standardize: its interval "
                       "widths overflow when standardized")
    return z, low, high, width


def standardize(x: IntervalMatrix) -> StandardizedBundle:
    """Center and reduce the midpoint matrix, mapping bounds alongside.

    Entry (i, j) of z is (mid_ij - mean_j) / (sqrt(m) * std_j) with std the
    population standard deviation (divisor m) of midpoint column j; the same
    map is applied to the lower and upper bounds. Every column of z then has
    zero mean and unit norm, and Zt·Z is the midpoint correlation matrix.

    Raises DataError when m < 2, or when a midpoint column is constant, its
    variance underflows, its mean or std overflows, or its mapped bounds or
    their widths overflow.
    """
    z, low, high, _ = _standardize(x)
    return StandardizedBundle(z=z, bounds=BoundsPair(low, high))


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
    mags = np.abs(vectors)
    tied = mags >= mags.max(axis=0) * (1.0 - _SIGN_TIE_RTOL)
    pivots = np.argmax(tied, axis=0)
    pivot_values = vectors[pivots, np.arange(vectors.shape[1])]
    return np.where(pivot_values < 0, -1.0, 1.0)


def _duality_pca(x: IntervalMatrix, q: int | None, route: str) -> PcaResult:
    """The one body behind both routes: solve the Gram product of
    A = Z (``"zzt"``) or A = Zt (``"ztz"``), carry the solved family across
    with ``dual_transport(A, ...)``, orient by U, and spread the centres."""
    z, _, _, width = _standardize(x)
    a, other = (z, "ztz") if route == "zzt" else (z.T, "zzt")
    _check_gram_size(route, a.shape[0], other, a.shape[1])
    # A·At is exactly symmetric (one BLAS triangle, mirrored) and finite, as
    # |z| <= 1, so it skips eigen_sym's checks.
    eig = _eigh_descending(a @ a.T)
    q = _resolve_q(eig, q)
    lam = eig.values[:q].copy()
    solved = eig.vectors[:, :q].copy()
    carried = dual_transport(a, solved, lam)
    u, v = (carried, solved) if route == "zzt" else (solved, carried)
    # Orient each component by the sign rule on U and flip V alongside, so
    # each column pair stays a transport pair.
    signs = _canonical_signs(u)
    u *= signs
    v *= signs
    pcs = _default_labels("PC", q)
    # Scores live in the unit-variance scale of the data: sqrt(m) times z's.
    root_m = math.sqrt(z.shape[0])
    radius = np.divide(width, 2.0, out=width)
    center_scores = (root_m * z) @ u
    center_correlations = z.T @ v
    # standardize bounds the widths, not sqrt(m) times the radii nor their
    # sums over a row, so the spreads can still overflow; _spread then finds
    # non-finite ends, and the column holding the largest radius is named.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _spread(center_scores, root_m * radius, u, x.rows, pcs)
            correlations = _spread(center_correlations, radius.T, v, x.cols, pcs)
    except DataError:
        widest = x.cols[int(np.argmax(radius.max(axis=0)))]
        raise DataError(
            f"column {widest!r} is too large in magnitude for interval PCA: "
            "its interval radii overflow when projected onto the components"
        ) from None
    return PcaResult(
        eigenvalues=lam,
        loadings_u=u,
        axes_v=v,
        scores=scores,
        correlations=correlations,
        center_scores=center_scores,
        center_correlations=center_correlations,
        method_used=route,
    )


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
    return IntervalMatrix._derived(
        table.rows,
        table.cols,
        np.clip(table.lo, -1.0, 1.0),
        np.clip(table.hi, -1.0, 1.0),
    )


def flip_component(result: PcaResult, k: int) -> PcaResult:
    """Negate component k throughout: eigenvector columns flip sign and
    every interval column k maps [a, b] -> [-b, -a].

    Useful for aligning orientations before comparing against published
    values, which fix no eigenvector sign.
    """
    if not 0 <= k < result.eigenvalues.size:
        raise DataError(f"component index {k} out of range")

    def flip_cols(mat: np.ndarray) -> np.ndarray:
        out = mat.copy()
        out[:, k] = -out[:, k]
        return out

    def flip_intervals(table: IntervalMatrix) -> IntervalMatrix:
        lo = table.lo.copy()
        hi = table.hi.copy()
        lo[:, k], hi[:, k] = -table.hi[:, k], -table.lo[:, k]
        return IntervalMatrix._derived(table.rows, table.cols, lo, hi)

    return replace(
        result,
        loadings_u=flip_cols(result.loadings_u),
        axes_v=flip_cols(result.axes_v),
        scores=flip_intervals(result.scores),
        correlations=flip_intervals(result.correlations),
        center_scores=flip_cols(result.center_scores),
        center_correlations=flip_cols(result.center_correlations),
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
