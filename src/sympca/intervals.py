"""Closed-interval primitives and the centre-radius interval projection.

An interval-valued observation is a closed interval [lo, hi] instead of a
single number. A labelled grid of such cells is an interval table; each row
(or column) of the grid spans an axis-aligned hypercube in Euclidean space.
Projecting that hypercube onto a direction vector w yields the interval
c·w ± r·|w| (midpoint-radius interval arithmetic), with c the cell midpoints
and r the cell half-widths; its endpoints are attained at the vertices
picked by the signs of w's entries.

The PCA pipeline spreads its scores in that centre-radius form (``_spread``);
``interval_project`` computes the same extremes from the sign-picked vertex
bounds, product for product as the vertices give them;
``vertex_extremes`` recomputes them by brute-force vertex enumeration and
serves as the independent test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, _finite_array

__all__ = [
    "BoundsPair",
    "IntervalMatrix",
    "interval_project",
    "vertex_extremes",
    "VERTEX_ENUM_LIMIT",
]

# Hard cap for the brute-force oracle: 2**n vertices get enumerated.
VERTEX_ENUM_LIMIT = 25

# Vertices enumerated per chunk, to bound oracle memory at high dimension.
_ENUM_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class BoundsPair:
    """Elementwise lower/upper bound matrices of identical shape."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = _finite_array(self.low, "low")
        high = _finite_array(self.high, "high")
        if low.shape != high.shape:
            raise DataError(
                f"bound shapes differ: {low.shape} vs {high.shape}"
            )
        if np.any(low > high):
            i, j = np.argwhere(low > high)[0]
            raise DataError(
                f"lower bound exceeds upper bound at ({i}, {j}): "
                f"{float(low[i, j])!r} > {float(high[i, j])!r}"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def shape(self) -> tuple[int, int]:
        return self.low.shape


def _check_labels(labels, axis: str) -> tuple[str, ...]:
    out = tuple(str(name) for name in labels)
    if len(set(out)) != len(out):
        seen: set[str] = set()
        dup = next(name for name in out if name in seen or seen.add(name))
        raise DataError(f"duplicate {axis} label: {dup!r}")
    return out


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Labelled m x n grid of closed intervals.

    Stored as two parallel float arrays ``lo`` and ``hi``; row and column
    labels are unique within their axis.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        rows = _check_labels(self.rows, "row")
        cols = _check_labels(self.cols, "column")
        lo = _finite_array(self.lo, "interval grid", ndim=None)
        hi = _finite_array(self.hi, "interval grid", ndim=None)
        expected = (len(rows), len(cols))
        if lo.shape != expected or hi.shape != expected:
            raise DataError(
                f"grid shape {lo.shape}/{hi.shape} does not match labels {expected}"
            )
        if np.any(lo > hi):
            i, j = np.argwhere(lo > hi)[0]
            raise DataError(
                f"lower bound exceeds upper bound at "
                f"(row {rows[i]!r}, column {cols[j]!r})"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _derived(cls, rows: tuple[str, ...], cols: tuple[str, ...],
                 lo: np.ndarray, hi: np.ndarray) -> "IntervalMatrix":
        """Trusted constructor for float arrays the library derives from a
        validated table: the labels come from that table (or are generated),
        the shapes match them and lo <= hi holds by construction. So does
        finiteness, except where a product can overflow, which ``_spread``,
        the one caller that forms products, checks itself."""
        table = object.__new__(cls)
        object.__setattr__(table, "rows", rows)
        object.__setattr__(table, "cols", cols)
        object.__setattr__(table, "lo", lo)
        object.__setattr__(table, "hi", hi)
        return table

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def without_columns(self, names: Sequence[str]) -> "IntervalMatrix":
        """Drop the named columns; unknown names are an error."""
        drop = set(names)
        unknown = drop - set(self.cols)
        if unknown:
            raise DataError(f"no column named {sorted(unknown)[0]!r}")
        keep = [j for j, c in enumerate(self.cols) if c not in drop]
        if not keep:
            raise DataError("no data column left: every column is excluded")
        # A subset of checked labels and cells keeps every fact checked.
        return IntervalMatrix._derived(
            self.rows,
            tuple(self.cols[j] for j in keep),
            self.lo[:, keep],
            self.hi[:, keep],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _spread(centre, radius, weights, rows, cols) -> IntervalMatrix:
    """Intervals ``centre ± radius @ |weights|`` around the projected box centres."""
    # radius >= 0 makes half >= 0, and then rounding keeps fl(c - half) <= c <=
    # fl(c + half): c lies inside exactly, and a zero radius gives c at both ends.
    # The low ends are formed first, the high ends then in half's own buffer.
    # Only finiteness is left to check: the products can overflow. half is >= 0
    # or NaN (inf·0), and the centres are bounded, so both ends are finite
    # exactly when half's largest entry is.
    half = radius @ np.abs(weights)
    if not np.isfinite(half.max()):
        raise DataError("interval grid contains non-finite entries")
    return IntervalMatrix._derived(rows, cols, centre - half, np.add(half, centre, out=half))


def interval_project(
    bounds: BoundsPair,
    weights: np.ndarray,
    rows: Sequence[str] | None = None,
    cols: Sequence[str] | None = None,
) -> IntervalMatrix:
    """Project every interval row of ``bounds`` onto every weight column.

    Output entry (i, k) is the exact range of ``sum_j p_j * w[j, k]`` over
    all points ``p`` with ``low[i] <= p <= high[i]``: positive weights take
    the lower bound into the lower endpoint, negative weights swap bounds,
    zero weights drop out.

    Parameters
    ----------
    bounds : BoundsPair, shape (m, n)
    weights : array, shape (n, q)
    rows, cols : optional output labels; generated when omitted.
    """
    w = _finite_array(weights, "weights")
    m, n = bounds.shape
    if w.shape[0] != n:
        raise DataError(
            f"non-conformable shapes: bounds {bounds.shape} vs weights {w.shape}"
        )
    # Sign-split bounds form the same products p_j * w_jk as the vertices do,
    # so the ends stay exact down to subnormal magnitudes, where halving the
    # cells into centre and radius would round away the last bit.
    pos = np.maximum(w, 0.0)
    neg = np.minimum(w, 0.0)
    lo = bounds.low @ pos + bounds.high @ neg
    hi = bounds.high @ pos + bounds.low @ neg
    row_labels = _default_labels("r", m) if rows is None else tuple(rows)
    col_labels = _default_labels("c", w.shape[1]) if cols is None else tuple(cols)
    return IntervalMatrix(row_labels, col_labels, lo, hi)


def vertex_extremes(low, high, weight) -> tuple[float, float]:
    """Brute-force oracle: min/max projection over all hypercube vertices.

    Enumerates every combination of the 1-D bound arrays ``low`` and
    ``high`` (2**n vertices, n capped at ``VERTEX_ENUM_LIMIT``), projects
    each vertex onto ``weight`` and returns the observed ``(min, max)``.
    """
    bounds = BoundsPair([low], [high])
    w = _finite_array(weight, "weight", ndim=None).ravel()
    n = bounds.shape[1]
    if n != w.size:
        raise DataError(
            f"length mismatch: {n} intervals vs {w.size} weights"
        )
    if n > VERTEX_ENUM_LIMIT:
        raise DataError(
            f"vertex enumeration limited to {VERTEX_ENUM_LIMIT} dimensions, got {n}"
        )
    lo, hi = bounds.low[0], bounds.high[0]
    shifts = np.arange(n, dtype=np.uint64)
    best_min = np.inf
    best_max = -np.inf
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        ks = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint64)
        take_hi = (ks[:, None] >> shifts) & np.uint64(1)
        verts = np.where(take_hi == 1, hi, lo)
        projs = verts @ w
        best_min = min(best_min, float(projs.min()))
        best_max = max(best_max, float(projs.max()))
    return best_min, best_max
