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

from .errors import DataError

__all__ = [
    "Interval",
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


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi] with lo <= hi, both finite.

    Degenerate intervals (lo == hi) are allowed and represent classic
    point values.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise DataError(f"lower bound exceeds upper bound: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _as_bounds_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class BoundsPair:
    """Elementwise lower/upper bound matrices of identical shape."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = _as_bounds_array(self.low, "low")
        high = _as_bounds_array(self.high, "high")
        if low.shape != high.shape:
            raise DataError(
                f"bound shapes differ: {low.shape} vs {high.shape}"
            )
        if np.any(low > high):
            i, j = np.argwhere(low > high)[0]
            raise DataError(
                f"lower bound exceeds upper bound at ({i}, {j}): "
                f"{low[i, j]!r} > {high[i, j]!r}"
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
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        expected = (len(rows), len(cols))
        if lo.shape != expected or hi.shape != expected:
            raise DataError(
                f"grid shape {lo.shape}/{hi.shape} does not match labels {expected}"
            )
        if lo.size:
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise DataError("interval grid contains non-finite entries")
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

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def cell(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def without_columns(self, names: Sequence[str]) -> "IntervalMatrix":
        """Drop the named columns; unknown names are an error."""
        drop = set(names)
        unknown = drop - set(self.cols)
        if unknown:
            raise DataError(f"no column named {sorted(unknown)[0]!r}")
        keep = [j for j, c in enumerate(self.cols) if c not in drop]
        return IntervalMatrix(
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
    half = radius @ np.abs(weights)
    return IntervalMatrix(rows, cols, centre - half, centre + half)


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
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise DataError(f"weights must be 2-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DataError("weights contain non-finite entries")
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


def vertex_extremes(bounds_row: Sequence, weight) -> Interval:
    """Brute-force oracle: min/max projection over all hypercube vertices.

    Enumerates every lo/hi combination of ``bounds_row`` (2**n vertices,
    n capped at ``VERTEX_ENUM_LIMIT``), projects each vertex onto
    ``weight`` and returns the observed [min, max].
    """
    cells = [c if isinstance(c, Interval) else Interval(c[0], c[1]) for c in bounds_row]
    w = np.asarray(weight, dtype=float).ravel()
    n = len(cells)
    if n != w.size:
        raise DataError(
            f"length mismatch: {n} intervals vs {w.size} weights"
        )
    if n > VERTEX_ENUM_LIMIT:
        raise DataError(
            f"vertex enumeration limited to {VERTEX_ENUM_LIMIT} dimensions, got {n}"
        )
    if n == 0:
        return Interval(0.0, 0.0)
    lo = np.array([c.lo for c in cells])
    hi = np.array([c.hi for c in cells])
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
    return Interval(best_min, best_max)
