"""Independent numpy-only reference for interval PCA and concept aggregation.

Nothing here imports sympca. The reference follows the paper's definitions
directly, by a different route from the program:

* the eigenproblem is always ``eigh`` of the n x n midpoint correlation
  matrix, whatever route the program took;
* the signed-weight endpoints are computed in midpoint-radius form,
  ``c @ w -/+ r @ |w|``, instead of splitting the weights by sign;
* a few sampled rows are re-checked by enumerating every vertex of their box.

Eigenvectors have no intrinsic sign, so each component is compared up to
one sign chosen per component and applied to every output of it: point
values negate and an interval [a, b] maps to [-b, -a].
"""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np

# Largest absolute error allowed, relative to max(1, largest reference magnitude).
TOL = 1e-8
# An eigenvalue counts as positive above this fraction of the largest one.
RANK_TOL = 1e-10
# Boxes of up to this many dimensions are checked by full vertex enumeration.
VERTEX_DIM_LIMIT = 20
VERTEX_ROWS = 2
_CHUNK = 1 << 15


class Reference:
    """Reference interval PCA of the table with bounds ``lo`` <= ``hi``."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        m, n = lo.shape
        mid = (lo + hi) / 2.0
        mean = mid.mean(axis=0)
        std = mid.std(axis=0)
        unit = (mid - mean) / std
        corr = unit.T @ unit / m
        values, vectors = np.linalg.eigh((corr + corr.T) / 2.0)
        order = np.argsort(values)[::-1]
        values, vectors = values[order], vectors[:, order]
        q = int(np.sum(values > RANK_TOL * values[0]))
        self.m, self.n, self.q = m, n, q
        self.eigenvalues = values[:q]
        self.loadings = vectors[:, :q]
        root = np.sqrt(self.eigenvalues)
        self.center_scores = unit @ self.loadings
        self.axes = self.center_scores / (np.sqrt(m) * root)
        self.center_correlations = self.loadings * root
        # Bounds in the unit-variance scale (scores) and the unit-norm scale
        # (correlations), as midpoint and radius.
        self.unit_lo = (lo - mean) / std
        self.unit_hi = (hi - mean) / std
        c = (self.unit_lo + self.unit_hi) / 2.0
        r = (self.unit_hi - self.unit_lo) / 2.0
        self.scores = _project(c, r, self.loadings)
        self.correlations = _project(c.T / np.sqrt(m), r.T / np.sqrt(m), self.axes)


def _project(c: np.ndarray, r: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centre = c @ w
    spread = r @ np.abs(w)
    return centre - spread, centre + spread


def _vertex_range(lo_row: np.ndarray, hi_row: np.ndarray, w: np.ndarray):
    """[min, max] of the projection of every vertex of one box onto w's columns."""
    n = lo_row.size
    bits = np.arange(n, dtype=np.uint64)
    low = np.full(w.shape[1], np.inf)
    high = np.full(w.shape[1], -np.inf)
    for start in range(0, 1 << n, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.uint64)
        take_hi = ((ks[:, None] >> bits) & np.uint64(1)).astype(bool)
        proj = np.where(take_hi, hi_row, lo_row) @ w
        low = np.minimum(low, proj.min(axis=0))
        high = np.maximum(high, proj.max(axis=0))
    return low, high


class Checker:
    """Collects every mismatch between the program's output and the reference."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.label}: {message}")

    def close(self, name: str, got, want: np.ndarray, tol: float = TOL) -> None:
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{name} has shape {got.shape}, expected {want.shape}")
            return
        if got.size == 0:
            return
        bound = tol * max(1.0, float(np.abs(want).max()))
        err = float(np.abs(got - want).max())
        if not err <= bound:
            self.fail(f"{name} differs by {err:.3e} (allowed {bound:.1e})")

    def equal(self, name: str, got, want) -> None:
        if got != want:
            self.fail(f"{name} is {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def component_signs(got_center_correlations, ref: Reference) -> np.ndarray:
    """+1/-1 per component, aligning the reference with the program's output."""
    got = np.asarray(got_center_correlations, dtype=float)
    if got.shape != ref.center_correlations.shape:
        return np.ones(ref.q)
    dots = np.sum(got * ref.center_correlations, axis=0)
    return np.where(dots < 0, -1.0, 1.0)


def signed_intervals(lo: np.ndarray, hi: np.ndarray, signs: np.ndarray):
    flip = signs < 0
    return np.where(flip, -hi, lo), np.where(flip, -lo, hi)


def check_pca(
    check: Checker,
    ref: Reference,
    *,
    eigenvalues,
    scores_lo,
    scores_hi,
    corr_lo,
    corr_hi,
    center_scores,
    center_correlations,
    method_used: str,
    clamped: bool,
    loadings=None,
    axes=None,
    rng: np.random.Generator | None = None,
) -> None:
    """Compare one PCA result with the reference, component by component."""
    check.equal("method_used", method_used, "zzt" if ref.m <= ref.n else "ztz")
    check.close("eigenvalues", eigenvalues, ref.eigenvalues)
    signs = component_signs(center_correlations, ref)
    check.close("center_correlations", center_correlations, ref.center_correlations * signs)
    check.close("center_scores", center_scores, ref.center_scores * signs)
    if loadings is not None:
        check.close("loadings_u", loadings, ref.loadings * signs)
    if axes is not None:
        check.close("axes_v", axes, ref.axes * signs)
    want_lo, want_hi = signed_intervals(*ref.scores, signs)
    check.close("scores.lo", scores_lo, want_lo)
    check.close("scores.hi", scores_hi, want_hi)
    want_lo, want_hi = signed_intervals(*ref.correlations, signs)
    if clamped:
        want_lo, want_hi = np.clip(want_lo, -1.0, 1.0), np.clip(want_hi, -1.0, 1.0)
    check.close("correlations.lo", corr_lo, want_lo)
    check.close("correlations.hi", corr_hi, want_hi)
    if check.problems:
        return
    _check_containment(check, scores_lo, scores_hi, center_scores, "scores")
    _check_containment(check, corr_lo, corr_hi, center_correlations, "correlations")
    _check_vertices(check, ref, signs, rng or np.random.default_rng(0),
                    np.asarray(scores_lo), np.asarray(scores_hi),
                    np.asarray(corr_lo), np.asarray(corr_hi), clamped)


def _check_containment(check: Checker, lo, hi, centre, name: str) -> None:
    lo, hi, centre = (np.asarray(a, dtype=float) for a in (lo, hi, centre))
    slack = TOL * max(1.0, float(np.abs(centre).max()))
    if np.any(lo > hi) or np.any(centre < lo - slack) or np.any(centre > hi + slack):
        check.fail(f"{name}: an interval is inverted or misses its midpoint value")


def _check_vertices(check, ref, signs, rng, s_lo, s_hi, c_lo, c_hi, clamped) -> None:
    """Brute-force vertex enumeration on a few sampled boxes."""
    if ref.n <= VERTEX_DIM_LIMIT:
        w = ref.loadings * signs
        for i in rng.choice(ref.m, size=min(VERTEX_ROWS, ref.m), replace=False):
            low, high = _vertex_range(ref.unit_lo[i], ref.unit_hi[i], w)
            check.close(f"scores row {i} vs vertices", s_lo[i], low)
            check.close(f"scores row {i} vs vertices", s_hi[i], high)
    if ref.m <= VERTEX_DIM_LIMIT:
        w = ref.axes * signs
        scale = 1.0 / np.sqrt(ref.m)
        for j in rng.choice(ref.n, size=min(VERTEX_ROWS, ref.n), replace=False):
            low, high = _vertex_range(ref.unit_lo[:, j] * scale, ref.unit_hi[:, j] * scale, w)
            if clamped:
                low, high = np.clip(low, -1.0, 1.0), np.clip(high, -1.0, 1.0)
            check.close(f"correlations row {j} vs vertices", c_lo[j], low)
            check.close(f"correlations row {j} vs vertices", c_hi[j], high)


def read_interval_csv(text: str):
    """Bracket-cell CSV -> (row labels, column labels, lo, hi), by plain string splitting."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    cols = records[0][1:]
    rows = [rec[0] for rec in records[1:]]
    cells = [cell.strip()[1:-1].split(",") for rec in records[1:] for cell in rec[1:]]
    bounds = np.array(cells, dtype=float).reshape(len(rows), len(cols), 2)
    return rows, cols, bounds[:, :, 0], bounds[:, :, 1]


def group_min_max(keys: np.ndarray, values: np.ndarray):
    """Per-group [min, max] of ``values`` rows, groups in order of first appearance."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = rank[inverse]
    lo = np.full((uniq.size, values.shape[1]), np.inf)
    hi = np.full((uniq.size, values.shape[1]), -np.inf)
    np.minimum.at(lo, group, values)
    np.maximum.at(hi, group, values)
    return uniq[order], lo, hi


def svg_rects(text: str) -> list[dict]:
    """Every <rect> of an SVG document; raises ET.ParseError when it is not XML."""
    root = ET.fromstring(text.encode("utf-8"))
    return [el.attrib for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "rect"]


def circle_intervals(rects: list[dict], width: float, height: float, radius_fraction: float):
    """Invert the documented correlation-circle geometry: rect -> (x, y) intervals."""
    cx, cy = width / 2.0, height / 2.0
    radius = radius_fraction * min(width, height)
    x = np.array([[float(r["x"]), float(r["width"])] for r in rects])
    y = np.array([[float(r["y"]), float(r["height"])] for r in rects])
    x_lo = (x[:, 0] - cx) / radius
    x_hi = x_lo + x[:, 1] / radius
    y_hi = (cy - y[:, 0]) / radius
    y_lo = y_hi - y[:, 1] / radius
    return np.stack([x_lo, y_lo], axis=1), np.stack([x_hi, y_hi], axis=1)
