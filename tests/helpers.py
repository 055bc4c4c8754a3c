"""Shared test utilities: golden reference values for the oils data set and
sign-alignment helpers for comparing against published orientations."""

from __future__ import annotations

import numpy as np

from sympca import IntervalMatrix

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
