"""
Two eigenproblems, one answer
=============================

With m objects and n variables, the analysis can eigendecompose either the
m x m product Z Zt or the n x n product Zt Z. Both share the same positive
eigenvalues, and each eigenvector family maps to the other via
u = Zt v / sqrt(lam) and v = Z u / sqrt(lam). This demo runs both routes and
shows they agree, checks the duality relation between the variables'
coordinates and the objects' scores, then checks one projection against
brute-force vertex enumeration.
"""

import numpy as np

from sympca import (
    centers_matrix,
    load_oils_table,
    pca_ztz,
    pca_zzt,
    standardize,
    vertex_extremes,
)

table = load_oils_table()
via_big = pca_zzt(table)    # 8 x 8 eigenproblem
via_small = pca_ztz(table)  # 4 x 4 eigenproblem

print("eigenvalues via zzt:", np.round(via_big.eigenvalues, 6))
print("eigenvalues via ztz:", np.round(via_small.eigenvalues, 6))

# Both routes orient every component by the same sign rule on the loadings,
# so their outputs compare directly.
u_diff = np.abs(via_big.loadings_u - via_small.loadings_u).max()
score_diff = max(
    np.abs(via_big.scores.lo - via_small.scores.lo).max(),
    np.abs(via_big.scores.hi - via_small.scores.hi).max(),
)
print(f"\nmax loading difference between paths: {u_diff:.2e}")
print(f"max interval-score difference:        {score_diff:.2e}")

# The paper's duality relation: a variable's coordinate on a component is
# the classical correlation of its midpoint column with the component's
# midpoint scores.
mids = centers_matrix(table)
n = mids.shape[1]
classical = np.corrcoef(mids, via_small.center_scores, rowvar=False)[:n, n:]
corr_diff = np.abs(via_small.center_correlations - classical).max()
print(f"max |centre correlation - corr(midpoints, centre scores)|: {corr_diff:.2e}")

# The closed-form projection equals exhaustive vertex enumeration: take the
# first object's standardized score bounds and try all 2^4 corners.
bundle = standardize(table)
m = bundle.z.shape[0]
root_m = np.sqrt(m)
oracle = vertex_extremes(
    bundle.bounds.low[0] * root_m, bundle.bounds.high[0] * root_m, via_small.loadings_u[:, 0]
)
closed = (via_small.scores.lo[0, 0], via_small.scores.hi[0, 0])
print(f"\nfirst object, first component:")
print(f"  closed-form projection: [{closed[0]:.6f}, {closed[1]:.6f}]")
print(f"  vertex enumeration:     [{oracle[0]:.6f}, {oracle[1]:.6f}]")
