"""
Interval PCA on the oils-and-fats data
======================================

Eight classes of oil, each described by four interval variables: specific
gravity (GRA), freezing point (FRE), iodine value (IOD) and saponification
(SAP). Because every observation is an interval, every PCA output is an
interval too: objects get interval scores, variables get interval
correlations with the components.
"""

import numpy as np

from sympca import centers_matrix, clamp_correlations, load_oils_table, pca_auto

table = load_oils_table()
print(f"data: {table.shape[0]} objects x {table.shape[1]} interval variables")
cells = [f"[{lo!r}, {hi!r}]" for lo, hi in zip(table.lo[0].tolist(), table.hi[0].tolist())]
print("first row,", table.rows[0], "->", cells)

# The analysis works on midpoints: standardize them, eigendecompose, then
# recover interval outputs by projecting the interval bounds.
mids = centers_matrix(table)
print("\nmidpoints of the first row:", np.round(mids[0], 4))

result = pca_auto(table)
print(f"\nanalysis path chosen automatically: {result.method_used!r}")

share = result.eigenvalues / result.eigenvalues.sum()
print("eigenvalues:", np.round(result.eigenvalues, 4))
print("variance share per component:", np.round(share, 4))

print("\ninterval scores (objects x components):")
for i, name in enumerate(result.scores.rows):
    cells = ", ".join(
        f"[{result.scores.lo[i, k]:7.3f},{result.scores.hi[i, k]:7.3f}]"
        for k in range(2)
    )
    print(f"  {name:<10} PC1,PC2 = {cells}")

# Correlations may poke outside [-1, 1] because hypercube corners lie
# outside the unit ball; clamp them for reporting.
corr = clamp_correlations(result.correlations)
print("\nclamped interval correlations (variables x components):")
for i, name in enumerate(corr.rows):
    cells = ", ".join(
        f"[{corr.lo[i, k]:6.3f},{corr.hi[i, k]:6.3f}]" for k in range(2)
    )
    print(f"  {name:<4} PC1,PC2 = {cells}")

# The classical midpoint values always sit inside their intervals.
inside = np.all(
    (result.scores.lo <= result.center_scores)
    & (result.center_scores <= result.scores.hi)
)
print(f"\nmidpoint scores contained in interval scores: {inside}")
