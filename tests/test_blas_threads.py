"""Outputs of thin tables that do not depend on the OpenBLAS thread count.

At 5000x20, 20000x20 and 20x5000 every output is the same bytes under one
and two OpenBLAS threads. The centres come from the eigenvectors by
elementwise duality relations, not by a matrix product whose inner sum BLAS
may split across threads, and the spread whose inner sum runs over the long
side (the correlation endpoints of a tall table, the score endpoints of a
wide one) adds that sum in fixed blocks of 1024 terms. Other shapes vary
more: at 1000x200 the correlation endpoints differed (their sum of 1000
terms is one block), at 200x1000 the transported U and the centre
correlations, at 300x300 the eigenpairs too (README, "Eigensolver"). No
difference is asserted, as whether one shows depends on the BLAS build.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one "name digest" line per output, for seeded tall and wide tables.
SCRIPT = """
import hashlib
import numpy as np
from sympca import PlotSpec, pca_auto, render_plane
from sympca.bench import random_interval_table

def show(name, data):
    print(name, hashlib.sha256(data).hexdigest())

for seed, (m, n) in enumerate(((5000, 20), (20, 5000), (20000, 20))):
    res = pca_auto(random_interval_table(m, n, np.random.default_rng(seed)))
    for field in ("eigenvalues", "loadings_u", "axes_v", "center_scores",
                  "center_correlations"):
        show(f"{m}x{n} {field}", np.ascontiguousarray(getattr(res, field)).tobytes())
    for field in ("scores", "correlations"):
        ends = getattr(res, field)
        show(f"{m}x{n} {field}", ends.lo.tobytes() + ends.hi.tobytes())
    if m > n:
        show(f"{m}x{n} plane", render_plane(res.scores, PlotSpec()).encode())
"""


def _digests(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_one_and_two_threads_give_the_same_bytes():
    one, two = _digests(1), _digests(2)
    assert len(one) == 23
    assert one == two
