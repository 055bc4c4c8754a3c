from __future__ import annotations

import numpy as np
import pytest

from sympca import IntervalMatrix, load_oils_table
from sympca.bench import random_interval_table

CORPUS_SEED = 20250810
CORPUS_SIZE = 200


@pytest.fixture(scope="session")
def oils() -> IntervalMatrix:
    return load_oils_table()


@pytest.fixture(scope="session")
def corpus() -> list[IntervalMatrix]:
    """200 seeded random interval tables with 2 <= m, n <= 10."""
    rng = np.random.default_rng(CORPUS_SEED)
    tables = []
    for _ in range(CORPUS_SIZE):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        tables.append(random_interval_table(m, n, rng))
    return tables
