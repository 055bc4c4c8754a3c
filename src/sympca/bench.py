"""Micro-benchmark comparing the two eigenproblem routes.

Times ``pca_zzt`` (m x m eigenproblem) against ``pca_ztz`` (n x n) on
seeded synthetic interval tables. Medians over trials are reported rather
than means, to resist timer noise; trials run strictly sequentially so the
measurements stay honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _is_integer
from .intervals import IntervalMatrix
from .pca import pca_auto, pca_zzt, pca_ztz

__all__ = ["BenchReport", "random_interval_table", "benchmark_paths", "DEFAULT_SEED"]

DEFAULT_SEED = 1729


def random_interval_table(
    m: int, n: int, rng: np.random.Generator
) -> IntervalMatrix:
    """Seeded random interval table: unit-normal centers, uniform half-widths."""
    centers = rng.normal(0.0, 1.0, size=(m, n))
    half = rng.uniform(0.05, 0.5, size=(m, n))
    rows = tuple(f"o{i + 1}" for i in range(m))
    cols = tuple(f"v{j + 1}" for j in range(n))
    return IntervalMatrix(rows, cols, centers - half, centers + half)


@dataclass(frozen=True)
class BenchReport:
    m: int
    n: int
    trials: int
    times_zzt: tuple[float, ...]
    times_ztz: tuple[float, ...]
    auto_method: str

    @property
    def median_zzt(self) -> float:
        return float(np.median(self.times_zzt))

    @property
    def median_ztz(self) -> float:
        return float(np.median(self.times_ztz))


def benchmark_paths(m: int, n: int, trials: int = 5) -> BenchReport:
    """Wall-clock both analysis paths on fresh tables per trial, drawn from
    one generator seeded with ``DEFAULT_SEED``."""
    for name, value in (("m", m), ("n", n), ("trials", trials)):
        if not _is_integer(value):
            raise DataError(f"{name} must be an integer, got {value!r}")
    if m < 2 or n < 1 or trials < 1:
        raise ValueError("need m >= 2, n >= 1, trials >= 1")
    rng = np.random.default_rng(DEFAULT_SEED)
    times_zzt = []
    times_ztz = []
    auto_method = ""
    for trial in range(trials):
        table = random_interval_table(m, n, rng)
        start = time.perf_counter()
        pca_zzt(table)
        times_zzt.append(time.perf_counter() - start)
        start = time.perf_counter()
        pca_ztz(table)
        times_ztz.append(time.perf_counter() - start)
        if trial == 0:
            auto_method = pca_auto(table).method_used
    return BenchReport(
        m=m,
        n=n,
        trials=trials,
        times_zzt=tuple(times_zzt),
        times_ztz=tuple(times_ztz),
        auto_method=auto_method,
    )
