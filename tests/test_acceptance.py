"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The shared corpus is 200 seeded random interval tables with
2 <= m, n <= 10 (see conftest) plus the bundled oils table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    OILS_CENTER_CORR,
    OILS_CORR_HI,
    OILS_CORR_LO,
    OILS_SCORES_HI,
    OILS_SCORES_LO,
    aligned_interval_error,
    aligned_matrix_error,
)
from sympca import (
    ClassicTable,
    IntervalMatrix,
    aggregate_classic,
    benchmark_paths,
    centers_matrix,
    clamp_correlations,
    eigen_sym,
    pca_auto,
    pca_ztz,
    pca_zzt,
    standardize,
    vertex_extremes,
)


@contextmanager
def criterion(number: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"\nacceptance criterion {number:2d} [{name}]: {status}")


def test_criterion_1_interval_correlations_reproduced(oils):
    with criterion(1, "oils interval correlations, 5e-3, < 1 s"):
        start = time.perf_counter()
        result = pca_auto(oils)
        elapsed = time.perf_counter() - start
        clamped = clamp_correlations(result.correlations)
        err = aligned_interval_error(clamped, OILS_CORR_LO, OILS_CORR_HI)
        assert err <= 5e-3, f"max cell error {err:.2e}"
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_center_correlations_reproduced(oils):
    with criterion(2, "oils center correlations, 1e-5"):
        result = pca_auto(oils)
        err = aligned_matrix_error(result.center_correlations, OILS_CENTER_CORR)
        assert err <= 1e-5, f"max error {err:.2e}"
        anchor = abs(abs(result.center_correlations[0, 0]) - 0.9210665)
        assert anchor <= 1e-5


def test_criterion_3_interval_scores_reproduced(oils):
    with criterion(3, "oils interval scores, 5e-3"):
        result = pca_auto(oils)
        err = aligned_interval_error(result.scores, OILS_SCORES_LO, OILS_SCORES_HI)
        assert err <= 5e-3, f"max cell error {err:.2e}"


def test_criterion_4_containment(oils, corpus):
    with criterion(4, "center values inside intervals, zero violations"):
        for table in [oils, *corpus]:
            result = pca_auto(table)
            assert np.all(result.scores.lo <= result.center_scores)
            assert np.all(result.center_scores <= result.scores.hi)
            assert np.all(result.correlations.lo <= result.center_correlations)
            assert np.all(result.center_correlations <= result.correlations.hi)


def _assert_interval_matches_oracle(lo, hi, oracle: tuple[float, float]):
    scale = max(1.0, abs(oracle[0]), abs(oracle[1]))
    assert abs(lo - oracle[0]) <= 1e-12 * scale
    assert abs(hi - oracle[1]) <= 1e-12 * scale


def test_criterion_5_vertex_oracle(oils, corpus):
    with criterion(5, "projection equals vertex enumeration, 1e-12 relative"):
        for table in [oils, *corpus]:
            result = pca_auto(table)
            bundle = standardize(table)
            m, n = table.shape
            q = result.eigenvalues.size
            root_m = np.sqrt(m)
            for i in range(m):
                low = bundle.bounds.low[i] * root_m
                high = bundle.bounds.high[i] * root_m
                for k in range(q):
                    oracle = vertex_extremes(low, high, result.loadings_u[:, k])
                    _assert_interval_matches_oracle(
                        result.scores.lo[i, k], result.scores.hi[i, k], oracle
                    )
            for j in range(n):
                low, high = bundle.bounds.low[:, j], bundle.bounds.high[:, j]
                for k in range(q):
                    oracle = vertex_extremes(low, high, result.axes_v[:, k])
                    _assert_interval_matches_oracle(
                        result.correlations.lo[j, k],
                        result.correlations.hi[j, k],
                        oracle,
                    )


def test_criterion_6_duality_equivalence(oils, corpus):
    with criterion(6, "zzt and ztz paths agree, 1e-9, same orientation"):
        for table in [oils, *corpus]:
            a = pca_zzt(table)
            b = pca_ztz(table)
            lam_scale = max(1.0, a.eigenvalues[0])
            assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-9 * lam_scale
            for field in ("lo", "hi"):
                assert np.abs(
                    getattr(a.scores, field) - getattr(b.scores, field)
                ).max() <= 1e-9
                assert np.abs(
                    getattr(a.correlations, field) - getattr(b.correlations, field)
                ).max() <= 1e-9


def test_criterion_7_eigen_invariants(oils, corpus):
    with criterion(7, "orthonormality 1e-10, residual 1e-9, trace sum"):
        for table in [oils, *corpus]:
            z = standardize(table).z
            for product in (z @ z.T, z.T @ z):
                eig = eigen_sym(product)
                dim = product.shape[0]
                gram = np.abs(eig.vectors.T @ eig.vectors - np.eye(dim)).max()
                assert gram <= 1e-10
                resid = np.abs(
                    product @ eig.vectors - eig.vectors * eig.values
                ).max(axis=0)
                bounds = 1e-9 * np.maximum(1.0, np.abs(eig.values))
                assert np.all(resid <= bounds)
            small = eigen_sym(z.T @ z)
            assert abs(small.values.sum() - table.shape[1]) <= 1e-9


def test_criterion_8_degenerate_reduction(oils):
    with criterion(8, "midpoint-collapsed input equals classical PCA, 1e-10"):
        mids = centers_matrix(oils)
        table = IntervalMatrix(oils.rows, oils.cols, mids, mids)
        result = pca_auto(table)
        assert np.array_equal(result.scores.lo, result.scores.hi)
        assert np.array_equal(result.correlations.lo, result.correlations.hi)
        # independent classical reference: LAPACK on the standardized midpoints
        xs = (mids - mids.mean(axis=0)) / mids.std(axis=0)
        lam, u = np.linalg.eigh(xs.T @ xs / len(xs))
        order = np.argsort(lam)[::-1]
        lam = lam[order]
        u = u[:, order]
        classical_scores = xs @ u
        classical_corr = u * np.sqrt(lam)
        assert aligned_matrix_error(result.scores.lo, classical_scores) <= 1e-10
        assert aligned_matrix_error(result.correlations.lo, classical_corr) <= 1e-10


def test_criterion_9_aggregation_shape():
    with criterion(9, "1994x103 classic -> 46x102 intervals, containment"):
        rng = np.random.default_rng(903)
        m, groups, p = 1994, 46, 102
        keys = np.concatenate([np.arange(groups), rng.integers(0, groups, m - groups)])
        values = rng.normal(size=(m, p))
        table = ClassicTable(
            rows=tuple(str(i + 1) for i in range(m)),
            cols=tuple(f"x{j + 1}" for j in range(p)),
            values=values,
            concept="state",
            concept_labels=tuple(f"s{k + 1}" for k in keys),
        )
        out = aggregate_classic(table, "state")
        assert out.shape == (groups, p)
        index = {label: g for g, label in enumerate(out.rows)}
        rows = np.array([index[label] for label in table.concept_labels])
        assert np.all(out.lo[rows, :] <= values)
        assert np.all(values <= out.hi[rows, :])


def test_criterion_10_bench_ordering():
    with criterion(10, "ztz median below zzt at (2000, 20); auto picks ztz"):
        report = benchmark_paths(2000, 20, trials=3)
        print(
            f"\n  bench m=2000 n=20 trials=3: "
            f"zzt median {report.median_zzt:.4f}s, "
            f"ztz median {report.median_ztz:.4f}s"
        )
        assert report.median_ztz < report.median_zzt
        assert report.auto_method == "ztz"
