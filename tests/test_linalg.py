from __future__ import annotations

import numpy as np
import pytest

from sympca import (
    DataError,
    NumericError,
    dual_transport,
    eigen_sym,
    standardize,
)


def _random_symmetric(rng, n):
    b = rng.normal(size=(n, n))
    return (b + b.T) / 2.0


class TestEigenSym:
    def test_identity(self):
        eig = eigen_sym(np.eye(2))
        assert np.allclose(eig.values, [1.0, 1.0])
        assert np.allclose(eig.vectors, np.eye(2))

    def test_classic_2x2(self):
        eig = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert eig.values == pytest.approx([3.0, 1.0], abs=1e-12)
        r = 1.0 / np.sqrt(2.0)
        # eigen_sym keeps LAPACK's signs; sympca.pca orients the components
        expected = np.array([[r, r], [r, -r]])  # columns (r, r) and (r, -r)
        cosines = np.abs(eig.vectors.T @ expected)
        assert np.allclose(cosines, np.eye(2), atol=1e-12)

    def test_oils_gram_trace(self, oils):
        z = standardize(oils).z
        eig = eigen_sym(z.T @ z)
        assert eig.values.sum() == pytest.approx(4.0, abs=1e-9)
        assert np.all(eig.values > 0)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50, 80])
    def test_invariants_random(self, n):
        rng = np.random.default_rng(n)
        a = _random_symmetric(rng, n)
        eig = eigen_sym(a)
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(n)).max() <= 1e-10
        for k in range(n):
            resid = np.abs(a @ eig.vectors[:, k] - eig.values[k] * eig.vectors[:, k]).max()
            assert resid <= 1e-9 * max(1.0, abs(eig.values[k]))
        assert np.all(np.diff(eig.values) <= 0)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)

    def test_keeps_lapack_signs(self):
        # The sign rule lives in sympca.pca; eigen_sym only sorts.
        a = _random_symmetric(np.random.default_rng(3), 9)
        assert np.array_equal(eigen_sym(a).vectors, np.linalg.eigh(a)[1][:, ::-1])

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(9)
        a = _random_symmetric(rng, 12)
        e1 = eigen_sym(a)
        e2 = eigen_sym(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_zero_matrix(self):
        eig = eigen_sym(np.zeros((3, 3)))
        assert np.all(eig.values == 0)
        assert eig.positive_count == 0

    def test_empty_matrix(self):
        eig = eigen_sym(np.zeros((0, 0)))
        assert eig.values.shape == (0,) and eig.vectors.shape == (0, 0)
        assert eig.positive_count == 0

    def test_positive_count_uses_relative_cutoff(self):
        eig = eigen_sym(np.diag([4.0, 1.0, 1e-13]))
        assert eig.positive_count == 2

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError, match="not symmetric"):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DataError, match="square"):
            eigen_sym(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError) as info:
            eigen_sym(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        assert str(info.value) == "matrix contains non-finite entries"


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (7, 2), (30, 12), (65, 65), (500, 40)])
def test_gram_products_are_exactly_symmetric(shape):
    # The PCA routes hand A·At to LAPACK without eigen_sym's symmetrisation.
    z = np.random.default_rng(3).normal(size=shape)
    for a in (z, z.T):
        gram = a @ a.T
        assert np.array_equal(gram, gram.T)


class TestDualityTransports:
    def test_identity_examples(self):
        z = np.diag([4.0, 1.0])
        v = np.eye(2)
        lam = np.array([16.0, 1.0])
        assert np.allclose(dual_transport(z, v, lam), np.eye(2))
        assert np.allclose(dual_transport(z.T, v, lam), np.eye(2))

    def test_transport_matches_independent_decomposition(self, oils):
        z = standardize(oils).z
        big = eigen_sym(z @ z.T)
        small = eigen_sym(z.T @ z)
        q = small.positive_count
        u = dual_transport(z, big.vectors[:, :q], big.values[:q])
        assert np.linalg.norm(u, axis=0) == pytest.approx(np.ones(q), abs=1e-9)
        # same directions up to sign as the directly solved eigenvectors
        cosines = np.sum(u * small.vectors[:, :q], axis=0)
        assert np.abs(np.abs(cosines) - 1.0).max() <= 1e-9

    def test_round_trip_recovers_v(self, oils):
        z = standardize(oils).z
        big = eigen_sym(z @ z.T)
        v = big.vectors[:, :4]
        lam = big.values[:4]
        back = dual_transport(z.T, dual_transport(z, v, lam), lam)
        assert np.abs(back - v).max() <= 1e-9

    def test_null_space_guarded(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError, match="rank-deficient"):
            dual_transport(z, np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(NumericError, match="rank-deficient"):
            dual_transport(z.T, np.eye(2)[:, 1:], np.array([1e-15]))

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            dual_transport(np.eye(3), np.eye(2), np.ones(2))

    @pytest.mark.parametrize("count", [1, 3])
    def test_eigenvalue_count_must_match_columns(self, count):
        # One lam would broadcast across both columns; three cannot broadcast.
        with pytest.raises(DataError, match=f"lam has length {count}, but "
                           "vectors has 2 columns"):
            dual_transport(np.eye(3), np.eye(3)[:, :2], np.ones(count))

    @pytest.mark.parametrize("z, vectors, lam, message", [
        # NaN passes lam <= 1e-12 and gave a NaN column; inf gave a zero one.
        (np.eye(2), np.eye(2), [np.nan, 1.0], "lam contains non-finite entries"),
        (np.eye(2), np.eye(2), [np.inf, 1.0], "lam contains non-finite entries"),
        (np.diag([np.inf, 1.0]), np.eye(2), [1.0, 1.0], "z contains non-finite entries"),
        (np.eye(2), np.diag([np.nan, 1.0]), [1.0, 1.0],
         "vectors contains non-finite entries"),
        (np.eye(2), [1.0, 0.0], [1.0], "vectors must be 2-D, got shape (2,)"),
        ([1.0, 0.0], np.eye(2), [1.0, 1.0], "z must be 2-D, got shape (2,)"),
    ], ids=["nan-lam", "inf-lam", "inf-z", "nan-vectors", "1d-vectors", "1d-z"])
    def test_bad_arguments_rejected(self, z, vectors, lam, message):
        with pytest.raises(DataError) as info:
            dual_transport(z, vectors, lam)
        assert str(info.value) == message

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (20, 20), (50, 50), (50, 12)])
    def test_spectrum_duality(self, shape):
        rng = np.random.default_rng(sum(shape))
        z = rng.normal(size=shape)
        big = eigen_sym(z @ z.T)
        small = eigen_sym(z.T @ z)
        q = min(big.positive_count, small.positive_count)
        lam_big = big.values[:q]
        lam_small = small.values[:q]
        assert np.abs(lam_big - lam_small).max() <= 1e-9 * max(1.0, lam_big[0])
