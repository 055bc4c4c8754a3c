"""Symmetric eigensolver and the duality transport between eigenvector families.

For a data matrix Z, the products Z·Zt (m x m) and Zt·Z (n x n) share their
positive eigenvalues; eigenvectors V of Z·Zt map to the matching eigenvectors
U = Zt·V / sqrt(lam) of Zt·Z through ``dual_transport``, and passing Zt maps
U back to V = Z·U / sqrt(lam). Whichever product is smaller can therefore be
decomposed, with the other family recovered by one matrix product.

``eigen_sym`` calls LAPACK (``numpy.linalg.eigh``) at every size. Eigenpairs
are returned sorted by descending eigenvalue, each eigenvector with the sign
LAPACK gives it: an eigenvector has no intrinsic sign, and ``sympca.pca``
orients each principal component once, by its variable-side vector U.
Repeat runs on the same machine and BLAS build are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, _finite_array

__all__ = [
    "EigenDecomposition",
    "eigen_sym",
    "dual_transport",
    "DEFAULT_RANK_TOL",
]

# An eigenvalue counts as strictly positive when above this fraction
# of the largest eigenvalue.
DEFAULT_RANK_TOL = 1e-10

# Eigenvalues at or below this are null-space directions the transport
# cannot cross.
_NULL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition with values descending and orthonormal
    column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def positive_count(self) -> int:
        """Number of eigenvalues above ``DEFAULT_RANK_TOL`` times the largest."""
        if self.values.size == 0 or self.values[0] <= 0:
            return 0
        return int(np.sum(self.values > DEFAULT_RANK_TOL * self.values[0]))


def eigen_sym(a: np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition of a square symmetric matrix.

    Values come sorted descending, vectors with LAPACK's signs. Asymmetry
    above 1e-12 relative to the largest entry is a DataError; a LAPACK
    failure is a NumericError.
    """
    mat = _finite_array(a, "matrix")
    if mat.shape[0] != mat.shape[1]:
        raise DataError(f"matrix must be square, got shape {mat.shape}")
    scale = float(np.abs(mat).max()) if mat.size else 0.0
    asym = float(np.abs(mat - mat.T).max()) if mat.size else 0.0
    if asym > 1e-12 * scale:
        raise DataError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds 1e-12 relative"
        )
    return _eigh_descending((mat + mat.T) / 2.0)


def _eigh_descending(mat: np.ndarray) -> EigenDecomposition:
    """LAPACK ``eigh`` of a finite, exactly symmetric float matrix, with the
    eigenpairs sorted by descending eigenvalue; a failure is a NumericError."""
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values[order], vectors[:, order])


def dual_transport(z: np.ndarray, vectors: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Map eigenvectors of Z·Zt (columns of ``vectors``, eigenvalues ``lam``)
    to the matching eigenvectors Zt·vectors / sqrt(lam) of Zt·Z.

    Pass ``z.T`` to map eigenvectors of Zt·Z back to Z·Zt. The columns come
    out unit-length (within roundoff) whenever each (lam_k, vectors[:, k])
    is a true eigenpair with lam_k > 0. A lam_k at or below 1e-12 means the
    direction lies in the null space, which the transport cannot cross: a
    NumericError. ``z`` or ``vectors`` not 2-D, shapes that do not match, or
    a non-finite entry are a DataError.
    """
    z = _finite_array(z, "z")
    vectors = _finite_array(vectors, "vectors")
    lam = _finite_array(lam, "lam", ndim=None)
    if vectors.shape[0] != z.shape[0]:
        raise DataError(
            f"vector length {vectors.shape[0]} does not match row count {z.shape[0]}"
        )
    if lam.shape != (vectors.shape[1],):
        raise DataError(
            f"lam has length {lam.size}, but vectors has {vectors.shape[1]} columns"
        )
    if np.any(lam <= _NULL_TOL):
        raise NumericError(
            f"eigenvalue {float(lam.min())!r} is at or below tolerance "
            f"{_NULL_TOL!r}: rank-deficient direction"
        )
    return _transport(z, vectors, np.sqrt(lam))


def _transport(z: np.ndarray, vectors: np.ndarray, root_lam: np.ndarray) -> np.ndarray:
    """Zt·vectors / root_lam: the product of ``dual_transport``, unchecked."""
    return z.T @ vectors / root_lam
