"""Exception types shared across the package, and the argument checks the
public entry points make with them: one for arrays, one for integers, one
for collections of names or labels."""

from numbers import Integral

import numpy as np


class DataError(ValueError):
    """Invalid or inconsistent input data: parse failures, bad labels,
    dimension mismatches, violated interval invariants."""


class NumericError(RuntimeError):
    """Numerical failure: eigensolver non-convergence, rank deficiency."""


def _finite_array(value, name: str, ndim: int | None = 2) -> np.ndarray:
    """``value`` as a float array, refused unless it has ``ndim`` dimensions
    (any number when None) and every entry is finite."""
    arr = np.asarray(value, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def _is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool: True is no index."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _collection(value, name: str, what: str = "column names"):
    """``value``, refused when it is one string, whose characters would
    otherwise be taken for the names or labels."""
    if isinstance(value, str):
        raise DataError(f"{name} must be a collection of {what}, not the string {value!r}")
    return value
