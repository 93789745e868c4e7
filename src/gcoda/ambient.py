"""Componentwise group and vector-space operations on strictly positive vectors.

The open positive orthant under componentwise multiplication is an Abelian
group with neutral element (1, ..., 1); componentwise powers extend it to a
real vector space, and the componentwise exp/log pair identifies it with
ordinary coordinate space.  Every function accepts either a single vector or
a row-matrix of vectors and returns the matching shape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonPositiveValue, NumericalOverflow

__all__ = ["as_positive", "as_free", "oplus", "odot", "amb_exp", "amb_log"]


def as_free(v) -> np.ndarray:
    """Validate ``v`` as an unconstrained coordinate vector (or row-matrix)."""
    arr = np.asarray(v, dtype=float)
    if _short_above(arr, -math.inf):
        return arr
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise DimensionMismatch(f"expected a vector of >= 2 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonPositiveValue("components must be finite")
    return arr


def as_positive(x) -> np.ndarray:
    """Validate ``x`` as one strictly positive vector or a row-matrix of them."""
    arr = np.asarray(x, dtype=float)
    if not _short_above(arr, 0.0) and not (as_free(arr) > 0).all():
        raise NonPositiveValue("components must be strictly positive")
    return arr


def _short_above(arr: np.ndarray, floor: float) -> bool:
    """Whether ``arr`` is one vector of 2 to 7 finite parts, each above ``floor``, tested in Python floats.

    On so short a vector each of numpy's checks costs several times this
    test.  It only accepts: any array it does not accept goes through the
    numpy checks, which raise their errors in their order.
    """
    if arr.ndim != 1 or not 1 < arr.size < 8:
        return False
    parts = arr.tolist()
    return all(map(math.isfinite, parts)) and min(parts) > floor


def _pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operands that pair up: equal widths, and equal shapes or one vector against every row."""
    if u.shape[-1] != v.shape[-1]:
        raise DimensionMismatch(f"component counts differ: {u.shape[-1]} vs {v.shape[-1]}")
    if u.ndim == v.ndim and u.shape != v.shape:
        raise DimensionMismatch(f"operands must have matching shapes, got {u.shape} and {v.shape}")
    return u, v


def oplus(x, y) -> np.ndarray:
    """Componentwise product, the group operation of the positive orthant."""
    xa, ya = _pair(as_positive(x), as_positive(y))
    return xa * ya


def odot(c: float, x) -> np.ndarray:
    """Scalar multiplication: raise every component to the power ``c``."""
    xa = as_positive(x)
    out = np.exp(c * np.log(xa))
    if not np.isfinite(out).all():
        raise NumericalOverflow("componentwise power overflowed")
    return out


def amb_exp(v) -> np.ndarray:
    """Componentwise exponential, mapping coordinates onto the positive orthant."""
    va = as_free(v)
    with np.errstate(over="ignore"):
        out = np.exp(va)
    if not np.isfinite(out).all():
        raise NumericalOverflow("componentwise exponential overflowed")
    return out


def amb_log(x) -> np.ndarray:
    """Componentwise natural logarithm, inverse of :func:`amb_exp`."""
    return np.log(as_positive(x))
