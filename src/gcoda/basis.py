"""Orthonormal tangent bases and the coordinate chart of the simplex.

The tangent space of the simplex group is the zero-sum hyperplane with the
Euclidean inner product; it is the same hyperplane for every weight vector,
so one Helmert-type basis serves all geometries.  Pairing it with a
geometry's log/exp maps yields a linear isometric chart from the simplex to
N-dimensional coordinates, used by the statistics and the Gaussian law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import GeometryContext, _lift, log_map

__all__ = ["TangentBasis", "helmert_basis", "coords", "from_coords"]


@dataclass(frozen=True)
class TangentBasis:
    """N orthonormal zero-sum vectors, rows of ``vectors`` (shape (N, N+1))."""

    vectors: np.ndarray
    dim: int


def helmert_basis(dim: int) -> TangentBasis:
    """Standard orthonormal basis of the zero-sum hyperplane in ``dim`` parts.

    Row k is (1, ..., 1, -k, 0, ..., 0) / sqrt(k*(k+1)) with k leading ones.
    The construction is deterministic, fixing coordinate, component-analysis
    and simulation sign conventions.
    """
    if dim < 2:
        raise DimensionMismatch("need at least 2 components")
    rows = np.zeros((dim - 1, dim))
    for k in range(1, dim):
        rows[k - 1, :k] = 1.0
        rows[k - 1, k] = -float(k)
        rows[k - 1] /= np.sqrt(k * (k + 1.0))
    rows.setflags(write=False)
    return TangentBasis(vectors=rows, dim=dim)


def coords(ctx: GeometryContext, basis: TangentBasis, lam) -> np.ndarray:
    """Basis coordinates of composition(s): projections of the log-map image."""
    if basis.dim != ctx.dim:
        raise DimensionMismatch("basis dimension does not match the geometry")
    return log_map(ctx, lam) @ basis.vectors.T


def from_coords(ctx: GeometryContext, basis: TangentBasis, z) -> np.ndarray:
    """Composition(s) with the given basis coordinates; inverse of :func:`coords`."""
    xi = _tangent(ctx, basis, z)
    # The basis product is a new array, so it is lifted and closed in place.
    return _lift(ctx, xi, out=xi)


def _tangent(ctx: GeometryContext, basis: TangentBasis, z) -> np.ndarray:
    """Tangent vector(s) with basis coordinates ``z``, as a new array."""
    if basis.dim != ctx.dim:
        raise DimensionMismatch("basis dimension does not match the geometry")
    za = np.asarray(z, dtype=float)
    if za.shape[-1] != basis.dim - 1:
        raise DimensionMismatch(f"expected {basis.dim - 1} coordinates, got {za.shape[-1]}")
    return za @ basis.vectors
