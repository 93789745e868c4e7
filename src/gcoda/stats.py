"""Statistics on the simplex: means, covariance, principal components, Gaussian law.

Everything reduces to ordinary multivariate statistics in the isometric
coordinate chart: the intrinsic mean is the chart image of the coordinate
average, principal geodesics are eigenvectors of the coordinate covariance,
and the normal law on the simplex is the push-forward of a multivariate
normal on coordinates.  Functions take datasets as (m, N+1) row-matrices of
compositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TangentBasis, coords, from_coords
from .errors import DimensionMismatch, NotPositiveDefinite
from .geometry import GeometryContext, as_composition, exp_map, log_map

__all__ = [
    "frechet_mean",
    "sample_covariance",
    "PrincipalComponents",
    "pca",
    "pc_line",
    "RandomSource",
    "SimplexGaussian",
    "make_gaussian",
    "gaussian_mean",
    "gaussian_sample",
    "gaussian_density",
]


def frechet_mean(ctx: GeometryContext, rows) -> np.ndarray:
    """Minimizer of the sum of squared distances to the rows.

    Because the log map is a linear isometry onto Euclidean coordinates, the
    minimizer is unique and equals the exp of the arithmetic mean of the
    log-map images (the group-operation sample mean).
    """
    arr = np.atleast_2d(as_composition(rows))
    return exp_map(ctx, log_map(ctx, arr).mean(axis=0))


def sample_covariance(ctx: GeometryContext, basis: TangentBasis, rows) -> np.ndarray:
    """Unbiased covariance of the basis coordinates of the rows."""
    z = np.atleast_2d(coords(ctx, basis, rows))
    m = z.shape[0]
    if m < 2:
        raise DimensionMismatch("covariance needs at least two rows")
    dev = z - z.mean(axis=0)
    cov = (dev.T @ dev) / (m - 1)
    return 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# Principal component analysis


@dataclass(frozen=True)
class PrincipalComponents:
    """Intrinsic PCA result.

    mean: the group sample mean (a composition); directions: k orthonormal
    zero-sum tangent vectors, rows; variances: matching descending
    eigenvalues; scores: (m, k) coordinates of the centred data on the
    directions.
    """

    mean: np.ndarray
    directions: np.ndarray
    variances: np.ndarray
    scores: np.ndarray


def _eigh_descending(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix for reproducible PCA output.

    Returns (eigenvalues descending, eigenvectors as columns) with each
    eigenvector's first significant entry made positive.
    """
    vals, vecs = np.linalg.eigh(sym)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    signs = np.where(vecs[first, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return vals, vecs * signs


def pca(ctx: GeometryContext, basis: TangentBasis, rows, k: int) -> PrincipalComponents:
    """Principal geodesic analysis of a dataset of compositions.

    Equivalent to Euclidean PCA of the basis coordinates: the best-fitting
    geodesic through the group mean minimizes the summed squared intrinsic
    distances exactly when its tangent direction is a top eigenvector of the
    coordinate covariance.
    """
    arr = np.atleast_2d(as_composition(rows))
    n_coords = ctx.dim - 1
    if not 1 <= k <= n_coords:
        raise DimensionMismatch(f"k must be in 1..{n_coords}")
    cov = sample_covariance(ctx, basis, arr)
    vals, vecs = _eigh_descending(cov)
    mean_log = log_map(ctx, arr).mean(axis=0)
    z = np.atleast_2d(coords(ctx, basis, arr))
    dev = z - mean_log @ basis.vectors.T
    directions = vecs[:, :k].T @ basis.vectors
    return PrincipalComponents(
        mean=exp_map(ctx, mean_log),
        directions=directions,
        variances=np.maximum(vals[:k], 0.0),
        scores=dev @ vecs[:, :k],
    )


def pc_line(ctx: GeometryContext, pc: PrincipalComponents, component: int, ts) -> np.ndarray:
    """Sample a principal geodesic at the given parameters (0-based component)."""
    if not 0 <= component < pc.directions.shape[0]:
        raise DimensionMismatch(f"component must be in 0..{pc.directions.shape[0] - 1}")
    tarr = np.atleast_1d(np.asarray(ts, dtype=float))
    base = log_map(ctx, pc.mean)
    return exp_map(ctx, base + tarr[:, None] * pc.directions[component])


# ---------------------------------------------------------------------------
# Normal law on the simplex

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class RandomSource:
    """Deterministic stream of standard normal variates.

    Counter-based splitmix64 feeding a Box-Muller transform: the same seed
    yields the same stream on every platform, independent of numpy's own
    generator machinery.
    """

    algorithm = "splitmix64/box-muller"

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._position = 0  # uniforms consumed so far

    def _uniforms(self, n: int) -> np.ndarray:
        idx = np.arange(self._position + 1, self._position + n + 1, dtype=np.uint64)
        self._position += n
        z = np.uint64(self.seed) + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z ^= z >> np.uint64(31)
        # 53 high bits, shifted into (0, 1] so the Box-Muller log is safe.
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)

    def normals(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self._uniforms(2 * pairs).reshape(pairs, 2)
        r = np.sqrt(-2.0 * np.log(u[:, 0]))
        ang = (2.0 * np.pi) * u[:, 1]
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]


@dataclass(frozen=True)
class SimplexGaussian:
    """Normal law on the simplex: coordinate mean, covariance and its Cholesky factor."""

    ctx: GeometryContext
    basis: TangentBasis
    mean_coords: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray


def make_gaussian(ctx: GeometryContext, basis: TangentBasis, mean_coords, covariance) -> SimplexGaussian:
    """Validate parameters and prefactor the covariance."""
    n = ctx.dim - 1
    mu = np.asarray(mean_coords, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    if mu.shape != (n,) or cov.shape != (n, n):
        raise DimensionMismatch(f"expected mean ({n},) and covariance ({n}, {n})")
    scale = max(np.abs(cov).max(), 1.0)
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise NotPositiveDefinite("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance must be positive definite") from exc
    return SimplexGaussian(ctx=ctx, basis=basis, mean_coords=mu, covariance=cov, chol=chol)


def gaussian_mean(g: SimplexGaussian) -> np.ndarray:
    """Expected value on the simplex: the composition at the mean coordinates."""
    return from_coords(g.ctx, g.basis, g.mean_coords)


def gaussian_sample(g: SimplexGaussian, rng: RandomSource, n: int) -> np.ndarray:
    """Draw ``n`` compositions; deterministic given the seed."""
    if n < 1:
        raise DimensionMismatch("need n >= 1 samples")
    n_coords = g.ctx.dim - 1
    z = rng.normals(n * n_coords).reshape(n, n_coords)
    return from_coords(g.ctx, g.basis, g.mean_coords + z @ g.chol.T)


def gaussian_density(g: SimplexGaussian, lam):
    """Density with respect to the coordinate-chart volume.

    Equals the ordinary multivariate normal density evaluated at the
    coordinates of ``lam``.
    """
    z = np.atleast_2d(coords(g.ctx, g.basis, lam))
    n = g.ctx.dim - 1
    dev = z - g.mean_coords
    y = np.linalg.solve(g.chol, dev.T)
    quad = np.sum(y * y, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(g.chol)))
    dens = np.exp(-0.5 * (quad + n * np.log(2.0 * np.pi) + log_det))
    return float(dens[0]) if np.asarray(lam).ndim == 1 else dens
