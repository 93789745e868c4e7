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

from .basis import TangentBasis, _tangent, coords, from_coords
from .errors import DimensionMismatch, NonPositiveValue, NotPositiveDefinite
from .geometry import GeometryContext, _item, _lift, _row_blocks, exp_map, log_map

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
    xi = log_map(ctx, np.atleast_2d(rows))
    if xi.shape[0] == 0:
        raise DimensionMismatch("the mean needs at least one row")
    return exp_map(ctx, xi.mean(axis=0))


def _centred_coords(ctx: GeometryContext, basis: TangentBasis, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis coordinates of the rows: their mean, deviations from it and covariance."""
    z = coords(ctx, basis, np.atleast_2d(rows))
    m = z.shape[0]
    if m < 2:
        raise DimensionMismatch("covariance needs at least two rows")
    centre = z.mean(axis=0)
    dev = z - centre
    cov = (dev.T @ dev) / (m - 1)
    return centre, dev, 0.5 * (cov + cov.T)


def sample_covariance(ctx: GeometryContext, basis: TangentBasis, rows) -> np.ndarray:
    """Unbiased covariance of the basis coordinates of the rows."""
    return _centred_coords(ctx, basis, rows)[2]


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
    n_coords = ctx.dim - 1
    if not 1 <= k <= n_coords:
        raise DimensionMismatch(f"k must be in 1..{n_coords}")
    centre, dev, cov = _centred_coords(ctx, basis, rows)
    vals, vecs = _eigh_descending(cov)
    directions = vecs[:, :k].T @ basis.vectors
    return PrincipalComponents(
        mean=from_coords(ctx, basis, centre),
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
    generator machinery.  A long draw is made in chunks of an even number of
    variates, whole Box-Muller pairs, so that the stream does not depend on
    where a chunk ends.
    """

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
        out = np.empty((pairs, 2))
        for s in _row_blocks(pairs, 2):
            u = self._uniforms(2 * (s.stop - s.start)).reshape(-1, 2)
            r = np.sqrt(-2.0 * np.log(u[:, 0]))
            ang = (2.0 * np.pi) * u[:, 1]
            out[s, 0] = r * np.cos(ang)
            out[s, 1] = r * np.sin(ang)
        return out.ravel()[:n]


@dataclass(frozen=True)
class SimplexGaussian:
    """Normal law on the simplex: coordinate mean, covariance and its Cholesky factor.

    ``whiten`` is the inverse of the Cholesky factor, lower triangular: it
    maps deviations from the mean to standard normal coordinates, so that a
    density is one product with it.
    ``log_det`` is the covariance's log-determinant and ``n_log_2pi`` is
    ``N * log(2 pi)``, the density's constant terms.
    """

    ctx: GeometryContext
    basis: TangentBasis
    mean_coords: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray
    whiten: np.ndarray
    log_det: float
    n_log_2pi: float


def make_gaussian(ctx: GeometryContext, basis: TangentBasis, mean_coords, covariance) -> SimplexGaussian:
    """Validate parameters, and factor and invert the covariance's Cholesky factor once."""
    n = ctx.dim - 1
    mu = np.asarray(mean_coords, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    if mu.shape != (n,) or cov.shape != (n, n):
        raise DimensionMismatch(f"expected mean ({n},) and covariance ({n}, {n})")
    if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
        raise NonPositiveValue("mean and covariance must be finite")
    if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():
        raise NotPositiveDefinite("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance must be positive definite") from exc
    # The float64 inverse is off by about eps * cond(chol) per entry, which
    # would leave whitening less accurate than a triangular solve.  One Newton
    # step with its residual in long double (extended precision on x86) brings
    # each entry to within about an ulp of the exact inverse.
    inv = np.tril(np.linalg.inv(chol)).astype(np.longdouble)
    whiten = np.tril(inv + inv @ (np.eye(n) - chol @ inv)).astype(float)
    return SimplexGaussian(ctx=ctx, basis=basis, mean_coords=mu, covariance=cov, chol=chol, whiten=whiten,
                           log_det=2.0 * np.sum(np.log(np.diag(chol))), n_log_2pi=n * np.log(2.0 * np.pi))


def gaussian_mean(g: SimplexGaussian) -> np.ndarray:
    """Expected value on the simplex: the composition at the mean coordinates."""
    return from_coords(g.ctx, g.basis, g.mean_coords)


def gaussian_sample(g: SimplexGaussian, rng: RandomSource, n: int) -> np.ndarray:
    """Draw ``n`` compositions; deterministic given the seed."""
    if n < 1:
        raise DimensionMismatch("need n >= 1 samples")
    n_coords = g.ctx.dim - 1
    # The normals are freed once transformed, the mean is added in place, and
    # y is freed once lifted through the basis; the lift closes in place.
    y = rng.normals(n * n_coords).reshape(n, n_coords) @ g.chol.T
    y += g.mean_coords
    xi = _tangent(g.ctx, g.basis, y)
    del y
    return _lift(g.ctx, xi, out=xi)


def gaussian_density(g: SimplexGaussian, lam):
    """Density with respect to the coordinate-chart volume.

    Equals the ordinary multivariate normal density evaluated at the
    coordinates of ``lam``.
    """
    # coords returns a new array, so the deviations are formed in place in
    # it; they are freed once whitened, and y is squared in place.
    dev = coords(g.ctx, g.basis, lam)
    dev -= g.mean_coords
    y = dev @ g.whiten.T
    del dev
    quad = np.sum(np.square(y, out=y), axis=-1)
    return _item(np.exp(-0.5 * (quad + g.n_log_2pi + g.log_det)))
