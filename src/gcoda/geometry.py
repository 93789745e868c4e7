"""Weighted quotient geometry of the open probability simplex.

A strictly positive weight vector ``a`` declares two positive vectors
equivalent when one can be reached from the other by the componentwise
scaling ``x_i -> x_i * exp(a_i * t)`` for some real ``t``.  Each equivalence
class crosses the open simplex exactly once, so sliding a vector along its
class until the components sum to one ("closure") projects the orthant onto
the simplex.  The projection transports the orthant's group law onto the
simplex and, together with the induced logarithm/exponential pair, turns the
simplex into a real inner-product vector space with a translation-invariant
distance.

For ``a`` proportional to ``(1, ..., 1)`` this is the classical
compositional-data toolbox: closure is division by the sum, the group law is
perturbation, the logarithm is the centred log-ratio up to the factor
``1/(N+1)``, its inverse is the softmax, and the distance is the Aitchison
distance scaled by the same factor.  ``a`` proportional to ``(1, ..., 1, 2)``
(last component quadratic, e.g. an area among lengths) admits a closed-form
closure through a quadratic equation.  Any other positive weight vector is
handled by a safeguarded Newton solve in the log domain.

All state lives in an immutable :class:`GeometryContext`; every operation is
a pure function and accepts a single vector or a row-matrix of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambient import as_free, as_positive
from .errors import (
    DimensionMismatch,
    MixedSignParameter,
    NonConvergence,
    NonPositiveValue,
    NotInTangentSpace,
    NotOnSimplex,
    NumericalOverflow,
    WeightOutOfRange,
    ZeroComponent,
)

__all__ = [
    "SolverSettings",
    "GeometryContext",
    "make_context",
    "as_composition",
    "as_tangent",
    "solve_t",
    "closure",
    "neutral_to_param",
    "closure_jacobian",
    "log_map",
    "exp_map",
    "perturb",
    "invert",
    "power",
    "inner",
    "norm",
    "distance",
    "pairwise_distance",
    "equivalent",
]

# Fast-path tags.  Proportionality is detected at context construction with
# relative tolerance 1e-12; the closed forms double as independent oracles
# for the general solver in the test-suite.
UNIFORM = "uniform"
QUADRATIC = "quadratic"
GENERAL = "general"

_PROP_RTOL = 1e-12
# Above this log-magnitude the quadratic closed form would overflow in the
# linear domain (S_N**2); fall back to the log-sum-exp Newton path.
_QUAD_SAFE_LOG = 300.0
# Largest accepted max(a) / min(a).  Beyond it the smallest weight is zero at
# float64 precision next to the largest, and the closure solve no longer
# reaches its residual target.
_MAX_WEIGHT_RATIO = 1e16
# Accepted weight magnitudes.  The closure exponent t is about -g0 / a, with
# |g0| <= 745 + log N for positive float64 data, and the solve forms products
# t * a and sums of weights; inside these bounds none of them overflows.
_MIN_WEIGHT, _MAX_WEIGHT = 1e-300, 1e300

_COMPOSITION_SUM_TOL = 1e-9
_TANGENT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances for the closure root solve."""

    f_tol: float = 1e-13
    t_tol: float = 1e-14
    max_iter: int = 200

    def __post_init__(self):
        if not (self.f_tol > 0 and self.t_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class GeometryContext:
    """Immutable handle for one simplex geometry.

    Attributes
    ----------
    a : ndarray
        Canonical weight vector, all components positive.
    e_a : ndarray
        Neutral element of the simplex group: the closure of (1, ..., 1).
    s : float
        Normalizer ``sum_k a_k * e_a_k`` appearing in the log map.
    dim : int
        Number of components N+1.
    solver : SolverSettings
        Root-solve tolerances used by every closure in this geometry.
    fast_path : str
        One of "uniform", "quadratic", "general".
    """

    a: np.ndarray
    e_a: np.ndarray
    s: float
    dim: int
    solver: SolverSettings
    fast_path: str = field(repr=False)


def _detect_fast_path(a: np.ndarray) -> str:
    lead = a[0]
    if np.allclose(a, lead, rtol=_PROP_RTOL, atol=0.0):
        return UNIFORM
    head, last = a[:-1], a[-1]
    if np.allclose(head, lead, rtol=_PROP_RTOL, atol=0.0) and np.isclose(
        last, 2.0 * lead, rtol=_PROP_RTOL, atol=0.0
    ):
        return QUADRATIC
    return GENERAL


def make_context(a, solver: SolverSettings | None = None) -> GeometryContext:
    """Validate a weight vector and build the geometry it generates.

    Mixed-sign or zero components are rejected (such classes miss the simplex
    or cross it more than once); an all-negative vector generates the same
    subgroup as its negation and is canonicalized to all-positive.  A vector
    whose largest-to-smallest ratio exceeds 1e16 is rejected too: its
    smallest component is zero at float64 precision.  So is a vector with a
    component below 1e-300 or above 1e300 in magnitude, where the closure
    solve would overflow float64.
    """
    arr = np.array(a, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionMismatch(f"weight vector must be 1-d with >= 2 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonPositiveValue("weight components must be finite")
    if (arr == 0).any():
        raise ZeroComponent("weight vector must not contain zeros")
    if (arr > 0).any() and (arr < 0).any():
        raise MixedSignParameter("weight vector must not mix signs")
    if (arr < 0).all():
        arr = -arr
    if arr.min() < _MIN_WEIGHT or arr.max() > _MAX_WEIGHT:
        raise WeightOutOfRange(
            f"weight magnitudes must lie in [{_MIN_WEIGHT:g}, {_MAX_WEIGHT:g}], got {arr.min():g} to {arr.max():g}"
        )
    if arr.max() / arr.min() > _MAX_WEIGHT_RATIO:
        raise ZeroComponent(f"weight ratio max/min exceeds {_MAX_WEIGHT_RATIO:g}; the smallest weight is zero at float64 precision")
    if solver is None:
        solver = SolverSettings()

    fast_path = _detect_fast_path(arr)
    t1 = _solve_logt(arr, np.zeros((1, arr.size)), solver, fast_path)[0]
    e = _softmax_rows(np.outer([t1], arr))[0]
    s = float(arr @ e)

    if not (abs(e.sum() - 1.0) <= 1e-12 and s > 0):
        raise NonConvergence("the closure of (1, ..., 1) missed the simplex")

    arr.setflags(write=False)
    e.setflags(write=False)
    return GeometryContext(a=arr, e_a=e, s=s, dim=arr.size, solver=solver, fast_path=fast_path)


# ---------------------------------------------------------------------------
# Validation helpers


def as_composition(lam) -> np.ndarray:
    """Validate interior simplex point(s): positive components summing to one.

    Sums may deviate from one by at most 1e-9 (round-tripped file data); the
    returned array is renormalized to machine precision.
    """
    arr = as_positive(lam)
    sums = arr.sum(axis=-1, keepdims=True)
    if np.max(np.abs(sums - 1.0)) > _COMPOSITION_SUM_TOL:
        raise NotOnSimplex("components must sum to 1 (within 1e-9)")
    return arr / sums


def as_tangent(xi) -> np.ndarray:
    """Validate tangent vector(s): components summing to zero."""
    arr = as_free(xi)
    sums = np.abs(arr.sum(axis=-1))
    # Absolute 1e-10 contract at unit scale, loosened only where float
    # summation error itself grows with the vector magnitude.
    scale = np.abs(arr).sum(axis=-1)
    tol = np.maximum(_TANGENT_SUM_TOL, 64 * np.finfo(float).eps * scale)
    if (sums > tol).any():
        raise NotInTangentSpace("components must sum to 0 (within 1e-10)")
    return arr


def _check_dim(ctx: GeometryContext, arr: np.ndarray) -> None:
    if arr.shape[-1] != ctx.dim:
        raise DimensionMismatch(f"expected {ctx.dim} components, got {arr.shape[-1]}")


# ---------------------------------------------------------------------------
# Closure root solve


def _lse_rows(w: np.ndarray) -> np.ndarray:
    m = w.max(axis=1)
    return m + np.log(np.exp(w - m[:, None]).sum(axis=1))


def _softmax_rows(w: np.ndarray) -> np.ndarray:
    e = np.exp(w - w.max(axis=1)[:, None])
    return e / e.sum(axis=1)[:, None]


def _solve_logt(a: np.ndarray, logx: np.ndarray, settings: SolverSettings, fast_path: str) -> np.ndarray:
    """Row-wise exponent t with logsumexp(logx + a*t) = 0."""
    if fast_path == UNIFORM:
        return -_lse_rows(logx) / a[0]
    if fast_path == QUADRATIC and logx.max() <= _QUAD_SAFE_LOG:
        x = np.exp(logx)
        s_head = x[:, :-1].sum(axis=1)
        # Rationalized positive root of  x_last*y**2 + S*y - 1 = 0, y = e^(ct);
        # stable when x_last is small, unlike (-S + sqrt(S**2 + 4*x_last)) / (2*x_last).
        y = 2.0 / (s_head + np.sqrt(s_head * s_head + 4.0 * x[:, -1]))
        return np.log(y) / a[0]
    return _newton_logt(a, logx, settings)


def _newton_logt(a: np.ndarray, logx: np.ndarray, st: SolverSettings) -> np.ndarray:
    """Safeguarded Newton on g(t) = logsumexp(logx + a*t), vectorized over rows.

    g is smooth, convex and increasing with slope g' in [min a, max a], so from
    g0 = g(0) the root lies between -g0/min a and -g0/max a.  Newton steps that
    leave this shrinking bracket fall back to bisection.  The solve converges
    for every weight vector :func:`make_context` accepts (max a / min a at most
    ``_MAX_WEIGHT_RATIO``, each weight in [``_MIN_WEIGHT``, ``_MAX_WEIGHT``])
    and every ``logx`` of positive float64 data (|logx| <= 745).  Far larger
    |logx| next to a weight near ``_MIN_WEIGHT`` would overflow t itself.
    """
    def eval_g(t):
        w = logx + t[:, None] * a[None, :]
        wm = w.max(axis=1)
        e = np.exp(w - wm[:, None])
        se = e.sum(axis=1)
        return wm + np.log(se), (e @ a) / se

    a_min, a_max = float(a.min()), float(a.max())
    g0, _ = eval_g(np.zeros(logx.shape[0]))
    # Widen g0 by far more than its rounding error, so that a root on an end
    # of the bracket (one part dominating the row) lies strictly inside it.
    d = 1e-12 * (1.0 + np.abs(g0))
    lo = np.minimum(-(g0 + d) / a_min, -(g0 + d) / a_max)
    hi = np.maximum(-(g0 - d) / a_min, -(g0 - d) / a_max)
    t = -g0 / float(a.mean())
    g, gp = eval_g(t)
    lo = np.where(g <= 0, t, lo)
    hi = np.where(g >= 0, t, hi)

    converged = np.abs(g) <= st.f_tol
    for _ in range(st.max_iter):
        if converged.all():
            break
        t_new = t - g / gp
        outside = ~np.isfinite(t_new) | (t_new <= lo) | (t_new >= hi)
        t_new = np.where(outside, 0.5 * (lo + hi), t_new)
        t_new = np.where(converged, t, t_new)
        dt = np.abs(t_new - t)
        t = t_new
        g, gp = eval_g(t)
        below = g < 0
        lo = np.where(~converged & below, t, lo)
        hi = np.where(~converged & ~below, t, hi)
        # Residual target, or step stagnation at the float64 noise floor
        # (reachable only for inputs with huge log magnitudes).  The floor is
        # relative to |t| plus 1 / max a, one unit of the exponents a * t, so
        # that the test does not pass at once for large weights and tiny t.
        converged |= np.abs(g) <= st.f_tol
        converged |= dt <= st.t_tol * (1.0 / a_max + np.abs(t))
    if not converged.all():
        raise NonConvergence(f"{int((~converged).sum())} row(s) did not converge in {st.max_iter} iterations")
    return t


def _closure_logx(ctx: GeometryContext, logx: np.ndarray) -> np.ndarray:
    t = _solve_logt(ctx.a, logx, ctx.solver, ctx.fast_path)
    return _softmax_rows(logx + t[:, None] * ctx.a[None, :])


# ---------------------------------------------------------------------------
# Public operations


def solve_t(ctx: GeometryContext, x):
    """Exponent t moving ``x`` along its equivalence class onto the simplex.

    Returns the unique solution of ``sum_i x_i * exp(a_i * t) = 1``.
    """
    xa = as_positive(x)
    _check_dim(ctx, xa)
    t = _solve_logt(ctx.a, np.atleast_2d(np.log(xa)), ctx.solver, ctx.fast_path)
    return float(t[0]) if xa.ndim == 1 else t


def closure(ctx: GeometryContext, x) -> np.ndarray:
    """Project positive vector(s) onto the simplex along their class."""
    xa = as_positive(x)
    _check_dim(ctx, xa)
    out = _closure_logx(ctx, np.atleast_2d(np.log(xa)))
    return out[0] if xa.ndim == 1 else out


def neutral_to_param(lam) -> np.ndarray:
    """Weight vector whose geometry has ``lam`` as neutral element.

    Inverse problem of :func:`make_context`: the componentwise negative
    logarithm of an interior simplex point is an all-positive weight vector,
    and the geometry it generates has exactly that point as neutral element.
    :func:`make_context` accepts it while ``log(min lam) / log(max lam)`` is
    at most 1e16; that fails only when the largest part lies within about
    ``1e-16 * |log(min lam)|`` of 1.
    """
    arr = as_composition(lam)
    return -np.log(arr)


def closure_jacobian(ctx: GeometryContext) -> np.ndarray:
    """Derivative of the closure map at the ambient identity (1, ..., 1).

    Entry (i, j) is ``delta_ij * e_i - (a_i / s) * e_i * e_j``.  Its image is
    the zero-sum tangent space and its kernel is the class direction ``a``.
    """
    e, a = ctx.e_a, ctx.a
    return np.diag(e) - np.outer(e * a / ctx.s, e)


def log_map(ctx: GeometryContext, lam) -> np.ndarray:
    """Logarithm of the simplex group: compositions to zero-sum tangent vectors.

    Component i is ``e_i * (ln lam_i - (a_i / s) * sum_j e_j * ln lam_j)``.
    For uniform weights this is the centred log-ratio divided by N+1.
    """
    arr = as_composition(lam)
    _check_dim(ctx, arr)
    L = np.log(np.atleast_2d(arr))
    w = L @ ctx.e_a
    xi = ctx.e_a * L - np.outer(w / ctx.s, ctx.a * ctx.e_a)
    return xi[0] if arr.ndim == 1 else xi


def exp_map(ctx: GeometryContext, xi) -> np.ndarray:
    """Inverse of :func:`log_map`: zero-sum tangent vectors to compositions.

    Lifts ``xi`` through the section ``v = xi / e_a`` (chosen so that the
    closure derivative maps v back to xi exactly) and closes its
    componentwise exponential.  For uniform weights this is
    ``softmax((N+1) * xi)``.
    """
    arr = as_tangent(xi)
    _check_dim(ctx, arr)
    v = np.atleast_2d(arr) / ctx.e_a
    out = _closure_logx(ctx, v)
    return out[0] if arr.ndim == 1 else out


def perturb(ctx: GeometryContext, lam, mu) -> np.ndarray:
    """Group operation of the simplex: closure of the componentwise product."""
    la, mu_ = as_composition(lam), as_composition(mu)
    _check_dim(ctx, la)
    _check_dim(ctx, mu_)
    logx = np.atleast_2d(np.log(la) + np.log(mu_))
    out = _closure_logx(ctx, logx)
    return out[0] if max(la.ndim, mu_.ndim) == 1 else out


def power(ctx: GeometryContext, c: float, lam) -> np.ndarray:
    """Scalar multiplication: closure of componentwise c-th powers."""
    la = as_composition(lam)
    _check_dim(ctx, la)
    logx = np.atleast_2d(c * np.log(la))
    if not np.isfinite(logx).all():
        raise NumericalOverflow("scalar multiple overflowed the log domain")
    out = _closure_logx(ctx, logx)
    return out[0] if la.ndim == 1 else out


def invert(ctx: GeometryContext, lam) -> np.ndarray:
    """Group inverse: the composition with reciprocal component ratios."""
    return power(ctx, -1.0, lam)


def inner(ctx: GeometryContext, lam, mu):
    """Inner product: Euclidean dot product of the two log-map images."""
    xi, eta = log_map(ctx, lam), log_map(ctx, mu)
    return float(xi @ eta) if xi.ndim == 1 and eta.ndim == 1 else np.sum(np.atleast_2d(xi) * np.atleast_2d(eta), axis=1)


def norm(ctx: GeometryContext, lam):
    """Norm induced by :func:`inner`."""
    xi = log_map(ctx, lam)
    return float(np.linalg.norm(xi)) if xi.ndim == 1 else np.linalg.norm(xi, axis=1)


def distance(ctx: GeometryContext, lam, mu):
    """Translation-invariant distance: Euclidean distance of log-map images."""
    xi, eta = log_map(ctx, lam), log_map(ctx, mu)
    diff = np.atleast_2d(xi) - np.atleast_2d(eta)
    d = np.linalg.norm(diff, axis=1)
    return float(d[0]) if xi.ndim == 1 and eta.ndim == 1 else d


def pairwise_distance(ctx: GeometryContext, rows) -> np.ndarray:
    """Full m-by-m distance matrix of a row-matrix of compositions."""
    xi = np.atleast_2d(log_map(ctx, rows))
    m = xi.shape[0]
    out = np.zeros((m, m))
    # Direct differencing row by row; the Gram-matrix shortcut loses ~1e-8
    # of absolute accuracy to cancellation near the diagonal.
    for i in range(m):
        out[i] = np.linalg.norm(xi - xi[i], axis=1)
        out[i, i] = 0.0
    return out


def equivalent(ctx: GeometryContext, v, w, tol: float = 1e-10):
    """Whether two positive vectors lie in the same scale-equivalence class.

    True when their closures agree componentwise within ``tol``.
    """
    cv = np.atleast_2d(closure(ctx, v))
    cw = np.atleast_2d(closure(ctx, w))
    if cv.shape != cw.shape:
        raise DimensionMismatch("operands must have matching shapes")
    same = np.max(np.abs(cv - cw), axis=1) <= tol
    return bool(same[0]) if np.asarray(v).ndim == 1 and np.asarray(w).ndim == 1 else same
