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
handled by a Newton solve in the log domain, each step clamped at the root
of the row's largest term.

All state lives in an immutable :class:`GeometryContext`; every operation is
a pure function.  Parts lie along the last axis: an operation accepts a
single vector or a row-matrix of vectors and acts row by row, and a scalar
result of a single vector is a Python ``float`` or ``bool``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import _pair, as_free, as_positive
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
# Largest accepted max(a) / min(a).  Beyond it the smallest weight is zero at
# float64 precision next to the largest, and the closure solve no longer
# reaches its residual target.
_MAX_WEIGHT_RATIO = 1e16
# Accepted weight magnitudes.  The closure exponent t is about -g0 / a, with
# |g0| <= 745 + log N for positive float64 data, and the solve forms products
# t * a and sums of weights; inside these bounds none of them overflows.
_MIN_WEIGHT, _MAX_WEIGHT = 1e-300, 1e300

# Largest accepted bound on |t| * max(1, max a) in the closure solve of
# power and exp_map input, whose logarithms are unbounded.  The solve forms
# t, t * a and sums and differences of such terms; below an eighth of
# float64's maximum none of them overflows.
_MAX_EXPONENT = np.finfo(float).max / 8

# Cells per block, for the wide-batch kernels here and for the CLI's CSV
# formatting.  Blocks are sized by cells, not rows, so that a block's
# temporaries stay small for wide tables as well as narrow ones.
_BLOCK_CELLS = 1 << 14

_COMPOSITION_SUM_TOL = 1e-9
_TANGENT_SUM_TOL = 1e-10
# Newton closure solve: residual target in g, relative step-stagnation floor
# in t, and iteration budget.
_F_TOL, _T_TOL, _MAX_ITER = 1e-13, 1e-14, 200

# Fewest rows of a batch whose row reductions ``_row_reduce`` folds one
# column at a time (``_by_columns``).
# Each column costs a numpy call of ~1.5 us.  At about this many rows of 3 to
# 7 parts, a row max and a row sum cost the same either way; above it the
# fold wins (2 vCPU VM, numpy 2.4.6).
_ROW_FOLD_MIN = 64


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
    fast_path : str
        One of "uniform", "quadratic", "general".
    """

    a: np.ndarray
    e_a: np.ndarray
    s: float
    dim: int
    fast_path: str = field(repr=False)


def _detect_fast_path(a: np.ndarray) -> str:
    # numpy's isclose test with atol 0, |x - y| <= rtol * |y|, against a[0] and 2 * a[0].
    lead, last = float(a[0]), float(a[-1])
    if not (np.abs(a[:-1] - lead) <= _PROP_RTOL * lead).all():
        return GENERAL
    if abs(last - lead) <= _PROP_RTOL * lead:
        return UNIFORM
    if abs(last - 2.0 * lead) <= _PROP_RTOL * (2.0 * lead):
        return QUADRATIC
    return GENERAL


def make_context(a) -> GeometryContext:
    """Validate a weight vector and build the geometry it generates.

    Mixed-sign or zero components are rejected (such classes miss the simplex
    or cross it more than once); an all-negative vector generates the same
    subgroup as its negation and is canonicalized to all-positive.  A vector
    whose largest-to-smallest ratio exceeds 1e16 is rejected too: its
    smallest component is zero at float64 precision.  So is a vector with a
    component below 1e-300 or above 1e300 in magnitude, where the closure
    solve would overflow float64.
    """
    arr = np.array(as_free(a))
    if arr.ndim != 1:
        raise DimensionMismatch(f"weight vector must be 1-d, got shape {arr.shape}")
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
    # in Python floats, whose quotient overflows to inf without a warning
    if float(arr.max()) / float(arr.min()) > _MAX_WEIGHT_RATIO:
        raise ZeroComponent(f"weight ratio max/min exceeds {_MAX_WEIGHT_RATIO:g}; the smallest weight is zero at float64 precision")

    fast_path = _detect_fast_path(arr)
    e = np.zeros(arr.size)
    _solve_logt(arr, e, fast_path)
    s = float(arr @ e)

    if not (abs(_row_reduce(np.add, e) - 1.0) <= 1e-12 and s > 0):
        raise NonConvergence("the closure of (1, ..., 1) missed the simplex")

    arr.setflags(write=False)
    e.setflags(write=False)
    return GeometryContext(a=arr, e_a=e, s=s, dim=arr.size, fast_path=fast_path)


# ---------------------------------------------------------------------------
# Validation helpers


def as_composition(lam) -> np.ndarray:
    """Validate interior simplex point(s): positive components summing to one.

    Sums may deviate from one by at most 1e-9 (round-tripped file data); the
    returned array is renormalized to machine precision.
    """
    out, off = _on_simplex(as_positive(lam))
    if off.any():
        raise NotOnSimplex("components must sum to 1 (within 1e-9)")
    return out


def _on_simplex(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` divided by their sums, and which sums (an infinite one too) miss 1 by more than 1e-9."""
    sums = _row_reduce(np.add, rows)
    if rows.ndim == 1:
        return rows / sums, np.bool_(abs(sums - 1.0) > _COMPOSITION_SUM_TOL)
    return rows / sums[:, None], np.abs(sums - 1.0) > _COMPOSITION_SUM_TOL


def as_tangent(xi) -> np.ndarray:
    """Validate tangent vector(s): components summing to zero.

    The tolerance is 1e-10, loosened in proportion to ``sum |x|`` where float
    summation error itself grows with the vector's magnitude.  A row whose
    ``sum |x|`` overflows float64 gets an infinite tolerance, and its own sum
    (inf, or nan for inf - inf) never exceeds it, so the row is accepted
    without a warning.
    """
    arr = as_free(xi)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.abs(_row_reduce(np.add, arr))
        # The tolerance is never below 1e-10, so only the rows beyond 1e-10
        # need their sum |x|; a nan sum exceeds nothing.
        big = sums > _TANGENT_SUM_TOL
        if big.any():
            mag = arr[big]
            tol = 64 * np.finfo(float).eps * _row_reduce(np.add, np.abs(mag, out=mag))
            if (sums[big] > tol).any():
                raise NotInTangentSpace("components must sum to 0 (within 1e-10)")
    return arr


def _check_dim(ctx: GeometryContext, arr: np.ndarray) -> None:
    if arr.shape[-1] != ctx.dim:
        raise DimensionMismatch(f"expected {ctx.dim} components, got {arr.shape[-1]}")


def _check_exponent(ctx: GeometryContext, mag: float, what: str) -> None:
    """Reject a closure whose solve would overflow float64.

    ``mag`` bounds max|logx| of the vectors to close, as a Python float (so
    that forming it cannot overflow with a warning).  The solve's exponent t
    lies within (mag + log N) / min a of zero.
    """
    bound = (mag + math.log(ctx.dim)) / min(ctx.a.tolist()) * max(1.0, *ctx.a.tolist())
    if not bound <= _MAX_EXPONENT:
        raise NumericalOverflow(f"{what} = {mag:.3g} is too large: the closure solve would overflow float64")


def _row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` that split a row-matrix into blocks of about ``_BLOCK_CELLS`` cells.

    A rest shorter than half a block joins the block before it, so that no
    block costs a round of numpy calls for a few rows.  Blocked kernels do
    only elementwise and row-wise arithmetic, whose bits do not depend on
    where a block ends; BLAS products stay whole-batch, because BLAS rounds
    a row differently as the batch around it is split (a small-matrix gemm
    kernel, the rows each thread of a gemv takes).
    """
    step = max(1, _BLOCK_CELLS // width)
    start = 0
    while start < rows:
        stop = start + step
        if 2 * (rows - stop) < step:
            stop = rows
        yield slice(start, stop)
        start = stop


def _by_columns(rows: np.ndarray) -> bool:
    """Whether ``_row_reduce`` folds ``rows`` one column at a time.

    That is a row-matrix of at least ``_ROW_FOLD_MIN`` rows and fewer than 8
    parts, whose short rows numpy reduces slowly.
    """
    return rows.ndim == 2 and len(rows) >= _ROW_FOLD_MIN and 0 < rows.shape[1] < 8


def _row_reduce(ufunc, rows: np.ndarray):
    """``ufunc.reduce(rows, axis=-1)`` for ``np.maximum`` or ``np.add``, with the same bits.

    This is the one row reduction over parts: the validation sums, norms,
    inner products, the density's sum of squares, ``equivalent``'s max and
    the closed forms' maxima and sums go through it.  numpy reduces short
    rows slowly: the row max of a 4000x5 array takes ~16x as long as folding
    its five columns together.  So a row-matrix of at least
    ``_ROW_FOLD_MIN`` rows and fewer than 8 columns is folded one column at
    a time, in index order.  A max is exact in any order, save that numpy's
    gives a positive NaN for a row led by a negative one.  Below 8 elements
    numpy sums a row as ``0.0 + x0 + x1 + ...`` in index order, so the fold
    starts from ``x0 + 0.0`` (a row of -0.0 sums to +0.0); from 8 on it sums
    pairwise, so wider rows and short batches keep numpy's reduction.

    The sum of a single vector of fewer than 8 parts is folded the same way
    in Python floats, whose arithmetic is numpy's IEEE binary64, and is a
    Python float: numpy's fixed cost per call is several times a 5-part
    fold's.  The fold itself warns of nothing.  A sum that is not finite, of
    a vector or of a folded batch, is numpy's again, with numpy's overflow
    and invalid-value warnings (``... encountered in reduce``, not ``in
    add``); a max, folded or not, warns of nothing, NaN parts included.  The
    Newton batch solve, and ``pairwise_distance`` below 8 parts, reduce their
    own parts-major arrays.
    """
    if ufunc is np.add and rows.ndim == 1 and 0 < rows.size < 8:
        out = 0.0
        for x in rows.tolist():
            out += x
        return out if math.isfinite(out) else ufunc.reduce(rows)
    if not _by_columns(rows):
        return ufunc.reduce(rows, axis=-1)
    out = rows[:, 0] + 0.0 if ufunc is np.add else rows[:, 0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, rows.shape[1]):
            ufunc(out, rows[:, j], out=out)
    return out if ufunc is np.maximum or np.isfinite(out).all() else ufunc.reduce(rows, axis=-1)


# ---------------------------------------------------------------------------
# Closure root solve.  The kernels act on the last axis: one vector, or a
# row-matrix row by row.


def _solve_logt(a: np.ndarray, logx: np.ndarray, fast_path: str) -> np.ndarray:
    """Row-wise exponent t with logsumexp(logx + a*t) = 0; the closed points go over ``logx``.

    ``logx`` is a buffer the caller owns: each of its rows is overwritten by
    its closed point ``softmax(logx + a*t)``.  General weights take the Newton
    solve.  The closed forms run in place, one ``_row_blocks`` block of rows
    at a time (a single vector is one row), with one ``exp`` per cell: each
    row is shifted so that its largest term is 1, and each block sums its
    rows' terms once, after the quadratic root has scaled the last part.
    The uniform t reads that sum (the quadratic t reads its root), and the
    terms divided by it are the closed point.  No exponential overflows, and
    the largest is exactly 1, so no row's sum is 0 or infinite.
    """
    if fast_path == GENERAL:
        return _newton_logt(a, logx)
    rows = logx.reshape(-1, logx.shape[-1])
    t = np.empty(len(rows))
    # The terms are x_i * z and x_last * z**p in z = e^(a0*t): p = 1, or 2 for the quadratic form.
    p = 1.0 if fast_path == UNIFORM else 2.0
    for s in _row_blocks(*rows.shape):
        x = rows[s]
        head, last = x[:, :-1], x[:, -1]
        # Written in z * e^m, the terms' coefficients are x_i * e^-m and
        # x_last * e^(-p*m); m makes the largest of them 1.
        m = np.maximum(_row_reduce(np.maximum, head), last / p)
        head -= m[:, None]
        last -= p * m
        np.exp(x, out=x)
        if fast_path != UNIFORM:
            s_head = _row_reduce(np.add, head)
            # Rationalized positive root z * e^m of  x_last*z**2 + S*z - 1 = 0 in the shifted terms;
            # stable when x_last is small, unlike (-S + sqrt(S**2 + 4*x_last)) / (2*x_last).
            z = 2.0 / (s_head + np.sqrt(s_head * s_head + 4.0 * last))
            last *= z
        sums = _row_reduce(np.add, x)
        t[s] = -(m + np.log(sums)) / a[0] if fast_path == UNIFORM else (np.log(z) - m) / a[0]
        x /= sums[:, None]
    return t.reshape(logx.shape[:-1])


def _newton_logt(a: np.ndarray, logx: np.ndarray) -> np.ndarray:
    """Newton on g(t) = logsumexp(logx + a*t), clamped at u, vectorized over rows.

    This is the closure solve of general weights.  It runs whole-batch,
    since its gemv slope rounds a row differently as the batch is split.
    g is smooth, convex and increasing, and g(t) >= logx_i + a_i*t for every
    i, so the root is never above u = -max(logx / a), the root of the largest
    single term.  Newton starts at t0 = min(0, u): a row with a part above 1
    starts at u, and any other row at t0 = 0 exactly.  Each step is clamped
    at u, t_new = min(t - g/g', u).  By convexity a step from below the root
    lands at or above it, and the clamp holds it at or below u; a step from
    above the root falls monotonically onto it.  So after the first step the
    iterates stay in [root, u] and never run off to where g is all rounding
    (large |t|, with g' near min a).  Only rows not yet converged are
    iterated.  The solve converges for every weight vector
    :func:`make_context` accepts (max a / min a at most ``_MAX_WEIGHT_RATIO``,
    each weight in [``_MIN_WEIGHT``, ``_MAX_WEIGHT``]) and every ``logx`` of
    positive float64 data (|logx| <= 745).  Far larger |logx| next to a weight
    near ``_MIN_WEIGHT`` would overflow t itself; :func:`power` and
    :func:`exp_map` reject such input beforehand.

    Each evaluation of g forms ``exp(w - max w)`` and its sum for
    ``w = logx + a*t``, so the evaluation that converges a row has already
    computed its closed point ``softmax(logx + a*t)``: that exponential
    divided by its sum.  When rows finish, their rows of the exponential are
    taken out by integer position and the rest of it is freed; only they
    are divided by their sums, and they are written over their rows of
    ``logx``, bit for bit what a separate softmax at the returned t gives.
    The unfinished rows are taken on by integer position too.

    The solve works on one parts-major ``(parts, rows)`` copy of the batch,
    so that each step is a numpy call along rows of the batch's length:
    numpy is slow on short rows.  Its row max and, below 8 parts, its row
    sum reduce over the parts, which sums in index order as numpy sums a
    short row.  From 8 parts numpy sums a row pairwise, so the sum runs
    over a row-major copy of the exponential, with numpy's row-sum bits.

    A single vector runs the same arithmetic in :func:`_newton_vector`, with
    its scalars as Python floats, so it gives the bits of its one-row batch.
    """
    if logx.ndim == 1:
        return _newton_vector(a, logx)

    def eval_g(lx, t):
        # One buffer: a*t, then + lx (the same sum as logx + a*t), then
        # exp(w - max w) in place; g goes over max w.
        w = np.multiply.outer(a, t)
        w += lx
        wm = np.maximum.reduce(w, axis=0)
        w -= wm
        np.exp(w, out=w)
        se = np.add.reduce(w, axis=0) if len(a) < 8 else np.add.reduce(w.T.copy(), axis=1)
        return w, se, np.add(wm, np.log(se), out=wm), (a @ w) / se

    a_max = float(a.max())
    lx = logx.T.copy()
    u = -np.maximum.reduce(lx / a[:, None], axis=0)
    # where, not minimum: a row whose largest log x is 0 starts at +0.0
    t = np.where(u < 0, u, 0.0)
    dt = np.inf
    t_out, rows = t.copy(), np.arange(t.size)
    for i in range(_MAX_ITER + 1):
        w, se, g, gp = eval_g(lx, t)
        # Residual target, or step stagnation at the float64 noise floor
        # (reachable only for inputs with huge log magnitudes).  The floor is
        # relative to |t| plus 1 / max a, one unit of the exponents a * t, so
        # that the test does not pass at once for large weights and tiny t.
        converged = (np.abs(g) <= _F_TOL) | (dt <= _T_TOL * (1.0 / a_max + np.abs(t)))
        # Finished rows leave the evaluation, which frees the rest of it,
        # before only they are divided by their sums and written out.  Rows
        # are taken by integer position: a 4000x5 take costs ~8 us, a
        # boolean mask ~46 us.
        hit = converged.nonzero()[0]
        w = w.take(hit, axis=1)
        done, se = rows[hit], se[hit]
        t_out[done] = t[hit]
        w /= se
        logx[done] = w.T
        if hit.size == t.size:
            return t_out
        if hit.size:
            keep = (~converged).nonzero()[0]
            lx = lx.take(keep, axis=1)
            rows, t, g, gp, u = (v.take(keep) for v in (rows, t, g, gp, u))
        # Free the finished rows and the positions before the next evaluation allocates.
        w = se = done = hit = keep = None
        if i == _MAX_ITER:
            raise NonConvergence(f"{t.size} row(s) did not converge in {_MAX_ITER} iterations")
        # minimum, like the vector's min, keeps a NaN step NaN
        t_new = np.minimum(t - g / gp, u)
        t, dt = t_new, np.abs(t_new - t)


def _newton_vector(a: np.ndarray, logx: np.ndarray) -> np.float64:
    """:func:`_newton_logt` for one vector ``logx``.

    numpy evaluates g over the parts with the batch's operations in the
    batch's order, and ``_row_reduce`` its sum with the batch's bits; the
    maxima are Python's ``max`` of the parts, and t, u, g, g' and the steps
    are Python floats, whose arithmetic is the same IEEE binary64 as
    numpy's.  A max is exact: tied parts differ at most in the sign of
    zero, which changes no w, g or step, and a NaN part means t is NaN,
    which ends in :class:`NonConvergence` either way.  ``np.log`` stays
    numpy's, which ``math.log`` may differ from in the last bit.  t is
    returned as a numpy scalar, which broadcasts like the batch's t.
    """
    a_max = max(a.tolist())
    u = -max((logx / a).tolist())
    t = u if u < 0 else 0.0
    dt = math.inf
    for i in range(_MAX_ITER + 1):
        w = a * t
        w += logx
        wm = max(w.tolist())
        w -= wm
        np.exp(w, out=w)
        se = _row_reduce(np.add, w)
        g = float(wm + np.log(se))
        if abs(g) <= _F_TOL or dt <= _T_TOL * (1.0 / a_max + abs(t)):
            np.divide(w, se, out=logx)
            return np.float64(t)
        if i == _MAX_ITER:
            raise NonConvergence(f"1 row(s) did not converge in {_MAX_ITER} iterations")
        # The step first: min returns its first argument when it is NaN.
        t_new = min(t - g / float((w @ a) / se), u)
        t, dt = t_new, abs(t_new - t)


def _closure_logx(ctx: GeometryContext, logx: np.ndarray) -> np.ndarray:
    """Closed point(s) of ``exp(logx)``, written over ``logx`` (a buffer the caller owns) and returned."""
    _solve_logt(ctx.a, logx, ctx.fast_path)
    return logx


def _item(v):
    """A 0-d result as a Python scalar; arrays and Python floats pass through."""
    return v if type(v) is float or np.ndim(v) else v.item()


# ---------------------------------------------------------------------------
# Public operations


def solve_t(ctx: GeometryContext, x):
    """Exponent t moving ``x`` along its equivalence class onto the simplex.

    Returns the unique solution of ``sum_i x_i * exp(a_i * t) = 1``.
    """
    xa = as_positive(x)
    _check_dim(ctx, xa)
    return _item(_solve_logt(ctx.a, np.log(xa), ctx.fast_path))


def closure(ctx: GeometryContext, x) -> np.ndarray:
    """Project positive vector(s) onto the simplex along their class."""
    xa = as_positive(x)
    _check_dim(ctx, xa)
    return _closure_logx(ctx, np.log(xa))


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

    The weighted sums come from one whole-batch product; the rest maps every
    input in place, a batch one ``_row_blocks`` block at a time.
    """
    arr = as_composition(lam)
    _check_dim(ctx, arr)
    # as_composition returns a new array, so its logarithm is taken in place.
    L = np.log(arr, out=arr)
    w, ae = (L @ ctx.e_a) / ctx.s, ctx.a * ctx.e_a
    if L.ndim == 1:
        return np.subtract(ctx.e_a * L, w * ae, out=L)
    for s in _row_blocks(*L.shape):
        np.subtract(ctx.e_a * L[s], w[s, None] * ae, out=L[s])
    return L


def exp_map(ctx: GeometryContext, xi) -> np.ndarray:
    """Inverse of :func:`log_map`: zero-sum tangent vectors to compositions.

    Lifts ``xi`` through the section ``v = xi / e_a`` (chosen so that the
    closure derivative maps v back to xi exactly) and closes its
    componentwise exponential.  For uniform weights this is
    ``softmax((N+1) * xi)``.

    The lift needs every part of ``e_a`` to be nonzero.  Weights far apart
    (such as ``(1e-4, 1, 1e4)``) can give a neutral element with a part that
    is zero at float64 precision; then :class:`ZeroComponent` names that part.
    A lift so large that the closure solve would overflow float64, with
    ``max|xi / e_a|`` beyond about 1e307 for weights near 1 (less for weights
    far apart or far below 1), raises :class:`NumericalOverflow`.
    """
    return _lift(ctx, xi)


def _lift(ctx: GeometryContext, xi, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`exp_map`, with the lift ``xi / e_a`` written to ``out`` and closed there.

    Without ``out`` the lift is a new array; a caller that owns ``xi`` (a
    new float64 array) passes it as ``out`` too, and it is closed in place.
    """
    arr = as_tangent(xi)
    _check_dim(ctx, arr)
    if not ctx.e_a.all():
        part = int(np.argmin(ctx.e_a)) + 1
        raise ZeroComponent(f"part {part} of the neutral element is zero at float64 precision; exp_map cannot lift through it")
    # max|xi / e_a| from per-part maxima, in Python floats so that forming it
    # cannot overflow with a warning; a part's max|xi| is the larger of its
    # max and minus its min, with no array of |xi|
    flat = arr.reshape(-1, ctx.dim)
    part_max = np.maximum(flat.max(axis=0, initial=0.0), -flat.min(axis=0, initial=0.0))
    _check_exponent(ctx, max(m / e for m, e in zip(part_max.tolist(), ctx.e_a.tolist())), "max|xi / e_a|")
    return _closure_logx(ctx, np.divide(arr, ctx.e_a, out=out))


def perturb(ctx: GeometryContext, lam, mu) -> np.ndarray:
    """Group operation of the simplex: closure of the componentwise product."""
    # as_composition returns new arrays, so the logarithms are taken in place
    # and summed into the operand that holds every row, which sorts first.
    logx, other = sorted(_pair(as_composition(lam), as_composition(mu)), key=np.ndim, reverse=True)
    _check_dim(ctx, logx)
    np.log(logx, out=logx)
    logx += np.log(other, out=other)
    del other  # freed before the closure allocates
    return _closure_logx(ctx, logx)


def power(ctx: GeometryContext, c: float, lam) -> np.ndarray:
    """Scalar multiplication: closure of componentwise c-th powers.

    Raises :class:`NonPositiveValue` when ``c`` is nan or infinite, and
    :class:`NumericalOverflow` when ``|c| * max|log lam|`` is so large that
    the closure solve would overflow float64: beyond about 1e307 for weights
    near 1, less for weights far apart or far below 1.
    """
    if not math.isfinite(c):
        raise NonPositiveValue(f"scalar c must be finite, got {c}")
    la = as_composition(lam)
    _check_dim(ctx, la)
    # as_composition returns a new array, so its logarithm is taken in place.
    logx = np.log(la, out=la)
    # Parts are at most 1, so max|log lam| is -min(log lam).
    _check_exponent(ctx, abs(float(c)) * -float(logx.min(initial=0.0)), "|c| * max|log lam|")
    logx *= c
    return _closure_logx(ctx, logx)


def invert(ctx: GeometryContext, lam) -> np.ndarray:
    """Group inverse: the composition with reciprocal component ratios."""
    return power(ctx, -1.0, lam)


def inner(ctx: GeometryContext, lam, mu):
    """Inner product: Euclidean dot product of the two log-map images."""
    xi, eta = _pair(log_map(ctx, lam), log_map(ctx, mu))
    return _item(_row_reduce(np.add, xi * eta))


def norm(ctx: GeometryContext, lam):
    """Norm induced by :func:`inner`."""
    return _norm(log_map(ctx, lam))


def distance(ctx: GeometryContext, lam, mu):
    """Translation-invariant distance: Euclidean distance of log-map images."""
    xi, eta = _pair(log_map(ctx, lam), log_map(ctx, mu))
    return _norm(xi - eta)


def _norm(v: np.ndarray):
    """``np.linalg.norm(v, axis=-1)``, ``sqrt(sum(v * v))``, with its bits; a vector's as a Python float."""
    sq = _row_reduce(np.add, v * v)
    return math.sqrt(sq) if v.ndim == 1 else np.sqrt(sq)


def pairwise_distance(ctx: GeometryContext, rows) -> np.ndarray:
    """Full m-by-m distance matrix of a row-matrix of compositions.

    The matrix is exactly symmetric with an exactly zero diagonal: the
    distances of a pair in either order have the same bits.
    """
    xi = log_map(ctx, rows).reshape(-1, ctx.dim)
    m = xi.shape[0]
    out = np.zeros((m, m))
    # Direct differencing; the Gram-matrix shortcut loses ~1e-8 of absolute
    # accuracy to cancellation near the diagonal.  xi[j] - xi[i] is bitwise
    # -(xi[i] - xi[j]), so both orders give the same norm, np.linalg.norm's
    # along axis 1: sqrt(sum(d * d)), summed in index order below 8 parts.
    if ctx.dim < 8:
        # Full rows, one _row_blocks block and one part at a time: a few numpy
        # calls per block instead of per row.
        cols = xi.T.copy()
        for s in _row_blocks(m, max(m, 1)):
            sq = out[s]
            for c in cols:
                d = c[s, None] - c
                sq += np.multiply(d, d, out=d)
            np.sqrt(sq, out=sq)
        return out
    # From 8 parts numpy sums pairwise: each pair's distance is computed once
    # by _norm, for the strict upper triangle, and mirrored.
    for i in range(m - 1):
        out[i, i + 1:] = out[i + 1:, i] = _norm(xi[i + 1:] - xi[i])
    return out


def equivalent(ctx: GeometryContext, v, w, tol: float = 1e-10):
    """Whether two positive vectors lie in the same scale-equivalence class.

    True when their closures agree componentwise within ``tol``.
    """
    cv, cw = _pair(closure(ctx, v), closure(ctx, w))
    return _item(_row_reduce(np.maximum, np.abs(cv - cw)) <= tol)
