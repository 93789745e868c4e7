"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own code paths: closures
by plain normalization, log-ratio transforms written directly, the quadratic
closure exponent as an explicit formula, PCA through numpy.linalg.eigh, and
a 50-digit closure, log map, exp map, power, perturbation and Gaussian
quadratic form in the standard library's ``decimal``.
"""

import decimal

import numpy as np


def normalize(x):
    """Uniform-weight closure: divide by the sum."""
    x = np.asarray(x, dtype=float)
    return x / x.sum(axis=-1, keepdims=True)


def clr(lam):
    L = np.log(np.asarray(lam, dtype=float))
    return L - L.mean(axis=-1, keepdims=True)


def softmax(v):
    v = np.asarray(v, dtype=float)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def uniform_distance(lam, mu):
    """Classical log-ratio distance scaled by 1/(N+1) (uniform weights)."""
    r = np.log(np.asarray(lam, dtype=float) / np.asarray(mu, dtype=float))
    r = r - r.mean(axis=-1, keepdims=True)
    return np.sqrt((r * r).sum(axis=-1)) / r.shape[-1]


def ilr_projection_matrix(dim):
    """Column-built ilr contrast matrix (independent construction path)."""
    P = np.zeros((dim, dim - 1))
    for it in range(dim - 1):
        i = it + 1
        P[:i, it] = 1.0 / i
        P[i, it] = -1.0
        P[:, it] *= np.sqrt(i / (i + 1.0))
    return P


def ilr(lam):
    return clr(lam) @ ilr_projection_matrix(np.asarray(lam).shape[-1])


def quadratic_exponent(a0, x):
    """Closed-form closure exponent for weights a0*(1,...,1,2), rationalized root."""
    x = np.asarray(x, dtype=float)
    S = x[..., :-1].sum(axis=-1)
    y = 2.0 / (S + np.sqrt(S * S + 4.0 * x[..., -1]))
    return np.log(y) / a0


def decimal_closure(a, x, digits=50, log=False):
    """Closure of one positive vector ``x`` under weights ``a``, as ``digits``-digit Decimals.

    Newton on g(t) = ln sum_i x_i e^(a_i t), which is convex and increasing:
    from t = 0 the first step lands at or above the root, and the iterates
    then fall onto it.  Every float input is taken exactly; with ``log``,
    ``x`` holds the logarithms of the vector, as floats or as Decimals.
    """
    with decimal.localcontext() as dc:
        dc.prec = digits
        # Terms far from the root overflow decimal's default exponent range:
        # weights 1e8 apart put a_i * t near 5e9 at spread 50.
        dc.Emax, dc.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        a = [decimal.Decimal(float(v)) for v in a]
        logx = [_exact(v) if log else decimal.Decimal(float(v)).ln() for v in x]
        tol = decimal.Decimal(10) ** (10 - digits)
        t = decimal.Decimal(0)
        for _ in range(200):
            terms = [(lx + w * t).exp() for lx, w in zip(logx, a)]
            total = sum(terms)
            step = total.ln() * total / sum(w * e for w, e in zip(a, terms))
            t -= step
            if abs(step) <= tol * (1 + abs(t)):
                terms = [(lx + w * t).exp() for lx, w in zip(logx, a)]
                total = sum(terms)
                return [e / total for e in terms]
        raise ArithmeticError("decimal closure did not converge")


def _exact(v):
    """``v`` as a Decimal: a Decimal as it is, anything else as its float64 value."""
    return v if isinstance(v, decimal.Decimal) else decimal.Decimal(float(v))


def decimal_exp_map(a, xi, digits=50):
    """Exp map of one tangent vector ``xi`` under weights ``a``, as ``digits``-digit Decimals.

    The closure of the lift ``xi_i / e_i``, with the neutral element ``e``
    the ``digits``-digit closure of the ones vector; every float input is
    taken exactly.
    """
    e = decimal_closure(a, np.ones(len(a)), digits)
    with decimal.localcontext() as dc:
        dc.prec = digits
        lift = [_exact(v) / ei for v, ei in zip(xi, e)]
    return decimal_closure(a, lift, digits, log=True)


def decimal_power(a, c, lam, digits=50):
    """``c`` times one composition ``lam`` under weights ``a``: the closure of ``c * ln lam_i``.

    Every float input is taken exactly.  The closure does not depend on the
    scale of ``lam``, so ``lam`` need not sum to 1.
    """
    with decimal.localcontext() as dc:
        dc.prec = digits
        logs = [_exact(c) * _exact(v).ln() for v in lam]
    return decimal_closure(a, logs, digits, log=True)


def decimal_perturb(a, lam, mu, digits=50):
    """``lam`` perturbed by ``mu`` under weights ``a``: the closure of ``ln lam_i + ln mu_i``.

    Every float input is taken exactly, and neither vector need sum to 1.
    """
    with decimal.localcontext() as dc:
        dc.prec = digits
        logs = [_exact(u).ln() + _exact(v).ln() for u, v in zip(lam, mu)]
    return decimal_closure(a, logs, digits, log=True)


def decimal_log_map(a, lam, digits=50):
    """Log map of one composition ``lam`` under weights ``a``, as ``digits``-digit Decimals.

    ``xi_i = e_i * (ln lam_i - (a_i / s) * sum_j e_j * ln lam_j)``, with the
    neutral element ``e`` the ``digits``-digit closure of the ones vector and
    ``s = sum_i a_i * e_i``.  Every float input is taken exactly, and ``lam``
    is divided by its exact sum first: the map is not invariant to scale, and
    a float composition sums to 1 only within rounding.
    """
    e = decimal_closure(a, np.ones(len(a)), digits)
    with decimal.localcontext() as dc:
        dc.prec = digits
        a = [decimal.Decimal(float(v)) for v in a]
        s = sum(w * ei for w, ei in zip(a, e))
        lam = [decimal.Decimal(float(v)) for v in lam]
        total = sum(lam)
        logs = [(v / total).ln() for v in lam]
        mean = sum(ei * lv for ei, lv in zip(e, logs)) / s
        return [ei * (lv - w * mean) for ei, lv, w in zip(e, logs, a)]


def decimal_quadratic_form(chol, dev, digits=50):
    """``|L^-1 d|^2`` for each row d of ``dev``, as ``digits``-digit Decimals.

    Forward substitution on the lower-triangular float64 factor ``chol``;
    every float input is taken exactly.
    """
    with decimal.localcontext() as dc:
        dc.prec = digits
        L = [[decimal.Decimal(float(v)) for v in row[: i + 1]] for i, row in enumerate(chol)]
        quads = []
        for d in dev:
            y = []
            for i, Li in enumerate(L):
                acc = decimal.Decimal(float(d[i])) - sum(l * v for l, v in zip(Li, y))
                y.append(acc / Li[i])
            quads.append(sum(v * v for v in y))
    return quads


def weighted_distance(e, a, s, lam, mu):
    """Explicit weighted distance formula, written out literally."""
    r = np.log(np.atleast_2d(lam) / np.atleast_2d(mu))
    w = r @ e
    dev = r - np.outer(w / s, a)
    d = np.sqrt(((e * dev) ** 2).sum(axis=-1))
    return d[0] if np.asarray(lam).ndim == 1 and np.asarray(mu).ndim == 1 else d


def euclidean_pca(z, k):
    """PCA of coordinate rows via numpy.linalg.eigh; returns (vals, vecs, residual)."""
    z = np.asarray(z, dtype=float)
    zc = z - z.mean(axis=0)
    cov = zc.T @ zc / (z.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    proj = zc @ vecs[:, :k]
    residual = float(((zc - proj @ vecs[:, :k].T) ** 2).sum())
    return vals[:k], vecs[:, :k], residual


def normal_density(z, mu, cov):
    """Plain multivariate normal density at coordinate vector(s) z."""
    z = np.atleast_2d(z)
    dev = z - np.asarray(mu, dtype=float)
    inv = np.linalg.inv(cov)
    quad = np.einsum("ij,jk,ik->i", dev, inv, dev)
    n = dev.shape[1]
    dens = np.exp(-0.5 * quad) / np.sqrt((2.0 * np.pi) ** n * np.linalg.det(cov))
    return dens[0] if np.asarray(z).ndim == 1 else dens


# ---------------------------------------------------------------------------
# Random data helpers (seeded numpy generators, test-side only)


def random_compositions(rng, m, dim):
    return normalize(rng.uniform(0.05, 1.0, size=(m, dim)))


def random_weights(rng, dim):
    return rng.uniform(0.3, 3.0, size=dim)
