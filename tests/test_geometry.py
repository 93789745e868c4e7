import decimal
import itertools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gcoda as g
from gcoda import geometry
from gcoda.geometry import _newton_logt
from _oracles import (
    clr,
    decimal_closure,
    decimal_exp_map,
    decimal_log_map,
    decimal_perturb,
    decimal_power,
    normalize,
    quadratic_exponent,
    random_compositions,
    random_weights,
    softmax,
    uniform_distance,
    weighted_distance,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def ctx1():
    return g.make_context([1, 1, 1])


@pytest.fixture(scope="module")
def ctx112():
    return g.make_context([1, 1, 2])


@pytest.fixture(scope="module")
def ctx_gen():
    return g.make_context([0.7, 1.3, 2.2, 0.9])


# ---------------------------------------------------------------------------
# Context construction


def test_neutral_uniform(ctx1):
    np.testing.assert_allclose(ctx1.e_a, np.ones(3) / 3, atol=1e-15)


def test_neutral_quadratic(ctx112):
    np.testing.assert_allclose(ctx112.e_a, [SQRT2 - 1, SQRT2 - 1, (SQRT2 - 1) ** 2], atol=1e-14)


def test_mixed_sign_rejected():
    with pytest.raises(g.MixedSignParameter):
        g.make_context([1, -1, 1])


def test_zero_component_rejected():
    with pytest.raises(g.ZeroComponent):
        g.make_context([1, 0, 1])


def test_all_negative_canonicalized():
    ctx = g.make_context([-1, -1, -2])
    np.testing.assert_allclose(ctx.a, [1, 1, 2])
    np.testing.assert_allclose(ctx.e_a, g.make_context([1, 1, 2]).e_a, atol=1e-14)


def test_short_parameter_rejected():
    with pytest.raises(g.DimensionMismatch):
        g.make_context([2.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_rejected(bad):
    with pytest.raises(g.NonPositiveValue, match="finite"):
        g.make_context([1.0, bad, 2.0])


def test_fast_path_matches_isclose_near_the_tolerance():
    # weights within 2e-12 relative of (1, ..., 1) and (1, ..., 1, 2), on
    # both sides of the 1e-12 tolerance: the tags follow np.isclose's test
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        lead = float(np.exp(rng.uniform(-50.0, 50.0)))
        a = np.full(n, lead)
        a[1:-1] *= 1.0 + rng.uniform(-2e-12, 2e-12, n - 2) * rng.integers(0, 2)
        a[-1] = lead * rng.choice([1.0, 2.0]) * (1.0 + rng.uniform(-2e-12, 2e-12))
        head = np.isclose(a[:-1], lead, rtol=1e-12, atol=0.0).all()
        if head and np.isclose(a[-1], lead, rtol=1e-12, atol=0.0):
            want = "uniform"
        elif head and np.isclose(a[-1], 2.0 * lead, rtol=1e-12, atol=0.0):
            want = "quadratic"
        else:
            want = "general"
        assert g.make_context(a).fast_path == want, a.tolist()


@pytest.mark.parametrize("op", [
    lambda ctx, v: g.closure(ctx, v),
    lambda ctx, v: g.log_map(ctx, v),
    lambda ctx, v: g.perturb(ctx, v, v),
    lambda ctx, v: g.solve_t(ctx, v),
], ids=["closure", "log_map", "perturb", "solve_t"])
def test_operand_width_must_match_the_geometry(op):
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    with pytest.raises(g.DimensionMismatch, match="expected 5 components, got 3"):
        op(ctx, np.array([0.2, 0.3, 0.5]))


def test_weight_ratio_above_bound_rejected():
    with pytest.raises(g.ZeroComponent, match="ratio"):
        g.make_context([1e-150, 1.0, 1e150])
    with pytest.raises(g.ZeroComponent, match="ratio"):
        g.make_context([1.0, 2e16])


def test_weight_ratio_past_float64_rejected_without_a_warning():
    # max / min of weights 1e-300 and 1e300 overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ZeroComponent, match="ratio"):
            g.make_context([1e-300, 1.0, 1e300])


def test_weight_magnitude_out_of_range_rejected():
    for a in ([1e-301, 1.0], [1e-320, 2e-320], [1.0, 1e301], [1e308, 1.5e308], [-1e-306, -2e-306]):
        with pytest.raises(g.WeightOutOfRange, match="magnitudes"):
            g.make_context(a)
    # the bounds themselves are accepted
    assert g.make_context([1e-300, 2e-300]).fast_path == "quadratic"
    assert g.make_context([1e299, 1e300]).dim == 2


def test_context_invariants(ctx_gen):
    assert abs(ctx_gen.e_a.sum() - 1.0) <= 1e-12
    assert (ctx_gen.e_a > 0).all() and ctx_gen.s > 0
    assert np.abs(g.log_map(ctx_gen, ctx_gen.e_a)).max() <= 1e-12


# ---------------------------------------------------------------------------
# Closure exponent and closure


def test_solve_t_uniform(ctx1):
    assert g.solve_t(ctx1, [2, 3, 5]) == pytest.approx(-np.log(10.0), abs=1e-14)


def test_solve_t_quadratic_neutral(ctx112):
    assert g.solve_t(ctx112, [1, 1, 1]) == pytest.approx(np.log(SQRT2 - 1), abs=1e-14)


def test_solve_t_zero_on_simplex(ctx_gen):
    rng = np.random.default_rng(2)
    lam = random_compositions(rng, 50, 4)
    assert np.abs(g.solve_t(ctx_gen, lam)).max() < 1e-12


def test_closure_uniform_is_normalization(ctx1):
    np.testing.assert_allclose(g.closure(ctx1, [2, 3, 5]), [0.2, 0.3, 0.5], atol=1e-15)


def test_closure_fixes_simplex(ctx_gen):
    rng = np.random.default_rng(3)
    lam = random_compositions(rng, 100, 4)
    assert np.abs(g.closure(ctx_gen, lam) - lam).max() < 1e-13


def test_closure_of_ones_is_neutral(ctx112):
    np.testing.assert_allclose(g.closure(ctx112, [1, 1, 1]), ctx112.e_a, atol=1e-15)


def test_closure_idempotent(ctx_gen):
    rng = np.random.default_rng(4)
    x = np.exp(rng.uniform(-8, 8, size=(200, 4)))
    once = g.closure(ctx_gen, x)
    assert np.abs(g.closure(ctx_gen, once) - once).max() < 1e-12


def test_closure_class_invariance(ctx_gen):
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(-5, 5, size=(100, 4)))
    t = rng.uniform(-10, 10, size=(100, 1))
    shifted = x * np.exp(t * ctx_gen.a)
    assert np.abs(g.closure(ctx_gen, shifted) - g.closure(ctx_gen, x)).max() < 1e-11


def test_closure_robust_to_extreme_magnitudes():
    ctx = g.make_context([1, 3])
    for x in ([1e-300, 1e300], [1e300, 1e-300], [1e-300, 1e-300], [1e300, 1e300]):
        out = g.closure(ctx, x)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) <= 1e-12


def test_closure_residual_across_weight_ratios_and_spreads():
    # the last ratio, weights (1e-8, 1, 1e8), is exactly the accepted bound;
    # each ratio is also taken at the accepted magnitude bounds, with the
    # smallest weight at 1e-300 or the largest at 1e300
    rng = np.random.default_rng(72)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in (1e2, 1e4, 1e8, 1e12, 1e16):
            weights = (
                [ratio**-0.5, 1.0, ratio**0.5],
                1e-300 * np.array([1.0, ratio**0.5, ratio]),
                1e300 * np.array([1.0 / ratio, ratio**-0.5, 1.0]),
            )
            contexts = [g.make_context(a) for a in weights]
            for spread in (5, 50, 300, 700):
                logx = rng.uniform(-spread, spread, size=(2000, 3))
                for ctx in contexts:
                    t = g.solve_t(ctx, np.exp(logx))
                    w = logx + t[:, None] * ctx.a
                    wm = w.max(axis=1)
                    resid = wm + np.log(np.exp(w - wm[:, None]).sum(axis=1))
                    assert np.abs(resid).max() <= 1e-11, (ratio, ctx.a.min(), spread)


def test_closure_iterations_over_the_accepted_domain(monkeypatch):
    # A fixed grid over what make_context and the closure accept: weight
    # ratios up to 1e16, with the weights about 1, from 1e-300 or up to
    # 1e300; cells of log x from -745 to 709, so rows with every log x <= 0
    # and rows with parts above 1; and, through power and exp_map, lifts
    # within 0.1% of the largest that _check_exponent admits.  The worst
    # case measured is 30 iterations (closures at ratio 1e16); 2 more allow
    # for another BLAS's rounding.
    monkeypatch.setattr(geometry, "_MAX_ITER", 32)
    cells = (-745.0, -300.0, -40.0, -3.0, -0.1, 0.0, 0.1, 3.0, 40.0, 300.0, 709.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in (1.5, 1e2, 1e4, 1e8, 1e12, 1e16):
            for base in (ratio ** np.array([0, 0.5, 1]), ratio ** np.array([0, 0.1, 0.5, 0.7, 1])):
                for a in (base / math.sqrt(ratio), 1e-300 * base, base / ratio * 1e300):
                    ctx = g.make_context(a)
                    n = ctx.dim
                    if n == 3:
                        logx = np.array(list(itertools.product(cells, repeat=3)))
                    else:
                        logx = np.random.default_rng(0).choice(cells, size=(2000, n))
                    lam = g.closure(ctx, np.exp(logx))
                    lam = lam[(lam > 0).all(axis=1)]
                    # the largest max|log x| of a lift that _check_exponent admits
                    mag = 0.999 * (geometry._MAX_EXPONENT / max(1.0, ctx.a.max()) * ctx.a.min() - math.log(n))
                    c = mag / -np.log(lam).min()
                    closed = [g.power(ctx, c, lam), g.power(ctx, -c, lam)]
                    if ctx.e_a.all():
                        xi = g.log_map(ctx, lam)
                        xi[:, -1] = -xi[:, :-1].sum(axis=1)
                        closed.append(g.exp_map(ctx, xi * (mag / np.abs(xi / ctx.e_a).max())))
                    for out in closed:
                        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12, (a, c)


# (weights, spread of log x, row-scaled budget, per-part budget).  Each budget
# is the worst case measured on the test's data, rounded up to a whole ULP.
# A change may tighten a budget; it never loosens one.
ACCURACY_BUDGETS = [
    ((1, 1, 1, 1, 1), 5, 2, 14),
    ((1, 1, 1, 1, 1), 300, 2, 542),
    ((1, 1, 1, 1, 2), 5, 3, 17),
    ((1, 1, 1, 1, 2), 300, 2, 542),
    ((1, 1, 1, 1, 2), 700, 2, 456),
    ((1, 2, 3, 5, 10), 5, 21, 1899),
    ((0.5, 1, 1.5, 2, 3), 5, 114, 1622),
    ((0.5, 1, 1.5, 2, 3), 50, 9, 645),
    ((0.5, 1, 1.5, 2, 3), 300, 9, 972),
    # weights 1e8 apart: the start and the clamp u sit far from t = 0
    ((1e-4, 1, 10, 100, 1e4), 50, 3, 3474),
    ((1e-3, 1, 1e3), 5, 559, 9489),
    ((1e-3, 1, 1e3), 50, 18, 710),
    ((1e-3, 1, 1e3), 300, 7, 240),
    ((1, 2, 3), 5, 173, 1002),
    ((1, 2, 3), 50, 5, 202),
    ((1, 2, 3), 300, 2, 1775),
    ((1e-8, 1, 1e8), 5, 375, 2041),
    ((1e-8, 1, 1e8), 50, 30, 712),
    ((1e-8, 1, 1e8), 300, 4, 273),
    # the quadratic weights out of order take the Newton solve
    ((2, 1, 1, 1, 1), 5, 14, 344),
    ((2, 1, 1, 1, 1), 50, 3, 557),
    ((2, 1, 1, 1, 1), 300, 2, 788),
    # from 8 parts numpy sums a row pairwise
    (np.linspace(0.5, 3, 9), 5, 98, 1542),
    (np.linspace(0.5, 3, 9), 50, 10, 1293),
    (np.linspace(0.5, 3, 20), 5, 169, 2071),
    (np.linspace(0.5, 3, 20), 50, 13, 1838),
]


@pytest.mark.parametrize("a, spread, row_budget, part_budget", ACCURACY_BUDGETS)
def test_closure_accuracy_against_a_decimal_reference(a, spread, row_budget, part_budget):
    # 100 rows of len(a) parts, log x uniform in [-spread, spread], against a
    # 50-digit closure.  Errors are in ULP of the row's largest part and of
    # each part; the large per-part errors are in small parts, whose
    # condition number is about a_i * |t|.  Each row is closed in the batch
    # and alone, through the single-vector solve, within the same budgets.
    ctx = g.make_context(a)
    x = np.exp(np.random.default_rng(spread).uniform(-spread, spread, (100, len(a))))
    row_err = part_err = 0.0
    for row, *closed in zip(x, g.closure(ctx, x), [g.closure(ctx, row) for row in x]):
        ref = decimal_closure(ctx.a, row)
        for got in closed:
            err = [abs(Decimal(float(v)) - r) for v, r in zip(got, ref)]
            row_err = max(row_err, float(max(err)) / math.ulp(float(max(ref))))
            part_err = max(part_err, *(float(e) / math.ulp(float(r)) for e, r in zip(err, ref)))
    assert row_err <= row_budget and part_err <= part_budget, (row_err, part_err)


# (weights, spread of log x, log_map budget, distance budget, pairwise_distance
# budget).  log_map's error is in ULP of the row's largest |xi|, and the
# distances' errors in ULP of the reference distance.  Each budget is the
# worst case measured on the test's data, rounded up to a whole ULP.  A change
# may tighten a budget; it never loosens one.
METRIC_BUDGETS = [
    ((1, 1, 1, 1, 1), 5, 3, 4, 3),
    ((1, 1, 1, 1, 1), 50, 3, 3, 5),
    ((1, 1, 1, 1, 2), 5, 5, 3, 5),
    ((1, 1, 1, 1, 2), 50, 3, 2, 4),
    ((0.5, 1, 1.5, 2, 3), 5, 8, 4, 8),
    ((0.5, 1, 1.5, 2, 3), 50, 6, 3, 16),
    # a_2 / s is 160: where the terms of xi_2 cancel, |xi| is far below them.
    # The float64 formula with the true neutral element is still 310 ULP off.
    ((1e-3, 1, 1e3), 5, 374, 126, 1272),
    ((1e-3, 1, 1e3), 50, 88, 232, 1356),
]


def _metric_errors(a, spread):
    """Worst errors of ``log_map``, ``distance`` and ``pairwise_distance`` against 50-digit references.

    60 compositions each of lam and mu, with log parts uniform in [-spread,
    spread] before they are divided by their sums.  ``log_map`` and
    ``distance`` are taken on the batch and on each row alone, and
    ``pairwise_distance`` on the 60 rows of lam.
    """
    ctx = g.make_context(a)
    x = np.exp(np.random.default_rng([len(a), spread]).uniform(-spread, spread, (2, 60, len(a))))
    lam, mu = normalize(x)
    with decimal.localcontext() as dc:
        dc.prec = 50
        xi_ref = [decimal_log_map(ctx.a, row) for row in lam]
        eta_ref = [decimal_log_map(ctx.a, row) for row in mu]

        def dist(u, v):
            return sum((p - q) * (p - q) for p, q in zip(u, v)).sqrt()

        log_err = 0.0
        for ref, *got in zip(xi_ref, g.log_map(ctx, lam), [g.log_map(ctx, row) for row in lam]):
            scale = math.ulp(float(max(abs(r) for r in ref)))
            for xi in got:
                log_err = max(log_err, *(float(abs(Decimal(float(v)) - r)) / scale for v, r in zip(xi, ref)))
        dist_err = 0.0
        batch, alone = g.distance(ctx, lam, mu), [g.distance(ctx, p, q) for p, q in zip(lam, mu)]
        for ref, *got in zip(map(dist, xi_ref, eta_ref), batch, alone):
            dist_err = max(dist_err, *(float(abs(Decimal(float(d)) - ref)) / math.ulp(float(ref)) for d in got))
        pair_err = 0.0
        out = g.pairwise_distance(ctx, lam)
        for i, j in itertools.combinations(range(len(lam)), 2):
            ref = dist(xi_ref[i], xi_ref[j])
            pair_err = max(pair_err, float(abs(Decimal(float(out[i, j])) - ref)) / math.ulp(float(ref)))
    return log_err, dist_err, pair_err


@pytest.mark.parametrize("a, spread, log_budget, distance_budget, pairwise_budget", METRIC_BUDGETS)
def test_log_map_and_distances_against_a_decimal_reference(a, spread, log_budget, distance_budget, pairwise_budget):
    errors = _metric_errors(a, spread)
    assert all(e <= b for e, b in zip(errors, (log_budget, distance_budget, pairwise_budget))), errors


# (operation, weights, spread, row-scaled budget, per-part budget), in ULP of
# the row's largest part and of each part, as for the closure above.  The
# references take every float input exactly, so the float64 logarithms that
# power and perturb form count against them: under uniform weights at spread
# 50, the exact closure of power's c * ln lam rounded to float64 is already
# 17 ULP of the row scale off.  Each budget is the worst case measured on the
# test's data, rounded up to a whole ULP.  A change may tighten a budget; it
# never loosens one.
GROUP_BUDGETS = [
    ("exp_map", (1, 1, 1, 1, 1), 5, 2, 16),
    ("exp_map", (1, 1, 1, 1, 1), 50, 4, 230),
    ("exp_map", (1, 1, 1, 1, 2), 5, 2, 52),
    ("exp_map", (1, 1, 1, 1, 2), 50, 8, 671),
    ("exp_map", (0.5, 1, 1.5, 2, 3), 5, 27, 2563),
    ("exp_map", (0.5, 1, 1.5, 2, 3), 50, 11, 3420),
    ("power", (1, 1, 1, 1, 1), 5, 6, 23),
    ("power", (1, 1, 1, 1, 1), 50, 47, 298),
    ("power", (1, 1, 1, 1, 2), 5, 3, 44),
    ("power", (1, 1, 1, 1, 2), 50, 3, 428),
    ("power", (0.5, 1, 1.5, 2, 3), 5, 274, 1052),
    ("power", (0.5, 1, 1.5, 2, 3), 50, 7, 1235),
    # a part of 1.9e-85 under weight 1e3: the exact closure of the correctly
    # rounded float64 logarithms is 218 ULP from it, the library 8.9e6
    ("power", (1e-3, 1, 1e3), 5, 597, 9551),
    ("power", (1e-3, 1, 1e3), 50, 580, 8919430),
    ("perturb", (1, 1, 1, 1, 1), 5, 3, 17),
    ("perturb", (1, 1, 1, 1, 1), 50, 2, 145),
    ("perturb", (1, 1, 1, 1, 2), 5, 2, 14),
    ("perturb", (1, 1, 1, 1, 2), 50, 6, 190),
    ("perturb", (0.5, 1, 1.5, 2, 3), 5, 17, 340),
    ("perturb", (0.5, 1, 1.5, 2, 3), 50, 83, 841),
    ("perturb", (1e-3, 1, 1e3), 5, 135, 267),
    ("perturb", (1e-3, 1, 1e3), 50, 34, 1810477),
]


def _group_outputs(name, ctx, spread):
    """``(batch, rows alone, references)`` for each batch that ``name`` takes.

    40 compositions each of lam and mu, with log parts uniform in [-spread,
    spread] before they are divided by their sums.  ``power`` takes c = 0.3
    on the first 20 rows of lam and c = -2.5 on the rest.  ``exp_map`` takes
    ``e_a * v``, v uniform in [-spread, spread], with each row's last part
    set so that it sums to zero.
    """
    rng = np.random.default_rng([len(ctx.a), spread])
    lam, mu = normalize(np.exp(rng.uniform(-spread, spread, (2, 40, ctx.dim))))
    if name == "exp_map":
        xi = ctx.e_a * rng.uniform(-spread, spread, lam.shape)
        xi[:, -1] = -xi[:, :-1].sum(axis=1)
        return [(g.exp_map(ctx, xi), [g.exp_map(ctx, r) for r in xi], [decimal_exp_map(ctx.a, r) for r in xi])]
    if name == "power":
        return [(g.power(ctx, c, x), [g.power(ctx, c, r) for r in x], [decimal_power(ctx.a, c, r) for r in x])
                for c, x in ((0.3, lam[:20]), (-2.5, lam[20:]))]
    return [(g.perturb(ctx, lam, mu), [g.perturb(ctx, p, q) for p, q in zip(lam, mu)],
             [decimal_perturb(ctx.a, p, q) for p, q in zip(lam, mu)])]


@pytest.mark.parametrize("name, a, spread, row_budget, part_budget", GROUP_BUDGETS)
def test_group_operations_against_a_decimal_reference(name, a, spread, row_budget, part_budget):
    # each row is taken in the batch and alone, through the single-vector path
    row_err = part_err = 0.0
    for batch, alone, refs in _group_outputs(name, g.make_context(a), spread):
        for ref, *got in zip(refs, batch, alone):
            for out in got:
                err = [abs(Decimal(float(v)) - r) for v, r in zip(out, ref)]
                row_err = max(row_err, float(max(err)) / math.ulp(float(max(ref))))
                part_err = max(part_err, *(float(e) / math.ulp(float(r)) for e, r in zip(err, ref)))
    assert row_err <= row_budget and part_err <= part_budget, (row_err, part_err)


def test_newton_root_on_bracket_end(monkeypatch):
    # one part dominates, so g is linear with slope min(a) and the root
    # sits within rounding of the clamp u = -max(log x / a)
    a = np.array([0.1, 1.0, 10.0])
    logx = np.array([[13.69616873, -23.02132862, -45.90264761], [-300.0, -200.0, 13.7]])
    monkeypatch.setattr(geometry, "_MAX_ITER", 12)
    t = _newton_logt(a, logx.copy())
    np.testing.assert_allclose(t, [-logx[0, 0] / 0.1, -logx[1, 2] / 10.0], rtol=1e-14)


def test_batch_solve_matches_rows_solved_alone():
    # rows finish after different numbers of steps and leave the batch solve;
    # a row already on the simplex finishes at the start, t = 0
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    rng = np.random.default_rng(41)
    lam = rng.dirichlet(np.ones(5))
    x = np.vstack([np.exp(rng.uniform(-s, s, size=(50, 5))) for s in (5, 700)] + [lam])
    x = x[rng.permutation(len(x))]
    t = g.solve_t(ctx, x)
    alone = np.array([g.solve_t(ctx, row) for row in x])
    assert t[(x == lam).all(axis=1)].tolist() == [0.0] and g.solve_t(ctx, lam) == 0.0
    np.testing.assert_allclose(t, alone, rtol=1e-15, atol=0)


def test_newton_starts_at_the_largest_term_root(monkeypatch):
    # a part above 1 moves the start to the root of the largest term,
    # -max(log x / a); when that term dominates, the start is the root itself
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    x = np.exp([13.7, -300.0, -200.0, -250.0, -280.0])
    monkeypatch.setattr(geometry, "_MAX_ITER", 0)
    t, t_batch = g.solve_t(ctx, x), g.solve_t(ctx, x[None])
    assert t == -13.7 / 0.5 and np.float64(t).tobytes() == t_batch.tobytes()
    assert g.closure(ctx, x).tobytes() == g.closure(ctx, x[None]).tobytes()


@pytest.mark.parametrize("a", ((1e-4, 1, 10, 100, 1e4), (1e-8, 1, 1e8)))
def test_newton_residual_at_huge_log_magnitudes(a):
    # exp_map lifts reach |log x| far beyond float64 data, and the start and
    # clamp u = -max(log x / a) round at that scale.  One term dominates, so
    # most rows end on u itself, and every row within 1 ULP of max|log x|.
    a = np.array(a)
    rng = np.random.default_rng(73)
    for spread in (1e5, 1e10, 1e100):
        logx = rng.uniform(-spread, spread, size=(2000, a.size))
        t = _newton_logt(a, logx.copy())
        w = logx + t[:, None] * a
        wm = w.max(axis=1)
        resid = wm + np.log(np.exp(w - wm[:, None]).sum(axis=1))
        assert (np.abs(resid) <= np.spacing(np.abs(logx).max(axis=1))).all(), spread


def test_newton_starts_on_simplex_rows_at_zero(monkeypatch):
    # every log x <= 0 keeps the start t = 0, so a row on the simplex stops
    # at its first evaluation with t exactly +0.0, also when its largest
    # part is exactly 1
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    lam = np.array([[0.1, 0.2, 0.3, 0.15, 0.25], [1.0, 1e-300, 1e-300, 1e-300, 1e-300]])
    monkeypatch.setattr(geometry, "_MAX_ITER", 0)
    for row in lam:
        t = g.solve_t(ctx, row)
        assert t == 0.0 and math.copysign(1.0, t) == 1.0
    assert g.solve_t(ctx, lam).tobytes() == np.zeros(2).tobytes()


def test_perturb_of_compositions_keeps_its_bits():
    # products of compositions have every log x <= 0, so they start at
    # t = 0.  Row 0 converges from there without a clamped step; row 1's
    # first step overshoots u (1.554 > 1.461) and is clamped to it.  Each
    # row is within 2 ULP of its row scale and 4 ULP of each part of a
    # 50-digit closure of its log x.
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    lam = [[0.1, 0.2, 0.3, 0.15, 0.25], [0.7, 0.1, 0.1, 0.05, 0.05]]
    mu = [[0.05, 0.4, 0.1, 0.3, 0.15], [1e-9, 0.25, 0.25, 0.25, 0.25 - 1e-9]]
    pinned = [
        ["0x1.f205334b59df6p-8", "0x1.7a74774f44a7ap-3", "0x1.af64799df53fcp-4", "0x1.ebbc1ccd72d7ep-3", "0x1.d94682bcf988cp-2"],
        ["0x1.6ca140629f96dp-30", "0x1.6fbacf329bd37p-4", "0x1.5c6d95b58eacep-3", "0x1.4a23b7ff07036p-3", "0x1.286452a1220f8p-1"],
    ]
    out = g.perturb(ctx, lam, mu)
    assert [[v.hex() for v in row] for row in out.tolist()] == pinned
    assert g.perturb(ctx, lam[0], mu[0]).tobytes() == out[0].tobytes()
    for got, l, m in zip(out, lam, mu):
        logx = np.log(g.as_composition(l)) + np.log(g.as_composition(m))
        ref = decimal_closure(ctx.a, logx, log=True)
        err = [abs(Decimal(float(v)) - r) for v, r in zip(got, ref)]
        assert float(max(err)) / math.ulp(float(max(ref))) <= 2
        assert max(float(e) / math.ulp(float(r)) for e, r in zip(err, ref)) <= 4


def test_solve_t_result_types():
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    x = np.exp(np.random.default_rng(42).uniform(-50, 50, size=(7, 5)))
    assert type(g.solve_t(ctx, x[0])) is float
    assert g.solve_t(ctx, x).shape == (7,)
    assert g.solve_t(ctx, x[:1]).shape == (1,)
    assert g.solve_t(ctx, x[:0]).shape == (0,) and g.closure(ctx, x[:0]).shape == (0, 5)


def test_nonconvergence_counts_rows_left(monkeypatch):
    # the error counts the rows still unsolved when the budget runs out,
    # the rows that each fail alone, not the whole batch
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    rng = np.random.default_rng(43)
    dominated = np.exp([13.7, -300.0, -200.0, -250.0, -280.0])
    x = np.vstack([rng.dirichlet(np.ones(5)), dominated, np.exp(rng.uniform(-5, 5, size=(8, 5)))])
    monkeypatch.setattr(geometry, "_MAX_ITER", 3)
    left = 0
    for row in x:
        try:
            g.solve_t(ctx, row)
        except g.NonConvergence:
            left += 1
    assert 0 < left < len(x) - 2
    with pytest.raises(g.NonConvergence, match=rf"^{left} row\(s\) did not converge in 3 iterations$"):
        g.solve_t(ctx, x)


BITWISE_WEIGHTS = ((0.5, 1, 1.5, 2, 3), (1, 2, 3), (1e-8, 1, 1e8))


def closed_ref(ctx, logx):
    # solve t, then close in a separate softmax pass at it
    t = geometry._solve_logt(ctx.a, logx.copy(), ctx.fast_path)
    w = logx + t[..., None] * ctx.a
    e = np.exp(w - w.max(axis=-1)[..., None])
    return e / e.sum(axis=-1)[..., None]


# 9 and 51 parts: from 8 parts numpy sums a row pairwise
@pytest.mark.parametrize("a", (*BITWISE_WEIGHTS, np.linspace(0.5, 3, 9), np.linspace(0.5, 3, 51)))
def test_closures_match_separate_softmax_bitwise(a):
    # the solve's last evaluation gives each row's closed point; it must be
    # bit for bit the softmax at the solved t, in a batch whose rows finish
    # after different numbers of steps and for single vectors
    ctx = g.make_context(a)
    rng = np.random.default_rng(46)
    n = ctx.dim

    def batch(spreads):
        rows = np.vstack([rng.uniform(-s, s, size=(30, n)) for s in spreads])
        return rows[rng.permutation(len(rows))]

    x = np.exp(batch((5, 700)))
    # compositions with log-ratios up to 700 between parts
    lam = g.closure(g.make_context(np.ones(n)), np.exp(batch((2.5, 350))))
    mu = g.closure(g.make_context(np.ones(n)), np.exp(batch((2.5, 350))))
    xi = g.log_map(ctx, lam)
    la, mu_ = g.as_composition(lam), g.as_composition(mu)
    cases = [
        (g.closure, (x,), lambda: np.log(x)),
        (g.exp_map, (xi,), lambda: xi / ctx.e_a),
        (g.perturb, (lam, mu), lambda: np.log(la) + np.log(mu_)),
        (lambda c, v: g.power(c, 1.7, v), (lam,), lambda: 1.7 * np.log(la)),
        (lambda c, v: g.power(c, -2.3, v), (lam,), lambda: -2.3 * np.log(la)),
    ]
    if not ctx.e_a.all():
        # (1e-8, 1, 1e8): e_a has a part that is zero at float64 precision,
        # so exp_map has no lift to close
        with pytest.raises(g.ZeroComponent):
            g.exp_map(ctx, xi)
        del cases[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, args, logx in cases:
            before = [v.copy() for v in args]
            got = op(ctx, *args)
            assert np.array_equal(got, closed_ref(ctx, logx())), op
            for v, v0 in zip(args, before):
                assert np.array_equal(v, v0)
            for i in range(4):
                row_args = [v[i] for v in args]
                single = op(ctx, *row_args)
                assert single.shape == (n,)
                assert np.array_equal(single, closed_ref(ctx, logx()[i]))
                assert np.array_equal(single, got[i])
                for v, v0 in zip(row_args, before):
                    assert np.array_equal(v, v0[i])


@pytest.mark.parametrize("rows", (64, 65, 4000))
@pytest.mark.parametrize("a", BITWISE_WEIGHTS)
def test_folded_batch_closures_match_separate_softmax_bitwise(a, rows):
    # A batch of at least 64 rows and fewer than 8 parts: _row_reduce folds
    # its validation sums one column at a time, the Newton solve works on its
    # parts-major copy, and finished rows leave it by integer positions; its
    # closed points must still be bit for bit the softmax at the solved t, at
    # log spreads 5, 50, 300 and 700
    ctx = g.make_context(a)
    rng = np.random.default_rng(48)
    n = ctx.dim
    assert geometry._by_columns(np.empty((rows, n)))

    def batch(spreads):
        per = -(-rows // len(spreads))
        x = np.vstack([rng.uniform(-s, s, size=(per, n)) for s in spreads])
        return x[rng.permutation(len(x))[:rows]]

    x = np.exp(batch((5, 50, 300, 700)))
    uniform = g.make_context(np.ones(n))
    lam = g.closure(uniform, np.exp(batch((2.5, 25, 150, 350))))
    mu = g.closure(uniform, np.exp(batch((2.5, 25, 150, 350))))
    cases = [
        (g.closure, (x,), np.log(x)),
        (g.perturb, (lam, mu), np.log(g.as_composition(lam)) + np.log(g.as_composition(mu))),
        (lambda c, v: g.power(c, 1.7, v), (lam,), 1.7 * np.log(g.as_composition(lam))),
        (lambda c, v: g.power(c, -2.3, v), (lam,), -2.3 * np.log(g.as_composition(lam))),
    ]
    if ctx.e_a.all():
        xi = g.log_map(ctx, lam)
        cases.append((g.exp_map, (xi,), xi / ctx.e_a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, args, logx in cases:
            assert np.array_equal(op(ctx, *args), closed_ref(ctx, logx)), op


@pytest.mark.parametrize("a", ((1, 1, 1, 1), (1, 1, 1, 2), *BITWISE_WEIGHTS))
def test_neutral_element_is_the_softmax_at_the_solved_exponent_bitwise(a):
    # make_context closes (1, ..., 1) through the closure solve; e_a and s
    # must be bit for bit the softmax of a*t at its t and the weighted sum
    ctx = g.make_context(a)
    arr = np.asarray(a, dtype=float)
    t = geometry._solve_logt(arr, np.zeros(arr.size), ctx.fast_path)
    w = t * arr
    e = np.exp(w - w.max())
    e /= e.sum()
    assert np.array_equal(ctx.e_a, e)
    assert ctx.s == float(arr @ e)


RATIOS, SPREADS = (1e2, 1e4, 1e8, 1e12, 1e16), (5, 50, 300, 700)


@pytest.mark.parametrize("ratio", RATIOS)
def test_vector_solve_matches_one_row_batch_bitwise(ratio):
    # a single vector's solve keeps its scalars as Python floats; it must
    # give the bits of the array solve of its one-row batch, closed point
    # included.  The rows are every 40th of the residual test's draws above;
    # at every ratio they include rows whose first step is clamped at u, such
    # as row 360 at ratio 1e16 and spread 700.  (A row of a larger batch may
    # differ in the last bit: there g' comes from a matrix-vector product.)
    rng = np.random.default_rng(72)
    draws = [rng.uniform(-s, s, size=(2000, 3)) for _ in RATIOS for s in SPREADS]
    weights = (
        [ratio**-0.5, 1.0, ratio**0.5],
        1e-300 * np.array([1.0, ratio**0.5, ratio]),
        1e300 * np.array([1.0 / ratio, ratio**-0.5, 1.0]),
    )
    k = RATIOS.index(ratio) * len(SPREADS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in weights:
            ctx = g.make_context(a)
            for logx in draws[k:k + len(SPREADS)]:
                for row in logx[::40]:
                    closed, closed_batch = row.copy(), row[None].copy()
                    t = _newton_logt(ctx.a, closed)
                    t_batch = _newton_logt(ctx.a, closed_batch)
                    assert t.tobytes() == t_batch.tobytes() and closed.tobytes() == closed_batch.tobytes()
                    x = np.exp(row)
                    assert g.solve_t(ctx, x) == g.solve_t(ctx, x[None])[0]
                    assert g.closure(ctx, x).tobytes() == g.closure(ctx, x[None]).tobytes()


ROW_COUNTS = (0, 1, geometry._ROW_FOLD_MIN - 1, geometry._ROW_FOLD_MIN, 4000)


@pytest.mark.parametrize("width", range(1, 13))
def test_row_reduce_keeps_numpys_bits(width):
    # _row_reduce folds the short rows of a tall batch one column at a time;
    # its bits must be numpy's row reduction's, so a numpy that changes its
    # short-row summation order fails here.  The strided rows are the view
    # x[:, :-1] that the quadratic closed form reduces (1 column for 2 parts).  One known exception:
    # numpy's row max of a row that starts with a negative NaN is a positive
    # NaN, where the fold keeps the sign.  No kernel output shows it, since a
    # NaN row ends in NonConvergence, so such rows are compared as NaN only.
    rng = np.random.default_rng(90)
    specials = np.array([np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0])
    for n in ROW_COUNTS:
        x = rng.standard_normal((n, width + 1)) * np.exp(rng.uniform(-30, 30, (n, width + 1)))
        spots = rng.random(x.shape) < 0.1
        x[spots] = rng.choice(specials, spots.sum())
        x[1::7] = -0.0
        for rows in (np.ascontiguousarray(x[:, :-1]), x[:, :-1]):
            for ufunc in (np.maximum, np.add):
                with np.errstate(invalid="ignore"):
                    got, want = geometry._row_reduce(ufunc, rows), ufunc.reduce(rows, axis=1)
                assert np.array_equal(np.isnan(got), np.isnan(want)), (n, ufunc)
                keep = ~(np.isnan(rows[:, 0]) & np.signbit(rows[:, 0])) if ufunc is np.maximum else slice(None)
                assert got[keep].tobytes() == want[keep].tobytes(), (n, ufunc)
    # Single vectors, strided ones too: below 8 parts _row_reduce folds their
    # sums in Python floats.  They hold ±inf, ±0.0 and NaN parts, and every sign
    # pattern of zeros; a NaN result is compared as NaN.
    v = rng.standard_normal((2000, width)) * np.exp(rng.uniform(-30, 30, (2000, width)))
    spots = rng.random(v.shape) < 0.3
    v[spots] = rng.choice(specials, spots.sum())
    v[1::7] = -0.0
    zeros = np.array(list(itertools.product((0.0, -0.0), repeat=width)))
    for vectors in (v, np.asfortranarray(v), zeros):
        for vec in vectors:
            for ufunc in (np.maximum, np.add):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = np.float64(geometry._row_reduce(ufunc, vec)), ufunc.reduce(vec)
                assert np.isnan(got) == np.isnan(want), (vec, ufunc)
                assert np.isnan(want) or got.tobytes() == want.tobytes(), (vec, ufunc)


@pytest.mark.parametrize("n", [1, geometry._ROW_FOLD_MIN - 1, geometry._ROW_FOLD_MIN, 4000])
def test_a_sum_that_is_not_finite_warns_as_numpy_does(n):
    # a folded batch sums through np.add, but a sum that overflows or meets
    # inf - inf is numpy's reduction again, with its bits and its warning;
    # n = 1 is a single vector
    def batch(row):
        return np.array([row] * n)[0 if n == 1 else slice(None)]

    for row, message in (([1.7e308, 1.7e308, 1.0], "overflow"), ([np.inf, -np.inf, 1.0], "invalid value")):
        rows = batch(row)
        with pytest.warns(RuntimeWarning) as seen:
            sums = geometry._row_reduce(np.add, rows)
        assert [str(w.message) for w in seen] == [f"{message} encountered in reduce"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.float64(sums).tobytes() == np.add.reduce(rows, axis=-1).tobytes()
    with pytest.warns(RuntimeWarning) as seen, pytest.raises(g.NotOnSimplex):
        g.as_composition(batch([1.7e308] * 3))
    assert [str(w.message) for w in seen] == ["overflow encountered in reduce"]


# Shapes that take each branch of _row_reduce: a single vector (None), short
# batches and batches at and above _ROW_FOLD_MIN, at 3, 5 and 51 parts.
REDUCE_ROWS = (None, 1, geometry._ROW_FOLD_MIN - 1, geometry._ROW_FOLD_MIN, 4000)


def _rows(rng, n, parts, draw):
    """``draw(rng, (rows, parts))``, or one vector of it when ``n`` is None."""
    return draw(rng, (1 if n is None else n, parts))[0 if n is None else slice(None)]


@pytest.mark.parametrize("parts", [3, 5, 51])
@pytest.mark.parametrize("n", REDUCE_ROWS)
def test_inner_and_equivalent_keep_numpys_bits(n, parts):
    # inner and equivalent reduce through _row_reduce; their results are the
    # numpy expressions they replace, bit for bit, and a single vector's are
    # a Python float and bool
    rng = np.random.default_rng([n or 0, parts])
    ctx = g.make_context(np.linspace(0.5, 3.0, parts))
    lam, mu = (_rows(rng, n, parts, lambda r, shape: normalize(np.exp(r.uniform(-20, 20, shape)))) for _ in range(2))
    got, want = g.inner(ctx, lam, mu), np.sum(g.log_map(ctx, lam) * g.log_map(ctx, mu), axis=-1)
    assert type(got) is (float if n is None else np.ndarray)
    assert np.float64(got).tobytes() == want.tobytes()
    # w is v moved along its class, each part nudged by up to ~1e-10 relative
    v = np.exp(_rows(rng, n, parts, lambda r, shape: r.uniform(-5, 5, shape)))
    w = v * np.exp(ctx.a * 0.7) * (1 + _rows(rng, n, parts, lambda r, shape: r.uniform(-1e-10, 1e-10, shape)))
    gap = np.max(np.abs(g.closure(ctx, v) - g.closure(ctx, w)), axis=-1)
    for tol in np.quantile(gap, [0.0, 0.3, 0.7, 1.0]):
        for tol in (tol, np.nextafter(tol, 0.0)):
            got = g.equivalent(ctx, v, w, tol)
            assert type(got) is (bool if n is None else np.ndarray)
            assert np.array_equal(got, gap <= tol)


def _off_tangent(x) -> bool:
    """as_tangent's verdict in numpy's row sums: whether a row of ``x`` sums beyond its tolerance."""
    sums = np.abs(np.sum(x, axis=-1))
    return bool(np.any((sums > 1e-10) & (sums > 64 * np.finfo(float).eps * np.sum(np.abs(x), axis=-1))))


def _tangent_pair(rng, parts):
    """Vectors ``(lo, hi)`` of an odd number of parts on either side of :func:`_off_tangent`'s verdict.

    The parts are ``(A_1, -A_1, A_2, -A_2, ..., c)``: numpy's row sum, in
    index order or pairwise, cancels each pair exactly and gives ``c``.  In
    ``lo``, ``c`` is the tolerance ``64 * eps * sum |x|`` itself, above
    1e-10, and in ``hi`` the next float up, so a tolerance one ULP off
    changes the verdict on one of them.
    """
    big = rng.uniform(1e5, 1e9, parts // 2)
    x = np.append(np.stack([big, -big], axis=1).ravel(), 0.0)
    x[-1] = 64 * np.finfo(float).eps * np.sum(np.abs(x))
    while _off_tangent(x):
        x[-1] = np.nextafter(x[-1], -np.inf)
    while not _off_tangent(x):
        lo = x.copy()
        x[-1] = np.nextafter(x[-1], np.inf)
    return lo, x


@pytest.mark.parametrize("parts", [3, 5, 51])
@pytest.mark.parametrize("n", REDUCE_ROWS)
def test_tangent_verdicts_keep_numpys_bits(n, parts):
    # as_tangent's tolerance sums |x| through _row_reduce; at the edge of
    # numpy's verdict, a batch of rows just inside passes and the same batch
    # with one row just outside fails
    rng = np.random.default_rng([n or 0, parts, 1])
    pairs = [_tangent_pair(rng, parts) for _ in range(8)]
    for k, (lo, hi) in enumerate(pairs):
        if n is None:
            inside, outside = lo, hi
        else:
            inside = np.array([pairs[i % len(pairs)][0] for i in range(n)])
            outside = inside.copy()
            outside[(k * 37) % n] = hi
        for x, off in ((inside, False), (outside, True)):
            assert _off_tangent(x) is off
            try:
                g.as_tangent(x)
            except g.NotInTangentSpace:
                assert off
            else:
                assert not off


FINITE = (g.NonPositiveValue, "components must be finite")
POSITIVE = (g.NonPositiveValue, "components must be strictly positive")
TANGENT_SUM = (g.NotInTangentSpace, "components must sum to 0 (within 1e-10)")
# parts written over a vector from its second part on, and the error of a
# composition and of a tangent vector that carry them
BAD_PARTS = {
    "nan": ([np.nan], FINITE, FINITE),
    "inf": ([np.inf], FINITE, FINITE),
    "-inf": ([-np.inf], FINITE, FINITE),
    "zero": ([0.0], POSITIVE, TANGENT_SUM),
    "negative": ([-2.0], POSITIVE, TANGENT_SUM),
    "inf before a negative": ([np.inf, -2.0], FINITE, FINITE),
    "nan after a negative": ([-2.0, np.nan], FINITE, FINITE),
}


@pytest.mark.parametrize("n", [5, 51])
@pytest.mark.parametrize("label", BAD_PARTS)
def test_single_vector_validation_messages(label, n):
    # 5 parts take the short-vector checks in Python floats, 51 parts
    # numpy's; both raise the same error, with finiteness tested first
    parts, composition_error, tangent_error = BAD_PARTS[label]
    ctx = g.make_context(np.linspace(0.5, 3.0, n))
    lam, xi = np.full(n, 1.0 / n), np.linspace(-1.0, 1.0, n)

    def bad(v):
        v = v.copy()
        v[1:1 + len(parts)] = parts
        return v

    calls = [(composition_error, g.closure, ctx, bad(lam)), (composition_error, g.log_map, ctx, bad(lam)),
             (composition_error, g.distance, ctx, bad(lam), lam), (composition_error, g.distance, ctx, lam, bad(lam)),
             (tangent_error, g.exp_map, ctx, bad(xi))]
    for (error, message), op, *args in calls:
        with pytest.raises(error) as info:
            op(*args)
        assert type(info.value) is error and str(info.value) == message, op.__name__


def test_row_fold_keeps_the_kernels_bits(monkeypatch):
    # every closure kernel gives the same bits, t included, with the row
    # fold and with it switched off (_ROW_FOLD_MIN beyond any batch), so
    # that _row_reduce is numpy's row reduction throughout.  The closed forms
    # fold their row sums (5000x5 batches); the Newton solve folds nothing
    # and reduces its parts-major batch itself, so under general weights
    # (lib-newton's shapes) only the validation sums fold
    rng = np.random.default_rng(91)
    cases = []
    for a in ((0.5, 1.0, 1.5, 2.0, 3.0), (1.0, 2.0, 3.0)):
        ctx = g.make_context(a)
        n, unif = ctx.dim, g.make_context(np.ones(ctx.dim))
        for spread in (5, 50, 300):
            x = np.exp(rng.uniform(-spread, spread, (4000, n)))
            lam, mu = (g.closure(unif, np.exp(rng.uniform(-spread, spread, (4000, n)))) for _ in range(2))
            xi = g.log_map(ctx, lam)
            cases += [
                (g.closure, (ctx, x), np.log(x)),
                (g.exp_map, (ctx, xi), xi / ctx.e_a),
                (g.perturb, (ctx, lam, mu), np.log(lam) + np.log(mu)),
                (g.power, (ctx, 1.7, lam), 1.7 * np.log(lam)),
            ]
    for a in ((1, 1, 1, 1, 1), (1, 1, 1, 1, 2)):
        ctx = g.make_context(a)
        for spread in (5, 350):
            x = np.exp(rng.uniform(-spread, spread, (5000, 5)))
            cases.append((g.closure, (ctx, x), np.log(x)))

    def outputs():
        out = []
        for op, args, logx in cases:
            ctx, closed = args[0], logx.copy()
            t = geometry._solve_logt(ctx.a, closed, ctx.fast_path)
            out += [op(*args).tobytes(), t.tobytes(), closed.tobytes()]
        return out

    folded = outputs()
    monkeypatch.setattr(geometry, "_ROW_FOLD_MIN", 1 << 60)
    assert outputs() == folded


def test_vector_nonconvergence_names_one_row(monkeypatch):
    ctx = g.make_context([0.5, 1, 1.5, 2, 3])
    x = np.exp(np.random.default_rng(44).uniform(-5, 5, size=5))  # converges in 2 iterations
    monkeypatch.setattr(geometry, "_MAX_ITER", 1)
    for v in (x, x[None]):
        with pytest.raises(g.NonConvergence, match=r"^1 row\(s\) did not converge in 1 iterations$"):
            g.solve_t(ctx, v)


EMPTY_OPS = {
    "solve_t": (g.solve_t, (0,)),
    "closure": (g.closure, (0, 3)),
    "log_map": (g.log_map, (0, 3)),
    "exp_map": (g.exp_map, (0, 3)),
    "perturb": (lambda ctx, e: g.perturb(ctx, e, e), (0, 3)),
    "power": (lambda ctx, e: g.power(ctx, 2.0, e), (0, 3)),
    "invert": (g.invert, (0, 3)),
    "inner": (lambda ctx, e: g.inner(ctx, e, e), (0,)),
    "norm": (g.norm, (0,)),
    "distance": (lambda ctx, e: g.distance(ctx, e, e), (0,)),
    "pairwise_distance": (g.pairwise_distance, (0, 0)),
    "equivalent": (lambda ctx, e: g.equivalent(ctx, e, e), (0,)),
    "coords": (lambda ctx, e: g.coords(ctx, g.helmert_basis(3), e), (0, 2)),
    "from_coords": (lambda ctx, e: g.from_coords(ctx, g.helmert_basis(3), e[:, :2]), (0, 3)),
}


@pytest.mark.parametrize("a", ((1, 1, 1), (1, 1, 2), (1, 2, 3)))
@pytest.mark.parametrize("name", [*EMPTY_OPS, "frechet_mean"])
def test_empty_batch(name, a):
    # a row-wise operation maps zero rows to an empty result; the mean of
    # zero rows does not exist
    ctx = g.make_context(a)
    empty = np.empty((0, 3))
    if name == "frechet_mean":
        with pytest.raises(g.DimensionMismatch, match="at least one row"):
            g.frechet_mean(ctx, empty)
        return
    op, shape = EMPTY_OPS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.shape(op(ctx, empty)) == shape


def test_quadratic_closed_form_guard_both_sides(ctx112):
    # every part underflows in the linear domain; each row is shifted so
    # that its largest term is 1 before its exponentials are taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.power(ctx112, 1e300, [0.2, 0.3, 0.5])
        tiny = g.closure(ctx112, [1e-320, 2e-320, 3e-320])
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) <= 1e-12 and out.argmax() == 2
    x = np.array([1e-320, 2e-320, 3e-320])
    t = g.solve_t(ctx112, x)
    np.testing.assert_allclose(tiny, np.exp(np.log(x) + t * ctx112.a), rtol=1e-12)


def test_quadratic_closure_of_huge_parts_matches_a_rescaled_representative(ctx112):
    # parts whose squares overflow float64 close to what any class
    # representative of moderate magnitude closes to
    huge = np.array([1e200, 2e200, 3e200])
    out = g.closure(ctx112, huge)
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12
    rescaled = huge * np.exp(-230.0 * ctx112.a)
    assert np.abs(out - g.closure(ctx112, rescaled)).max() < 1e-11


def test_quadratic_closure_shifts_each_row_on_its_own(ctx112):
    # c * log(lam) spans about -6900 to -900 on the first row and -6900 to
    # -2 on the second: each row closes from its own largest term, with no
    # warning, to the bits of its single-vector result
    rows = [[0.3, 0.3, 0.4], [0.001, 0.001, 0.998]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.power(ctx112, 1000.0, rows)
        singles = [g.power(ctx112, 1000.0, row) for row in rows]
    assert np.isfinite(out).all()
    assert [row.tobytes() for row in out] == [single.tobytes() for single in singles]


def test_power_overflow_reported(ctx112):
    with pytest.raises(g.NumericalOverflow):
        g.power(ctx112, 1e308, [0.2, 0.3, 0.5])
    # an infinite c is invalid input, as nan is
    for c in (float("inf"), float("-inf")):
        with pytest.raises(g.NonPositiveValue, match=f"^scalar c must be finite, got {c}$"):
            g.power(ctx112, c, [0.2, 0.3, 0.5])


def test_power_rejects_a_nan_scalar(ctx112):
    # nan is invalid input, not a magnitude the closure solve cannot take
    with pytest.raises(g.NonPositiveValue, match="^scalar c must be finite, got nan$"):
        g.power(ctx112, float("nan"), [0.2, 0.3, 0.5])


def test_power_huge_scalar_closes_or_overflows():
    # every case either closes cleanly or raises NumericalOverflow: no
    # RuntimeWarning from c * log(lam) or from t * a in the closure solve
    lams = ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.98, 0.01, 0.01])
    scalars = [s * m for m in (1e300, 1e306, 1e307, 1e308) for s in (1, -1)]
    closed = overflowed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ((0.5, 1, 1.5), (1, 2, 3), (0.1, 1, 10), (1, 1, 2), (1, 1, 1)):
            ctx = g.make_context(a)
            for c in scalars:
                for lam in lams:
                    try:
                        out = g.power(ctx, c, lam)
                    except g.NumericalOverflow as exc:
                        assert "too large" in str(exc) and "\n" not in str(exc)
                        overflowed += 1
                        continue
                    assert np.isfinite(out).all() and abs(out.sum() - 1.0) <= 1e-12, (a, c, lam)
                    closed += 1
        # weights near the lower magnitude bound overflow t itself at |c| = 1e16
        ctx = g.make_context(1e-300 * np.arange(1.0, 6.0))
        lam = np.random.default_rng(45).dirichlet(np.ones(5), size=50)
        for c in (1e16, -1e16):
            with pytest.raises(g.NumericalOverflow):
                g.power(ctx, c, lam)
        np.testing.assert_allclose(g.power(ctx, 1e4, lam).sum(axis=1), 1.0, atol=1e-12)
    # c = 1e300 closes on every composition; |c| = 1e308 overflows on every one
    assert closed >= 5 * 2 * 4 and overflowed >= 5 * 2 * 4


def test_quadratic_exponent_matches_general_solver():
    rng = np.random.default_rng(6)
    for dim in (3, 5, 8):
        a = np.ones(dim)
        a[-1] = 2.0
        logx = rng.uniform(-6, 6, size=(200, dim))
        t_closed = quadratic_exponent(1.0, np.exp(logx))
        t_newton = _newton_logt(a, logx)
        assert np.abs(t_closed - t_newton).max() < 1e-12


def test_uniform_exponent_matches_general_solver():
    rng = np.random.default_rng(7)
    a = np.full(4, 1.7)
    logx = rng.uniform(-6, 6, size=(200, 4))
    t_closed = -np.log(np.exp(logx).sum(axis=1)) / 1.7
    t_newton = _newton_logt(a, logx)
    assert np.abs(t_closed - t_newton).max() < 1e-12


# ---------------------------------------------------------------------------
# Neutral element <-> weight vector


def test_neutral_to_param_uniform():
    a = g.neutral_to_param(np.ones(4) / 4)
    a = a / a[0]
    np.testing.assert_allclose(a, np.ones(4), rtol=1e-14)


def test_neutral_to_param_quadratic(ctx112):
    a = g.neutral_to_param(ctx112.e_a)
    a = a / a[0]
    np.testing.assert_allclose(a, [1, 1, 2], rtol=1e-12)


def test_neutral_to_param_roundtrip():
    rng = np.random.default_rng(8)
    for lam in random_compositions(rng, 20, 5):
        ctx = g.make_context(g.neutral_to_param(lam))
        assert np.abs(ctx.e_a - lam).max() < 1e-10


# ---------------------------------------------------------------------------
# Jacobian of the closure at the identity


def test_jacobian_uniform_entries(ctx1):
    expected = np.eye(3) / 3 - np.ones((3, 3)) / 9
    np.testing.assert_allclose(g.closure_jacobian(ctx1), expected, atol=1e-15)


def test_jacobian_kernel_and_column_sums(ctx_gen):
    D = g.closure_jacobian(ctx_gen)
    assert np.abs(D @ ctx_gen.a).max() < 1e-14
    assert np.abs(D.sum(axis=0)).max() < 1e-14


# ---------------------------------------------------------------------------
# Log and exp maps


def test_log_map_neutral_is_zero(ctx_gen):
    # bounded by the closure solver residual, far below the 1e-12 contract
    assert np.abs(g.log_map(ctx_gen, ctx_gen.e_a)).max() < 1e-12


def test_log_map_frozen_value(ctx1):
    # oracle: clr([0.2, 0.3, 0.5]) / 3
    expected = [-0.14686175999803544, -0.011706723961980728, 0.15856848396001622]
    np.testing.assert_allclose(g.log_map(ctx1, [0.2, 0.3, 0.5]), expected, atol=1e-15)


def test_log_map_is_homomorphism(ctx_gen):
    rng = np.random.default_rng(9)
    lam = random_compositions(rng, 100, 4)
    mu = random_compositions(rng, 100, 4)
    lhs = g.log_map(ctx_gen, g.perturb(ctx_gen, lam, mu))
    rhs = g.log_map(ctx_gen, lam) + g.log_map(ctx_gen, mu)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_exp_map_of_zero(ctx_gen):
    np.testing.assert_allclose(g.exp_map(ctx_gen, np.zeros(4)), ctx_gen.e_a, atol=1e-15)


def test_exp_map_uniform_is_softmax(ctx1):
    xi = np.array([-0.14686175999803544, -0.011706723961980728, 0.15856848396001622])
    np.testing.assert_allclose(g.exp_map(ctx1, xi), [0.2, 0.3, 0.5], atol=1e-14)
    rng = np.random.default_rng(10)
    z = rng.normal(size=(50, 3))
    xi = z - z.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(g.exp_map(ctx1, xi), softmax(3 * xi), atol=1e-14)


def test_exp_log_roundtrip_quadratic(ctx112):
    rng = np.random.default_rng(11)
    lam = random_compositions(rng, 1000, 3)
    back = g.exp_map(ctx112, g.log_map(ctx112, lam))
    assert np.abs(back - lam).max() < 1e-10


def test_exp_map_rejects_nonzero_sum(ctx1):
    with pytest.raises(g.NotInTangentSpace):
        g.exp_map(ctx1, [0.5, 0.2, 0.1])


def test_exp_map_neutral_element_with_zero_part():
    # weight ratio 1e8 is accepted, but the neutral element's last part is
    # exactly zero at float64 precision, so xi / e_a cannot be formed
    ctx = g.make_context([1e-4, 1, 1e4])
    assert ctx.e_a[2] == 0.0 and (ctx.e_a[:2] > 0).all()
    lam = np.array([0.2, 0.3, 0.5])
    assert np.isfinite(g.log_map(ctx, lam)).all()
    assert g.distance(ctx, lam, [0.5, 0.3, 0.2]) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in ([0.1, -0.1, 0.0], np.zeros((4, 3))):
            with pytest.raises(g.ZeroComponent, match=r"^part 3 of the neutral element is zero"):
                g.exp_map(ctx, xi)


def test_as_tangent_huge_parts_keep_their_verdicts():
    # sum |x| of these rows overflows float64; neither sum may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in ([1e308, -1e308, 0.0], [1.7e308, -1.7e308, 1e294], [1e308, 1e308, -1e308]):
            g.as_tangent(xi)
        rows = np.array([[1e308, -1e308, 0.0], [0.5, -0.5, 0.0], [1e-300, -1e-300, 0.0]])
        assert g.as_tangent(rows) is not None
        for xi in ([1e300, 1e300, -1e300], [1e300, -1e300, 1e287], [0.5, -0.5, 2e-10]):
            with pytest.raises(g.NotInTangentSpace):
                g.as_tangent(xi)


def test_as_tangent_accepts_a_row_whose_sum_is_inf_minus_inf():
    # sum |x| overflows, so the tolerance is inf; the row's own sum is
    # inf - inf = nan, which never exceeds it, and neither sum may warn
    row = [1e308, 1e308, -1e308, -1e308] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(g.as_tangent(row), row)
        assert g.as_tangent(np.array([row, [0.5, -0.5] * 8])).shape == (2, 16)


def test_as_tangent_verdicts_are_those_of_the_full_tolerance():
    # as_tangent forms sum |x| only for rows whose |sum| exceeds 1e-10; each
    # verdict must still be that of |sum| > max(1e-10, 64 eps sum |x|)
    def accepted(row):
        with np.errstate(over="ignore", invalid="ignore"):
            return not abs(row.sum()) > max(1e-10, 64 * np.finfo(float).eps * np.abs(row).sum())

    def pad(head):
        return np.array(head + [0.0] * (16 - len(head)))

    rows = [pad([1e300, -1e300, 1.5e-10]), pad([1.0, -1.0, 1.5e-10]), pad([1.0, -1.0, 0.5e-10]),
            pad([1e300, 1e300, -1e300]), pad([1e308, 1e308, -1e308]), np.array([1e308, 1e308, -1e308, -1e308] * 4)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(rows[4].sum()) and np.isnan(rows[5].sum())
    verdicts = [True, False, True, False, True, True]
    assert [accepted(row) for row in rows] == verdicts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row, ok in zip(rows, verdicts):
            if ok:
                assert g.as_tangent(row) is not None
            else:
                with pytest.raises(g.NotInTangentSpace):
                    g.as_tangent(row)
        assert g.as_tangent(np.array([r for r, ok in zip(rows, verdicts) if ok])).shape == (4, 16)
        with pytest.raises(g.NotInTangentSpace):
            g.as_tangent(np.array(rows))


@pytest.mark.parametrize("weights", ([1, 1, 1, 1, 1], [1, 1, 1, 1, 2], [0.7, 1.3, 2.2, 0.9, 3.1]))
def test_exp_map_leaves_its_input_unchanged(weights):
    # the closure solve writes its closed points over a buffer it owns: not
    # over the input of exp_map, nor of any other public call that closes
    ctx = g.make_context(weights)
    rng = np.random.default_rng(7)
    lam = random_compositions(rng, 300, 5)
    xi = g.log_map(ctx, lam)
    x, wide = (np.exp(rng.uniform(-s, s, size=(300, 5))) for s in (5, 350))
    assert np.log(wide).max() > 300  # past 300, x_last**2 of the quadratic form overflows float64
    calls = [(g.exp_map, xi), (g.closure, x), (g.closure, wide), (g.solve_t, x), (g.solve_t, wide),
             (lambda c, v: g.perturb(c, v, v), lam), (lambda c, v: g.power(c, 1.7, v), lam)]
    for op, batch in calls:
        for arg in (batch, batch[0]):
            before = arg.tobytes()
            out = op(ctx, arg)
            assert arg.tobytes() == before and not np.shares_memory(out, arg)
            # a read-only input is read, never written
            frozen = arg.copy()
            frozen.setflags(write=False)
            assert np.asarray(op(ctx, frozen)).tobytes() == np.asarray(out).tobytes()


def test_exp_map_lift_overflow_reported():
    ctx = g.make_context([1, 2, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.NumericalOverflow, match="too large"):
            g.exp_map(ctx, [1e307, -1e307, 0.0])
        np.testing.assert_allclose(g.exp_map(ctx, [1e3, -1e3, 0.0]).sum(), 1.0, atol=1e-12)
        # a tiny part of e_a scales its own component of the lift past the bound
        tiny = g.make_context([1e-4, 1, 95])
        assert 0 < tiny.e_a[2] < 1e-298
        with pytest.raises(g.NumericalOverflow, match="too large"):
            g.exp_map(tiny, [1e5, 0.0, -1e5])
        for xi in ([1e5, -1e5, 0.0], [1.0, 0.0, -1.0]):
            np.testing.assert_allclose(g.exp_map(tiny, xi).sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Group operations on the simplex


def test_perturb_frozen(ctx1):
    out = g.perturb(ctx1, [0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
    np.testing.assert_allclose(out, [10 / 29, 9 / 29, 10 / 29], atol=1e-15)


def test_perturb_neutral_and_inverse(ctx_gen):
    rng = np.random.default_rng(12)
    lam = random_compositions(rng, 50, 4)
    assert np.abs(g.perturb(ctx_gen, lam, ctx_gen.e_a) - lam).max() < 1e-13
    assert np.abs(g.perturb(ctx_gen, lam, g.invert(ctx_gen, lam)) - ctx_gen.e_a).max() < 1e-13


def test_invert_frozen(ctx1):
    out = g.invert(ctx1, [0.2, 0.3, 0.5])
    np.testing.assert_allclose(out, [15 / 31, 10 / 31, 6 / 31], atol=1e-15)


def test_invert_involution(ctx_gen):
    rng = np.random.default_rng(13)
    lam = random_compositions(rng, 50, 4)
    assert np.abs(g.invert(ctx_gen, g.invert(ctx_gen, lam)) - lam).max() < 1e-12
    np.testing.assert_allclose(g.invert(ctx_gen, ctx_gen.e_a), ctx_gen.e_a, atol=1e-14)


def test_power_frozen(ctx1):
    out = g.power(ctx1, 2.0, [0.2, 0.3, 0.5])
    np.testing.assert_allclose(out, np.array([0.04, 0.09, 0.25]) / 0.38, atol=1e-15)


def test_power_scalars(ctx_gen):
    rng = np.random.default_rng(14)
    lam = random_compositions(rng, 20, 4)
    assert np.abs(g.power(ctx_gen, 1.0, lam) - lam).max() < 1e-13
    assert np.abs(g.power(ctx_gen, 0.0, lam) - ctx_gen.e_a).max() < 1e-13


def test_power_log_homogeneity(ctx_gen):
    rng = np.random.default_rng(15)
    lam = random_compositions(rng, 50, 4)
    for c in (-2.0, 0.5, 3.0):
        lhs = g.log_map(ctx_gen, g.power(ctx_gen, c, lam))
        rhs = c * g.log_map(ctx_gen, lam)
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# Inner product and distance


def test_inner_frozen(ctx1):
    lam = [0.2, 0.3, 0.5]
    assert g.inner(ctx1, lam, lam) == pytest.approx(0.0468493880410205, abs=1e-15)
    assert g.inner(ctx1, lam, ctx1.e_a) == pytest.approx(0.0, abs=1e-15)
    assert g.inner(ctx1, lam, lam) >= 0
    assert g.norm(ctx1, lam) == pytest.approx(np.sqrt(0.0468493880410205), abs=1e-15)


def test_distance_frozen(ctx1):
    d = g.distance(ctx1, [0.2, 0.3, 0.5], np.ones(3) / 3)
    assert d == pytest.approx(0.2164471945787713, abs=1e-15)
    assert g.distance(ctx1, [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_distance_bi_invariance(ctx_gen):
    rng = np.random.default_rng(16)
    lam = random_compositions(rng, 100, 4)
    mu = random_compositions(rng, 100, 4)
    gam = random_compositions(rng, 100, 4)
    d0 = g.distance(ctx_gen, lam, mu)
    d1 = g.distance(ctx_gen, g.perturb(ctx_gen, gam, lam), g.perturb(ctx_gen, gam, mu))
    assert np.abs(d0 - d1).max() < 1e-12


def test_distance_explicit_weighted_formula(ctx_gen):
    rng = np.random.default_rng(17)
    lam = random_compositions(rng, 200, 4)
    mu = random_compositions(rng, 200, 4)
    d_impl = g.distance(ctx_gen, lam, mu)
    d_formula = weighted_distance(ctx_gen.e_a, ctx_gen.a, ctx_gen.s, lam, mu)
    assert np.abs(d_impl - d_formula).max() < 1e-10


def test_distance_is_tangent_euclidean(ctx_gen):
    rng = np.random.default_rng(18)
    lam = random_compositions(rng, 100, 4)
    mu = random_compositions(rng, 100, 4)
    d = g.distance(ctx_gen, lam, mu)
    e = np.linalg.norm(g.log_map(ctx_gen, lam) - g.log_map(ctx_gen, mu), axis=1)
    assert np.abs(d - e).max() < 1e-14


def pairwise_distance_ref(ctx, rows):
    # every ordered pair differenced on its own, row by row
    xi = g.log_map(ctx, rows)
    out = np.zeros((len(xi), len(xi)))
    for i in range(len(xi)):
        out[i] = np.linalg.norm(xi - xi[i], axis=1)
        out[i, i] = 0.0
    return out


def test_pairwise_distance(ctx_gen):
    rng = np.random.default_rng(19)
    for ctx, m in ((ctx_gen, 10), (g.make_context(np.ones(51)), 40), (g.make_context(random_weights(rng, 51)), 40)):
        lam = random_compositions(rng, m, ctx.dim)
        M = g.pairwise_distance(ctx, lam)
        assert M.shape == (m, m)
        assert np.array_equal(M, M.T)
        assert not np.diag(M).any()
        assert np.array_equal(M, pairwise_distance_ref(ctx, lam))
        assert abs(M[2, 7] - g.distance(ctx, lam[2], lam[7])) < 1e-12


@pytest.mark.parametrize("width, m", ((5, 1), (5, 2), (5, 60), (51, 30)))
def test_pairwise_distance_is_symmetric_and_matches_distance(width, m):
    rng = np.random.default_rng(width * m)
    ctx = g.make_context(random_weights(rng, width))
    lam = random_compositions(rng, m, width)
    M = g.pairwise_distance(ctx, lam)
    assert np.array_equal(M, M.T) and not np.diag(M).any()
    for i in range(m):
        np.testing.assert_allclose(M[i], g.distance(ctx, lam, lam[i]), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("width", range(2, 8))
def test_pairwise_distance_by_parts_keeps_numpys_row_bits(width):
    # Below 8 parts the matrix is formed one row block and one part at a time.
    # Each row keeps the bits of numpy's norm of that row's differences, on
    # one block (128 rows), one block + 1 and several blocks (200, 300 rows).
    rng = np.random.default_rng(width)
    ctx = g.make_context(random_weights(rng, width))
    for m in (0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 300):
        lam = random_compositions(rng, m, width) if m else np.empty((0, width))
        xi = g.log_map(ctx, lam)
        ref = np.empty((m, m))
        for i in range(m):
            d = xi - xi[i]
            ref[i] = np.sqrt(np.add.reduce(d * d, axis=-1))
        M = g.pairwise_distance(ctx, lam)
        assert M.shape == (m, m)
        assert np.array_equal(M.view(np.uint64), ref.view(np.uint64)), m


# ---------------------------------------------------------------------------
# Scale-equivalence classes


def test_equivalent_uniform_scaling(ctx1):
    assert g.equivalent(ctx1, [2, 3, 5], [14, 21, 35])


def test_equivalent_weighted_class(ctx112):
    w = np.array([1.0, 2.0, 3.0])
    alpha = 0.5
    v = w * alpha ** np.array([1.0, 1.0, 2.0])
    assert g.equivalent(ctx112, v, w)
    assert not g.equivalent(ctx112, [1, 2, 3], [2, 4, 6])


# ---------------------------------------------------------------------------
# Algebraic structure (sampled; the acceptance suite runs the bulk version)


def test_vector_space_axioms_sampled():
    rng = np.random.default_rng(20)
    for _ in range(8):
        dim = int(rng.integers(3, 9))
        ctx = g.make_context(random_weights(rng, dim))
        lam = random_compositions(rng, 50, dim)
        mu = random_compositions(rng, 50, dim)
        gam = random_compositions(rng, 50, dim)
        c, d = rng.uniform(-3, 3, size=2)
        assert g.distance(ctx, g.perturb(ctx, lam, mu), g.perturb(ctx, mu, lam)).max() < 1e-10
        lhs = g.perturb(ctx, g.perturb(ctx, lam, mu), gam)
        rhs = g.perturb(ctx, lam, g.perturb(ctx, mu, gam))
        assert g.distance(ctx, lhs, rhs).max() < 1e-10
        assert g.distance(ctx, g.power(ctx, c, g.perturb(ctx, lam, mu)),
                          g.perturb(ctx, g.power(ctx, c, lam), g.power(ctx, c, mu))).max() < 1e-10
        assert g.distance(ctx, g.power(ctx, c + d, lam),
                          g.perturb(ctx, g.power(ctx, c, lam), g.power(ctx, d, lam))).max() < 1e-10


def test_diagram_commutes_sampled(ctx_gen):
    rng = np.random.default_rng(21)
    v = rng.uniform(-5, 5, size=(200, 4))
    lhs = g.exp_map(ctx_gen, v @ g.closure_jacobian(ctx_gen).T)
    rhs = g.closure(ctx_gen, np.exp(v))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_parameter_scaling_invariance():
    rng = np.random.default_rng(22)
    a = random_weights(rng, 5)
    ctx_a = g.make_context(a)
    ctx_ca = g.make_context(4.2 * a)
    x = np.exp(rng.uniform(-4, 4, size=(100, 5)))
    lam = random_compositions(rng, 100, 5)
    mu = random_compositions(rng, 100, 5)
    assert np.abs(g.closure(ctx_a, x) - g.closure(ctx_ca, x)).max() < 1e-10
    assert np.abs(g.log_map(ctx_a, lam) - g.log_map(ctx_ca, lam)).max() < 1e-10
    assert np.abs(g.distance(ctx_a, lam, mu) - g.distance(ctx_ca, lam, mu)).max() < 1e-10


def test_uniform_specialization_against_oracles():
    rng = np.random.default_rng(23)
    for dim in (2, 4, 6):
        ctx = g.make_context(np.full(dim, 2.5))
        lam = random_compositions(rng, 100, dim)
        mu = random_compositions(rng, 100, dim)
        assert np.abs(g.log_map(ctx, lam) - clr(lam) / dim).max() < 1e-12
        xi = g.log_map(ctx, lam)
        assert np.abs(g.exp_map(ctx, xi) - softmax(dim * xi)).max() < 1e-12
        assert np.abs(g.distance(ctx, lam, mu) - uniform_distance(lam, mu)).max() < 1e-12


# ---------------------------------------------------------------------------
# Validation of value types


def test_composition_sum_tolerance(ctx1):
    lam = np.array([0.2, 0.3, 0.5]) * (1 + 5e-10)
    out = g.as_composition(lam)
    assert abs(out.sum() - 1.0) < 1e-15
    with pytest.raises(g.NotOnSimplex):
        g.as_composition([0.2, 0.3, 0.6])


def test_tangent_sum_tolerance():
    g.as_tangent([0.5, -0.5, 0.0])
    with pytest.raises(g.NotInTangentSpace):
        g.as_tangent([0.5, -0.5, 1e-6])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_closure_idempotence_hypothesis(dim, seed):
    rng = np.random.default_rng(seed)
    ctx = g.make_context(random_weights(rng, dim))
    x = np.exp(rng.uniform(-6, 6, size=dim))
    once = g.closure(ctx, x)
    twice = g.closure(ctx, once)
    assert np.abs(twice - once).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_log_exp_roundtrip_hypothesis(dim, seed):
    rng = np.random.default_rng(seed)
    ctx = g.make_context(random_weights(rng, dim))
    lam = random_compositions(rng, 1, dim)[0]
    assert np.abs(g.exp_map(ctx, g.log_map(ctx, lam)) - lam).max() < 1e-10
