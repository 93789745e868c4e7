import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gcoda as g
from gcoda.geometry import SolverSettings, _newton_logt
from _oracles import (
    clr,
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


def test_weight_ratio_above_bound_rejected():
    with pytest.raises(g.ZeroComponent, match="ratio"):
        g.make_context([1e-150, 1.0, 1e150])
    with pytest.raises(g.ZeroComponent, match="ratio"):
        g.make_context([1.0, 2e16])


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


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(f_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_iter=0)


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


def test_newton_root_on_bracket_end():
    # one part dominates, so g is linear with slope min(a) and the root
    # sits on an end of the closed-form bracket
    a = np.array([0.1, 1.0, 10.0])
    logx = np.array([[13.69616873, -23.02132862, -45.90264761], [-300.0, -200.0, 13.7]])
    t = _newton_logt(a, logx, SolverSettings(max_iter=12))
    np.testing.assert_allclose(t, [-logx[0, 0] / 0.1, -logx[1, 2] / 10.0], rtol=1e-14)


def test_quadratic_guard_falls_back_to_newton(ctx112):
    # outside the closed form's safe magnitude range the general solver takes
    # over; results must still agree with any in-range class representative
    huge = np.array([1e200, 2e200, 3e200])
    out = g.closure(ctx112, huge)
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12
    rescaled = huge * np.exp(-230.0 * ctx112.a)
    assert np.abs(out - g.closure(ctx112, rescaled)).max() < 1e-11


def test_power_overflow_reported(ctx112):
    with pytest.raises(g.NumericalOverflow):
        g.power(ctx112, float("inf"), [0.2, 0.3, 0.5])


def test_quadratic_exponent_matches_general_solver():
    rng = np.random.default_rng(6)
    for dim in (3, 5, 8):
        a = np.ones(dim)
        a[-1] = 2.0
        logx = rng.uniform(-6, 6, size=(200, dim))
        t_closed = quadratic_exponent(1.0, np.exp(logx))
        t_newton = _newton_logt(a, logx, SolverSettings())
        assert np.abs(t_closed - t_newton).max() < 1e-12


def test_uniform_exponent_matches_general_solver():
    rng = np.random.default_rng(7)
    a = np.full(4, 1.7)
    logx = rng.uniform(-6, 6, size=(200, 4))
    t_closed = -np.log(np.exp(logx).sum(axis=1)) / 1.7
    t_newton = _newton_logt(a, logx, SolverSettings())
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


def test_pairwise_distance(ctx_gen):
    rng = np.random.default_rng(19)
    lam = random_compositions(rng, 10, 4)
    M = g.pairwise_distance(ctx_gen, lam)
    assert M.shape == (10, 10)
    assert np.abs(M - M.T).max() < 1e-14
    assert np.abs(np.diag(M)).max() < 1e-12
    assert abs(M[2, 7] - g.distance(ctx_gen, lam[2], lam[7])) < 1e-12


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
