import numpy as np
import pytest

import gcoda as g
from _oracles import normalize, random_compositions, random_weights


@pytest.fixture(scope="module")
def ctx1():
    return g.make_context([1, 1, 1])


@pytest.fixture(scope="module")
def ctx112():
    return g.make_context([1, 1, 2])


def test_select_basic():
    np.testing.assert_array_equal(g.select((1, 2), [2, 3, 5]), [2, 3])
    np.testing.assert_array_equal(g.select((3, 1), [2, 3, 5]), [5, 2])
    np.testing.assert_array_equal(g.select((1, 2, 3), [2, 3, 5]), [2, 3, 5])


def test_select_rows():
    rows = np.array([[2.0, 3.0, 5.0], [1.0, 4.0, 9.0]])
    np.testing.assert_array_equal(g.select((3, 1), rows), [[5, 2], [9, 1]])


def test_selection_validation():
    with pytest.raises(g.DimensionMismatch):
        g.SubSelection((1,))
    with pytest.raises(g.DimensionMismatch):
        g.SubSelection((1, 1))
    with pytest.raises(g.DimensionMismatch):
        g.SubSelection((0, 2))
    with pytest.raises(g.DimensionMismatch):
        g.select((1, 4), [2, 3, 5])


def test_subcompose_uniform(ctx1):
    sub_ctx, sub = g.subcompose(ctx1, (1, 2), [0.2, 0.3, 0.5])
    np.testing.assert_allclose(sub, [0.4, 0.6], atol=1e-15)
    np.testing.assert_allclose(sub_ctx.a, [1, 1])


def test_subcompose_rejects_data_of_another_width(ctx1):
    # the selection fits both widths, but the data are not the geometry's
    for lam in ([0.1, 0.2, 0.3, 0.4], [[0.5, 0.5], [0.25, 0.75]]):
        with pytest.raises(g.DimensionMismatch, match=r"^expected 3 components, got \d$"):
            g.subcompose(ctx1, (1, 2), lam)


def test_subcompose_full_selection_is_identity(ctx112):
    lam = np.array([0.3, 0.25, 0.45])
    sub_ctx, sub = g.subcompose(ctx112, (1, 2, 3), lam)
    np.testing.assert_allclose(sub_ctx.a, ctx112.a)
    assert np.abs(sub - lam).max() < 1e-13


def test_subcompose_well_defined():
    # selecting then closing gives the same result from any class representative
    rng = np.random.default_rng(40)
    for _ in range(20):
        dim = int(rng.integers(4, 8))
        ctx = g.make_context(random_weights(rng, dim))
        k = int(rng.integers(2, dim))
        sel = tuple(1 + rng.permutation(dim)[:k])
        x = np.exp(rng.uniform(-4, 4, size=dim))
        _, from_closed = g.subcompose(ctx, sel, g.closure(ctx, x))
        sub_ctx = g.make_context(g.select(sel, ctx.a))
        direct = g.closure(sub_ctx, g.select(sel, x))
        assert np.abs(from_closed - direct).max() < 1e-11


def test_permute_identity(ctx112):
    same = g.permute_context(ctx112, (1, 2, 3))
    np.testing.assert_array_equal(same.a, ctx112.a)
    np.testing.assert_allclose(same.e_a, ctx112.e_a, atol=1e-14)


def test_permute_reversal(ctx112):
    rev = g.permute_context(ctx112, (3, 2, 1))
    np.testing.assert_allclose(rev.a, [2, 1, 1])
    np.testing.assert_allclose(rev.e_a, ctx112.e_a[[2, 1, 0]], atol=1e-11)


def test_permute_validation(ctx112):
    with pytest.raises(g.DimensionMismatch):
        g.permute_context(ctx112, (1, 2))
    with pytest.raises(g.DimensionMismatch):
        g.permute_context(ctx112, (1, 2, 2))


def test_permutation_preserves_distances():
    rng = np.random.default_rng(41)
    for _ in range(10):
        dim = int(rng.integers(3, 7))
        ctx = g.make_context(random_weights(rng, dim))
        perm = tuple(1 + rng.permutation(dim))
        pctx = g.permute_context(ctx, perm)
        lam = random_compositions(rng, 50, dim)
        mu = random_compositions(rng, 50, dim)
        plam, pmu = g.select(perm, lam), g.select(perm, mu)
        assert np.abs(g.distance(pctx, plam, pmu) - g.distance(ctx, lam, mu)).max() < 1e-11


def test_sub_is_linear():
    rng = np.random.default_rng(42)
    for _ in range(10):
        dim = int(rng.integers(4, 8))
        ctx = g.make_context(random_weights(rng, dim))
        k = int(rng.integers(2, dim))
        sel = tuple(1 + rng.permutation(dim)[:k])
        lam = random_compositions(rng, 30, dim)
        mu = random_compositions(rng, 30, dim)
        c = float(rng.uniform(-3, 3))
        sub_ctx, sub_lam = g.subcompose(ctx, sel, lam)
        _, sub_mu = g.subcompose(ctx, sel, mu)
        _, sub_sum = g.subcompose(ctx, sel, g.perturb(ctx, lam, mu))
        assert g.distance(sub_ctx, sub_sum, g.perturb(sub_ctx, sub_lam, sub_mu)).max() < 1e-10
        _, sub_scaled = g.subcompose(ctx, sel, g.power(ctx, c, lam))
        assert g.distance(sub_ctx, sub_scaled, g.power(sub_ctx, c, sub_lam)).max() < 1e-10


def test_sub_arithmetic_mean_coherence():
    rng = np.random.default_rng(43)
    for _ in range(10):
        dim = int(rng.integers(4, 8))
        ctx = g.make_context(random_weights(rng, dim))
        k = int(rng.integers(2, dim))
        sel = tuple(1 + rng.permutation(dim)[:k])
        rows = random_compositions(rng, int(rng.integers(2, 12)), dim)
        sub_ctx, sub_mean = g.subcompose(ctx, sel, g.frechet_mean(ctx, rows))
        _, sub_rows = g.subcompose(ctx, sel, rows)
        mean_of_subs = g.frechet_mean(sub_ctx, sub_rows)
        assert g.distance(sub_ctx, sub_mean, mean_of_subs) < 1e-10


def test_permuted_uniform_subcomposition_matches_normalization(ctx1):
    rng = np.random.default_rng(44)
    lam = random_compositions(rng, 20, 3)
    _, sub = g.subcompose(ctx1, (3, 1), lam)
    assert np.abs(sub - normalize(lam[:, [2, 0]])).max() < 1e-13
