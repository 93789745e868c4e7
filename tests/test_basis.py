import numpy as np
import pytest

import gcoda as g
from _oracles import ilr, random_compositions, random_weights


@pytest.fixture(scope="module")
def ctx112():
    return g.make_context([1, 1, 2])


def test_helmert_dim2():
    b = g.helmert_basis(2)
    np.testing.assert_allclose(b.vectors, [[1 / np.sqrt(2), -1 / np.sqrt(2)]], atol=1e-15)


def test_helmert_dim3():
    b = g.helmert_basis(3)
    expected = np.array([
        [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
        [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)],
    ])
    np.testing.assert_allclose(b.vectors, expected, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_helmert_orthonormal_zero_sum(dim):
    b = g.helmert_basis(dim)
    gram = b.vectors @ b.vectors.T
    assert np.abs(gram - np.eye(dim - 1)).max() < 1e-14
    assert np.abs(b.vectors.sum(axis=1)).max() < 1e-14


def test_helmert_rejects_dim1():
    with pytest.raises(g.DimensionMismatch):
        g.helmert_basis(1)


def test_coords_of_neutral(ctx112):
    b = g.helmert_basis(3)
    assert np.abs(g.coords(ctx112, b, ctx112.e_a)).max() < 1e-12


def test_coords_match_scaled_ilr_for_uniform_weights():
    rng = np.random.default_rng(30)
    for dim in (3, 5, 7):
        ctx = g.make_context(np.ones(dim))
        b = g.helmert_basis(dim)
        lam = random_compositions(rng, 100, dim)
        assert np.abs(g.coords(ctx, b, lam) - ilr(lam) / dim).max() < 1e-12


def test_coords_roundtrip(ctx112):
    rng = np.random.default_rng(31)
    b = g.helmert_basis(3)
    lam = random_compositions(rng, 200, 3)
    back = g.from_coords(ctx112, b, g.coords(ctx112, b, lam))
    assert np.abs(back - lam).max() < 1e-10


def test_from_coords_zero_is_neutral(ctx112):
    b = g.helmert_basis(3)
    np.testing.assert_allclose(g.from_coords(ctx112, b, np.zeros(2)), ctx112.e_a, atol=1e-14)


def test_from_coords_roundtrip_bounded_coordinates(ctx112):
    rng = np.random.default_rng(32)
    b = g.helmert_basis(3)
    z = rng.uniform(-5, 5, size=(500, 2))
    back = g.coords(ctx112, b, g.from_coords(ctx112, b, z))
    assert np.abs(back - z).max() < 1e-10


def test_from_coords_linearity(ctx112):
    rng = np.random.default_rng(33)
    b = g.helmert_basis(3)
    z1 = rng.uniform(-2, 2, size=(100, 2))
    z2 = rng.uniform(-2, 2, size=(100, 2))
    lhs = g.from_coords(ctx112, b, z1 + z2)
    rhs = g.perturb(ctx112, g.from_coords(ctx112, b, z1), g.from_coords(ctx112, b, z2))
    assert g.distance(ctx112, lhs, rhs).max() < 1e-10


def test_coords_is_linear_isometry():
    rng = np.random.default_rng(34)
    for dim in (3, 6):
        ctx = g.make_context(random_weights(rng, dim))
        b = g.helmert_basis(dim)
        lam = random_compositions(rng, 100, dim)
        mu = random_compositions(rng, 100, dim)
        dz = np.linalg.norm(g.coords(ctx, b, lam) - g.coords(ctx, b, mu), axis=1)
        assert np.abs(dz - g.distance(ctx, lam, mu)).max() < 1e-10


def test_simplex_basis_elements_orthonormal():
    rng = np.random.default_rng(35)
    for dim in (3, 5):
        ctx = g.make_context(random_weights(rng, dim))
        b = g.helmert_basis(dim)
        elems = g.from_coords(ctx, b, np.eye(dim - 1))
        for i in range(dim - 1):
            for j in range(dim - 1):
                expected = 1.0 if i == j else 0.0
                assert abs(g.inner(ctx, elems[i], elems[j]) - expected) < 1e-10


def test_dimension_checks(ctx112):
    b4 = g.helmert_basis(4)
    with pytest.raises(g.DimensionMismatch):
        g.coords(ctx112, b4, ctx112.e_a)
    with pytest.raises(g.DimensionMismatch):
        g.from_coords(ctx112, g.helmert_basis(3), np.zeros(3))


def test_from_coords_rejects_a_basis_of_another_dimension(ctx112):
    with pytest.raises(g.DimensionMismatch, match="basis dimension"):
        g.from_coords(ctx112, g.helmert_basis(4), np.zeros(3))
