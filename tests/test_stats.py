import numpy as np
import pytest
from scipy.integrate import quad

import gcoda as g
from gcoda.stats import _eigh_descending
from _oracles import normal_density, normalize, random_compositions, random_weights


@pytest.fixture(scope="module")
def ctx1():
    return g.make_context([1, 1, 1])


@pytest.fixture(scope="module")
def ctx112():
    return g.make_context([1, 1, 2])


@pytest.fixture(scope="module")
def basis3():
    return g.helmert_basis(3)


# ---------------------------------------------------------------------------
# Group mean


def test_mean_single_row(ctx112):
    lam = np.array([0.3, 0.25, 0.45])
    assert np.abs(g.frechet_mean(ctx112, lam) - lam).max() < 1e-13


def test_mean_of_inverse_pair(ctx112):
    rng = np.random.default_rng(50)
    lam = random_compositions(rng, 1, 3)[0]
    rows = np.vstack([lam, g.invert(ctx112, lam)])
    assert np.abs(g.frechet_mean(ctx112, rows) - ctx112.e_a).max() < 1e-13


def test_mean_frozen_value(ctx1):
    # oracle: normalized componentwise geometric means
    rows = np.array([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])
    expected = [0.33913441998370525, 0.32173116003258956, 0.33913441998370525]
    np.testing.assert_allclose(g.frechet_mean(ctx1, rows), expected, atol=1e-15)


def test_mean_equals_coordinate_average(ctx112, basis3):
    rng = np.random.default_rng(51)
    rows = random_compositions(rng, 40, 3)
    mean = g.frechet_mean(ctx112, rows)
    via_coords = g.from_coords(ctx112, basis3, g.coords(ctx112, basis3, rows).mean(axis=0))
    assert np.abs(mean - via_coords).max() < 1e-12


def test_mean_minimizes_sum_of_squares(ctx112, basis3):
    rng = np.random.default_rng(52)
    rows = random_compositions(rng, 15, 3)
    mean = g.frechet_mean(ctx112, rows)
    f_mean = np.sum(g.pairwise_distance(ctx112, np.vstack([mean, rows]))[0, 1:] ** 2)
    for _ in range(25):
        eps = rng.normal(size=2)
        eps = 1e-2 * eps / np.linalg.norm(eps)
        cand = g.perturb(ctx112, mean, g.from_coords(ctx112, basis3, eps))
        f_cand = np.sum(g.pairwise_distance(ctx112, np.vstack([cand, rows]))[0, 1:] ** 2)
        assert f_mean <= f_cand


# ---------------------------------------------------------------------------
# Covariance


def test_covariance_identical_rows_is_zero(ctx112, basis3):
    rows = np.tile([0.3, 0.25, 0.45], (6, 1))
    assert np.abs(g.sample_covariance(ctx112, basis3, rows)).max() < 1e-16


def test_covariance_two_rows_trace(ctx112, basis3):
    rng = np.random.default_rng(53)
    rows = random_compositions(rng, 2, 3)
    cov = g.sample_covariance(ctx112, basis3, rows)
    vals = np.linalg.eigvalsh(cov)
    assert vals.min() > -1e-14 and (vals > 1e-12).sum() == 1
    d = g.distance(ctx112, rows[0], rows[1])
    assert np.trace(cov) == pytest.approx(0.5 * d * d, rel=1e-12)


def test_covariance_translation_invariant(ctx112, basis3):
    rng = np.random.default_rng(54)
    rows = random_compositions(rng, 25, 3)
    gam = random_compositions(rng, 1, 3)[0]
    shifted = g.perturb(ctx112, rows, gam)
    c0 = g.sample_covariance(ctx112, basis3, rows)
    c1 = g.sample_covariance(ctx112, basis3, shifted)
    assert np.abs(c0 - c1).max() < 1e-10


def test_covariance_needs_two_rows(ctx112, basis3):
    with pytest.raises(g.DimensionMismatch):
        g.sample_covariance(ctx112, basis3, [[0.3, 0.25, 0.45]])


# ---------------------------------------------------------------------------
# Symmetric eigensolver


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(55)
    for n in (2, 3, 6, 9):
        M = rng.normal(size=(n, n))
        S = M @ M.T + 0.1 * np.eye(n)
        vals, vecs = _eigh_descending(S)
        ref = np.sort(np.linalg.eigvalsh(S))[::-1]
        assert np.abs(vals - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(recon - S).max() < 1e-10 * max(1.0, np.abs(S).max())
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-12


def test_jacobi_sign_convention_deterministic():
    rng = np.random.default_rng(56)
    S = rng.normal(size=(4, 4))
    S = S @ S.T
    _, v1 = _eigh_descending(S)
    _, v2 = _eigh_descending(S.copy())
    np.testing.assert_array_equal(v1, v2)
    for j in range(4):
        col = v1[:, j]
        assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0


# ---------------------------------------------------------------------------
# PCA


def test_pca_recovers_generating_geodesic(ctx112, basis3):
    rng = np.random.default_rng(57)
    base = random_compositions(rng, 1, 3)[0]
    direction = g.log_map(ctx112, random_compositions(rng, 1, 3)[0])
    direction /= np.linalg.norm(direction)
    ts = rng.uniform(-2, 2, size=30)
    rows = g.exp_map(ctx112, g.log_map(ctx112, base) + ts[:, None] * direction)
    pc = g.pca(ctx112, basis3, rows, 2)
    # second eigenvalue sits at the eps * ||cov|| float floor of a rank-1 matrix
    assert pc.variances[0] > 1e-3 and pc.variances[1] < 1e-12 * pc.variances[0]
    cos = abs(pc.directions[0] @ direction)
    assert cos > 1 - 1e-8


def test_pca_two_points(ctx112, basis3):
    rng = np.random.default_rng(58)
    rows = random_compositions(rng, 2, 3)
    pc = g.pca(ctx112, basis3, rows, 1)
    # both points on the line through the mean: residuals vanish
    line = g.pc_line(ctx112, pc, 0, pc.scores[:, 0])
    assert np.abs(line - rows).max() < 1e-10


def test_pca_matches_euclidean_oracle(ctx112, basis3):
    from _oracles import euclidean_pca

    rng = np.random.default_rng(59)
    rows = random_compositions(rng, 60, 3)
    z = g.coords(ctx112, basis3, rows)
    pc = g.pca(ctx112, basis3, rows, 1)
    vals, _, resid_oracle = euclidean_pca(z, 1)
    assert abs(pc.variances[0] - vals[0]) < 1e-10
    zc = z - z.mean(axis=0)
    resid = float(((zc - np.outer(pc.scores[:, 0], g.coords(ctx112, basis3, g.pc_line(ctx112, pc, 0, [1.0])[0]) - g.coords(ctx112, basis3, pc.mean))) ** 2).sum())
    assert abs(resid - resid_oracle) < 1e-8


def test_pca_first_direction_beats_random_unit_directions(ctx112, basis3):
    # variational statement: the fitted geodesic minimizes summed squared
    # residuals among unit directions through the mean
    rng = np.random.default_rng(64)
    rows = random_compositions(rng, 30, 3)
    pc = g.pca(ctx112, basis3, rows, 1)
    centered = g.log_map(ctx112, rows) - g.log_map(ctx112, pc.mean)
    best = float(((centered - np.outer(pc.scores[:, 0], pc.directions[0])) ** 2).sum())
    for _ in range(200):
        u = rng.normal(size=3)
        u -= u.mean()
        u /= np.linalg.norm(u)
        resid = float(((centered - np.outer(centered @ u, u)) ** 2).sum())
        assert best <= resid + 1e-12


def _relative_eigen_residual(ctx, basis, rows, pc):
    cov = g.sample_covariance(ctx, basis, rows)
    vecs = (pc.directions @ basis.vectors.T).T
    return np.linalg.norm(cov @ vecs - vecs * pc.variances) / np.linalg.norm(cov)


def test_pca_satisfies_its_definition():
    # checked against the definition of PCA only, with no eigensolver of its
    # own: eigen-residual, orthonormal directions, and a leading direction
    # that no random unit direction beats
    rng = np.random.default_rng(65)
    ctx, basis = g.make_context(random_weights(rng, 6)), g.helmert_basis(6)
    rows = random_compositions(rng, 200, 6)
    pc = g.pca(ctx, basis, rows, 5)
    assert _relative_eigen_residual(ctx, basis, rows, pc) <= 1e-13
    assert np.abs(pc.directions @ pc.directions.T - np.eye(5)).max() < 1e-12
    assert np.all(np.diff(pc.variances) <= 0)
    centered = g.log_map(ctx, rows) - g.log_map(ctx, pc.mean)
    u = rng.normal(size=(10_000, 6))
    u -= u.mean(axis=1, keepdims=True)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    spread = ((centered @ u.T) ** 2).sum(axis=0) / (len(rows) - 1)
    assert spread.max() <= pc.variances[0] * (1 + 1e-12)


def test_pca_eigen_residual_on_wide_compositions():
    # 51 parts put the covariance entries near 4e-4; an eigensolver that
    # stops on an absolute off-diagonal target leaves relative residuals of
    # 1e-12 to 1e-10 at that scale
    ctx, basis = g.make_context(np.ones(51)), g.helmert_basis(51)
    for seed in (61, 62, 63):
        rows = normalize(np.random.default_rng(seed).uniform(size=(3000, 51)))
        pc = g.pca(ctx, basis, rows, 50)
        assert _relative_eigen_residual(ctx, basis, rows, pc) <= 1e-13


def test_pca_structure(ctx112, basis3):
    rng = np.random.default_rng(60)
    rows = random_compositions(rng, 40, 3)
    pc = g.pca(ctx112, basis3, rows, 2)
    assert pc.variances[0] >= pc.variances[1] >= 0
    gram = pc.directions @ pc.directions.T
    assert np.abs(gram - np.eye(2)).max() < 1e-10
    cov = g.sample_covariance(ctx112, basis3, rows)
    assert abs(pc.variances.sum() - np.trace(cov)) < 1e-10
    assert np.abs(pc.directions.sum(axis=1)).max() < 1e-12
    assert np.abs(pc.scores.mean(axis=0)).max() < 1e-12


def test_pca_k_validation(ctx112, basis3):
    rng = np.random.default_rng(61)
    rows = random_compositions(rng, 10, 3)
    with pytest.raises(g.DimensionMismatch):
        g.pca(ctx112, basis3, rows, 0)
    with pytest.raises(g.DimensionMismatch):
        g.pca(ctx112, basis3, rows, 3)


def test_pc_line_basics(ctx112, basis3):
    rng = np.random.default_rng(62)
    rows = random_compositions(rng, 12, 3)
    pc = g.pca(ctx112, basis3, rows, 1)
    np.testing.assert_allclose(g.pc_line(ctx112, pc, 0, [0.0])[0], pc.mean, atol=1e-14)
    pts = g.pc_line(ctx112, pc, 0, [-1.3, 1.3])
    d_minus = g.distance(ctx112, pts[0], pc.mean)
    d_plus = g.distance(ctx112, pts[1], pc.mean)
    assert abs(d_minus - d_plus) < 1e-10
    assert np.abs(pts.sum(axis=1) - 1.0).max() < 1e-12
    with pytest.raises(g.DimensionMismatch):
        g.pc_line(ctx112, pc, 1, [0.0])


# ---------------------------------------------------------------------------
# Random source


def test_random_source_deterministic():
    a = g.RandomSource(123).normals(101)
    b = g.RandomSource(123).normals(101)
    np.testing.assert_array_equal(a, b)


def test_random_source_chunking_matches():
    whole = g.RandomSource(9).normals(64)
    rs = g.RandomSource(9)
    parts = np.concatenate([rs.normals(16), rs.normals(48)])
    np.testing.assert_array_equal(whole, parts)


def test_random_source_negative_seed_wraps():
    a = g.RandomSource(-1).normals(8)
    b = g.RandomSource((1 << 64) - 1).normals(8)
    np.testing.assert_array_equal(a, b)


def test_random_source_moments():
    z = g.RandomSource(2024).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z**3).mean()) < 0.03


# ---------------------------------------------------------------------------
# Normal law on the simplex


def test_gaussian_validation(ctx112, basis3):
    with pytest.raises(g.NotPositiveDefinite):
        g.make_gaussian(ctx112, basis3, np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(g.NotPositiveDefinite):
        g.make_gaussian(ctx112, basis3, np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(g.DimensionMismatch):
        g.make_gaussian(ctx112, basis3, np.zeros(3), np.eye(2))


def test_gaussian_mean_is_neutral_for_standard_law(ctx112, basis3):
    law = g.make_gaussian(ctx112, basis3, np.zeros(2), np.eye(2))
    np.testing.assert_allclose(g.gaussian_mean(law), ctx112.e_a, atol=1e-14)


def test_gaussian_mean_general(ctx112, basis3):
    mu = np.array([0.4, -1.1])
    law = g.make_gaussian(ctx112, basis3, mu, np.eye(2))
    np.testing.assert_allclose(g.gaussian_mean(law), g.from_coords(ctx112, basis3, mu), atol=1e-14)


def test_density_at_neutral(ctx112, basis3):
    law = g.make_gaussian(ctx112, basis3, np.zeros(2), np.eye(2))
    assert g.gaussian_density(law, ctx112.e_a) == pytest.approx((2 * np.pi) ** -1, rel=1e-12)


def test_density_matches_coordinate_normal(ctx112, basis3):
    rng = np.random.default_rng(63)
    mu = np.array([0.3, -0.2])
    cov = np.array([[1.3, 0.4], [0.4, 0.9]])
    law = g.make_gaussian(ctx112, basis3, mu, cov)
    z = rng.uniform(-3, 3, size=(200, 2))
    lam = g.from_coords(ctx112, basis3, z)
    dens = g.gaussian_density(law, lam)
    ref = normal_density(z, mu, cov)
    assert np.abs(dens - ref).max() < 1e-12


def test_density_integrates_to_one_dim2():
    ctx = g.make_context([1.0, 2.5])
    b = g.helmert_basis(2)
    law = g.make_gaussian(ctx, b, np.array([0.3]), np.array([[0.8]]))
    total, err = quad(lambda z: g.gaussian_density(law, g.from_coords(ctx, b, np.array([z]))), -12, 12)
    assert abs(total - 1.0) < 1e-6


def test_sampling_deterministic(ctx112, basis3):
    law = g.make_gaussian(ctx112, basis3, np.zeros(2), np.eye(2))
    r1 = g.gaussian_sample(law, g.RandomSource(77), 50)
    r2 = g.gaussian_sample(law, g.RandomSource(77), 50)
    np.testing.assert_array_equal(r1, r2)
    assert np.abs(r1.sum(axis=1) - 1.0).max() < 1e-12


def test_sampling_statistics(ctx112, basis3):
    law = g.make_gaussian(ctx112, basis3, np.zeros(2), np.eye(2))
    rows = g.gaussian_sample(law, g.RandomSource(5), 4000)
    z = g.coords(ctx112, basis3, rows)
    assert np.abs(z.mean(axis=0)).max() < 4 / np.sqrt(4000)
    cov = np.cov(z.T)
    assert np.abs(cov - np.eye(2)).max() < 0.15
    assert g.distance(ctx112, g.frechet_mean(ctx112, rows), ctx112.e_a) < 0.1


def test_sampling_rejects_nonpositive_n(ctx112, basis3):
    law = g.make_gaussian(ctx112, basis3, np.zeros(2), np.eye(2))
    with pytest.raises(g.DimensionMismatch):
        g.gaussian_sample(law, g.RandomSource(1), 0)
