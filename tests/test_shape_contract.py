"""The array convention: parts lie on the last axis.

A single vector and a one-row matrix run the same arithmetic in the same
order, so the vector's result is bitwise row 0 of the matrix's result, and a
scalar result of a single vector is a Python ``float`` or ``bool``.  Under
general weights the arithmetic runs in two loops: the closure solve takes a
matrix through ``geometry._newton_logt`` and a vector through
``geometry._newton_vector``.
"""

import numpy as np
import pytest

import gcoda as g
from gcoda import geometry, stats

WEIGHTS = {
    "uniform": (1.0, 1.0, 1.0, 1.0, 1.0),
    "quadratic": (1.0, 1.0, 1.0, 1.0, 2.0),
    "general": (0.5, 1.0, 1.5, 2.0, 3.0),
}
DRAWS = 20


def _composition(rng, d):
    x = np.exp(rng.normal(0.0, 3.0, d))
    return x / x.sum()


def _positive(rng, d):
    return np.exp(rng.uniform(-20.0, 20.0, d))


def _equivalent_pair(ctx, rng):
    v = _positive(rng, ctx.dim)
    w = v * np.exp(ctx.a * rng.normal()) if rng.random() < 0.5 else _positive(rng, ctx.dim)
    return v, w


# name -> (call, operand maker); each operand is one vector
CASES = {
    "closure": (g.closure, lambda ctx, rng: (_positive(rng, ctx.dim),)),
    "solve_t": (g.solve_t, lambda ctx, rng: (_positive(rng, ctx.dim),)),
    "log_map": (g.log_map, lambda ctx, rng: (_composition(rng, ctx.dim),)),
    "exp_map": (g.exp_map, lambda ctx, rng: (g.log_map(ctx, _composition(rng, ctx.dim)),)),
    "perturb": (g.perturb, lambda ctx, rng: (_composition(rng, ctx.dim), _composition(rng, ctx.dim))),
    "power": (lambda ctx, lam: g.power(ctx, -2.3, lam), lambda ctx, rng: (_composition(rng, ctx.dim),)),
    "invert": (g.invert, lambda ctx, rng: (_composition(rng, ctx.dim),)),
    "inner": (g.inner, lambda ctx, rng: (_composition(rng, ctx.dim), _composition(rng, ctx.dim))),
    "norm": (g.norm, lambda ctx, rng: (_composition(rng, ctx.dim),)),
    "distance": (g.distance, lambda ctx, rng: (_composition(rng, ctx.dim), _composition(rng, ctx.dim))),
    "equivalent": (g.equivalent, _equivalent_pair),
    "coords": (lambda ctx, lam: g.coords(ctx, g.helmert_basis(ctx.dim), lam),
               lambda ctx, rng: (_composition(rng, ctx.dim),)),
    "from_coords": (lambda ctx, z: g.from_coords(ctx, g.helmert_basis(ctx.dim), z),
                    lambda ctx, rng: (rng.normal(0.0, 2.0, ctx.dim - 1),)),
    "gaussian_density": (
        lambda ctx, lam: g.gaussian_density(
            g.make_gaussian(ctx, g.helmert_basis(ctx.dim), np.full(ctx.dim - 1, 0.1), 0.5 * np.eye(ctx.dim - 1)), lam),
        lambda ctx, rng: (_composition(rng, ctx.dim),)),
}
SCALAR = {"solve_t": float, "inner": float, "norm": float, "distance": float,
          "equivalent": bool, "gaussian_density": float}


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_single_vector_is_row_zero_of_one_row_matrix(weights, name):
    ctx = g.make_context(WEIGHTS[weights])
    call, operands = CASES[name]
    rng = np.random.default_rng([list(CASES).index(name), list(WEIGHTS).index(weights)])
    for _ in range(DRAWS):
        vecs = operands(ctx, rng)
        single = call(ctx, *vecs)
        batch = call(ctx, *(v[None, :] for v in vecs))
        assert np.shape(batch)[0] == 1
        assert _bits(single) == _bits(batch[0])
        if name in SCALAR:
            assert type(single) is SCALAR[name]
        else:
            assert single.shape == batch.shape[1:]
        if len(vecs) == 2:
            # one vector against a one-row matrix, either way round
            assert _bits(call(ctx, vecs[0], vecs[1][None, :])) == _bits(batch)
            assert _bits(call(ctx, vecs[0][None, :], vecs[1])) == _bits(batch)


def _count_as_composition(monkeypatch):
    calls = []
    real = geometry.as_composition

    def counted(lam):
        calls.append(1)
        return real(lam)

    monkeypatch.setattr(geometry, "as_composition", counted)
    # also any direct call from stats itself
    monkeypatch.setattr(stats, "as_composition", counted, raising=False)
    return calls


@pytest.mark.parametrize("weights", WEIGHTS)
def test_dataset_functions_validate_rows_once(weights, monkeypatch):
    ctx = g.make_context(WEIGHTS[weights])
    basis = g.helmert_basis(ctx.dim)
    rng = np.random.default_rng(7)
    rows = np.array([_composition(rng, ctx.dim) for _ in range(30)])
    calls = _count_as_composition(monkeypatch)
    stats.pca(ctx, basis, rows, 2)
    assert len(calls) == 1
    stats.frechet_mean(ctx, rows)
    assert len(calls) == 2


def test_equivalent_compares_one_vector_with_each_row():
    ctx = g.make_context(WEIGHTS["general"])
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    rows = np.stack([v * np.exp(ctx.a * 0.7), v[::-1]])
    assert g.equivalent(ctx, v, rows).tolist() == [True, False]
    with pytest.raises(g.DimensionMismatch):
        g.equivalent(ctx, rows, np.repeat(rows[:1], 3, axis=0))


@pytest.mark.parametrize("name", ["perturb", "inner", "distance", "equivalent"])
def test_row_matrices_of_different_lengths_are_a_dimension_mismatch(name):
    # numpy's broadcasting ValueError is not a GcodaError
    ctx = g.make_context(WEIGHTS["general"])
    rng = np.random.default_rng(11)
    two = np.array([_composition(rng, ctx.dim) for _ in range(2)])
    three = np.array([_composition(rng, ctx.dim) for _ in range(3)])
    with pytest.raises(g.DimensionMismatch):
        CASES[name][0](ctx, two, three)
