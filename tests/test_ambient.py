import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcoda import DimensionMismatch, NonPositiveValue, NumericalOverflow, amb_exp, amb_log, odot, oplus
from gcoda.ambient import as_free

finite_pos = st.floats(min_value=1e-6, max_value=1e6)


def vectors(dim=3, elements=finite_pos):
    return st.lists(elements, min_size=dim, max_size=dim).map(np.array)


def test_oplus_componentwise_product():
    np.testing.assert_allclose(oplus([2, 3], [0.5, 2]), [1, 6])


def test_oplus_identity_and_inverse():
    x = np.array([2.0, 3.0, 5.0])
    np.testing.assert_array_equal(oplus(x, np.ones(3)), x)
    np.testing.assert_allclose(oplus([2, 3, 5], [0.5, 1 / 3, 0.2]), [1, 1, 1], rtol=1e-15)


def test_oplus_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        oplus([1, 2], [1, 2, 3])


def test_oplus_pairs_operands_like_the_simplex_operations():
    # equal shapes, or one vector against every row; anything else is a
    # DimensionMismatch, not numpy's broadcasting ValueError
    rows = np.arange(1.0, 7.0).reshape(2, 3)
    np.testing.assert_array_equal(oplus(rows, [1, 2, 3]), rows * [1, 2, 3])
    with pytest.raises(DimensionMismatch, match="matching shapes"):
        oplus(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatch, match="component counts differ"):
        oplus(np.ones((2, 3)), np.ones(4))


@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 1.0], [[1.0, 2.0], [-np.inf, 1.0]]])
def test_as_free_rejects_non_finite(bad):
    with pytest.raises(NonPositiveValue, match="finite"):
        as_free(bad)


def test_as_free_rejects_three_axes():
    with pytest.raises(DimensionMismatch, match=r"shape \(2, 2, 2\)"):
        as_free(np.ones((2, 2, 2)))


def test_oplus_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        oplus([1, -2], [1, 2])


def test_odot_power():
    np.testing.assert_allclose(odot(2, [2, 3]), [4, 9], rtol=1e-15)
    x = np.array([0.4, 1.7, 3.0])
    np.testing.assert_allclose(odot(0, x), np.ones(3))
    np.testing.assert_allclose(odot(1, x), x, rtol=1e-15)


def test_amb_exp_log_examples():
    np.testing.assert_array_equal(amb_exp([0.0, 0.0]), [1.0, 1.0])
    np.testing.assert_allclose(amb_exp([1, 2]), [np.e, np.e**2], rtol=1e-15)
    np.testing.assert_array_equal(amb_log([1, 1, 1]), [0, 0, 0])
    np.testing.assert_allclose(amb_log([np.e, np.e**2]), [1, 2], rtol=1e-15)


def test_amb_exp_overflow_reported():
    with pytest.raises(NumericalOverflow):
        amb_exp([1000.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: oplus([1e200, 1], [1e200, 1]), "componentwise product overflowed"),
    (lambda: oplus([1e-200, 1], [1e-200, 1]), "componentwise product underflowed to 0"),
    (lambda: odot(1e5, [2, 3]), "componentwise power overflowed"),
    (lambda: odot(-1e5, [2, 3]), "componentwise power underflowed to 0"),
    (lambda: odot(math.inf, [1, 2]), "componentwise power overflowed"),
    (lambda: amb_exp([1000.0, 0.0]), "componentwise exponential overflowed"),
    (lambda: amb_exp([-1e4, 0.0]), "componentwise exponential underflowed to 0"),
    (lambda: amb_exp(np.array([[0.0, 1.0], [-800.0, 0.0]])), "componentwise exponential underflowed to 0"),
])
def test_orthant_maps_stay_in_the_orthant(call, message):
    # a part that overflows or underflows to 0 leaves the open orthant: an
    # error, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match=f"^{message}$"):
            call()


def test_amb_log_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        amb_log([1.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(vectors(), vectors(), vectors())
def test_group_commutative_associative(x, y, z):
    np.testing.assert_allclose(oplus(x, y), oplus(y, x), rtol=1e-13)
    np.testing.assert_allclose(oplus(oplus(x, y), z), oplus(x, oplus(y, z)), rtol=1e-13)


@settings(max_examples=80, deadline=None)
@given(
    vectors(),
    vectors(),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_scalar_distributivity(x, y, c, d):
    np.testing.assert_allclose(odot(c, oplus(x, y)), oplus(odot(c, x), odot(c, y)), rtol=1e-12)
    np.testing.assert_allclose(odot(c + d, x), oplus(odot(c, x), odot(d, x)), rtol=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-300, max_value=300), min_size=2, max_size=6).map(np.array))
def test_exp_log_mutually_inverse(v):
    np.testing.assert_allclose(amb_log(amb_exp(v)), v, rtol=1e-14, atol=1e-12)


def test_exp_log_roundtrip_random_positive():
    rng = np.random.default_rng(0)
    x = np.exp(rng.uniform(-300, 300, size=(200, 5)))
    rel = np.abs(amb_exp(amb_log(x)) - x) / x
    assert rel.max() < 1e-14


def test_log_is_homomorphism():
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(-5, 5, size=(100, 4)))
    y = np.exp(rng.uniform(-5, 5, size=(100, 4)))
    lhs = amb_log(oplus(x, y))
    rhs = amb_log(x) + amb_log(y)
    assert np.abs(lhs - rhs).max() < 1e-13
