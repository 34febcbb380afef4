import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedlp.errors import NotIntegral
from signedlp.padic import p_integral, padic_valuation


def test_from_rational_integral_and_valuation():
    (x,) = p_integral([3], 1, 3)
    assert x == 3
    assert padic_valuation(x, 3) == 1


def test_from_rational_not_integral():
    with pytest.raises(NotIntegral, match="1/3 has negative 3-adic valuation"):
        p_integral([1], 3, 3)
    # the first offending numerator is named in lowest terms
    with pytest.raises(NotIntegral, match="-1/3 has negative 3-adic valuation"):
        p_integral([18, -3, 1], 9, 3)


def test_from_rational_reduces_common_p_content():
    # 3/6 = 1/2 and 9/6 = 3/2 in Z_3, each times the unit part 2 of 6
    assert p_integral([3, 9], 6, 3) == [1, 3]
    assert p_integral([-45, 0], 18, 3) == [-5, 0]


def test_valuation_examples():
    assert padic_valuation(18, 3) == 2
    assert padic_valuation(41, 3) == 0
    assert padic_valuation(-81, 3) == 4
    with pytest.raises(ValueError):
        padic_valuation(0, 3)


scalars = st.integers(min_value=-3**6, max_value=3**6)


@given(scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_ultrametric_properties(m, n):
    M = 6

    def val(x):
        # v_3 of the residue mod 3^M, capped at M
        r = x % 3**M
        return M if r == 0 else padic_valuation(r, 3)

    assert val(m * n) == min(val(m) + val(n), M)
    assert val(m + n) >= min(val(m), val(n))


@given(st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_integer_round_trip(n):
    # an integer over a unit denominator comes back exactly, whatever its size
    assert p_integral([n], 1, 7) == [n]
    assert p_integral([n * 7**3], 7**3 * 2, 7) == [n]
