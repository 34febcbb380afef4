import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedlp.errors import NotIntegral
from signedlp.padic import padic_valuation, residues


def test_from_rational_half_mod_81():
    (x,) = residues([1], 2, 3, 4)
    assert x == 41
    assert (2 * x) % 81 == 1


def test_from_rational_integral_and_valuation():
    (x,) = residues([3], 1, 3, 4)
    assert x == 3
    assert padic_valuation(x, 3) == 1


def test_from_rational_not_integral():
    with pytest.raises(NotIntegral, match="1/3 has negative 3-adic valuation"):
        residues([1], 3, 3, 4)
    # the first offending numerator is named in lowest terms
    with pytest.raises(NotIntegral, match="-1/3 has negative 3-adic valuation"):
        residues([18, -3, 1], 9, 3, 4)


def test_from_rational_reduces_common_p_content():
    # 3/6 = 1/2 and 9/6 = 3/2 in Z_3
    assert residues([3, 9], 6, 3, 4) == [41, 42]


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


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
@settings(max_examples=100, deadline=None)
def test_rational_inverse_pair(a, b):
    p, M = 5, 6
    if a % p == 0 or b % p == 0:
        return
    (x,), (y,) = residues([a], b, p, M), residues([b], a, p, M)
    assert x * y % p**M == 1


@given(st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_integer_round_trip(n):
    p, M = 7, 5
    assert residues([n], 1, p, M) == [n % p**M]
