import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedlp.errors import MixedContext, NonUnit, NotIntegral
from signedlp.padic import (
    AT_LEAST_PRECISION,
    EXACT_ZERO,
    PadicScalar,
)


def test_from_rational_half_mod_81():
    x = PadicScalar.from_rational(1, 2, 3, 4)
    assert x.residue == 41
    assert (2 * x.residue) % 81 == 1


def test_from_rational_integral_and_valuation():
    x = PadicScalar.from_rational(3, 1, 3, 4)
    assert x.residue == 3
    assert x.valuation() == 1


def test_from_rational_not_integral():
    with pytest.raises(NotIntegral):
        PadicScalar.from_rational(1, 3, 3, 4)


def test_from_rational_reduces_common_p_content():
    # 3/6 = 1/2 in Z_3
    assert PadicScalar.from_rational(3, 6, 3, 4).residue == 41


def test_valuation_examples():
    assert PadicScalar.from_integer(18, 3, 4).valuation() == 2
    z = PadicScalar(3, 4, 0, exact_zero=True)
    assert z.valuation() is EXACT_ZERO
    fuzz = PadicScalar(3, 4, 0)
    assert fuzz.valuation() is AT_LEAST_PRECISION
    assert PadicScalar.from_integer(41, 3, 4).valuation() == 0


def test_ring_ops_examples():
    half = PadicScalar.from_rational(1, 2, 3, 4)
    assert (half + half).residue == 1
    assert PadicScalar.from_integer(2, 3, 4).inverse().residue == 41
    with pytest.raises(NonUnit):
        PadicScalar.from_integer(3, 3, 4).inverse()


def test_mixed_context_rejected():
    a = PadicScalar.from_integer(1, 3, 4)
    b = PadicScalar.from_integer(1, 5, 4)
    with pytest.raises(MixedContext):
        a + b
    with pytest.raises(MixedContext):
        a * PadicScalar.from_integer(1, 3, 5)


def test_exact_zero_propagation():
    z = PadicScalar(3, 4, 0, exact_zero=True)
    one = PadicScalar.from_integer(1, 3, 4)
    assert (z * one).exact_zero
    assert (z + z).exact_zero
    assert not (z + one).exact_zero


scalars = st.integers(min_value=-3**6, max_value=3**6)


@given(scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_ultrametric_properties(m, n):
    M = 6
    x = PadicScalar.from_integer(m, 3, M)
    y = PadicScalar.from_integer(n, 3, M)
    vx = x.valuation()
    vy = y.valuation()

    def as_int(v):
        if v is EXACT_ZERO or v is AT_LEAST_PRECISION:
            return M
        return v

    prod = x * y
    assert as_int(prod.valuation()) == min(as_int(vx) + as_int(vy), M)
    assert as_int((x + y).valuation()) >= min(as_int(vx), as_int(vy))


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
@settings(max_examples=100, deadline=None)
def test_rational_inverse_pair(a, b):
    p, M = 5, 6
    if a % p == 0 or b % p == 0:
        return
    x = PadicScalar.from_rational(a, b, p, M)
    y = PadicScalar.from_rational(b, a, p, M)
    assert (x * y).residue == 1


@given(st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_integer_round_trip(n):
    p, M = 7, 5
    assert PadicScalar.from_rational(n, 1, p, M).residue == n % p**M


def test_precision_reduction():
    x = PadicScalar.from_integer(45, 3, 6)
    assert x.reduce_precision(3).residue == 45 % 27
    with pytest.raises(MixedContext):
        x.reduce_precision(7)
