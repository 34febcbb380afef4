import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedlp.errors import MixedContext, NotIntegral
from signedlp.padic import PadicScalar, padic_valuation


def test_from_rational_half_mod_81():
    x = PadicScalar.from_rational(1, 2, 3, 4)
    assert x.residue == 41
    assert (2 * x.residue) % 81 == 1


def test_from_rational_integral_and_valuation():
    x = PadicScalar.from_rational(3, 1, 3, 4)
    assert x.residue == 3
    assert padic_valuation(x.residue, 3) == 1


def test_from_rational_not_integral():
    with pytest.raises(NotIntegral):
        PadicScalar.from_rational(1, 3, 3, 4)


def test_from_rational_reduces_common_p_content():
    # 3/6 = 1/2 in Z_3
    assert PadicScalar.from_rational(3, 6, 3, 4).residue == 41


def test_valuation_examples():
    assert padic_valuation(PadicScalar.from_integer(18, 3, 4).residue, 3) == 2
    assert padic_valuation(PadicScalar.from_integer(41, 3, 4).residue, 3) == 0
    # the two kinds of zero
    z = PadicScalar(3, 4, 0, exact_zero=True)
    assert z.is_zero_at_precision and z.exact_zero
    fuzz = PadicScalar(3, 4, 0)
    assert fuzz.is_zero_at_precision and not fuzz.exact_zero
    assert PadicScalar.from_integer(0, 3, 4).exact_zero
    assert not PadicScalar.from_integer(81, 3, 4).exact_zero


def test_ring_ops_examples():
    half = PadicScalar.from_rational(1, 2, 3, 4)
    assert (half + half).residue == 1
    assert (half * PadicScalar.from_integer(2, 3, 4)).residue == 1
    assert (half - half).is_zero_at_precision


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

    def val(s):
        # min(v_p(residue), M); M for either kind of zero
        return M if s.residue == 0 else padic_valuation(s.residue, 3)

    assert val(x * y) == min(val(x) + val(y), M)
    assert val(x + y) >= min(val(x), val(y))


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
