import math
import os

import mpmath
import numpy as np
import pytest

from signedlp import curves
from signedlp.curves import (
    a_bad_prime,
    a_ell,
    an_expansion,
    classify_reduction,
    curve_from_dict,
    fricke_residual,
    ingest_curve,
    is_odd_prime,
    periods,
    prime_divisors,
    verify_conductor,
)
from signedlp.errors import BadReduction, ParseError, SingularCurve

from conftest import period_integral_oracle, reference_periods, smoothed_l_sum

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_ingest_37a1(store):
    c = store.curve("37a1")
    assert c.a_invariants == (0, 0, 1, -1, 0)
    assert c.discriminant == 37
    assert c.conductor == 37 and c.rank == 1
    assert verify_conductor(c)


def test_ingest_53a1_conductor_oracle(store):
    c = store.curve("53a1")
    assert c.discriminant == -53
    assert verify_conductor(c)


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        curve_from_dict({
            "label": "cusp", "a_invariants": [0, 0, 0, 0, 0],
            "conductor": 1, "rank": 0,
        })


def test_is_odd_prime_matches_trial_division():
    for n in range(-3, 20000):
        assert is_odd_prime(n) == (n >= 3 and n % 2 == 1 and prime_divisors(n) == [n]), n
    # strong pseudoprimes to the bases up to 7 and up to 23, and a 61-bit prime
    assert not is_odd_prime(3215031751) and not is_odd_prime(3825123056546413051)
    assert is_odd_prime(2**61 - 1)


_RECORD_37A1 = {"label": "37a1", "a_invariants": [0, 0, 1, -1, 0], "conductor": 37, "rank": 1}


def test_default_e_sequence():
    c = curve_from_dict(_RECORD_37A1)
    assert list(c.e_sequence.e) == [1]


@pytest.mark.parametrize("field, value", [
    ("e_sequence", [2]),
    ("rank", "one"),
    ("rank", 1.7),
    ("conductor", None),
    ("fricke_sign", "x"),
    ("e_sequence", 5),
    ("e_sequence", [1, "a"]),
    ("e_sequence", [1, -1]),
    ("a_invariants", [0, 0, True, -1, 0]),
], ids=["e_sequence-head-not-rank", "rank-string", "rank-float", "conductor-null",
        "fricke_sign-string", "e_sequence-not-list", "e_sequence-string-entry",
        "e_sequence-negative-entry", "a_invariants-bool-entry"])
def test_malformed_field_is_parse_error(field, value):
    # each field must be a JSON integer (e_sequence a list of nonnegative
    # ones), refused at ingest under its own name
    with pytest.raises(ParseError, match=field):
        curve_from_dict({**_RECORD_37A1, field: value})


def test_a_ell_values(store):
    c37, c53 = store.curve("37a1"), store.curve("53a1")
    assert a_ell(c37, 3) == -3
    assert a_ell(c37, 17) == 0
    assert a_ell(c37, 19) == 0
    assert a_ell(c37, 2) == -2
    assert a_ell(c53, 3) == -3
    assert a_ell(c53, 5) == 0
    assert a_ell(c53, 11) == 0
    with pytest.raises(BadReduction):
        a_ell(c37, 37)


def test_hasse_bound(store):
    c = store.curve("53a1")
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 97, 101):
        if 53 % ell == 0:
            continue
        a = a_ell(c, ell)
        assert a * a <= 4 * ell


def test_an_expansion_multiplicative(store):
    c = store.curve("37a1")
    an = an_expansion(c, 200)
    assert an[1] == 1
    assert an[9] == (-3) ** 2 - 3  # Hecke recursion at 3
    assert an[6] == an[2] * an[3]
    for m in range(2, 15):
        for n in range(2, 200 // m):
            if math.gcd(m, n) == 1:
                assert an[m * n] == an[m] * an[n]


FIXTURES = ("11a1", "37a1", "53a1")

# every prime in [10^3, 2*10^5] with |a_ell| within 1 of floor(2 sqrt(ell)),
# the ends of the Hasse interval
HASSE_EDGE = {
    "11a1": (1367, 2143, 12809),
    "37a1": (1021, 2437, 2671, 6007, 8839, 21911, 26699, 36857, 49531, 61933),
    "53a1": (1559, 14627, 46279, 126989),
}


def _good_primes(curve, lo, hi):
    spf = curves._smallest_prime_factors(hi)
    return [q for q in range(lo, hi) if spf[q] == q and curve.conductor % q]


def _short_model_count(curve, ell):
    """a_ell counted on y^2 = x^3 - 27 c4 x - 54 c6, isomorphic for ell >= 5."""
    c4, c6 = curve.c_invariants
    short = curve_from_dict({
        "label": "short", "a_invariants": [0, 0, 0, -27 * c4, -54 * c6],
        "conductor": curve.conductor, "rank": 0,
    })
    return curves._a_ell_naive(short, ell)


@pytest.mark.parametrize("label", FIXTURES)
def test_a_ell_matches_naive_count_below_20000(store, label):
    # a_ell counts exhaustively below curves._BSGS_MIN_ELL and by
    # Shanks-Mestre from there on: both against the exhaustive count
    c = store.curve(label)
    for ell in _good_primes(c, 5, 20000):
        assert a_ell(c, ell) == curves._a_ell_naive(c, ell), ell


@pytest.mark.parametrize("label", FIXTURES)
def test_a_ell_at_hasse_edges_and_large_primes(store, label):
    c = store.curve(label)
    for ell in HASSE_EDGE[label] + (99259,):
        a = a_ell(c, ell)
        assert a == _short_model_count(c, ell)
        if ell in HASSE_EDGE[label]:
            assert abs(a) >= math.isqrt(4 * ell) - 1


def _reference_smallest_prime_factors(n):
    spf = np.zeros(n + 1, dtype=np.int64)
    spf[1] = 1
    for i in range(2, n + 1):
        if spf[i] == 0:
            spf[i::i] = np.where(spf[i::i] == 0, i, spf[i::i])
    return spf


def _reference_an_expansion(curve, n_max):
    """The per-n recursion the vectorized fill replaced, kept verbatim."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    out[1] = 1
    spf = _reference_smallest_prime_factors(n_max)
    prime_powers: dict = {}

    def app(p, k):
        key = (p, k)
        if key in prime_powers:
            return prime_powers[key]
        if curve.conductor % p == 0:
            val = a_bad_prime(curve, p) ** k
        else:
            ap = int(a_ell(curve, p))
            a_prev, a_cur = 1, ap
            for _ in range(k - 1):
                a_prev, a_cur = a_cur, ap * a_cur - p * a_prev
            val = a_cur
        prime_powers[key] = val
        return val

    for n in range(2, n_max + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        out[n] = app(p, k) * out[m] if m > 1 else app(p, k)
    return out


def _check_fresh_expansion(curve, n, monkeypatch):
    monkeypatch.setattr(curves, "_EXPANSIONS", {})
    assert np.array_equal(an_expansion(curve, n), _reference_an_expansion(curve, n))
    assert np.array_equal(
        curves._smallest_prime_factors(n)[2:], _reference_smallest_prime_factors(n)[2:]
    )


@pytest.mark.parametrize("label", FIXTURES)
def test_an_expansion_matches_per_n_recursion(store, label, monkeypatch):
    # package callers ask for at most a few hundred terms on the fixtures
    _check_fresh_expansion(store.curve(label), 1000, monkeypatch)


def test_an_expansion_matches_per_n_recursion_to_30030(store, monkeypatch):
    # 30030 = 2*3*5*7*11*13: the fill meets every count of distinct prime
    # factors up to six.  Both sides take their prime coefficients from
    # a_ell: this checks the fill, the sweeps above the counter.
    _check_fresh_expansion(store.curve("37a1"), 30030, monkeypatch)


def test_an_expansion_extends_in_place(store, monkeypatch):
    c = store.curve("53a1")
    monkeypatch.setattr(curves, "_EXPANSIONS", {})
    small = an_expansion(c, 100)
    grown = an_expansion(c, 30011)    # a prime end, past a prime power
    assert len(small) == 101 and len(grown) == 30012
    assert np.array_equal(an_expansion(c, 5000), grown[:5001])
    monkeypatch.setattr(curves, "_EXPANSIONS", {})
    assert np.array_equal(grown, an_expansion(c, 30011))
    grown[1] = 0    # a copy: the stored expansion keeps a_1 = 1
    assert an_expansion(c, 30011)[1] == 1


def test_bad_prime_coefficients(store):
    # rank-one prime-conductor curves are nonsplit multiplicative
    assert a_bad_prime(store.curve("37a1"), 37) == -1
    assert a_bad_prime(store.curve("53a1"), 53) == -1
    assert a_bad_prime(store.curve("11a1"), 11) == 1


def test_bad_prime_two_and_composite_conductors():
    # a_2(14a1) = -1 (nonsplit); reading -c6 mod 2 as a square once gave +1,
    # and ingest then rejected 14a1 with either Fricke sign
    c14 = ingest_curve(os.path.join(DATA, "14a1.json"))
    assert (a_bad_prime(c14, 2), a_bad_prime(c14, 7)) == (-1, 1)
    assert fricke_residual(c14) < 1e-9
    c15 = ingest_curve(os.path.join(DATA, "15a1.json"))
    assert (a_bad_prime(c15, 3), a_bad_prime(c15, 5)) == (-1, 1)


def test_classify_reduction(store):
    c37 = store.curve("37a1")
    r = classify_reduction(c37, 17)
    assert r.kind == "good-supersingular" and r.a_p == 0
    r = classify_reduction(c37, 3)
    assert r.kind == "good-supersingular" and r.a_p == -3
    assert classify_reduction(c37, 37).kind == "multiplicative"
    assert classify_reduction(c37, 5).kind == "good-ordinary"


def test_supersingular_ap_shape(store):
    # at p = 3 supersingularity allows a_p in {0, +-3}; p >= 5 forces a_p = 0
    for label, p in (("37a1", 3), ("53a1", 3)):
        r = classify_reduction(store.curve(label), p)
        assert r.a_p in (0, 3, -3)
    for label, p in (("53a1", 5), ("53a1", 11), ("37a1", 17), ("37a1", 19)):
        r = classify_reduction(store.curve(label), p)
        assert r.a_p == 0


def test_periods_37a1(store):
    per = periods(store.curve("37a1"))
    assert per.real_components == 2
    assert per.omega_plus > 0
    assert abs(per.omega_plus - 5.986917292463919) < 1e-12
    assert per.omega_minus.real == 0 and per.omega_minus.imag > 0


def test_float_periods_match_reference(store):
    # both signs of the discriminant: 11a1, 11a3, 14a1, 53a1 negative; 15a1,
    # 37a1, 5077a1 positive
    fixtures = [store.curve(label) for label in ("11a1", "37a1", "53a1")]
    fixtures += [ingest_curve(os.path.join(DATA, f"{label}.json"))
                 for label in ("11a3", "14a1", "15a1", "5077a1")]
    assert {c.discriminant > 0 for c in fixtures} == {True, False}
    for c in fixtures:
        per, ref = periods(c), reference_periods(c, 40)
        assert per.real_components == ref.real_components
        assert abs(per.omega_plus - ref.omega_plus) < 1e-15 * ref.omega_plus, c.label
        nu = ref.omega_minus.imag
        assert per.omega_minus.real == 0
        assert abs(per.omega_minus.imag - nu) < 1e-15 * nu, c.label


def test_periods_against_quadrature_oracle(store):
    digits = 25
    for label in ("37a1", "53a1"):
        c = store.curve(label)
        per = reference_periods(c, digits)
        oracle = period_integral_oracle(c, digits)
        with mpmath.workdps(digits + 10):
            least = per.omega_plus / per.real_components
            err = abs(least - mpmath.re(oracle))
            assert err < mpmath.mpf(10) ** (-(digits - 2))


def test_l_value_vanishes_at_one(store):
    # L(E, 1) = S(t) - eps S(1/t) at t = 1.3: the two smoothed sums cancel
    # for both rank-one fixtures
    for label in ("37a1", "53a1"):
        c = store.curve(label)
        l_value = smoothed_l_sum(c, 1.3) - c.fricke_sign * smoothed_l_sum(c, 1 / 1.3)
        assert abs(l_value) / periods(c).omega_plus < 1e-12


def test_fricke_sign_verified_numerically(store):
    for label in ("11a1", "37a1", "53a1"):
        c = store.curve(label)
        assert fricke_residual(c) < 1e-9
        # flipping the sign must break the functional equation badly
        flipped = curve_from_dict({
            "label": c.label, "a_invariants": list(c.a_invariants),
            "conductor": c.conductor, "rank": c.rank,
            "e_sequence": list(c.e_sequence.e),
            "fricke_sign": -c.fricke_sign,
        })
        assert fricke_residual(flipped) > 1e-3


def test_conductor_unverifiable_at_additive_2_and_3():
    # y^2 = x^3 + x (additive at 2) and y^2 = x^3 + 1 (additive at 2 and 3)
    for ai in ([0, 0, 0, 1, 0], [0, 0, 0, 0, 1]):
        c = curve_from_dict({"label": "x", "a_invariants": ai, "conductor": 1, "rank": 0})
        assert verify_conductor(c) is None


def test_imaginary_period_against_quadrature(store):
    # Delta < 0: nu = 2 int_(-oo)^e1 dx / sqrt(-cubic(x)), e1 the real root
    digits = 25
    for label in ("11a1", "53a1"):
        c = store.curve(label)
        b2, b4, b6, _ = c.b_invariants
        nu = reference_periods(c, digits).omega_minus.imag
        with mpmath.workdps(digits + 10):
            roots = mpmath.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=60)
            e1 = min(roots, key=lambda r: abs(r.imag)).real
            cubic = lambda x: 4 * x**3 + b2 * x * x + 2 * b4 * x + b6
            quad = 2 * mpmath.quad(lambda x: 1 / mpmath.sqrt(-cubic(x)), [-mpmath.inf, e1])
            assert abs(nu - quad) < mpmath.mpf(10) ** -15 * abs(quad)
