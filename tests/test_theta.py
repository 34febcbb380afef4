import random
from fractions import Fraction

import pytest

from signedlp.errors import IncompleteTable, InconsistentTable, NotIntegral
from signedlp.lambda_ring import IwasawaContext, weierstrass
from signedlp.padic import padic_valuation
from signedlp.theta import (
    build_theta,
    check_compat,
    teichmueller_values,
)

from conftest import stripped, symbol, synthetic_table, table_keys, x_element


def test_decompose_examples():
    # g = 2 generates (Z/p)^*, omega(2) = -1 mod 27 and 7 mod 25
    assert teichmueller_values(3, 27) == [1, 26]
    assert teichmueller_values(5, 25) == [1, 7, 24, 18]


def test_decompose_against_exhaustive_oracle():
    # every unit mod p^(n+1) is omega^i * gamma^j for exactly one (i, j)
    for p, n in ((3, 2), (5, 1), (7, 1)):
        modulus = p ** (n + 1)
        grid = [
            w * pow(1 + p, j, modulus) % modulus
            for w in teichmueller_values(p, modulus)
            for j in range(p**n)
        ]
        assert sorted(grid) == [a for a in range(1, modulus) if a % p]


def test_teichmueller_is_torsion():
    # the p - 1 values are distinct (p-1)-th roots of unity mod p^(n+1),
    # one over each unit residue mod p
    for p in (q for q in range(3, 100, 2) if all(q % d for d in range(3, q, 2))):
        for n in range(4):
            modulus = p ** (n + 1)
            values = teichmueller_values(p, modulus)
            assert all(pow(w, p - 1, modulus) == 1 for w in values), (p, n)
            assert sorted(w % p for w in values) == list(range(1, p)), (p, n)


def _fixed_point_lift(a, p, modulus):
    """The root of unity over a mod p, as the fixed point of x -> x^p."""
    x = a % modulus
    while pow(x, p, modulus) != x:
        x = pow(x, p, modulus)
    return x


def test_teichmueller_values_where_the_primitive_root_is_not_primitive_mod_p2():
    # 5 is the least primitive root mod 40487 and 5^40486 = 1 mod 40487^2,
    # so 5 is no primitive root mod 40487^2; the values are those of 5 all
    # the same, since omega depends only on the residue mod p
    p = 40487
    modulus = p * p
    assert all(pow(g, (p - 1) // 2, p) == 1 for g in range(2, 5))
    assert pow(5, p - 1, modulus) == 1
    w = _fixed_point_lift(5, p, modulus)
    assert teichmueller_values(p, modulus) == [pow(w, i, modulus) for i in range(p - 1)]


def _table_from_plus(p, K, plus_fn):
    return synthetic_table(p, {(k, a): plus_fn(k, a) for k, a in table_keys(p, K)})


def test_zero_table_gives_zero_theta():
    table = _table_from_plus(3, 3, lambda k, a: 0)
    th = build_theta(table, 2)
    assert th == [0] * 9


def test_single_symbol_gives_one():
    # only [1/p^(n+1)]^+ = 1: a = 1 sits at (i, j) = (0, 0), so theta = 1
    table = _table_from_plus(3, 2, lambda k, a: 1 if (k, a) == (2, 1) else 0)
    th = build_theta(table, 1)
    assert th == [1, 0, 0]


def test_build_theta_linearity():
    t1 = _table_from_plus(3, 2, lambda k, a: a % 5)
    t2 = _table_from_plus(3, 2, lambda k, a: (a * a + 1) % 7)
    tsum = _table_from_plus(3, 2, lambda k, a: a % 5 + (a * a + 1) % 7)
    th = build_theta(tsum, 1)
    th12 = [a + b for a, b in zip(build_theta(t1, 1), build_theta(t2, 1))]
    assert th == th12


def _residue(q, p, M):
    """The rational q mod p^M, or NotIntegral when q is not in Z_p."""
    if q.denominator % p == 0:
        raise NotIntegral(f"{q} has negative {p}-adic valuation")
    return q.numerator * pow(q.denominator, -1, p**M) % p**M


def _reference_theta(table, n, M):
    """(Y-coefficients, X-coefficients) of sum_j c_j (1+X)^j: the c_j,
    j < p^n, exactly over Q times the unit part of the plus denominator,
    and the residues of its expansion in X mod p^M, computed exactly over Q
    up to the degree and reduced last."""
    p = table.p
    modulus = p ** (n + 1)
    d = p**n
    sums = [Fraction(0)] * d
    for w in teichmueller_values(p, modulus):
        a = w
        for j in range(d):
            sums[j] += symbol(table, n + 1, a)
            a = (a * (1 + p)) % modulus
    monomial = [Fraction(0)] * d
    row = [Fraction(1)]  # (1+X)^j, starting at j = 0
    for c in sums:
        for k, b in enumerate(row):
            monomial[k] += c * b
        nxt = row + [Fraction(0)]
        for k in range(len(row), 0, -1):
            nxt[k] = row[k - 1] + (row[k] if k < len(row) else 0)
        row = nxt
    den = table.denominators[0]
    unit = den // p ** padic_valuation(den, p)
    return ([c * unit for c in sums],
            tuple(stripped([_residue(q, p, M) for q in monomial])))


def _theta_in_both_bases(table, n, M):
    """build_theta's Y-coefficients and their Taylor shift to X mod p^M,
    divided there by the unit part u of the plus denominator."""
    th, den = build_theta(table, n), table.denominators[0]
    inverse = pow(den // table.p ** padic_valuation(den, table.p), -1, table.p**M)
    return th, tuple(x_element([c * inverse for c in th], IwasawaContext(table.p, M)))


def _random_table(rng, p, K):
    """Random p-integral symbols, plus pairs t/p, -t/p inside one gamma-fiber
    (equal j, different Teichmueller index) that cancel in c_j."""
    plus = {}
    for key in table_keys(p, K):
        den = rng.choice([1, 2, 7]) if p != 7 else 1
        plus[key] = Fraction(rng.randrange(-50, 51), den)
    for k in range(1, K + 1):
        modulus = p**k
        teich = teichmueller_values(p, modulus)
        for _ in range(3):
            j = rng.randrange(p ** (k - 1))
            i1, i2 = rng.sample(range(p - 1), 2)
            g = pow(1 + p, j, modulus)
            a1 = teich[i1] * g % modulus
            a2 = teich[i2] * g % modulus
            t = Fraction(rng.choice([1, 2, 4, 5]), p ** rng.randrange(1, 3))
            plus[(k, a1)] += t
            plus[(k, a2)] -= t
    return _table_from_plus(p, K, lambda k, a: plus[(k, a)])


def test_build_theta_matches_rational_reference_on_random_tables():
    rng = random.Random(2103)
    for p, K, M in ((3, 3, 6), (3, 4, 8), (5, 3, 5), (7, 2, 4)):
        for _ in range(3):
            table = _random_table(rng, p, K)
            for n in range(K):
                got = _theta_in_both_bases(table, n, M)
                assert got == _reference_theta(table, n, M), (p, K, n)


def test_taylor_shift_matches_rational_reference_at_levels_4_and_5():
    # d = 81 and 243: several rounds of the divide-and-conquer shift, and a
    # top block that is partly padding.  One table and three (n, M) pairs,
    # since the Fraction reference is quadratic in p^n
    table = _random_table(random.Random(2104), 3, 6)
    for n, M in ((4, 1), (4, 30), (5, 8)):
        got = _theta_in_both_bases(table, n, M)
        assert got == _reference_theta(table, n, M), (n, M)


def test_build_theta_matches_rational_reference_on_fixtures(store):
    for label, p in (("53a1", 3), ("53a1", 5), ("37a1", 3)):
        table = store.table(label, p, 3)
        for n in range(3):
            got = _theta_in_both_bases(table, n, 8)
            assert got == _reference_theta(table, n, 8), (label, p, n)


def test_non_integral_theta_coefficient_raises():
    # a lone 1/3 at (k, a) = (2, 1) leaves c_0 = 1/3 outside Z_3
    table = _table_from_plus(
        3, 2, lambda k, a: Fraction(1, 3) if (k, a) == (2, 1) else 0
    )
    with pytest.raises(NotIntegral):
        _reference_theta(table, 1, 6)
    with pytest.raises(NotIntegral, match="^1/3 has negative 3-adic valuation$"):
        build_theta(table, 1)


def test_incomplete_table_rejected():
    table = _table_from_plus(3, 1, lambda k, a: 0)
    with pytest.raises(IncompleteTable):
        build_theta(table, 1)


def test_theta_vanishes_at_zero_for_rank_one(store):
    for label, p in (("53a1", 3), ("53a1", 5), ("37a1", 3)):
        thetas = store.thetas(label, p, 2)
        for n, th in thetas.items():
            assert sum(th) == 0, (label, p, n)
    thetas = store.thetas("37a1", 17, 1)
    for th in thetas.values():
        assert sum(th) == 0


def test_x_divides_theta_for_rank_one(store):
    thetas = store.thetas("53a1", 5, 2)
    for n in (1, 2):
        assert sum(thetas[n]) == 0
        ctx = IwasawaContext(5, 8)
        w = weierstrass(x_element(thetas[n], ctx), ctx)
        assert w.conclusive and w.lam >= 1


def test_compat_on_fixtures(store):
    for label, p in (("53a1", 3), ("53a1", 5), ("37a1", 3)):
        thetas = store.thetas(label, p, 2)
        check_compat(thetas, 2, store.ap(label, p), IwasawaContext(p, 8))


def test_compat_on_hecke_exact_synthetic_table():
    # level-constant table satisfying the a_p = 0 relations exactly
    table = _table_from_plus(3, 3, lambda k, a: {0: 9, 1: 3, 2: -3, 3: -1}[k])
    thetas = {n: build_theta(table, n) for n in range(3)}
    check_compat(thetas, 2, 0, IwasawaContext(3, 6))


def test_compat_detects_corruption():
    table = _table_from_plus(3, 3, lambda k, a: {0: 9, 1: 3, 2: -3, 3: -1}[k])
    thetas = {n: build_theta(table, n) for n in range(3)}
    thetas[2] = [thetas[2][0] + 1, *thetas[2][1:]]
    with pytest.raises(InconsistentTable) as exc:
        check_compat(thetas, 2, 0, IwasawaContext(3, 6))
    assert str(exc.value) == "level 2: Y-coefficient 0 of the remainder has 3-adic valuation 0"


@pytest.mark.parametrize("k", [0, 1, 14, 15, 16, 1000])
def test_failing_compat_reads_a_deep_index(k):
    # theta_10 = 5 Y^k over zero thetas below it, so the remainder mod
    # omega_9 is 5 Y^k: the message names Y-coefficient k, the first
    # nonzero one
    ctx = IwasawaContext(3, 8)
    thetas = {n: [0] * 3**n for n in (8, 9)}
    thetas[10] = [0] * k + [5] + [0] * (3**10 - k - 1)
    with pytest.raises(InconsistentTable) as exc:
        check_compat(thetas, 10, 0, ctx)
    assert str(exc.value) == f"level 10: Y-coefficient {k} of the remainder has 3-adic valuation 0"


@pytest.mark.parametrize("M", [1, 8])
def test_failing_compat_names_a_remainder_that_vanishes_mod_p_to_the_M(M):
    # theta_2 = p^M (Y - 1) over zero thetas below it: the remainder mod
    # omega_1 is 0 mod p^M and in every X-coefficient, but not over Z, so
    # the check fails at Y-coefficient 0 with valuation M
    ctx = IwasawaContext(3, M)
    thetas = {0: [0], 1: [0] * 3, 2: [-(3**M), 3**M] + [0] * 7}
    assert x_element(thetas[2], ctx) == []
    with pytest.raises(InconsistentTable) as exc:
        check_compat(thetas, 2, 0, ctx)
    assert str(exc.value) == f"level 2: Y-coefficient 0 of the remainder has 3-adic valuation {M}"
