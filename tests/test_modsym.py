from collections import Counter
from fractions import Fraction

import pytest

from signedlp import modsym
from signedlp.errors import (
    CoefficientSupplyExhausted,
    ContextMismatch,
    ParseError,
    RecognitionFailed,
)
from signedlp.lseries import SymbolNumerics
from signedlp.modsym import (
    ModularSymbol,
    SymbolTable,
    SymbolTableBuilder,
    export_table,
    import_table,
    recognize_rational,
    validate_hecke,
)


def test_boundary_symbol_vanishes(store):
    # [0/1]^+ = L(E,1)/Omega = 0 for both rank-one curves
    for label, p in (("37a1", 17), ("53a1", 5)):
        table = store.table(label, p, 2, 13 if p == 17 else 14)
        assert table.plus(0, 0) == 0


def test_translation_invariance(store):
    # [a/p^k] depends on a mod p^k only
    table = store.table("53a1", 3, 3, 14)
    for k, a in ((1, 1), (1, 2), (2, 7), (3, 10)):
        assert table.get(k, a + 3**k) == table.get(k, a)


def test_tail_bound_self_consistency(store):
    # recomputing with more digits moves the value by less than the bound
    c = store.curve("53a1")
    rough = SymbolNumerics(c, 3, digits=11).level(2)
    sharp = SymbolNumerics(c, 3, digits=15).level(2)
    assert abs(rough.values[2] - sharp.values[2]) <= rough.error_bound + 1e-12
    assert rough.error_bound < 1e-11


def test_symbol_parity(store):
    table = store.table("53a1", 5, 2, 14)
    m = 25
    for a in (1, 2, 3, 7, 12):
        plus_a, minus_a = table.plus(2, a), table.minus(2, a)
        plus_neg, minus_neg = table.plus(2, m - a), table.minus(2, m - a)
        assert plus_a == plus_neg
        assert minus_a == -minus_neg


def test_stability_under_higher_precision(store):
    # the mpmath engine at digits+10 must reproduce the recognized rationals
    c = store.curve("37a1")
    low = store.table("37a1", 17, 1, 13)
    hard = SymbolTableBuilder(c, 17, digits=23, denom_bound=500000).build(1)
    for a in range(1, 17):
        assert low.plus(1, a) == hard.plus(1, a)
        assert low.minus(1, a) == hard.minus(1, a)


def test_hecke_validation_fixtures(store):
    rep = validate_hecke(store.table("37a1", 17, 2, 13), 17, 1, store.ap("37a1", 17))
    assert rep.passed
    rep = validate_hecke(store.table("53a1", 5, 3, 14), 5, 2, store.ap("53a1", 5))
    assert rep.passed


def _synthetic_table(p, K, values_by_level, boundary):
    table = SymbolTable("synthetic", p, K)
    table.symbols[(0, 0)] = ModularSymbol(0, 1, Fraction(boundary), Fraction(0))
    for k in range(1, K + 1):
        m = p**k
        for a in range(1, m):
            if a % p:
                table.symbols[(k, a)] = ModularSymbol(
                    a, m, Fraction(values_by_level[k]), Fraction(0)
                )
    return table


def test_all_zero_synthetic_table_passes():
    table = _synthetic_table(3, 3, {1: 0, 2: 0, 3: 0}, 0)
    assert validate_hecke(table, 3, 2, a_p=0).passed


def test_level_constant_synthetic_table():
    # with a_p = 0 the relation forces f(n+1) = -f(n-1)/p for level constants
    table = _synthetic_table(3, 3, {1: 3, 2: -3, 3: -1}, 9)
    assert validate_hecke(table, 3, 2, a_p=0).passed


def test_perturbed_entry_fails_naming_residue():
    table = _synthetic_table(3, 3, {1: 3, 2: -3, 3: -1}, 9)
    table.symbols[(2, 4)] = ModularSymbol(4, 9, Fraction(5), Fraction(0))
    rep = validate_hecke(table, 3, 2, a_p=0)
    assert not rep.passed
    # [4/9] enters exactly one relation: level 1, residue 1 (sum over 1, 4, 7)
    assert {(lvl, a) for lvl, a, *_ in rep.violations} == {(1, 1)}


def test_export_import_round_trip(store, tmp_path):
    table = store.table("53a1", 5, 2, 14)
    path = tmp_path / "symbols.csv"
    export_table(table, path)
    back = import_table(path, expect_curve="53a1", expect_p=5)
    assert back.symbols == table.symbols
    assert back.provenance == "imported"


def test_import_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("53a1,5\n1,2,3\n")
    with pytest.raises(ParseError) as err:
        import_table(bad)
    assert "line 2" in str(err.value)
    good = tmp_path / "good.csv"
    good.write_text("53a1,5\n0,0,0,1,0,1\n")
    with pytest.raises(ContextMismatch):
        import_table(good, expect_p=3)
    with pytest.raises(ContextMismatch):
        import_table(good, expect_curve="37a1")


def test_recognition():
    assert recognize_rational(0.5, 100, Fraction(1, 10**9)) == Fraction(1, 2)
    assert recognize_rational(-2.0 / 3, 100, Fraction(1, 10**9)) == Fraction(-2, 3)
    with pytest.raises(RecognitionFailed):
        recognize_rational(0.6180339887498949, 5, Fraction(1, 10**12))


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=150, deadline=None)
def test_recognition_round_trip(num, den):
    x = num / den
    got = recognize_rational(x, 10**5, Fraction(1, 10**9))
    assert got == Fraction(num, den)


def test_recognition_prefers_small_denominator():
    # a value near 1/3 must not be matched to a huge convergent
    x = 1 / 3 + 2e-13
    assert recognize_rational(x, 10**6, Fraction(1, 10**9)) == Fraction(1, 3)


def test_hecke_sum_identity_37a1_p17(store):
    # a_17 [1/17] = [0/1] + sum_k [(1 + 17k)/289]; with a_17 = 0 and
    # [0/1] = 0 the 17-term sum must vanish exactly
    table = store.table("37a1", 17, 2, 13)
    total = sum(table.plus(2, 1 + 17 * k) for k in range(17))
    assert total == -table.plus(0, 0) == 0


def test_parity_symmetry_entire_table(store):
    table = store.table("53a1", 5, 3, 14)
    for (k, a), sym in table.symbols.items():
        if k == 0:
            continue
        m = 5**k
        mirror = table.get(k, (-a) % m)
        assert sym.plus == mirror.plus
        assert sym.minus == -mirror.minus


def test_boundary_period_integral(store):
    c = store.curve("37a1")
    out = SymbolNumerics(c, 17, digits=14).level(0)
    assert abs(out.values[0]) < 1e-12  # L(E, 1) = 0


def _pins_from(monkeypatch, first):
    """Make `first` the sign pin a build tries first, the rest in their order."""
    pins = (first,) + tuple(s for s in modsym.SIGN_PINS if s != first)
    monkeypatch.setattr(modsym, "SIGN_PINS", pins)


def _spy(monkeypatch, owner, name, digits_of):
    """Counter of the calls to owner.name, keyed by each call's digits value."""
    calls, fn = Counter(), getattr(owner, name)

    def spy(*args):
        calls.update([digits_of(*args)])
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_wrong_signs_are_repinned_from_every_level(store, monkeypatch):
    # the signs (-1, 1) pass the Hecke relations at level 1 on 37a1, p = 3,
    # and fail them at level 2; the build must go on to the default signs
    _pins_from(monkeypatch, (-1, 1))
    builder = SymbolTableBuilder(store.curve("37a1"), 3, digits=14, denom_bound=500000)
    table = builder.build(3)
    assert table.meta["functional_equation_signs"] == (-1, -1)
    assert table.symbols == store.table("37a1", 3, 3, 14).symbols


def test_retry_builders_share_coefficients_and_periods(store, monkeypatch):
    # across the pins and digits values of one build, each good prime is
    # counted at most once and the periods run once per digits value
    from signedlp import curves

    counted = Counter()
    a_ell = curves.a_ell
    monkeypatch.setattr(
        curves, "a_ell", lambda curve, ell: counted.update([ell]) or a_ell(curve, ell)
    )
    period_digits = _spy(monkeypatch, modsym, "periods", lambda curve, digits: digits)

    def build(label, p, signs):
        counted.clear()
        period_digits.clear()
        monkeypatch.setattr(curves, "_EXPANSIONS", {})
        _pins_from(monkeypatch, signs)
        return SymbolTableBuilder(store.curve(label), p, digits=14, denom_bound=500000).build(3)

    # 37a1, p = 3 from (-1, 1): the level-2 Hecke check fails, the next pin passes
    table = build("37a1", 3, (-1, 1))
    assert table.symbols == store.table("37a1", 3, 3, 14).symbols
    assert period_digits == {20: 1}     # periods at max(digits, 20)
    assert 3 in counted and max(counted.values()) == 1
    # 53a1, p = 5 from (1, -1): recognition fails, the default pin passes at
    # the same digits value, with no escalation
    table = build("53a1", 5, (1, -1))
    assert table.meta["digits"] == 14
    assert table.meta["functional_equation_signs"] == (-1, -1)
    assert table.symbols == store.table("53a1", 5, 3, 14).symbols
    assert period_digits == {20: 1}
    assert 5 in counted and max(counted.values()) == 1


def test_character_sums_computed_once_per_level_and_digits(store, monkeypatch):
    # 37a1, p = 3, build(3) from (-1, 1) tries two pins at digits 14: the
    # sign-free blocks at conductors 3, 9 and 27 are computed once each
    _pins_from(monkeypatch, (-1, 1))
    blocks = _spy(
        monkeypatch, SymbolNumerics, "_primitive_block", lambda num, kprime: num.digits
    )
    builder = SymbolTableBuilder(store.curve("37a1"), 3, digits=14, denom_bound=500000)
    builder.build(3)
    assert blocks == {14: 3}


def test_recognition_failure_surfaces_after_escalation(store, monkeypatch):
    # at K = 1 no Hecke relation referees the signs: one pin per digits value,
    # one escalation, then the recognition failure itself
    period_digits = _spy(monkeypatch, modsym, "periods", lambda curve, digits: digits)
    c = store.curve("53a1")
    builder = SymbolTableBuilder(c, 5, digits=14, denom_bound=1)
    with pytest.raises(RecognitionFailed, match="denominator <= 1"):
        builder.build(1)
    assert period_digits == {20: 1, 24: 1}


def test_coefficient_supply_cap(store, monkeypatch):
    from signedlp import lseries

    monkeypatch.setattr(lseries, "_COEFF_CAP", 100)
    num = SymbolNumerics(store.curve("53a1"), 5, digits=14)
    with pytest.raises(CoefficientSupplyExhausted, match="cap is 100"):
        num.level(2)


def test_gauss_sum_norms(store):
    # |tau(chi)|^2 = m for every primitive character chi of conductor m
    for p, kprime in ((17, 1), (3, 2), (5, 2)):
        num = SymbolNumerics(store.curve("37a1"), p, digits=13)
        _, tau, _ = num._primitive_block(kprime)
        m = p**kprime
        primitive = [t for t in range(1, len(tau)) if kprime == 1 or t % p]
        assert max(abs(abs(complex(tau[t])) ** 2 - m) for t in primitive) < 1e-9


@pytest.mark.parametrize("phi", [1, 2, 16, 18, 100, 272, 342])
def test_mp_dft_matches_naive_sum(phi):
    import random

    import mpmath
    import numpy as np

    from signedlp.lseries import _dft

    rng = random.Random(phi)
    with mpmath.workdps(38):
        x = np.array(
            [mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(phi)],
            dtype=object,
        )
        for sign in (1, -1):
            got = _dft(x, sign)
            zeta = [mpmath.expjpi(mpmath.mpf(2 * sign * j) / phi) for j in range(phi)]
            for t in range(phi):
                want = mpmath.fsum(x[s] * zeta[t * s % phi] for s in range(phi))
                assert abs(got[t] - want) < phi * mpmath.mpf(10) ** -35


@pytest.mark.parametrize("label, p, K", [("37a1", 17, 2), ("53a1", 5, 3)])
def test_float_and_mp_levels_agree(store, label, p, K):
    # digits 16 runs on float64, digits 17 on mpmath.  The recorded bound
    # covers the truncated tails only; float64 rounding (about 1e-15 here)
    # gets its own allowance of 64 ulps of the largest value
    import numpy as np

    c = store.curve(label)
    lo, hi = SymbolNumerics(c, p, digits=16), SymbolNumerics(c, p, digits=17)
    assert not lo.use_mp and hi.use_mp
    for k in range(K + 1):
        rough, sharp = lo.level(k), hi.level(k)
        assert rough.values.keys() == sharp.values.keys()
        scale = max(abs(v) for v in rough.values.values())
        allowed = rough.error_bound + sharp.error_bound + 64 * np.finfo(float).eps * scale
        for a, v in rough.values.items():
            assert abs(v - complex(sharp.values[a])) <= allowed
