from collections import Counter
from fractions import Fraction

import pytest

from signedlp.errors import (
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
    broken = table.with_entry(2, 4, plus=Fraction(5))
    rep = validate_hecke(broken, 3, 2, a_p=0)
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


def test_wrong_signs_are_repinned_from_every_level(store):
    # the signs (-1, 1) pass the Hecke relations at level 1 on 37a1, p = 3,
    # and fail them at level 2; the build must re-pin to the default signs
    builder = SymbolTableBuilder(store.curve("37a1"), 3, digits=14, denom_bound=500000)
    builder.numerics.sign_even, builder.numerics.sign_odd = -1, 1
    table = builder.build(3)
    assert table.meta["functional_equation_signs"] == (-1, -1)
    assert table.symbols == store.table("37a1", 3, 3, 14).symbols


def test_retry_builders_share_coefficients_and_periods(store, monkeypatch):
    # across the builders of one build, each good prime is counted at most
    # once and the periods run once per digits value
    from signedlp import curves, modsym

    counted, period_digits = Counter(), Counter()
    a_ell, periods = curves.a_ell, modsym.periods
    monkeypatch.setattr(
        curves, "a_ell", lambda curve, ell: counted.update([ell]) or a_ell(curve, ell)
    )
    monkeypatch.setattr(
        modsym, "periods",
        lambda curve, digits: period_digits.update([digits]) or periods(curve, digits),
    )

    def build(label, p, signs):
        counted.clear()
        period_digits.clear()
        monkeypatch.setattr(curves, "_EXPANSIONS", {})
        curve = store.curve(label)
        builder = SymbolTableBuilder(curve, p, digits=14, denom_bound=500000)
        builder.numerics.sign_even, builder.numerics.sign_odd = signs
        return builder.build(3)

    # 37a1, p = 3 from (-1, 1): the level-2 Hecke check fails, one re-pin trial
    reference = store.table("37a1", 3, 3, 14)
    table = build("37a1", 3, (-1, 1))
    assert table.symbols == reference.symbols
    assert period_digits == {20: 1}     # periods at max(digits, 20)
    assert 3 in counted and max(counted.values()) == 1
    # 53a1, p = 5 from (1, -1): recognition fails, one escalation to digits 24
    with pytest.raises(RecognitionFailed):
        build("53a1", 5, (1, -1))
    assert period_digits == {20: 1, 24: 1}
    assert 5 in counted and max(counted.values()) == 1


def test_recognition_failure_surfaces_after_escalation(store):
    c = store.curve("53a1")
    builder = SymbolTableBuilder(c, 5, digits=14, denom_bound=1)
    with pytest.raises(RecognitionFailed):
        builder.build(1)


def test_coefficient_supply_cap(store):
    from signedlp.errors import CoefficientSupplyExhausted
    from signedlp.lseries import SymbolNumerics

    num = SymbolNumerics(store.curve("53a1"), 5, digits=14, coefficient_cap=100)
    with pytest.raises(CoefficientSupplyExhausted):
        num.level(2)


def test_gauss_sum_norms(store):
    from signedlp.lseries import SymbolNumerics

    num = SymbolNumerics(store.curve("37a1"), 17, digits=13)
    assert num.gauss_norm_residual(1) < 1e-9
