import random
import re

import pytest

from signedlp.errors import InconsistentTable, NotStabilized, WrongReductionType
from signedlp.extract import (
    _component,
    _solve,
    extract_plus_minus,
    extract_sharp_flat,
    fit_matches_pair,
    invariant_fit,
)
from signedlp.lambda_ring import IwasawaContext, fold, weierstrass

from conftest import (
    combination,
    mu_lambda_of,
    stripped,
    x_element,
    x_product,
    y_element,
    y_times_phi,
)


def _parity_product(ctx, n):
    """W(n), the product of Phi_i for 1 <= i < n with i of the parity of n - 1, in X."""
    return x_product(ctx, *(ctx.phi(i) for i in range(n - 1, 0, -2)))


def _synthetic_thetas(p, F_coeffs, n_max=3, alternate=True, scale_mu=None, even_coeffs=None):
    """theta_n := (+-) W(n) * F mod omega_n for a fixed F given in X, exactly,
    as the Y-vector of its representative of degree below p^n; even_coeffs,
    when given, replaces F at the even levels."""
    thetas = {}
    for n in range(n_max + 1):
        scale = p ** (scale_mu or {}).get(n, 0)
        if alternate and (n // 2) % 2 == 1:
            scale = -scale
        F = F_coeffs if n % 2 or even_coeffs is None else even_coeffs
        body = y_times_phi(y_element([scale * c for c in F]), range(n - 1, 0, -2), p)
        thetas[n] = fold(body, p**n)
    return thetas


def test_synthetic_recovery_exact():
    # theta_n = parity-product times F: extraction recovers F's invariants.
    # F must fit inside the smallest class modulus (omega_1 here), or the
    # low-level representatives legitimately scramble the reading.
    F = [0, 1, 3]  # X + 3X^2: mu = 0, lambda = 1 over Z_3
    thetas = _synthetic_thetas(3, F, n_max=3)
    ctx = IwasawaContext(3, 8)
    pair = extract_plus_minus(thetas, 0, ctx)
    for comp in pair:
        assert (comp.invariants.mu, comp.invariants.lam) == (0, 1)
    # two levels per parity: {1,3} and {0,2}
    assert all(c.stabilization == "two-level" for c in pair)
    fits = invariant_fit(thetas, ctx)
    assert fits == ((0, 1), (0, 1))
    fit_matches_pair(fits, pair)
    for shifted in (((0, 2), (0, 1)), ((0, 1), (0, 2))):
        with pytest.raises(NotStabilized,
                           match="^extracted invariants disagree with the invariant fit$"):
            fit_matches_pair(shifted, pair)


def _assert_fit_matches_in_order_only(thetas, pair, ctx):
    # invariant_fit and both extractions give the odd class first: the pair
    # matches the fit as it comes, and neither tuple may be read reversed
    fits = invariant_fit(thetas, ctx)
    fit_matches_pair(fits, pair)
    for reversed_fits, reversed_pair in ((fits, pair[::-1]), (fits[::-1], pair)):
        with pytest.raises(NotStabilized):
            fit_matches_pair(reversed_fits, reversed_pair)


def test_plus_minus_of_two_series_matches_the_fit_in_order():
    # the odd levels carry X + 3X^2 (lambda 1), the even levels 3X + X^2
    # (lambda 2), so the two classes differ
    thetas = _synthetic_thetas(3, [0, 1, 3], n_max=3, even_coeffs=[0, 3, 1])
    ctx = IwasawaContext(3, 8)
    pair = extract_plus_minus(thetas, 0, ctx)
    assert [c.label for c in pair] == ["plus", "minus"]
    assert mu_lambda_of(pair) == ((0, 0), (1, 2))
    assert invariant_fit(thetas, ctx) == ((0, 1), (0, 2))
    _assert_fit_matches_in_order_only(thetas, pair, ctx)


def test_37a1_p3_sharp_flat_matches_the_fit_in_order(store):
    thetas, ctx = store.thetas("37a1", 3, 3), IwasawaContext(3, 8)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), ctx)
    assert [c.label for c in pair] == ["sharp", "flat"]
    assert mu_lambda_of(pair) == ((0, 0), (1, 5))
    assert invariant_fit(thetas, ctx) == ((0, 1), (0, 5))
    _assert_fit_matches_in_order_only(thetas, pair, ctx)


def test_synthetic_remultiplication():
    F = [0, 3, 1]
    thetas = _synthetic_thetas(3, F, n_max=3)
    ctx = IwasawaContext(3, 8)
    pair = extract_plus_minus(thetas, 0, ctx)
    for comp, parity in zip(pair, (1, 0)):
        top = max(n for n in thetas if n % 2 == parity)
        recon = x_product(ctx, _parity_product(ctx, top), x_element(comp.series, ctx))
        sign = -1 if (top // 2) % 2 == 1 else 1
        diff = combination(ctx, (sign, recon), (-1, x_element(thetas[top], ctx)))
        assert diff == []


def test_drifting_chain_raises():
    # level-0 and level-2 quotients disagree at the constant term
    thetas = _synthetic_thetas(3, [1, 1], n_max=3)
    bad = dict(thetas)
    bad[0] = [2]
    with pytest.raises(NotStabilized):
        extract_plus_minus(bad, 0, IwasawaContext(3, 8))


def test_invariant_fit_flags_mu_drift():
    thetas = _synthetic_thetas(3, [1, 1], n_max=2, scale_mu={2: 1})
    with pytest.raises(NotStabilized):
        invariant_fit(thetas, IwasawaContext(3, 8))


def test_all_zero_thetas_inconclusive():
    thetas = _synthetic_thetas(3, [0], n_max=2)
    pair = extract_plus_minus(thetas, 0, IwasawaContext(3, 6))
    for comp in pair:
        assert comp.stabilization == "zero-chain"
        assert not comp.invariants.conclusive


def test_wrong_reduction_type():
    thetas = _synthetic_thetas(3, [1], n_max=2)
    ctx = IwasawaContext(3, 6)
    with pytest.raises(WrongReductionType):
        extract_plus_minus(thetas, -3, ctx)
    with pytest.raises(WrongReductionType):
        extract_sharp_flat(thetas, 0, ctx)
    with pytest.raises(WrongReductionType):
        extract_sharp_flat(thetas, 1, ctx)


@pytest.mark.parametrize("levels", [(1,), (0, 2)])
def test_sharp_flat_without_consecutive_levels_is_not_stabilized(levels):
    # no level n has theta_(n-1) beside it, so there is nothing to solve
    thetas = {n: [1] for n in levels}
    with pytest.raises(NotStabilized, match="^need at least theta_0 and theta_1$"):
        extract_sharp_flat(thetas, -3, IwasawaContext(3, 6))


def test_sharp_flat_solve_that_does_not_divide_is_singular():
    # level 2: a_p theta_1 - theta_2 = -4 is no multiple of Phi_1
    thetas = {n: [1] for n in range(3)}
    message = "X^2 + 3*X + 3 does not divide the operand exactly"
    with pytest.raises(InconsistentTable, match=f"^{re.escape(message)}$"):
        extract_sharp_flat(thetas, -3, IwasawaContext(3, 6))


@pytest.mark.parametrize("levels, divisor", [
    # theta_2 = 1 is no multiple of Phi_1
    ((0, 1, 2), "X^2 + 3*X + 3"),
    # theta_4 = 1 is no multiple of Phi_3 * Phi_1, named as one product in X
    ((1, 4), "X^20 + 21*X^19 + 210*X^18 - 129*X^17 + 135*X^16 - 216*X^15 + 231*X^14"
             " + 225*X^13 + 279*X^12 - 195*X^11 + 144*X^10 - 72*X^9 - 144*X^8 - 162*X^7"
             " - 81*X^6 + 90*X^5 + 54*X^4 - 351*X^3 - 78*X^2 + 90*X + 9"),
])
def test_parity_quotient_that_does_not_divide_names_the_divisor(levels, divisor):
    # the constant 1 has the same coefficients in every basis
    thetas = {n: [1] for n in levels}
    message = f"{divisor} does not divide the operand exactly"
    with pytest.raises(InconsistentTable, match=f"^{re.escape(message)}$"):
        extract_plus_minus(thetas, 0, IwasawaContext(3, 6))


# -- fixtures ---------------------------------------------------------------------


def test_53a1_p5_plus_minus(store):
    thetas = store.thetas("53a1", 5, 2)
    ctx = IwasawaContext(5, 8)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5), ctx)
    assert [c.label for c in pair] == ["plus", "minus"]
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    for comp in pair:
        assert comp.is_x_times_unit and comp.limit_certified
    fits = invariant_fit(thetas, ctx)
    # levels 1-2 pin the fitted invariants of both parity classes at (0, 1)
    assert fits == ((0, 1), (0, 1))
    fit_matches_pair(fits, pair)


def test_53a1_p3_sharp_flat(store):
    thetas = store.thetas("53a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("53a1", 3), IwasawaContext(3, 8))
    assert [c.label for c in pair] == ["sharp", "flat"]
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    assert all(c.is_x_times_unit for c in pair)
    assert all(c.stabilization == "two-level" for c in pair)


def test_37a1_p3_sharp_flat(store):
    thetas = store.thetas("37a1", 3, 2)
    ctx = IwasawaContext(3, 8)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), ctx)
    assert 1 in mu_lambda_of(pair)[1]
    assert mu_lambda_of(pair)[0] == (0, 0)
    fit_matches_pair(invariant_fit(thetas, ctx), pair)


def test_37a1_p17_plus_minus_level_one(store):
    thetas = store.thetas("37a1", 17, 1)
    pair = extract_plus_minus(thetas, store.ap("37a1", 17), IwasawaContext(17, 8))
    plus, minus = pair
    assert (plus.invariants.mu, plus.invariants.lam) == (0, 1)
    assert plus.is_x_times_unit
    assert minus.stabilization == "zero-chain"
    assert minus.x_lower_bound >= 1


def test_sharp_flat_agrees_with_fit_when_conclusive(store):
    for label in ("53a1", "37a1"):
        thetas = store.thetas(label, 3, 2)
        ctx = IwasawaContext(3, 8)
        pair = extract_sharp_flat(thetas, store.ap(label, 3), ctx)
        fits = invariant_fit(thetas, ctx)
        fit_matches_pair(fits, pair)


def test_level_three_solve_regression(store):
    # the two-step division chain at n_max = 3; the component-to-parity
    # correspondence must not depend on the parity of the top level
    for label, lam_flat in (("53a1", 1), ("37a1", 5)):
        thetas = store.thetas(label, 3, 3)
        ap, ctx = store.ap(label, 3), IwasawaContext(3, 8)
        from signedlp.theta import check_compat
        check_compat(thetas, 3, ap, ctx)
        pair = extract_sharp_flat(thetas, ap, ctx)
        sharp, flat = pair
        assert (sharp.invariants.mu, sharp.invariants.lam) == (0, 1)
        assert flat.invariants.lam == lam_flat
        fit_matches_pair(invariant_fit(thetas, ctx), pair)


def test_sharp_flat_solves_only_the_graded_levels(store, monkeypatch):
    # the grade reads the top solve and the one below it, so no solve at a
    # lower level is made
    from signedlp import extract

    levels = []

    def counted(thetas, n, a_p, ctx):
        levels.append(n)
        return _solve(thetas, n, a_p, ctx)

    monkeypatch.setattr(extract, "_solve", counted)
    thetas, ctx = store.thetas("37a1", 3, 4), IwasawaContext(3, 8)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), ctx)
    assert levels == [3, 4]
    assert all(c.stabilization == "two-level" for c in pair)


@pytest.mark.parametrize("label, p, n_max", [("37a1", 17, 3), ("53a1", 5, 4), ("11a1", 19, 2)])
def test_solve_at_a_p_zero_is_the_parity_quotients(store, label, p, n_max):
    # Sprung's pair specializes to Pollack's: at a_p = 0 the fundamental-
    # solution solve at every top level n returns the sign-corrected parity
    # quotients at n and n - 1, odd level first, signs included, up to the
    # trailing zeros that each computation leaves
    thetas = store.thetas(label, p, n_max)
    assert store.ap(label, p) == 0
    ctx = IwasawaContext(p, 8)
    for n in range(1, n_max + 1):
        below = {k: thetas[k] for k in range(n + 1)}
        quotients = [c.series for c in extract_plus_minus(below, 0, ctx)]
        solve = _solve(thetas, n, 0, ctx)
        assert list(map(stripped, solve)) == list(map(stripped, quotients)), (label, p, n)


def test_level_three_plus_minus_fully_stabilized(store):
    thetas = store.thetas("53a1", 5, 3)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5), IwasawaContext(5, 8))
    # both parities now have two conclusive levels
    assert all(c.stabilization == "two-level" for c in pair)
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))


# -- Weierstrass preparation on a truncation ----------------------------------------


def _prepared_in_full_and_truncated(F, ctx):
    """(full, truncated) readings (mu, lambda, distinguished part and its
    context) of F, a residue list in ctx, and whether the truncated
    preparation ran on fewer coefficients than F has."""
    full = weierstrass(F, ctx)
    short = _component("test", y_element(F), "test", "two-level", ctx).invariants
    readings = [(w.mu, w.lam, w.distinguished_part, w.context) for w in (full, short)]
    shortened = full.conclusive and len(short.unit_part) < len(full.unit_part)
    return readings, shortened


def test_truncated_preparation_matches_full_on_planted_series():
    # F = p^mu * P * U with a planted distinguished P of degree lambda <= 40
    # and mu <= 3: the first max(lambda + 1, lambda(M - mu) + 1) coefficients
    # give the same mu, lambda and distinguished part as all of them
    rng = random.Random(2110)
    shortened = 0
    for _ in range(60):
        p, M = rng.choice([3, 5, 17, 31]), rng.randint(1, 30)
        mu, lam = rng.randint(0, min(3, M - 1)), rng.randint(0, 40)
        ctx = IwasawaContext(p, M)
        mod = ctx.modulus
        P = [p * rng.randrange(mod) for _ in range(lam)] + [1]
        U = [rng.randrange(1, p) + p * rng.randrange(mod)]
        U += [rng.randrange(mod) for _ in range(rng.randint(0, 150))]
        F = x_product(ctx, ctx.residues(P), ctx.residues([c * p**mu for c in U]))
        (full, short), cut = _prepared_in_full_and_truncated(F, ctx)
        red = IwasawaContext(p, M - mu)
        assert full == short == (mu, lam, red.residues(P), red), (p, M, mu, lam)
        shortened += cut
    assert shortened >= 15


def test_truncated_preparation_matches_full_on_fixtures(store):
    shortened = 0
    for label, p, n_max in (("53a1", 5, 3), ("53a1", 3, 3), ("37a1", 3, 3), ("37a1", 17, 1)):
        thetas = store.thetas(label, p, n_max)
        ap, ctx = store.ap(label, p), IwasawaContext(p, 8)
        extract = extract_plus_minus if ap == 0 else extract_sharp_flat
        pair = extract(thetas, ap, ctx)
        for y in [*thetas.values(), *(c.series for c in pair)]:
            (full, short), cut = _prepared_in_full_and_truncated(x_element(y, ctx), ctx)
            assert full == short, (label, p, n_max)
            shortened += cut
    assert shortened >= 4
