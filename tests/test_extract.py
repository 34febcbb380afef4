import pytest

from signedlp.errors import NotStabilized, SingularSystem, WrongReductionType
from signedlp.extract import (
    _parity_product,
    _wide_context,
    extract_plus_minus,
    extract_sharp_flat,
    fit_matches_pair,
    invariant_fit,
)
from signedlp.lambda_ring import IwasawaContext, divrem

from conftest import mu_lambda_of


def _synthetic_thetas(p, M, F_coeffs, n_max=3, alternate=True, scale_mu=None):
    """theta_n := (+-) W(n) * F mod omega_n for a fixed F, as its
    representative of degree below p^n."""
    thetas = {}
    for n in range(n_max + 1):
        wide = IwasawaContext(p, M, p**n_max + 2)
        F = wide.element(F_coeffs)
        if scale_mu:
            F = F.scale(p ** scale_mu.get(n, 0))
        W = _parity_product(wide, n)
        body = (W * F)
        if alternate and (n // 2) % 2 == 1:
            body = -body
        _, body = divrem(body, wide.omega(n))
        thetas[n] = IwasawaContext(p, M, p**n).element(list(body.coeffs))
    return thetas


def test_synthetic_recovery_exact():
    # theta_n = parity-product times F: extraction recovers F's invariants.
    # F must fit inside the smallest class modulus (omega_1 here), or the
    # low-level representatives legitimately scramble the reading.
    F = [0, 1, 3]  # X + 3X^2: mu = 0, lambda = 1 over Z_3
    thetas = _synthetic_thetas(3, 8, F, n_max=3)
    pair = extract_plus_minus(thetas, a_p=0)
    for comp in pair.components:
        assert (comp.invariants.mu, comp.invariants.lam) == (0, 1)
    assert pair.stabilized  # two levels per parity: {1,3} and {0,2}
    fits = invariant_fit(thetas)
    assert fits["odd"].mu_star == 0 and fits["odd"].lambda_star == 1
    assert fits["even"].mu_star == 0 and fits["even"].lambda_star == 1
    assert fits["odd"].stabilized
    assert fit_matches_pair(fits, pair)


def test_synthetic_remultiplication():
    F = [0, 3, 1]
    thetas = _synthetic_thetas(3, 8, F, n_max=3)
    wide = _wide_context(thetas)
    pair = extract_plus_minus(thetas, a_p=0)
    for comp in pair.components:
        top = max(comp.levels_used)
        W = _parity_product(wide, top)
        recon = W * wide.element(list(comp.series.coeffs))
        sign = -1 if (top // 2) % 2 == 1 else 1
        lifted = wide.element(list(thetas[top].coeffs))
        diff = recon.scale(sign) - lifted
        assert diff.is_zero_at_precision


def test_drifting_chain_raises():
    # level-0 and level-2 quotients disagree at the constant term
    thetas = _synthetic_thetas(3, 8, [1, 1], n_max=3)
    bad = dict(thetas)
    ctx0 = thetas[0].context
    bad[0] = ctx0.element([2])
    with pytest.raises(NotStabilized):
        extract_plus_minus(bad, a_p=0)


def test_invariant_fit_flags_mu_drift():
    thetas = _synthetic_thetas(3, 8, [1, 1], n_max=2, scale_mu={2: 1})
    with pytest.raises(NotStabilized):
        invariant_fit(thetas)


def test_all_zero_thetas_inconclusive():
    thetas = _synthetic_thetas(3, 6, [0], n_max=2)
    pair = extract_plus_minus(thetas, a_p=0)
    assert not pair.stabilized
    for comp in pair.components:
        assert comp.stabilization == "zero-chain"
        assert not comp.invariants.conclusive


def test_wrong_reduction_type():
    thetas = _synthetic_thetas(3, 6, [1], n_max=2)
    with pytest.raises(WrongReductionType):
        extract_plus_minus(thetas, a_p=-3)
    with pytest.raises(WrongReductionType):
        extract_sharp_flat(thetas, a_p=0, p=3)
    with pytest.raises(WrongReductionType):
        extract_sharp_flat(thetas, a_p=1, p=3)


def test_sharp_flat_solve_that_does_not_divide_is_singular():
    # level 2: a_p theta_1 - theta_2 = -4 is no multiple of Phi_1
    thetas = {n: IwasawaContext(3, 6, 3**n).element([1]) for n in range(3)}
    with pytest.raises(SingularSystem, match="level 2"):
        extract_sharp_flat(thetas, a_p=-3, p=3)


# -- fixtures ---------------------------------------------------------------------


def test_53a1_p5_plus_minus(store):
    thetas = store.thetas("53a1", 5, 2)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5))
    assert pair.labels == ("plus", "minus")
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    for comp in pair.components:
        assert comp.is_x_times_unit and comp.limit_certified
    fits = invariant_fit(thetas)
    # levels 1-2 pin the fitted invariants of both parity classes at (0, 1)
    assert (fits["odd"].mu_star, fits["odd"].lambda_star) == (0, 1)
    assert (fits["even"].mu_star, fits["even"].lambda_star) == (0, 1)
    assert fits["odd"].levels == (1,) and fits["even"].levels == (2,)
    assert fit_matches_pair(fits, pair)


def test_53a1_p3_sharp_flat(store):
    thetas = store.thetas("53a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("53a1", 3), 3)
    assert pair.labels == ("sharp", "flat")
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
    assert all(c.is_x_times_unit for c in pair.components)
    assert pair.stabilized


def test_37a1_p3_sharp_flat(store):
    thetas = store.thetas("37a1", 3, 2)
    pair = extract_sharp_flat(thetas, store.ap("37a1", 3), 3)
    assert 1 in mu_lambda_of(pair)[1]
    assert mu_lambda_of(pair)[0] == (0, 0)
    assert fit_matches_pair(invariant_fit(thetas), pair)


def test_37a1_p17_plus_minus_level_one(store):
    thetas = store.thetas("37a1", 17, 1)
    pair = extract_plus_minus(thetas, store.ap("37a1", 17))
    plus, minus = pair.components
    assert (plus.invariants.mu, plus.invariants.lam) == (0, 1)
    assert plus.is_x_times_unit
    assert minus.stabilization == "zero-chain"
    assert minus.x_lower_bound >= 1


def test_sharp_flat_agrees_with_fit_when_conclusive(store):
    for label in ("53a1", "37a1"):
        thetas = store.thetas(label, 3, 2)
        pair = extract_sharp_flat(thetas, store.ap(label, 3), 3)
        fits = invariant_fit(thetas)
        assert fit_matches_pair(fits, pair)


def test_level_three_solve_regression(store):
    # the two-step division chain at n_max = 3; the component-to-parity
    # correspondence must not depend on the parity of the top level
    for label, lam_flat in (("53a1", 1), ("37a1", 5)):
        thetas = store.thetas(label, 3, 3)
        ap = store.ap(label, 3)
        from signedlp.theta import check_compat
        assert check_compat(thetas, 3, ap).passed
        pair = extract_sharp_flat(thetas, ap, 3)
        sharp, flat = pair.components
        assert (sharp.invariants.mu, sharp.invariants.lam) == (0, 1)
        assert flat.invariants.lam == lam_flat
        assert fit_matches_pair(invariant_fit(thetas), pair)


def test_level_three_plus_minus_fully_stabilized(store):
    thetas = store.thetas("53a1", 5, 3)
    pair = extract_plus_minus(thetas, store.ap("53a1", 5))
    assert pair.stabilized  # both parities now have two conclusive levels
    assert mu_lambda_of(pair) == ((0, 0), (1, 1))
