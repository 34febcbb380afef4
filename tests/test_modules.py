import random

import pytest

from signedlp.errors import NotTorsion
from signedlp.lambda_ring import IwasawaContext, divides_at_precision, weierstrass
from signedlp.modules import (
    ElementaryModule,
    FactoredIdeal,
    RankSequence,
    char_ideal,
    f_torsion_finite,
    gr_ideal,
    kp_ideal,
    parse_factored_ideal,
    ses_char_check,
)

from conftest import ideal_to_lambda


@pytest.fixture(scope="module")
def ctx():
    return IwasawaContext(3, 8, 40)


def test_char_ideal_examples(ctx):
    X = ctx.x_power(1)
    M = ElementaryModule(p_part=(3,), poly_part=((X, 1),))
    gen = char_ideal(M, ctx)
    w = weierstrass(gen)
    assert (w.mu, w.lam) == (3, 1)
    assert str(char_ideal(ElementaryModule(), ctx)) == "1"
    phi1 = ctx.phi(1)
    M = ElementaryModule(poly_part=((phi1, 2),))
    w = weierstrass(char_ideal(M, ctx))
    assert w.lam == 2 * phi1.degree()


def test_char_ideal_requires_torsion(ctx):
    with pytest.raises(NotTorsion):
        char_ideal(ElementaryModule(free_rank=1), ctx)


def test_f_torsion_finite_examples(ctx):
    X = ctx.x_power(1)
    p_elt = ctx.element([3])
    phi1 = ctx.phi(1)
    assert f_torsion_finite(ElementaryModule(poly_part=((X, 1),)), X, ctx) is False
    assert f_torsion_finite(ElementaryModule(p_part=(1,)), X, ctx) is True
    assert f_torsion_finite(ElementaryModule(poly_part=((phi1, 2),)), phi1, ctx) is False
    assert f_torsion_finite(ElementaryModule(poly_part=((phi1, 2),)), p_elt, ctx) is True


def _random_module(rng, ctx, factors):
    p_part = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 3)))
    poly = tuple(
        (F, rng.randrange(1, 3))
        for F in rng.sample(factors, rng.randrange(0, 3))
    )
    return ElementaryModule(p_part=p_part, poly_part=poly)


def test_finiteness_agreement_corpus(ctx):
    rng = random.Random(5)
    factors = [ctx.x_power(1), ctx.phi(1), ctx.phi(2), ctx.element([3, 3, 1])]
    tests = factors + [ctx.element([3])]
    for _ in range(200):
        M = _random_module(rng, ctx, factors)
        f = rng.choice(tests)
        # f_torsion_finite raises AssertionError if its two routes disagree
        f_torsion_finite(M, f, ctx)


def test_ses_examples(ctx):
    X = ctx.x_power(1)
    phi1 = ctx.phi(1)
    A = ElementaryModule(poly_part=((X, 1),))
    C = ElementaryModule(p_part=(1,))
    B = A.direct_sum(C)
    assert ses_char_check(A, B, C, ctx).passed
    zero = ElementaryModule()
    assert ses_char_check(zero, C, C, ctx).passed
    A = ElementaryModule(poly_part=((phi1, 1),))
    B = ElementaryModule(poly_part=((phi1, 2),))
    assert ses_char_check(A, B, A, ctx).passed


def test_ses_check_multiplicativity_200_sequences(ctx):
    rng = random.Random(17)
    factors = [ctx.x_power(1), ctx.phi(1), ctx.element([3, 0, 3, 1])]
    for _ in range(200):
        A = _random_module(rng, ctx, factors)
        C = _random_module(rng, ctx, factors)
        C = ElementaryModule(C.p_part, C.poly_part, free_rank=rng.randrange(0, 2))
        B = A.direct_sum(C)
        verdict = ses_char_check(A, B, C, ctx)
        assert verdict.passed, verdict.detail


def test_random_module_invariants(ctx):
    rng = random.Random(23)
    factors = [ctx.x_power(1), ctx.phi(1), ctx.phi(2)]
    for _ in range(60):
        M = _random_module(rng, ctx, factors)
        w = weierstrass(char_ideal(M, ctx))
        assert w.mu == M.mu()
        assert w.lam == M.lam()


# -- predicted ideals ----------------------------------------------------------------


def test_gr_kp_examples():
    e = RankSequence([1])
    assert gr_ideal(e) == FactoredIdeal()
    assert kp_ideal(e) == FactoredIdeal(x_exp=1)
    e = RankSequence([2, 1])
    assert gr_ideal(e) == FactoredIdeal(x_exp=1)
    assert kp_ideal(e) == FactoredIdeal(x_exp=2)
    e = RankSequence([0, 2])
    assert gr_ideal(e) == FactoredIdeal(phi_exps={1: 1})
    assert kp_ideal(e) == FactoredIdeal(phi_exps={1: 1})


def test_kp_is_gr_times_x_for_rank_one():
    rng = random.Random(3)
    for _ in range(40):
        e = RankSequence([1] + [rng.randrange(0, 2) for _ in range(4)])
        assert kp_ideal(e) == gr_ideal(e).times_x()


def test_factored_ideal_parse_and_render():
    assert parse_factored_ideal("(1)") == FactoredIdeal()
    assert parse_factored_ideal("X") == FactoredIdeal(x_exp=1)
    spec = parse_factored_ideal("p^2*X*Phi1^3")
    assert (spec.p_exp, spec.x_exp, spec.phi_dict) == (2, 1, {1: 3})
    assert str(spec) == "p^2*X*Phi1^3"
    assert parse_factored_ideal("Phi0^2") == FactoredIdeal(x_exp=2)


def test_factored_ideal_divides_and_lambda(ctx):
    a = parse_factored_ideal("X")
    b = parse_factored_ideal("X^2*Phi1")
    elt = ideal_to_lambda(b, ctx)
    assert divides_at_precision(elt, ideal_to_lambda(a, ctx))
    assert not divides_at_precision(ideal_to_lambda(a, ctx), elt)
    w = weierstrass(elt)
    assert (w.mu, w.lam) == (0, 2 + ctx.phi(1).degree())
