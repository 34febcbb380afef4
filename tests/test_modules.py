import random
import re

import pytest

from signedlp.lambda_ring import IwasawaContext, divrem, weierstrass
from signedlp.modules import (
    FactoredIdeal,
    gr_ideal,
    kp_ideal,
    parse_factored_ideal,
)

from conftest import ideal_to_lambda


@pytest.fixture(scope="module")
def ctx():
    return IwasawaContext(3, 8)


# -- predicted ideals ----------------------------------------------------------------


def test_gr_kp_examples():
    e = (1,)
    assert gr_ideal(e) == FactoredIdeal()
    assert kp_ideal(e) == FactoredIdeal(x_exp=1)
    e = (2, 1)
    assert gr_ideal(e) == FactoredIdeal(x_exp=1)
    assert kp_ideal(e) == FactoredIdeal(x_exp=2)
    e = (0, 2)
    assert gr_ideal(e) == FactoredIdeal(phi_exps={1: 1})
    assert kp_ideal(e) == FactoredIdeal(phi_exps={1: 1})


def test_kp_is_gr_times_x_for_rank_one():
    rng = random.Random(3)
    for _ in range(40):
        e = (1, *(rng.randrange(0, 2) for _ in range(4)))
        assert kp_ideal(e) == gr_ideal(e).times_x()


def test_factored_ideal_parse_and_render():
    assert parse_factored_ideal("(1)") == FactoredIdeal()
    assert parse_factored_ideal("X") == FactoredIdeal(x_exp=1)
    spec = parse_factored_ideal("p^2*X*Phi1^3")
    assert (spec.p_exp, spec.x_exp, spec.phi_dict) == (2, 1, {1: 3})
    assert str(spec) == "p^2*X*Phi1^3"
    assert parse_factored_ideal("Phi0^2") == FactoredIdeal(x_exp=2)
    for spec in ("X^a", "Y", "Phi", "Phi1^-1", "p^-1", "X*X^-1", "X^", "Phi1^"):
        with pytest.raises(ValueError, match=re.escape(f"ideal spec {spec!r}")):
            parse_factored_ideal(spec)
    for ideal in ((-1, 0, ()), (0, -1, ()), (0, 0, ((1, -1),)), (0, 0, ((-1, 1),))):
        with pytest.raises(ValueError):
            FactoredIdeal(*ideal)


def test_factored_ideal_divides_and_lambda(ctx):
    a = parse_factored_ideal("X")
    b = parse_factored_ideal("X^2*Phi1")
    elt = ideal_to_lambda(b, ctx)
    assert divrem(elt, ideal_to_lambda(a, ctx))[1].is_zero_at_precision
    assert not divrem(ideal_to_lambda(a, ctx), elt)[1].is_zero_at_precision
    w = weierstrass(elt)
    assert (w.mu, w.lam) == (0, 2 + ctx.phi(1).degree())
