import math
import random

import pytest

from conftest import combination, omega, omega_signed, x_power, x_product
from signedlp.errors import (
    NotDistinguished,
    PrecisionExhausted,
)
from signedlp.lambda_ring import (
    GcdReport,
    IwasawaContext,
    _euclid_residual,
    divrem,
    gcd_lambda,
    render,
    weierstrass,
)


def ctx3(M=8):
    return IwasawaContext(3, M)


# -- cyclotomic pieces -------------------------------------------------------------


def test_phi_examples():
    c = ctx3()
    assert render(c.phi(1), c) == "X^2 + 3*X + 3"
    c5 = IwasawaContext(5, 8)
    assert render(c5.phi(1), c5) == "X^4 + 5*X^3 + 10*X^2 + 10*X + 5"
    assert render(c.phi(0), c) == "X"


def test_elements_are_exact_polynomials_at_any_degree():
    c = ctx3(M=4)
    assert c.residues([1, 2, 0, 0]) == [1, 2]
    zero = c.residues([])
    assert zero == []
    assert c.residues([3**4, 0, 2 * 3**4]) == zero
    # X^a * X^b, Phi_n and omega_n keep every coefficient, far beyond the
    # degrees any single level of the pipeline needs
    assert x_product(c, x_power(700), x_power(1300)) == [0] * 2000 + [1]
    omega7 = omega(c, 7)  # (1+X)^2187 - 1
    assert omega7 == [(math.comb(3**7, k) - (k == 0)) % 3**4 for k in range(3**7 + 1)]
    product = x_power(1)
    for n in range(1, 8):
        phi = c.phi(n)
        assert len(phi) - 1 == 2 * 3 ** (n - 1) and phi[-1] == 1
        assert x_product(c, phi, omega(c, n - 1)) == omega(c, n)
        product = x_product(c, product, phi)
    assert product == omega7


def test_phi_degree_and_value_at_zero():
    for p in (3, 5):
        c = IwasawaContext(p, 6)
        for n in (1, 2, 3):
            phi = c.phi(n)
            assert len(phi) - 1 == p ** (n - 1) * (p - 1)
            assert phi[0] == p


def test_omega_identities():
    c = ctx3()
    assert omega(c, 1) == x_product(c, x_power(1), c.phi(1))
    assert render(omega(c, 0), c) == "X"
    lhs = x_product(c, omega_signed(c, 2, "even"), omega_signed(c, 2, "odd"))
    rhs = x_product(c, x_power(1), omega(c, 2))
    assert lhs == rhs


# -- division ---------------------------------------------------------------------


def test_divrem_examples():
    c = ctx3()
    X = x_power(1)
    phi1 = c.phi(1)
    Q, R = divrem(x_product(c, X, phi1), X, c)
    assert Q == phi1 and R == []
    Q, R = divrem(phi1, X, c)
    assert render(Q, c) == "X + 3" and render(R, c) == "3"
    Q, R = divrem(phi1, phi1, c)
    assert render(Q, c) == "1" and R == []


def test_divrem_rejects_non_distinguished():
    c = ctx3()
    with pytest.raises(NotDistinguished):
        divrem(c.phi(1), c.residues([1, 1]), c)  # 1 + X is not distinguished


def test_divrem_identity_random():
    c = ctx3(M=6)
    rng = random.Random(7)
    for _ in range(50):
        F = c.residues([rng.randrange(-40, 40) for _ in range(12)])
        P = c.phi(rng.choice([1, 2])) if rng.random() < 0.5 else x_power(rng.randrange(1, 4))
        Q, R = divrem(F, P, c)  # re-multiplication asserted inside divrem
        assert len(R) - 1 < max(len(P) - 1, 1)


# -- Weierstrass preparation ---------------------------------------------------------


def test_weierstrass_examples():
    c = ctx3()
    w = weierstrass(c.residues([3, 3]), c)  # 3(1+X)
    assert (w.mu, w.lam) == (1, 0)
    w = weierstrass(c.residues([-3, 0, 1]), c)  # X^2 - 3
    assert (w.mu, w.lam) == (0, 2)
    assert render(w.distinguished_part, w.context) == "X^2 - 3"
    dead = c.residues([3**8, 2 * 3**8])
    assert not weierstrass(dead, c).conclusive


def test_weierstrass_remultiplication_round_trip():
    # P distinguished of degree lambda, U(0) a unit and p^mu * P * U = F
    # together pin the factorization down: it is unique
    rng = random.Random(11)
    for p in (3, 5, 7):
        for n in (16, 7, p, p * p):
            for _ in range(12):
                M = rng.randrange(2, 9)
                c = IwasawaContext(p, M)
                if n > 30:
                    break
                lam = rng.choice([rng.randrange(0, n), n - 1])
                mu = rng.randrange(0, M)
                coeffs = [p * rng.randrange(p**M) for _ in range(lam)]
                coeffs.append(rng.randrange(1, p) + p * rng.randrange(p**M))
                coeffs += [rng.randrange(p**M) for _ in range(lam + 1, n)]
                if lam < n - 1 and rng.random() < 0.5:
                    coeffs[-1] = p * rng.randrange(p**M)  # p-divisible top
                F = c.residues([v * p**mu for v in coeffs])
                w = weierstrass(F, c)
                assert w.conclusive and (w.mu, w.lam) == (mu, lam)
                assert w.context == IwasawaContext(p, M - mu)
                P, U = w.distinguished_part, w.unit_part
                assert P[-1] == 1 and all(a % p == 0 for a in P[:-1]) and len(P) - 1 == lam
                assert U[0] % p != 0
                recon = combination(c, (p**mu, x_product(c, P, U)))
                assert recon == F


def test_invariant_additivity_500_pairs():
    rng = random.Random(2024)
    c = ctx3(M=8)

    def random_conclusive():
        lam = rng.randrange(0, 6)
        mu = rng.randrange(0, 2)
        coeffs = [3 * rng.randrange(-8, 9) for _ in range(lam)]
        coeffs.append(rng.choice([1, 2, 4, 5, 7, 8]))
        coeffs += [rng.randrange(-26, 27) for _ in range(4)]
        return c.residues([v * 3**mu for v in coeffs])

    for _ in range(500):
        F, G = random_conclusive(), random_conclusive()
        wf, wg, wfg = weierstrass(F, c), weierstrass(G, c), weierstrass(x_product(c, F, G), c)
        assert wfg.mu == wf.mu + wg.mu
        assert wfg.lam == wf.lam + wg.lam


# -- gcd --------------------------------------------------------------------------


def gcd_of(F, G, ctx):
    return gcd_lambda(weierstrass(F, ctx), weierstrass(G, ctx))


def test_gcd_examples():
    c = ctx3()
    g = gcd_of(c.residues([0, 3]), c.residues([0, 0, 1]), c)
    assert (g.mu, g.x_exp, g.phi_exps) == (0, 1, {})
    X = x_power(1)
    g = gcd_of(x_product(c, X, c.phi(1)), x_product(c, X, c.phi(2)), c)
    assert (g.mu, g.as_string()) == (0, "X")
    g = gcd_of(c.phi(1), c.phi(2), c)
    assert g.as_string() == "1" and g.residual == "1"
    # certification is the analyzer's: gcd_lambda leaves it unset
    assert (g.certified, g.detail) == (False, "")


def test_gcd_detects_phi_factors_and_divides_both():
    c = ctx3()
    F = x_product(c, c.phi(1), [1, 1], x_power(1))
    G = x_product(c, c.phi(1), [2, 0, 1])  # X^2 + 2 is a unit times distinguished...
    g = gcd_of(F, G, c)
    assert g.phi_exps.get(1) == 1
    witness = c.phi(1)
    assert divrem(F, witness, c)[1] == []
    assert divrem(G, witness, c)[1] == []


def test_gcd_builds_no_phi_above_the_smaller_degree(monkeypatch):
    # once X and Phi_1 are divided out the smaller operand has degree 0, and
    # no Phi_n (degree >= 2) can divide it: only Phi_0 = X and Phi_1 are built
    c = ctx3()
    F = x_product(c, c.phi(1), x_power(1), [3, 0, 1])
    G = x_product(c, c.phi(1), x_power(1))
    built = []
    phi = IwasawaContext.phi
    monkeypatch.setattr(IwasawaContext, "phi", lambda self, n: built.append(n) or phi(self, n))
    g = gcd_of(F, G, c)
    assert (g.x_exp, g.phi_exps, g.residual) == (1, {1: 1}, "1")
    assert built == [0, 1]


def _reference_euclid_residual(A, B, ctx, passes):
    """The Euclidean residual hunt that factors both operands on every pass."""
    while True:
        passes.append(1)
        wa, wb = weierstrass(A, ctx), weierstrass(B, ctx)
        if not (wa.conclusive and wb.conclusive):
            return "operand vanished during reduction"
        if wa.lam == 0 or wb.lam == 0:
            return "1"
        if wa.lam < wb.lam:
            A, B = B, A
            wa, wb = wb, wa
        Bd = wb.distinguished_part
        if wb.context.precision < ctx.precision:
            ctx = wb.context
            A = ctx.residues(A)
        elif wb.context.precision > ctx.precision:
            Bd = ctx.residues(Bd)
        if ctx.precision <= 1:
            raise PrecisionExhausted(
                "Euclid ran out of certified digits before deciding the residual"
            )
        _, R = divrem(A, Bd, ctx)
        if not R:
            return render(Bd, ctx)
        A, B = Bd, R


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotDistinguished, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


def test_euclid_residual_matches_factoring_every_pass():
    # distinguished operands C*D1, C*D2 with a random distinguished common
    # factor C: the residual hunt reads them without factoring and must
    # agree with the loop that factors both operands on every pass
    rng = random.Random(11)
    passes, later = [], 0
    for _ in range(300):
        p, M = rng.choice([3, 5, 7]), rng.randint(2, 8)
        c = IwasawaContext(p, M)

        def distinguished(deg):
            return c.residues([p * rng.randrange(p**M) for _ in range(deg)] + [1])

        C = distinguished(rng.randint(0, 3))
        A = x_product(c, distinguished(rng.randint(0, 4)), C)
        B = x_product(c, distinguished(rng.randint(0, 4)), C)
        before = len(passes)
        expected = _outcome(_reference_euclid_residual, A, B, c, passes)
        assert _outcome(_euclid_residual, A, B, c) == expected, (p, M, A, B)
        later += len(passes) - before > 1
    # a second pass runs on a remainder, which need not be distinguished
    assert later >= 100


def test_context_conversions_reduce_never_extend():
    # the only conversions lower the precision: residues read in a lower
    # context, and a report's parts, known to M - mu digits
    c = ctx3(M=6)
    F = combination(c, (1, x_product(c, c.phi(1), [1, 1])), (1, [7]))
    assert IwasawaContext(3, 3).residues(F) == [a % 27 for a in F]
    w = weierstrass(combination(c, (9, F)), c)
    assert (w.mu, w.lam, w.distinguished_part, w.context) == (2, 0, [1], IwasawaContext(3, 4))
    assert w.unit_part == IwasawaContext(3, 4).residues(F)


def test_gcd_symmetry():
    c = ctx3()
    F = x_product(c, x_power(2), c.phi(1))
    G = x_product(c, x_power(1), c.phi(1), c.phi(1))
    a = gcd_of(F, G, c)
    b = gcd_of(G, F, c)
    assert (a.mu, a.x_exp, a.phi_exps) == (b.mu, b.x_exp, b.phi_exps)
    assert a.as_string() == "X*Phi1"


# operands p^mu * X * Phi1 * D * C with random distinguished D and C: the
# two reports have different mu, so their parts are known to M - mu digits
GCD_ACROSS_PRECISIONS = [
    # (seed, p, mu of F, mu of G, the GcdReport)
    (0, 3, 0, 1, GcdReport(0, 1, {1: 1}, "X^2 + 129*X - 327")),
    (1, 5, 1, 2, GcdReport(None, 1, {1: 1}, "X + 1505")),
    (2, 7, 0, 3, GcdReport(0, 1, {1: 1}, "X - 364")),
    (5, 7, 1, 3, GcdReport(None, 1, {1: 1}, "X^3 + 1120*X^2 - 1078*X + 749")),
    (10, 5, 0, 2, GcdReport(0, 1, {1: 1}, "X^3 - 620*X^2 - 695*X + 1040")),
]


@pytest.mark.parametrize("seed, p, mu_f, mu_g, expected", GCD_ACROSS_PRECISIONS)
def test_gcd_aligns_parts_known_to_different_precisions(seed, p, mu_f, mu_g, expected):
    rng = random.Random(seed)
    c = IwasawaContext(p, 8)

    def distinguished(deg):
        return c.residues([p * rng.randrange(p**8) for _ in range(deg)] + [1])

    C = distinguished(rng.randint(1, 3))
    named = x_product(c, x_power(1), c.phi(1))
    F = x_product(c, [p**mu_f], named, distinguished(rng.randint(1, 3)), C)
    G = x_product(c, [p**mu_g], named, distinguished(rng.randint(1, 3)), C)
    wf, wg = weierstrass(F, c), weierstrass(G, c)
    assert (wf.mu, wg.mu) == (mu_f, mu_g)
    assert (wf.context.precision, wg.context.precision) == (8 - mu_f, 8 - mu_g)
    assert gcd_lambda(wf, wg) == expected


def test_euclid_residual_is_rendered_distinguished_factor():
    # no X or Phi_n divides both: (X + 3) - (X + 6) = -3 leaves the common
    # factor after one remainder, known to one digit fewer
    c = ctx3(M=6)
    common = c.residues([6, 3, 1])
    g = gcd_of(x_product(c, common, [3, 1]), x_product(c, common, [6, 1]), c)
    assert g == GcdReport(0, 0, {}, "X^2 + 3*X + 6")
    c5 = IwasawaContext(5, 4)
    common = c5.residues([10, -5, 1])
    g = gcd_of(x_product(c5, common, [5, 1]), x_product(c5, common, c5.residues([-15, 0, 1])), c5)
    assert g == GcdReport(0, 0, {}, "X^2 - 5*X + 10")
