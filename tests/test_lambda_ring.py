import random

import pytest

from conftest import omega_signed
from signedlp.errors import (
    MixedContext,
    NotDistinguished,
    PrecisionExhausted,
    TruncationTooSmall,
)
from signedlp.lambda_ring import (
    IwasawaContext,
    _euclid_residual,
    divides_at_precision,
    divrem,
    gcd_lambda,
    weierstrass,
)


def ctx3(D=24, M=8):
    return IwasawaContext(3, M, D)


def same(a, b):
    return a.coeffs == b.coeffs


# -- cyclotomic pieces -------------------------------------------------------------


def test_phi_examples():
    c = ctx3()
    assert str(c.phi(1)) == "X^2 + 3*X + 3"
    c5 = IwasawaContext(5, 8, 24)
    assert str(c5.phi(1)) == "X^4 + 5*X^3 + 10*X^2 + 10*X + 5"
    assert str(c.phi(0)) == "X"


def test_phi_truncation_guard():
    small = IwasawaContext(3, 8, 4)
    with pytest.raises(TruncationTooSmall):
        small.phi(2)


def test_phi_degree_and_value_at_zero():
    for p in (3, 5):
        c = IwasawaContext(p, 6, p * p * (p - 1) + 2)
        for n in (1, 2, 3):
            if p ** (n - 1) * (p - 1) >= c.trunc_len:
                continue
            phi = c.phi(n)
            assert phi.degree() == p ** (n - 1) * (p - 1)
            assert phi.coeffs[0] == p


def test_omega_identities():
    c = ctx3()
    assert same(c.omega(1), c.x_power(1) * c.phi(1))
    assert str(c.omega(0)) == "X"
    lhs = omega_signed(c, 2, "even") * omega_signed(c, 2, "odd")
    rhs = c.x_power(1) * c.omega(2)
    assert same(lhs, rhs)


# -- division ---------------------------------------------------------------------


def test_divrem_examples():
    c = ctx3()
    X = c.x_power(1)
    phi1 = c.phi(1)
    Q, R = divrem(X * phi1, X)
    assert same(Q, phi1) and R.is_zero_at_precision
    Q, R = divrem(phi1, X)
    assert str(Q) == "X + 3" and str(R) == "3"
    Q, R = divrem(phi1, phi1)
    assert str(Q) == "1" and R.is_zero_at_precision


def test_divrem_rejects_non_distinguished():
    c = ctx3()
    with pytest.raises(NotDistinguished):
        divrem(c.phi(1), c.element([1, 1]))  # 1 + X is not distinguished


def test_divrem_identity_random():
    c = ctx3(D=20, M=6)
    rng = random.Random(7)
    for _ in range(50):
        F = c.element([rng.randrange(-40, 40) for _ in range(12)])
        P = c.phi(rng.choice([1, 2])) if rng.random() < 0.5 else c.x_power(rng.randrange(1, 4))
        Q, R = divrem(F, P)  # re-multiplication asserted inside divrem
        assert R.degree() < max(P.degree(), 1)


# -- Weierstrass preparation ---------------------------------------------------------


def test_weierstrass_examples():
    c = ctx3()
    w = weierstrass(c.element([3, 3]))  # 3(1+X)
    assert (w.mu, w.lam) == (1, 0)
    w = weierstrass(c.element([-3, 0, 1]))  # X^2 - 3
    assert (w.mu, w.lam) == (0, 2)
    assert str(w.distinguished_part) == "X^2 - 3"
    dead = c.element([3**8, 2 * 3**8])
    assert not weierstrass(dead).conclusive


def test_weierstrass_remultiplication_round_trip():
    # P distinguished of degree lambda, U(0) a unit and p^mu * P * U = F
    # together pin the factorization down: it is unique
    rng = random.Random(11)
    for p in (3, 5, 7):
        for D in (16, 7, p, p * p):
            for _ in range(12):
                M = rng.randrange(2, 9)
                c = IwasawaContext(p, M, D)
                n = c.trunc_len
                if n > 30:
                    break
                lam = rng.choice([rng.randrange(0, n), n - 1])
                mu = rng.randrange(0, M)
                coeffs = [p * rng.randrange(p**M) for _ in range(lam)]
                coeffs.append(rng.randrange(1, p) + p * rng.randrange(p**M))
                coeffs += [rng.randrange(p**M) for _ in range(lam + 1, n)]
                if lam < n - 1 and rng.random() < 0.5:
                    coeffs[-1] = p * rng.randrange(p**M)  # p-divisible top
                F = c.element([v * p**mu for v in coeffs])
                w = weierstrass(F)
                assert w.conclusive and (w.mu, w.lam) == (mu, lam)
                P, U = w.distinguished_part, w.unit_part
                assert P.is_distinguished() and P.degree() == lam
                assert U.coeffs[0] % p != 0
                recon = (c.element(P.coeffs) * c.element(U.coeffs)).scale(p**mu)
                assert recon.coeffs == F.coeffs


def test_invariant_additivity_500_pairs():
    rng = random.Random(2024)
    c = ctx3(D=30, M=8)

    def random_conclusive():
        lam = rng.randrange(0, 6)
        mu = rng.randrange(0, 2)
        coeffs = [3 * rng.randrange(-8, 9) for _ in range(lam)]
        coeffs.append(rng.choice([1, 2, 4, 5, 7, 8]))
        coeffs += [rng.randrange(-26, 27) for _ in range(4)]
        return c.element([v * 3**mu for v in coeffs])

    for _ in range(500):
        F, G = random_conclusive(), random_conclusive()
        wf, wg, wfg = weierstrass(F), weierstrass(G), weierstrass(F * G)
        assert wfg.mu == wf.mu + wg.mu
        assert wfg.lam == wf.lam + wg.lam


# -- gcd --------------------------------------------------------------------------


def gcd_of(F, G):
    return gcd_lambda(weierstrass(F), weierstrass(G))


def test_gcd_examples():
    c = ctx3()
    g = gcd_of(c.element([0, 3]), c.element([0, 0, 1]))
    assert (g.mu, g.x_exp, g.phi_exps) == (0, 1, {})
    g = gcd_of(c.x_power(1) * c.phi(1), c.x_power(1) * c.phi(2))
    assert (g.mu, g.as_string()) == (0, "X")
    g = gcd_of(c.phi(1), c.phi(2))
    assert g.as_string() == "1" and g.certified


def test_gcd_detects_phi_factors_and_divides_both():
    c = ctx3(D=30)
    F = c.phi(1) * c.element([1, 1]) * c.x_power(1)
    G = c.phi(1) * c.element([2, 0, 1])  # X^2 + 2 is a unit times distinguished...
    g = gcd_of(F, G)
    assert g.phi_exps.get(1) == 1
    witness = c.phi(1)
    assert divides_at_precision(F, witness) and divides_at_precision(G, witness)


def test_gcd_builds_no_phi_above_the_smaller_degree(monkeypatch):
    # an X^300 context fits Phi_1 .. Phi_5, but once X and Phi_1 are divided
    # out the smaller operand has degree 0, and no Phi_n (degree >= 2) can
    # divide it: only Phi_1 is built
    c = ctx3(D=300)
    F = c.phi(1) * c.x_power(1) * c.element([3, 0, 1])
    G = c.phi(1) * c.x_power(1)
    built = []
    phi = IwasawaContext.phi
    monkeypatch.setattr(IwasawaContext, "phi", lambda self, n: built.append(n) or phi(self, n))
    g = gcd_of(F, G)
    assert (g.x_exp, g.phi_exps, g.residual, g.certified) == (1, {1: 1}, "1", True)
    assert built == [1]


def _reference_euclid_residual(A, B, passes):
    """The Euclidean residual hunt that factors both operands on every pass."""
    while True:
        passes.append(1)
        wa, wb = weierstrass(A), weierstrass(B)
        if not (wa.conclusive and wb.conclusive):
            return "1", False, "operand vanished during reduction"
        if wa.lam == 0 or wb.lam == 0:
            return "1", True, ""
        if wa.lam < wb.lam:
            A, B = B, A
            wa, wb = wb, wa
        Bd = wb.distinguished_part
        ctxA = A.context
        if Bd.context.precision < ctxA.precision:
            A = A.reduce_precision(Bd.context.precision)
            ctxA = A.context
        elif Bd.context.precision > ctxA.precision:
            Bd = Bd.reduce_precision(ctxA.precision)
        if ctxA.precision <= 1:
            raise PrecisionExhausted(
                "Euclid ran out of certified digits before deciding the residual"
            )
        _, R = divrem(A, Bd)
        if R.is_zero_at_precision:
            return str(Bd), True, ""
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
        c = IwasawaContext(p, M, rng.choice([16, 30]))

        def distinguished(deg):
            return c.element([p * rng.randrange(p**M) for _ in range(deg)] + [1])

        C = distinguished(rng.randint(0, 3))
        A = distinguished(rng.randint(0, 4)) * C
        B = distinguished(rng.randint(0, 4)) * C
        before = len(passes)
        expected = _outcome(_reference_euclid_residual, A, B, passes)
        assert _outcome(_euclid_residual, A, B) == expected, (p, M, A, B)
        later += len(passes) - before > 1
    # a second pass runs on a remainder, which need not be distinguished
    assert later >= 100


def test_context_conversions_reduce_never_extend():
    c = ctx3(D=16, M=6)
    F = c.phi(1) * c.element([1, 1]) + c.element([7])
    # a shorter degree bound cuts the representative, a longer one pads it
    low = F.in_context(IwasawaContext(3, 6, 2))
    assert low.coeffs == F.coeffs[:2]
    wide_low = c.element(low.coeffs)
    assert wide_low.coeffs == F.coeffs[:2] + (0,) * 14
    shallow = F.reduce_precision(3)
    assert shallow.context.precision == 3
    with pytest.raises(Exception):
        shallow.reduce_precision(6)
    # reading in another context: same prime, precision never extended
    assert low.in_context(c).coeffs == wide_low.coeffs
    assert F.in_context(shallow.context).coeffs == shallow.coeffs
    with pytest.raises(MixedContext):
        shallow.in_context(c)
    with pytest.raises(MixedContext):
        F.in_context(IwasawaContext(5, 6, 16))


def test_gcd_symmetry():
    c = ctx3(D=30)
    F = c.x_power(2) * c.phi(1)
    G = c.x_power(1) * c.phi(1) * c.phi(1)
    a = gcd_of(F, G)
    b = gcd_of(G, F)
    assert (a.mu, a.x_exp, a.phi_exps) == (b.mu, b.x_exp, b.phi_exps)
    assert a.as_string() == "X*Phi1"
