"""Differential tests of the scans in the group-ring variable Y = 1 + X.

Theta elements, their parity quotients and the sharp/flat solves are held as
Y-coefficients, and every division by omega_n = Y^(p^n) - 1 or Phi_n is a
linear scan.  Each scan is checked here against monic division in X
(divrem) of the Taylor-shifted operand by omega_n or Phi_n written in X, on
operands that divide and on corrupted ones that must not, and each reading
(the first X-coefficients, mu and lambda) against the full Taylor shift.
"""

import random
import re

import pytest

from signedlp.errors import NotStabilized, PrecisionExhausted
from signedlp.extract import extract_plus_minus
from signedlp.lambda_ring import (
    IwasawaContext,
    _quotient_by_y_power,
    divrem,
    fold,
    mu_lambda,
    mu_lambda_y,
    phi_quotient,
    x_coefficients,
)
from signedlp.theta import check_compat

from conftest import omega, x_element, y_element

PRIMES = (3, 5, 17, 31)
PRECISIONS = (1, 8, 30)


def top_level(p):
    """The largest level n at which operands of a few times p^n terms keep
    the X-side long division quick."""
    return {3: 4, 5: 3, 17: 1, 31: 1}[p]


def random_element(rng, ctx, n):
    return ctx.element([rng.randrange(ctx.modulus) for _ in range(n)])


def corrupted(rng, F, length):
    """F plus a unit in one coefficient below `length`."""
    bump = [0] * length
    bump[rng.randrange(length)] = rng.randrange(1, F.context.prime)
    return F + F.context.element(bump)


def phi_product(ctx, levels):
    out = ctx.element([1])
    for k in levels:
        out = out * ctx.phi(k)
    return out


def test_fold_is_the_remainder_by_omega():
    rng = random.Random(2201)
    for p in PRIMES:
        for M in PRECISIONS:
            ctx = IwasawaContext(p, M)
            for k in range(top_level(p) + 1):
                F = random_element(rng, ctx, rng.randint(0, 3 * p**k))
                _, R = divrem(x_element(F), omega(ctx, k))
                assert x_element(ctx.element(fold(F.coeffs, p**k))) == R, (p, M, k)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_by_y_power_is_the_quotient_by_omega(p):
    rng = random.Random(2202 + p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        for k in range(top_level(p) + 1):
            m = p**k
            Q = random_element(rng, ctx, rng.randint(0, 2 * m))
            F = y_element(Q * omega(ctx, k))
            got = _quotient_by_y_power(list(F.coeffs), m, ctx.modulus)
            assert x_element(ctx.element(got)) == Q, (p, M, k)
            bad = corrupted(rng, F, m + len(F.coeffs))
            assert _quotient_by_y_power(list(bad.coeffs), m, ctx.modulus) is None
            assert not divrem(x_element(bad), omega(ctx, k))[1].is_zero_at_precision


@pytest.mark.parametrize("p", PRIMES)
def test_phi_quotient_is_the_quotient_by_the_phi_product(p):
    # single factors (the sharp/flat solve), parity products (the plus/minus
    # quotients) and X times a parity product (the class-modulus test)
    rng = random.Random(2203 + p)
    top = top_level(p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        cases = [[k] for k in range(top + 1)]
        cases += [list(range(n - 1, 0, -2)) for n in range(2, top + 2)]
        cases += [[0, *range(low, 0, -2)] for low in range(1, top + 1)]
        for levels in cases:
            W = phi_product(ctx, levels)
            Q = random_element(rng, ctx, rng.randint(0, 2 * W.degree() + 2))
            F = y_element(Q * W)
            assert x_element(phi_quotient(F, levels)) == Q, (p, M, levels)
            bad = corrupted(rng, F, W.degree() + 1)
            assert not divrem(x_element(bad), W)[1].is_zero_at_precision
            message = f"{W} does not divide the operand at precision"
            with pytest.raises(PrecisionExhausted, match=f"^{re.escape(message)}$"):
                phi_quotient(bad, levels)


def _compat_in_x(thetas, n, a_p):
    """(passed, index, detail) of the three-term congruence checked in X."""
    ctx = thetas[n].context
    X = {k: x_element(th) for k, th in thetas.items()}
    lhs = X[n] - X[n - 1].scale(a_p) + ctx.phi(n - 1) * X[n - 2]
    _, R = divrem(lhs, omega(ctx, n - 1))
    if R.is_zero_at_precision:
        return True, None, ""
    idx = next(i for i, c in enumerate(R.coeffs) if c)
    detail = f"coefficient {idx} of the remainder is {R.coeffs[idx]} mod {ctx.prime}^{ctx.precision}"
    return False, idx, detail


@pytest.mark.parametrize("p", PRIMES)
def test_compat_scan_matches_division_by_omega(p):
    # thetas built to satisfy the congruence pass; one changed coefficient of
    # theta_n fails it, at the X-remainder index divrem reports
    rng = random.Random(2204 + p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        for n in range(2, top_level(p) + 2):
            a_p = rng.choice([0, p, -p, 2 * p])
            th = {k: random_element(rng, ctx, p**k) for k in (n - 2, n - 1)}
            X = {k: x_element(t) for k, t in th.items()}
            h = random_element(rng, ctx, p**n - p ** (n - 1))
            body = X[n - 1].scale(a_p) - ctx.phi(n - 1) * X[n - 2] + h * omega(ctx, n - 1)
            th[n] = y_element(divrem(body, omega(ctx, n))[1])
            for thetas in (th, {**th, n: corrupted(rng, th[n], p**n)}):
                rep = check_compat(thetas, n, a_p)
                assert (rep.passed, rep.index, rep.detail) == _compat_in_x(thetas, n, a_p)
            assert check_compat(th, n, a_p).passed


def test_class_modulus_scan_matches_division_in_x():
    # theta_1 = F and theta_3 = -Phi_2 * (F + D) mod omega_3: the
    # sign-corrected plus quotients at levels 1 and 3 differ by D, which must
    # vanish modulo omega_1 = X * Phi_1, the class modulus at level 1
    rng = random.Random(2205)
    ctx = IwasawaContext(3, 8)
    modulus = omega(ctx, 1)
    F = ctx.element([0, 1, 3])
    for trial in range(40):
        D = random_element(rng, ctx, 4)
        if trial % 2:
            D = D * modulus
        thetas = {0: ctx.element([0]), 2: ctx.element([0]), 1: y_element(F)}
        thetas[3] = y_element(divrem(-(ctx.phi(2) * (F + D)), omega(ctx, 3))[1])
        disagree = not divrem(D, modulus)[1].is_zero_at_precision
        try:
            extract_plus_minus(thetas, 0)
            raised = False
        except NotStabilized as exc:
            raised = "disagree" in str(exc)
        assert raised == disagree, (trial, D)


def planted(ctx, rng, k, mu, tail):
    """p^mu * X^k * U in X, with U(0) a unit and `tail` further terms."""
    p, mod = ctx.prime, ctx.modulus
    U = [rng.randrange(1, p)] + [rng.randrange(mod) for _ in range(tail)]
    return ctx.element([0] * k + U).scale(p**mu)


@pytest.mark.parametrize("p", PRIMES)
def test_readings_in_y_match_the_full_shift(p):
    # random elements, elements vanishing at X = 0 to order k (up to
    # 2p^2 + p + 1, so lambda has three base-p digits), and the zero element
    rng = random.Random(2206 + p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        operands = [random_element(rng, ctx, rng.randint(1, 3 * p)) for _ in range(4)]
        for k in (0, 1, p - 1, p, p * p + 2, 2 * p * p + p + 1):
            operands.append(planted(ctx, rng, k, rng.randrange(M), rng.randint(0, p)))
        operands.append(ctx.element([p**M, 0, 2 * p**M]))
        for F in operands:
            Y = y_element(F)
            assert mu_lambda_y(Y) == mu_lambda(F), (p, M)
            for N in (0, 1, 5, 60):  # up to and beyond the length of some operands
                assert x_coefficients(Y, N) == ctx.element(F.coeffs[:N]), (p, M, N)
            assert Y.value_at_one() == (F.coeffs[0] if F.coeffs else 0)
