"""Differential tests of the scans in the group-ring variable Y = 1 + X.

Theta elements, their parity quotients and the sharp/flat solves are held as
Y-vectors (plain lists of exact integer Y-coefficients), and every division
by omega_n = Y^(p^n) - 1 or Phi_n is an exact linear scan over Z.  Each scan
is checked here against monic division in X (divrem, mod p^M) of the
Taylor-shifted operand by omega_n or Phi_n written in X, on operands built
exactly in Y that divide and on corrupted ones that must not, and each
reading (the first X-coefficients, mu and lambda) against the full Taylor
shift; and every reading against the same Y-vector with trailing zeros.
"""

import random
import re

import pytest

from signedlp.errors import InconsistentTable, NotStabilized
from signedlp.extract import extract_plus_minus
from signedlp.lambda_ring import (
    IwasawaContext,
    _quotient_by_y_power,
    divrem,
    fold,
    mu_lambda,
    mu_lambda_y,
    phi_quotient,
    render,
    x_coefficients,
)
from signedlp.padic import padic_valuation
from signedlp.theta import check_compat

from conftest import (
    combination,
    omega,
    stripped,
    x_element,
    x_product,
    y_element,
    y_sum,
    y_times_phi,
)

PRIMES = (3, 5, 17, 31)
PRECISIONS = (1, 8, 30)


def top_level(p):
    """The largest level n at which operands of a few times p^n terms keep
    the X-side long division quick."""
    return {3: 4, 5: 3, 17: 1, 31: 1}[p]


def random_vector(rng, ctx, n):
    """n integers of either sign, below p^M in size."""
    return [rng.randrange(1 - ctx.modulus, ctx.modulus) for _ in range(n)]


def random_element(rng, ctx, n):
    return ctx.residues(random_vector(rng, ctx, n))


def corrupted(rng, y, length, ctx):
    """The Y-vector y, padded to `length`, plus a unit in one coefficient
    below `length`."""
    bad = y + [0] * (length - len(y))
    i = rng.randrange(length)
    bad[i] += rng.randrange(1, ctx.prime)
    return bad


def phi_product(ctx, levels):
    return x_product(ctx, *(ctx.phi(k) for k in levels))


def test_fold_is_the_remainder_by_omega():
    rng = random.Random(2201)
    for p in PRIMES:
        for M in PRECISIONS:
            ctx = IwasawaContext(p, M)
            for k in range(top_level(p) + 1):
                y = random_vector(rng, ctx, rng.randint(0, 3 * p**k))
                _, R = divrem(x_element(y, ctx), omega(ctx, k), ctx)
                assert x_element(fold(y, p**k), ctx) == R, (p, M, k)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_by_y_power_is_the_quotient_by_omega(p):
    rng = random.Random(2202 + p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        for k in range(top_level(p) + 1):
            m = p**k
            q = random_vector(rng, ctx, rng.randint(0, 2 * m))
            y = y_times_phi(q, range(k + 1), p)
            assert not any(fold(y, m)) and _quotient_by_y_power(y, m) == q, (p, M, k)
            assert divrem(x_element(y, ctx), omega(ctx, k), ctx) == (x_element(q, ctx), [])
            bad = corrupted(rng, y, m + len(y), ctx)
            assert any(fold(bad, m))
            assert divrem(x_element(bad, ctx), omega(ctx, k), ctx)[1] != []


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
            q = random_vector(rng, ctx, rng.randint(0, 2 * (len(W) - 1) + 2))
            y = y_times_phi(q, levels, p)
            assert phi_quotient(y, levels, ctx) == q, (p, M, levels)
            assert divrem(x_element(y, ctx), W, ctx) == (x_element(q, ctx), [])
            bad = corrupted(rng, y, len(W), ctx)
            assert divrem(x_element(bad, ctx), W, ctx)[1] != []
            message = f"{render(W, ctx)} does not divide the operand exactly"
            with pytest.raises(InconsistentTable, match=f"^{re.escape(message)}$"):
                phi_quotient(bad, levels, ctx)


def _compat_in_x(thetas, n, a_p, ctx):
    """(passed, index, detail) of the three-term congruence checked in X mod
    p^M, its remainder named by its first Y-coefficient nonzero mod p^M."""
    X = {k: x_element(th, ctx) for k, th in thetas.items()}
    lhs = combination(ctx, (1, X[n]), (-a_p, X[n - 1]),
                      (1, x_product(ctx, ctx.phi(n - 1), X[n - 2])))
    _, R = divrem(lhs, omega(ctx, n - 1), ctx)
    if not R:
        return True, None, ""
    y = [c % ctx.modulus for c in y_element(R)]
    idx = next(i for i, c in enumerate(y) if c)
    valuation = padic_valuation(y[idx], ctx.prime)
    detail = f"Y-coefficient {idx} of the remainder has {ctx.prime}-adic valuation {valuation}"
    return False, idx, detail


def compatible_thetas(rng, ctx, n, a_p):
    """Random theta_(n-2) and theta_(n-1), and a theta_n that satisfies the
    three-term congruence with them exactly, as Y-vectors."""
    p = ctx.prime
    th = {k: random_vector(rng, ctx, p**k) for k in (n - 2, n - 1)}
    h = random_vector(rng, ctx, p**n - p ** (n - 1))
    body = y_sum([a_p * c for c in th[n - 1]],
                 [-c for c in y_times_phi(th[n - 2], [n - 1], p)],
                 y_times_phi(h, range(n), p))
    th[n] = fold(body, p**n)
    return th


@pytest.mark.parametrize("p", PRIMES)
def test_compat_scan_matches_division_by_omega(p):
    # thetas built to satisfy the congruence pass; one changed coefficient of
    # theta_n fails it, at the X-remainder index divrem reports
    rng = random.Random(2204 + p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        for n in range(2, top_level(p) + 2):
            a_p = rng.choice([0, p, -p, 2 * p])
            th = compatible_thetas(rng, ctx, n, a_p)
            for thetas in (th, {**th, n: corrupted(rng, th[n], p**n, ctx)}):
                rep = check_compat(thetas, n, a_p, ctx)
                assert (rep.passed, rep.index, rep.detail) == _compat_in_x(thetas, n, a_p, ctx)
            assert check_compat(th, n, a_p, ctx).passed


def test_class_modulus_scan_matches_division_in_x():
    # theta_1 = F and theta_3 = -Phi_2 * (F + D) mod omega_3: the
    # sign-corrected plus quotients at levels 1 and 3 differ by D, which must
    # vanish modulo omega_1 = X * Phi_1, the class modulus at level 1
    rng = random.Random(2205)
    ctx = IwasawaContext(3, 8)
    F = y_element([0, 1, 3])
    for trial in range(40):
        D = random_vector(rng, ctx, 4)
        if trial % 2:
            D = y_times_phi(D, [0, 1], 3)
        thetas = {0: [0], 2: [0] * 9, 1: F}
        thetas[3] = fold([-c for c in y_times_phi(y_sum(F, D), [2], 3)], 27)
        disagree = divrem(x_element(D, ctx), omega(ctx, 1), ctx)[1] != []
        try:
            extract_plus_minus(thetas, 0, ctx)
            raised = False
        except NotStabilized as exc:
            raised = "disagree" in str(exc)
        assert raised == disagree, (trial, D)


def planted(ctx, rng, k, mu, tail):
    """p^mu * X^k * U in X, with U(0) a unit and `tail` further terms."""
    p, mod = ctx.prime, ctx.modulus
    U = [rng.randrange(1, p)] + [rng.randrange(mod) for _ in range(tail)]
    return ctx.residues([0] * k + [c * p**mu for c in U])


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
        operands.append(ctx.residues([p**M, 0, 2 * p**M]))
        for F in operands:
            y = y_element(F)
            assert mu_lambda_y(y, p) == mu_lambda(F, ctx), (p, M)
            for N in (0, 1, 5, 60):  # up to and beyond the length of some operands
                assert x_coefficients(y, N, ctx) == ctx.residues(F[:N]), (p, M, N)
            assert sum(y) == (F[0] if F else 0)


@pytest.mark.parametrize("p", (3, 5, 17))
def test_readings_ignore_trailing_zeros(p):
    # a Y-vector keeps the length it was computed at: zeros past its last
    # nonzero coefficient change no reading, and a quotient only by zeros
    # at its end
    rng = random.Random(2207 + p)
    top = top_level(p)
    for M in PRECISIONS:
        ctx = IwasawaContext(p, M)
        for t in (1, p, p * p + 1):
            for levels in ([top], list(range(top, 0, -2)), [0, *range(top, 0, -2)]):
                W = phi_product(ctx, levels)
                q = random_vector(rng, ctx, rng.randint(0, 2 * (len(W) - 1)))
                y = y_times_phi(q, levels, p)
                for operand in (y, corrupted(rng, y, len(W), ctx)):
                    outcomes = []
                    for z in (operand, operand + [0] * t):
                        try:
                            outcomes.append(stripped(phi_quotient(z, levels, ctx)))
                        except InconsistentTable as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1], (p, M, levels, t)
            operands = [random_vector(rng, ctx, rng.randint(0, 3 * p)),
                        [0] * rng.randint(0, p)]
            operands += [y_element(planted(ctx, rng, k, rng.randrange(M), 2)) for k in (1, p + 1)]
            for y in operands:
                padded = y + [0] * t
                assert mu_lambda_y(padded, p) == mu_lambda_y(y, p), (p, M, t)
                for N in (0, 1, 5, 60):
                    assert x_coefficients(padded, N, ctx) == x_coefficients(y, N, ctx)
            for n in range(2, top + 2):
                a_p = rng.choice([0, p, -p])
                th = compatible_thetas(rng, ctx, n, a_p)
                for thetas in (th, {**th, n: corrupted(rng, th[n], p**n, ctx)}):
                    padded = {k: v + [0] * t for k, v in thetas.items()}
                    assert check_compat(padded, n, a_p, ctx) == check_compat(thetas, n, a_p, ctx)
