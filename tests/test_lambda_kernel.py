"""Differential tests of the Lambda kernel against schoolbook references.

The package multiplies by Kronecker substitution, divides through Newton
reciprocals above a base-case cutoff and folds Weierstrass remainders with
one reciprocal and one product.  The references below are the quadratic
algorithms they replaced: the schoolbook product, monic long division and
the Weierstrass loop with its term-by-term fold.
"""

import random

import pytest

from signedlp import lambda_ring
from signedlp.errors import PrecisionExhausted
from signedlp.lambda_ring import (
    _LONG_DIVISION_WORK,
    IwasawaContext,
    _mul,
    divrem,
    weierstrass,
)
from signedlp.padic import padic_valuation

PRIMES = (3, 5, 19)
PRECISIONS = (1, 8, 30)


def schoolbook(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % mod for c in out]


def long_division(f, g, mod):
    """(q, r) for the monic g, one leading coefficient at a time."""
    d = len(g) - 1
    rem = [c % mod for c in f]
    q = [0] * max(len(f) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                rem[i - d + j] = (rem[i - d + j] - c * g[j]) % mod
    return q, rem[:d]


def reference_residues(ctx, raw):
    """raw reduced modulo (p^M, X^D)."""
    mod, n = ctx.modulus, ctx.trunc_len
    raw = [c % mod for c in raw[:n]]
    return tuple(raw + [0] * (n - len(raw)))


def reference_weierstrass(coeffs, p, M):
    """(mu, lam, P, U) by repeated long division, folding R / Q mod X^lam
    into P term by term; None when every coefficient vanishes."""
    vals = [padic_valuation(c, p) if c else M for c in coeffs]
    if min(vals) >= M:
        return None
    mu = min(vals)
    lam = vals.index(mu)
    mod = p ** (M - mu)
    G = [c // p**mu % mod for c in coeffs]
    lower = [0] * lam
    for _ in range(M - mu + 1):
        q, r = long_division(G, lower + [1], mod)
        if not any(r):
            return mu, lam, lower + [1], q
        q = q + [0] * lam
        inv0 = pow(q[0], -1, mod)
        delta = []
        for k in range(lam):
            acc = r[k] - sum(q[j] * delta[k - j] for j in range(1, k + 1))
            delta.append(acc * inv0 % mod)
        lower = [(a + d) % mod for a, d in zip(lower, delta)]
    raise AssertionError("reference Weierstrass loop did not converge")


def contexts(p, M):
    """Two degree contexts: 150 coefficients, and p^n for a level n with a
    few hundred."""
    level = {3: 5, 5: 3, 19: 2}[p]
    return (
        IwasawaContext(p, M, 150),
        IwasawaContext(p, M, p**level),
    )


def random_distinguished(rng, ctx, d):
    p, mod = ctx.prime, ctx.modulus
    return ctx.element([p * rng.randrange(mod) for _ in range(d)] + [1])


def random_conclusive(rng, ctx, lam, mu):
    p, mod, n = ctx.prime, ctx.modulus, ctx.trunc_len
    coeffs = [p * rng.randrange(mod) for _ in range(lam)]
    coeffs.append(rng.randrange(1, p) + p * rng.randrange(mod))
    coeffs += [rng.randrange(mod) for _ in range(lam + 1, n)]
    return ctx.element([c * p**mu for c in coeffs])


# -- multiply --------------------------------------------------------------------


def test_mul_matches_schoolbook_across_slot_widths():
    # slots of 1, 2, 4 and 8 bytes go through array, wider ones through bytes
    rng = random.Random(81)
    for p in PRIMES:
        for M in PRECISIONS:
            mod = p**M
            for la, lb in ((1, 1), (1, 40), (7, 3), (60, 60), (300, 17), (513, 400)):
                a = [rng.randrange(mod) for _ in range(la)]
                b = [rng.randrange(mod) for _ in range(lb)]
                a[-1] = b[-1] = mod - 1  # largest residues fill the slots
                assert _mul(a, b, mod) == schoolbook(a, b, mod), (p, M, la, lb)
            a = [mod - 1] * 100
            assert _mul(a, a, mod) == schoolbook(a, a, mod)
            assert _mul([], [1, 2], mod) == [] and _mul([1], [], mod) == []


def test_element_product_matches_reference_in_both_contexts():
    rng = random.Random(82)
    for p in PRIMES:
        for M in PRECISIONS:
            for ctx in contexts(p, M):
                n, mod = ctx.trunc_len, ctx.modulus
                for la, lb in ((n, n), (n // 2, n // 3 + 1), (3, n), (1, 1)):
                    a = [rng.randrange(mod) for _ in range(la)]
                    b = [rng.randrange(mod) for _ in range(lb)]
                    got = (ctx.element(a) * ctx.element(b)).coeffs
                    assert got == reference_residues(ctx, schoolbook(a, b, mod)), (
                        p, M, ctx.trunc_len, la, lb,
                    )
                zero = ctx.zero()
                assert (zero * ctx.element(a)).coeffs == zero.coeffs
                assert (ctx.element(a) * zero).coeffs == zero.coeffs


# -- division --------------------------------------------------------------------


def test_divrem_matches_long_division():
    rng = random.Random(83)
    sides = set()
    for p in PRIMES:
        for M in PRECISIONS:
            for ctx in contexts(p, M):
                n, mod = ctx.trunc_len, ctx.modulus
                cases = [
                    (n, 2),  # long quotient, small divisor
                    (n, n // 2),  # quotient and divisor of the same size
                    (n // 3, 5),
                    (4, 6),  # deg F < deg P
                    (n, 0),  # the divisor 1
                    (0, 3),  # F = 0
                ]
                for flen, d in cases:
                    F = ctx.element([rng.randrange(mod) for _ in range(flen)])
                    P = random_distinguished(rng, ctx, d)
                    Q, R = divrem(F, P)
                    f = list(F.coeffs[: F.degree() + 1])
                    q, r = long_division(f, list(P.coeffs[: d + 1]), mod)
                    assert Q.coeffs == reference_residues(ctx, q), (p, M, flen, d)
                    assert R.coeffs == reference_residues(ctx, r), (p, M, flen, d)
                    sides.add(max(len(f) - d, 0) * (d + 1) > _LONG_DIVISION_WORK)
    assert sides == {False, True}  # both sides of the base-case cutoff


def test_divrem_by_one_above_the_cutoff():
    ctx = IwasawaContext(3, 8, _LONG_DIVISION_WORK + 500)
    rng = random.Random(84)
    F = ctx.element([rng.randrange(ctx.modulus) for _ in range(ctx.trunc_len)])
    Q, R = divrem(F, ctx.one())
    assert Q.coeffs == F.coeffs and R.is_zero_at_precision


def test_wrong_reciprocal_is_caught_by_the_certificate(monkeypatch):
    ctx = IwasawaContext(5, 8, 400)
    rng = random.Random(85)
    F = ctx.element([rng.randrange(ctx.modulus) for _ in range(399)] + [1])
    P = random_distinguished(rng, ctx, 40)
    assert (F.degree() - 40 + 1) * 41 > _LONG_DIVISION_WORK
    divrem(F, P)  # the true reciprocal passes
    true_reciprocal = lambda_ring._reciprocal

    def wrong_reciprocal(f, n, mod):
        g = true_reciprocal(f, n, mod)
        g[1] = (g[1] + 1) % mod
        return g

    monkeypatch.setattr(lambda_ring, "_reciprocal", wrong_reciprocal)
    with pytest.raises(PrecisionExhausted):
        divrem(F, P)


# -- Weierstrass -----------------------------------------------------------------


def test_weierstrass_matches_reference_loop():
    rng = random.Random(86)
    for p in PRIMES:
        for M in PRECISIONS:
            for ctx in contexts(p, M):
                n = ctx.trunc_len
                # lambda beyond the 32 recurrence terms of the reciprocal too
                for lam in (0, 1, 5, 40, n - 1):
                    mu = rng.randrange(M)
                    F = random_conclusive(rng, ctx, lam, mu)
                    w = weierstrass(F)
                    mu_ref, lam_ref, P, U = reference_weierstrass(list(F.coeffs), p, M)
                    assert (w.mu, w.lam) == (mu_ref, lam_ref) == (mu, lam)
                    red = ctx.with_precision(M - mu)
                    assert w.distinguished_part.coeffs == reference_residues(red, P)
                    assert w.unit_part.coeffs == reference_residues(red, U)
                dead = ctx.element([p**M * 7, 0, p**M])
                assert not weierstrass(dead).conclusive
                assert reference_weierstrass(list(dead.coeffs), p, M) is None
