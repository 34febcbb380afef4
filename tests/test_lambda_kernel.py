"""Differential tests of the Lambda kernel against schoolbook references.

The package multiplies by Kronecker substitution, divides by monic long
division whose quotient a product re-verifies, and folds Weierstrass
remainders term by term.  The references below are the quadratic
algorithms: the schoolbook product, monic long division written one
leading coefficient at a time, and the Weierstrass loop.
"""

import random

import pytest

from signedlp import lambda_ring
from signedlp.errors import PrecisionExhausted
from signedlp.lambda_ring import (
    IwasawaContext,
    _mul,
    _pack,
    _unpack,
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
    """raw reduced modulo p^M, without trailing zeros."""
    raw = [c % ctx.modulus for c in raw]
    while raw and not raw[-1]:
        raw.pop()
    return tuple(raw)


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


def sizes(p):
    """Two operand sizes: 150 coefficients, and p^n for a level n with a few
    hundred."""
    return 150, p ** {3: 5, 5: 3, 19: 2}[p]


def random_distinguished(rng, ctx, d):
    p, mod = ctx.prime, ctx.modulus
    return ctx.element([p * rng.randrange(mod) for _ in range(d)] + [1])


def random_conclusive(rng, ctx, n, lam, mu):
    p, mod = ctx.prime, ctx.modulus
    coeffs = [p * rng.randrange(mod) for _ in range(lam)]
    coeffs.append(rng.randrange(1, p) + p * rng.randrange(mod))
    coeffs += [rng.randrange(mod) for _ in range(lam + 1, n)]
    return ctx.element([c * p**mu for c in coeffs])


# -- multiply --------------------------------------------------------------------


def test_mul_matches_schoolbook_across_slot_widths():
    # slots of 1, 2, 4 and 8 bytes go through array, wider ones are packed
    # through bytes and read as 8-byte words
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


@pytest.mark.parametrize("width", range(9, 25))
def test_wide_slots_read_as_words_match_per_slot_bytes(width):
    # the word reading against one int.from_bytes per slot, on slots whose
    # every byte is used, a full top byte included
    rng = random.Random(width)
    mod = rng.randrange(2**40, 2**64) | 1
    for n in (1, 2, 7, 300):
        values = [rng.randrange(256 ** width) for _ in range(n)]
        values[0] = 256**width - 1
        raw = _pack(values, width).to_bytes(n * width, "little")
        reference = [int.from_bytes(raw[i : i + width], "little") % mod
                     for i in range(0, len(raw), width)]
        assert reference == [v % mod for v in values]
        assert _unpack(raw, width, mod) == reference, (width, n)


def test_element_product_matches_reference_in_both_contexts():
    # operands of both sizes; the product keeps every coefficient
    rng = random.Random(82)
    for p in PRIMES:
        for M in PRECISIONS:
            ctx = IwasawaContext(p, M)
            mod = ctx.modulus
            for n in sizes(p):
                for la, lb in ((n, n), (n // 2, n // 3 + 1), (3, n), (1, 1)):
                    a = [rng.randrange(mod) for _ in range(la)]
                    b = [rng.randrange(mod) for _ in range(lb)]
                    got = (ctx.element(a) * ctx.element(b)).coeffs
                    assert got == reference_residues(ctx, schoolbook(a, b, mod)), (
                        p, M, n, la, lb,
                    )
                zero = ctx.element([])
                assert (zero * ctx.element(a)).coeffs == zero.coeffs == ()
                assert (ctx.element(a) * zero).coeffs == ()


# -- division --------------------------------------------------------------------


def test_divrem_matches_long_division():
    rng = random.Random(83)
    for p in PRIMES:
        for M in PRECISIONS:
            ctx = IwasawaContext(p, M)
            mod = ctx.modulus
            for n in sizes(p):
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
                    f = list(F.coeffs)
                    q, r = long_division(f, list(P.coeffs), mod)
                    assert Q.coeffs == reference_residues(ctx, q), (p, M, flen, d)
                    assert R.coeffs == reference_residues(ctx, r), (p, M, flen, d)


def test_divrem_by_one_of_a_long_dividend():
    ctx = IwasawaContext(3, 8)
    rng = random.Random(84)
    F = ctx.element([rng.randrange(ctx.modulus) for _ in range(4500)])
    Q, R = divrem(F, ctx.element([1]))
    assert Q.coeffs == F.coeffs and R.is_zero_at_precision


def test_wrong_product_is_caught_by_the_certificate(monkeypatch):
    # divrem re-multiplies its long-division quotient: a product that is off
    # in one coefficient must make it refuse the true quotient
    ctx = IwasawaContext(5, 8)
    rng = random.Random(85)
    F = ctx.element([rng.randrange(ctx.modulus) for _ in range(399)] + [1])
    P = random_distinguished(rng, ctx, 40)
    divrem(F, P)  # the true product passes
    true_mul = lambda_ring._mul

    def wrong_mul(a, b, mod):
        out = true_mul(a, b, mod)
        out[-1] = (out[-1] + 1) % mod
        return out

    monkeypatch.setattr(lambda_ring, "_mul", wrong_mul)
    with pytest.raises(PrecisionExhausted):
        divrem(F, P)


# -- Weierstrass -----------------------------------------------------------------


def test_weierstrass_matches_reference_loop():
    rng = random.Random(86)
    for p in PRIMES:
        for M in PRECISIONS:
            ctx = IwasawaContext(p, M)
            for n in sizes(p):
                # lambda up to n - 1, a fold of several hundred terms
                for lam in (0, 1, 5, 40, n - 1):
                    mu = rng.randrange(M)
                    F = random_conclusive(rng, ctx, n, lam, mu)
                    w = weierstrass(F)
                    mu_ref, lam_ref, P, U = reference_weierstrass(list(F.coeffs), p, M)
                    assert (w.mu, w.lam) == (mu_ref, lam_ref) == (mu, lam)
                    red = ctx.with_precision(M - mu)
                    assert w.distinguished_part.coeffs == reference_residues(red, P)
                    assert w.unit_part.coeffs == reference_residues(red, U)
                dead = [p**M * 7, 0, p**M]
                assert not weierstrass(ctx.element(dead)).conclusive
                assert reference_weierstrass(dead, p, M) is None
