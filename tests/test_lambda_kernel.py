"""Differential tests of the Lambda kernel against schoolbook references.

The package multiplies by Kronecker substitution, divides by monic long
division whose quotient a product re-verifies, changes basis from Y to X
by a blocked Taylor shift, and folds Weierstrass remainders term by term.
The references below are the quadratic algorithms: the schoolbook
product, monic long division written one leading coefficient at a time,
one division by Y - 1 per X-coefficient, Phi_n by exact binomials, and
the Weierstrass loop.
"""

import math
import random

import pytest

from signedlp import lambda_ring
from signedlp.errors import PrecisionExhausted
from signedlp.lambda_ring import (
    IwasawaContext,
    _mul,
    divrem,
    pack,
    unpack,
    weierstrass,
    x_coefficients,
)
from signedlp.padic import padic_valuation

from conftest import x_by_division, x_product

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
    return raw


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
    return ctx.residues([p * rng.randrange(mod) for _ in range(d)] + [1])


def random_conclusive(rng, ctx, n, lam, mu):
    p, mod = ctx.prime, ctx.modulus
    coeffs = [p * rng.randrange(mod) for _ in range(lam)]
    coeffs.append(rng.randrange(1, p) + p * rng.randrange(mod))
    coeffs += [rng.randrange(mod) for _ in range(lam + 1, n)]
    return ctx.residues([c * p**mu for c in coeffs])


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
        raw = pack(values, width).to_bytes(n * width, "little")
        reference = [int.from_bytes(raw[i : i + width], "little") % mod
                     for i in range(0, len(raw), width)]
        assert reference == [v % mod for v in values]
        assert unpack(raw, width, mod) == reference, (width, n)


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
                    got = x_product(ctx, ctx.residues(a), ctx.residues(b))
                    assert got == reference_residues(ctx, schoolbook(a, b, mod)), (
                        p, M, n, la, lb,
                    )
                zero = ctx.residues([])
                assert x_product(ctx, zero, ctx.residues(a)) == zero == []
                assert x_product(ctx, ctx.residues(a), zero) == []


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
                    F = ctx.residues([rng.randrange(mod) for _ in range(flen)])
                    P = random_distinguished(rng, ctx, d)
                    Q, R = divrem(F, P, ctx)
                    q, r = long_division(F, P, mod)
                    assert Q == reference_residues(ctx, q), (p, M, flen, d)
                    assert R == reference_residues(ctx, r), (p, M, flen, d)


def test_divrem_by_one_of_a_long_dividend():
    ctx = IwasawaContext(3, 8)
    rng = random.Random(84)
    F = ctx.residues([rng.randrange(ctx.modulus) for _ in range(4500)])
    Q, R = divrem(F, [1], ctx)
    assert Q == F and R == []


def test_wrong_product_is_caught_by_the_certificate(monkeypatch):
    # divrem re-multiplies its long-division quotient: a product that is off
    # in one coefficient must make it refuse the true quotient
    ctx = IwasawaContext(5, 8)
    rng = random.Random(85)
    F = ctx.residues([rng.randrange(ctx.modulus) for _ in range(399)] + [1])
    P = random_distinguished(rng, ctx, 40)
    divrem(F, P, ctx)  # the true product passes
    true_mul = lambda_ring._mul

    def wrong_mul(a, b, mod):
        out = true_mul(a, b, mod)
        out[-1] = (out[-1] + 1) % mod
        return out

    monkeypatch.setattr(lambda_ring, "_mul", wrong_mul)
    with pytest.raises(PrecisionExhausted):
        divrem(F, P, ctx)


# -- change of basis -------------------------------------------------------------


def phi_by_binomials(p, n):
    """The exact X-coefficients of Phi_n = sum_{k<p} (1+X)^(k p^(n-1)),
    n >= 1, expanded with binomials."""
    coeffs = [0] * (p ** (n - 1) * (p - 1) + 1)
    for k in range(p):
        for j in range(k * p ** (n - 1) + 1):
            coeffs[j] += math.comb(k * p ** (n - 1), j)
    return coeffs


def test_x_coefficients_matches_division_reference():
    # lengths around the leaf size of 64 (one leaf, a short last leaf, a
    # lone last block in a pairing round) and random ones up to 3000; n
    # from 0 past the length; signed entries; at p = 43 the slots of the
    # leaves and rounds are wider than 8 bytes from M = 8 on
    rng = random.Random(87)
    for p in (3, 5, 17, 43):
        for M in (1, 2, 8, 30):
            ctx = IwasawaContext(p, M)
            for length in (0, 1, 63, 64, 65, 127, 128, 129, rng.randint(130, 3000)):
                y = [rng.randint(-10**9, 10**9) for _ in range(length)]
                full = x_by_division(y, length, ctx)
                for n in (0, 1, length, length + 5, rng.randint(0, length)):
                    expected = reference_residues(ctx, full[:n])
                    assert x_coefficients(y, n, ctx) == expected, (p, M, length, n)


def test_phi_matches_exact_binomial_expansion():
    for p, levels in ((3, 3), (5, 3), (7, 3), (43, 2)):
        for n in range(1, levels + 1):
            coeffs = phi_by_binomials(p, n)
            for M in (1, 8, 30):
                ctx = IwasawaContext(p, M)
                assert ctx.phi(n) == ctx.residues(coeffs), (p, M, n)


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
                    w = weierstrass(F, ctx)
                    mu_ref, lam_ref, P, U = reference_weierstrass(F, p, M)
                    assert (w.mu, w.lam) == (mu_ref, lam_ref) == (mu, lam)
                    red = IwasawaContext(p, M - mu)
                    assert w.context == red
                    assert w.distinguished_part == reference_residues(red, P)
                    assert w.unit_part == reference_residues(red, U)
                dead = [p**M * 7, 0, p**M]
                assert not weierstrass(ctx.residues(dead), ctx).conclusive
                assert reference_weierstrass(dead, p, M) is None
