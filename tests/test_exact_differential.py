"""The exact Y-side against a mod-p^M reference of the algorithm it replaced.

Theta elements and every quotient divided out of them are held exactly over
Z (theta, lambda_ring, extract), and p^M enters only where x_coefficients
reduces a representative into X.  Before that, every Y-side step was reduced
mod p^M: build_theta returned num/den mod p^M, and each quotient by
Y^m - 1, parity sign flip and solve was reduced and tested "at precision".
That algorithm is kept below, compactly, as the reference.  On random tables
that satisfy the Hecke relations at p exactly, the exact path reduced mod
p^M, after division by the unit part u of the plus denominator, gives the
reference's vectors, and every reading agrees: invariants (the unit part up
to u), grade, X lower bound and the invariant fit.

The two differ only where a value the reference read as 0 mod p^M is not 0
over Z, and the tests pin each such change to the exact reading:
- a top representative whose value at X = 0 is 0 mod p^M but not over Z
  has X lower bound 0, where the reference certified 1;
- a lower-level vector that is 0 mod p^M but not over Z is read (mu >= M)
  and compared with the top one, so the pair raises NotStabilized where the
  reference graded it without a comparison; a theta of that kind enters the
  invariant fit, which the reference skipped;
- a table scaled by p^M, so that every representative is 0 mod p^M: the
  reference graded every component "zero-chain" with X lower bound 1 and
  fitted no level; the exact path keeps the grade, X lower bound and fit of
  the unscaled table, with mu raised by M, while the invariants at
  precision M stay inconclusive.
"""

import functools
import random
from fractions import Fraction
from itertools import accumulate, zip_longest

import pytest

from signedlp.errors import NotStabilized
from signedlp.extract import _solve, extract_plus_minus, extract_sharp_flat, invariant_fit
from signedlp.lambda_ring import (
    InvariantReport,
    IwasawaContext,
    fold,
    mu_lambda_y,
    phi_quotient,
    weierstrass,
    x_coefficients,
)
from signedlp.modsym import validate_hecke
from signedlp.padic import padic_valuation
from signedlp.theta import build_theta

from conftest import synthetic_table

# (p, top levels): every top level n_max reads a table through n_max + 1
CASES = ((3, (2, 3, 4, 5)), (5, (2, 3)), (17, (2,)))


def hecke_table(rng, p, K, a_p):
    """A random table through level K whose plus symbols satisfy
    a_p [a/p^n] = [a/p^(n-1)] + sum_k [(a + k p^n)/p^(n+1)] exactly for
    n = 1..K-1, over a denominator prime to p: the last lift of every unit
    a mod p^n takes what the relation leaves."""
    den = rng.choice([1, 2, 7, 14])

    def draw():
        return Fraction(rng.randrange(-20, 21), den)

    plus = {(0, 0): draw(), **{(1, a): draw() for a in range(1, p)}}
    for n in range(1, K):
        for a in range(1, p**n):
            if a % p:
                lifts = [(n + 1, a + k * p**n) for k in range(p)]
                plus.update((key, draw()) for key in lifts[:-1])
                plus[lifts[-1]] = (a_p * plus[(n, a)] - plus[(n - 1, a % p ** (n - 1))]
                                   - sum(plus[key] for key in lifts[:-1]))
    return synthetic_table(p, plus)


# -- the reference: the Y-side reduced mod p^M at every step ----------------------


def reference_quotient(y, levels, p, mod):
    """y / prod Phi_k mod p^M, or None unless each division holds mod p^M."""
    for k in levels:
        if k:
            s = p ** (k - 1)
            y = [a - b for a, b in zip_longest([0] * s + y, y, fillvalue=0)]
        m = p**k
        if any(c % mod for c in fold(y, m)):
            return None
        q = [0] * max(len(y) - m, 0)
        for r in range(min(m, len(q))):
            q[r::m] = list(accumulate(y[r + m :: m][::-1]))[::-1]
        y = [c % mod for c in q]
    return y


def reference_solve(thetas, n, a_p, p, mod):
    u, v = thetas[n], thetas[n - 1]
    for k in range(n - 1, 0, -1):
        w = [a_p * b - a for a, b in zip_longest(u, v, fillvalue=0)]
        u, v = v, reference_quotient(w, (k,), p, mod)
    return u, v


def reference_component(rep, grade, ctx):
    """(rep, invariants, grade, x lower bound) of a top representative held
    as residues mod p^M."""
    mu, lam = mu_lambda_y(rep, ctx.prime)
    n = 0 if mu is None else max(lam + 1, lam * (ctx.precision - mu) + 1)
    return (rep, weierstrass(x_coefficients(rep, n, ctx), ctx),
            grade if any(rep) else "zero-chain", 0 if sum(rep) % ctx.modulus else 1)


def reference_pair(thetas, a_p, ctx):
    """The components of the reference extraction, or "NotStabilized"."""
    p, mod = ctx.prime, ctx.modulus
    tops = []
    if a_p == 0:
        for parity in (1, 0):
            levels = sorted(n for n in thetas if n % 2 == parity)[-2:]
            q = {}
            for n in levels:
                y = reference_quotient(thetas[n], range(n - 1, 0, -2), p, mod)
                q[n] = [-c % mod for c in y] if (n // 2) % 2 == 1 else y
            grade = "single-level"
            if len(levels) == 2:
                low, top = (mu_lambda_y(q[n], p) for n in levels)
                if None not in (low[0], top[0]) and low != top:
                    return "NotStabilized"
                grade = "two-level"
            tops.append((q[levels[-1]], grade))
    else:
        top = max(thetas)
        for hi, lo in zip(reference_solve(thetas, top, a_p, p, mod),
                          reference_solve(thetas, top - 1, a_p, p, mod)):
            r_hi, r_lo = mu_lambda_y(hi, p), mu_lambda_y(lo, p)
            grade = "single-level"
            if None not in (r_hi[0], r_lo[0]):
                if r_hi != r_lo:
                    return "NotStabilized"
                grade = "two-level"
            elif not any(lo) and not sum(hi) % mod:
                grade = "two-level"
            tops.append((hi, grade))
    return [reference_component(rep, grade, ctx) for rep, grade in tops]


# -- the exact path -----------------------------------------------------------------


def exact_thetas(table, n_max):
    return {n: build_theta(table, n) for n in range(n_max + 1)}


def exact_pair(thetas, a_p, ctx):
    """The components of the exact extraction, or "NotStabilized"."""
    extract = extract_plus_minus if a_p == 0 else extract_sharp_flat
    try:
        return extract(thetas, a_p, ctx)
    except NotStabilized:
        return "NotStabilized"


def fit(thetas, ctx):
    try:
        return invariant_fit(thetas, ctx)
    except NotStabilized:
        return "NotStabilized"


def unit_inverse(table, M):
    """The inverse mod p^M of the unit part of the plus denominator."""
    den, p = table.denominators[0], table.p
    return pow(den // p ** padic_valuation(den, p), -1, p**M)


def divided(inv, inverse):
    """An InvariantReport of a series, as read on the series times inverse:
    only the unit part changes."""
    if not inv.conclusive:
        return inv
    return inv._replace(unit_part=inv.context.residues([c * inverse for c in inv.unit_part]))


@functools.lru_cache(maxsize=None)
def tables():
    """(p, n_max, a_p, table) for every case, three random tables each."""
    rng = random.Random(3101)
    return [(p, n_max, a_p, hecke_table(rng, p, n_max + 1, a_p))
            for p, tops in CASES for n_max in tops for a_p in (0, p, -p) for _ in range(3)]


def lower_vectors(thetas, a_p, ctx):
    """The exact vectors the grade reads one level below the top: the parity
    quotient at the lower level of each parity, or the lower solve."""
    if a_p:
        return _solve(thetas, max(thetas) - 1, a_p, ctx)
    lows = [sorted(n for n in thetas if n % 2 == parity)[-2:] for parity in (1, 0)]
    return [phi_quotient(thetas[n], range(n - 1, 0, -2), ctx) for n, _ in
            (levels for levels in lows if len(levels) == 2)]


def vanishes_beyond(values, mod):
    """Whether the integers are 0 mod p^M but not all 0."""
    return any(values) and not any(c % mod for c in values)


def compared(table, n_max, a_p, M):
    """(exact, reference, exact thetas): the pair and the fit of each path on
    one table, the exact pair's series reduced mod p^M and divided by u."""
    thetas, ctx, mod = exact_thetas(table, n_max), IwasawaContext(table.p, M), table.p**M
    inverse = unit_inverse(table, M)
    reference = {n: [c * inverse % mod for c in th] for n, th in thetas.items()}
    got = exact_pair(thetas, a_p, ctx)
    if got != "NotStabilized":
        got = [([c * inverse % mod for c in comp.series], divided(comp.invariants, inverse),
                comp.stabilization, comp.x_lower_bound, comp.series) for comp in got]
    want = reference_pair(reference, a_p, ctx), fit(reference, ctx)
    return (got, fit(thetas, ctx)), want, thetas


def test_exact_path_reduced_mod_p_to_the_M_is_the_reference():
    stabilized = 0
    for p, n_max, a_p, table in tables():
        validate_hecke(table, p, n_max, a_p)
        for M in (4, 8):
            (got, got_fit), want, _ = compared(table, n_max, a_p, M)
            if got != "NotStabilized":
                stabilized += 1
                got = [comp[:4] for comp in got]
            assert (got, got_fit) == want, (p, n_max, a_p, M)
    assert stabilized >= 100


def test_low_precision_changes_are_exact_reads():
    # at M = 2 some values the reference read as 0 mod p^M are not 0 over Z;
    # every difference is one of the changes the module docstring names
    seen = set()
    for p, n_max, a_p, table in tables():
        (got, got_fit), (want, want_fit), thetas = compared(table, n_max, a_p, 2)
        ctx, mod = IwasawaContext(p, 2), p**2
        if got == "NotStabilized" != want:
            assert any(vanishes_beyond(v, mod) for v in lower_vectors(thetas, a_p, ctx))
            seen.add("NotStabilized")
        elif got != want:
            for g, w in zip(got, want):
                if g[:4] != w:
                    assert (g[:3], g[3], w[3]) == (w[:3], 0, 1)
                    assert vanishes_beyond([sum(g[4])], mod)
                    seen.add("x_lower_bound")
        if got_fit != want_fit:
            assert any(vanishes_beyond(th, mod) for th in thetas.values())
            seen.add("fit")
    assert {"NotStabilized", "x_lower_bound"} <= seen


@pytest.mark.parametrize("M", [2, 8])
def test_representative_zero_mod_p_to_the_M_but_not_over_z(M):
    # a table scaled by p^M: every theta and representative is 0 mod p^M
    seen = set()
    for p, n_max, a_p, table in tables():
        scaled = table._replace(levels=[[[v * p**M for v in sign] for sign in level]
                                        for level in table.levels])
        ctx = IwasawaContext(p, M)
        thetas, big = exact_thetas(table, n_max), exact_thetas(scaled, n_max)
        assert big == {n: [c * p**M for c in th] for n, th in thetas.items()}
        base, got = exact_pair(thetas, a_p, ctx), exact_pair(big, a_p, ctx)
        if base == "NotStabilized":
            assert got == "NotStabilized"
            continue
        # the reference saw only zeros: zero-chain, X lower bound 1, no fit
        zeros = {n: [0] * len(th) for n, th in big.items()}
        assert reference_pair(zeros, a_p, ctx) == [
            ([0] * len(c.series), InvariantReport(None, None), "zero-chain", 1) for c in got]
        assert fit(zeros, ctx) == ((None, None), (None, None))
        # the exact path reads the scaled series as the unscaled ones, mu + M
        for b, c in zip(base, got):
            assert c.series == [v * p**M for v in b.series]
            assert c.invariants == InvariantReport(None, None)
            assert (c.stabilization, c.x_lower_bound) == (b.stabilization, b.x_lower_bound)
            mu, lam = mu_lambda_y(b.series, p)
            assert mu_lambda_y(c.series, p) == (mu if mu is None else mu + M, lam)
            seen.add((c.stabilization, c.x_lower_bound))
        fits, big_fits = fit(thetas, ctx), fit(big, ctx)
        if fits == "NotStabilized":
            assert big_fits == fits
            continue
        for (mu, lam), big_fit in zip(fits, big_fits):
            assert big_fit == (mu if mu is None else mu + M, lam)
    # the grades the reference read as zero-chain, and a partner whose value
    # at 0 it read as 0 mod p^M
    assert ("two-level", 0) in seen and ("single-level", 0) in seen
