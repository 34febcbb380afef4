"""Theta elements: Riemann sums of plus symbols over (Z/p^(n+1))^*.

Every unit a modulo p^(n+1) factors as omega(a) * gamma^j with gamma = 1+p
and omega(a) the Teichmueller representative; the theta element at level n
collects the plus symbols along each gamma-fiber,

    theta_n = sum_j c_j (1+X)^j,   c_j = sum_i [ omega^i gamma^j / p^(n+1) ]^+,

a class in Lambda/(omega_n, p^M).  Its representative of degree below p^n
is a plain LambdaElement in the context (p^M, X^(p^n)), and a theta
sequence is a dict from level to that element.  Only the trivial tame
character enters, so only plus symbols are used; minus symbols stay in the
table for symmetry checks.  The c_j are gathered from the plus numerator
list of level n+1, one row omega^i gamma^j of the grid at a time, and
reduced into Z/p^M with one inverse of the unit part of the plus
denominator.  The change to the monomial basis is a Taylor shift by 1
(lambda_ring.taylor_shift): divide and conquer with one Kronecker product
per doubling of the block size.

The three-term congruence linking consecutive levels is a consequence of
the Hecke relations; check_compat re-proves it numerically on each run
rather than assuming it (the sign below is the empirically pinned one).
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import prime_divisors
from .errors import IncompleteTable, NotAUnit
from .lambda_ring import IwasawaContext, LambdaElement, divrem, taylor_shift
from .modsym import SymbolTable
from .padic import residues


def primitive_root_mod_p2(p: int) -> int:
    """Smallest primitive root mod p that stays primitive mod p^2."""
    factors = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            if pow(g, p - 1, p * p) != 1:
                return g
            return g + p
    raise ValueError(f"no primitive root found mod {p}")


def teichmueller(a: int, p: int, modulus: int) -> int:
    """The (p-1)-th root of unity congruent to a mod p, taken mod `modulus`."""
    if a % p == 0:
        raise NotAUnit(f"{a} is divisible by {p}")
    x = a % modulus
    while True:
        y = pow(x, p, modulus)
        if y == x:
            return x
        x = y


def teichmueller_values(p: int, modulus: int) -> list:
    """The Teichmueller values omega(g)^i mod `modulus` for i < p - 1, with
    g = primitive_root_mod_p2(p).  For modulus p^(n+1), every unit is one of
    them times a power of gamma = 1 + p."""
    w = teichmueller(primitive_root_mod_p2(p), p, modulus)
    return [pow(w, i, modulus) for i in range(p - 1)]


def build_theta(table: SymbolTable, n: int, M: int) -> LambdaElement:
    """Theta element at level n, at p-adic precision M, from a table complete
    through level n+1: its representative of degree below p^n."""
    p = table.p
    if not table.has_level(n + 1):
        raise IncompleteTable(f"theta at level {n} needs symbols mod {p}^{n+1}")
    modulus, d = p ** (n + 1), p**n
    ctx = IwasawaContext(p, M, d)
    gamma = [1]  # gamma^j mod p^(n+1)
    for _ in range(d - 1):
        gamma.append(gamma[-1] * (1 + p) % modulus)
    # omega^i gamma^j runs over every unit once; c_j sums over i
    plus = table.levels[n + 1][0]
    rows = [[plus[w * g % modulus] for g in gamma] for w in teichmueller_values(p, modulus)]
    sums = list(map(sum, zip(*rows)))
    # Each c_j is reduced into Z/p^M once.  The change of basis from
    # (1+X)^j to X^k is unitriangular over Z, so the monomial coefficients
    # are p-integral exactly when every c_j is: NotIntegral is raised here
    # or not at all.
    coeffs = residues(sums, table.denominators[0], p, M)
    return LambdaElement(ctx, taylor_shift(coeffs, ctx.modulus))


class CompatReport(NamedTuple):
    level: int
    passed: bool
    detail: str = ""
    index: int = None  # first offending coefficient when failed


def check_compat(thetas, n: int, a_p: int) -> CompatReport:
    """Verify theta_n = a_p theta_(n-1) - Phi_(n-1) theta_(n-2) mod omega_(n-1).

    The difference must be exactly divisible by omega_(n-1) at the working
    p-precision.  Levels 0 and 1 are covered by the Hecke validation of the
    underlying table instead.
    """
    if n < 2:
        raise ValueError("the three-term congruence starts at level 2")
    ctx = thetas[n].context
    wide = IwasawaContext(ctx.prime, ctx.precision, ctx.prime**n + 1)
    th_n, th_n1, th_n2 = (thetas[k].in_context(wide) for k in (n, n - 1, n - 2))
    lhs = th_n - th_n1.scale(a_p) + wide.phi(n - 1) * th_n2
    _, R = divrem(lhs, wide.omega(n - 1))
    for idx, c in enumerate(R.coeffs):
        if c:
            return CompatReport(
                n, False,
                detail=f"coefficient {idx} of the remainder is {c} mod {ctx.prime}^{ctx.precision}",
                index=idx,
            )
    return CompatReport(n, True)
