"""p-adic valuations, and the p-integral part of numerators over one denominator.

A symbol table (modsym) keeps integer numerators over one denominator per
sign.  The theta elements built from them stay integers: `p_integral`
divides out only the p-part of the denominator, exactly, so a value differs
from num/den by the unit part of den, which no p-adic reading sees.
Residues mod p^M appear only where a series leaves the group ring for X
(lambda_ring.x_coefficients).
"""

from __future__ import annotations

import math

from .errors import NotIntegral


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_integral(numerators, den: int, p: int) -> list:
    """num / p^v for every num, with den = p^v u and u prime to p, or
    NotIntegral if one of the num/den is not in Z_p: p^v must divide num.
    Each result is u * num/den, an exact integer."""
    content = p ** padic_valuation(den, p)
    for num in numerators:
        if num % content:
            g = math.gcd(num, den)
            raise NotIntegral(f"{num // g}/{den // g} has negative {p}-adic valuation")
    return [num // content for num in numerators]
