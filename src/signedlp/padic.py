"""p-adic valuations and the reduction of rationals into Z/p^M.

Residues mod p^M are plain integers throughout the package; Lambda elements
(lambda_ring) store one per coefficient, and a symbol table (modsym) keeps
integer numerators over one denominator per sign, which `residues` turns
into residues with a single modular inverse.
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


def residues(numerators, den: int, p: int, M: int) -> list:
    """num/den mod p^M for every num, or NotIntegral if one of them is not in
    Z_p: the p-part of den must divide num, and the unit part of den is
    inverted once for all of them."""
    if den == 0:
        raise ZeroDivisionError("denominator is zero")
    content = p ** padic_valuation(den, p)
    for num in numerators:
        if num % content:
            g = math.gcd(num, den)
            raise NotIntegral(f"{num // g}/{den // g} has negative {p}-adic valuation")
    modulus = p**M
    inverse = pow(den // content, -1, modulus)
    return [num // content * inverse % modulus for num in numerators]
