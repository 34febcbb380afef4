"""Theta elements: Riemann sums of plus symbols over (Z/p^(n+1))^*.

Every unit a modulo p^(n+1) factors as omega(a) * gamma^j with gamma = 1+p
and omega(a) the Teichmueller representative; the theta element at level n
collects the plus symbols along each gamma-fiber,

    theta_n = sum_j c_j Y^j,   Y = 1 + X,   c_j = sum_i [ omega^i gamma^j / p^(n+1) ]^+,

an element of Z_p[Gamma_n] = Lambda/omega_n (Mazur-Tate, Duke Math. J. 54,
1987).  It is held exactly, as its Y-coefficients c_j, j < p^n: a Y-vector,
that is a plain list of integers (lambda_ring), and a theta sequence is a
dict from level to that list; every level shares the run's IwasawaContext,
which the functions that read thetas take beside them.  Only the trivial
tame character enters, so only plus symbols are used; the minus symbols
are read by validate_hecke, the CSV table format and the certification of
a build, and by nothing after validate_hecke.  The c_j are gathered from
the plus numerator list of level n+1, one row omega^i gamma^j of the grid
at a time, and divided by the p-part of the plus denominator only: each is
the rational c_j times the unit part u of that denominator.  Every reading
of a theta sequence (mu, lambda, distinguished parts, gcd, zero tests) is
unchanged by the p-adic unit u; only the theta payload prints values, and
it divides by u there.

The three-term relation linking consecutive levels is a consequence of the
Hecke relations; check_compat re-proves it exactly on each run rather than
assuming it (the sign below is the empirically pinned one), and raises
InconsistentTable itself at the first level where it fails, as the Hecke
validation does for the relations it implies.
"""

from __future__ import annotations

from .curves import prime_divisors
from .errors import IncompleteTable, InconsistentTable
from .lambda_ring import fold
from .modsym import SymbolTable
from .padic import p_integral, padic_valuation


def teichmueller_values(p: int, modulus: int) -> list:
    """The Teichmueller values omega(g)^i mod `modulus` = p^(n+1) for
    i < p - 1, with g the least primitive root mod p and omega(g) =
    g^(p^n) mod p^(n+1), which depends on g mod p only.  Every unit mod
    p^(n+1) is one of them times a power of gamma = 1 + p."""
    factors = prime_divisors(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    w = pow(g, modulus // p, modulus)
    return [pow(w, i, modulus) for i in range(p - 1)]


def build_theta(table: SymbolTable, n: int) -> list:
    """Theta element at level n from a table complete through level n+1:
    its Y-coefficients c_j, j < p^n, times the unit part of the plus
    denominator, as exact integers."""
    p = table.p
    if not table.has_level(n + 1):
        raise IncompleteTable(f"theta at level {n} needs symbols mod {p}^{n+1}")
    modulus, d = p ** (n + 1), p**n
    gamma = [1]  # gamma^j mod p^(n+1)
    for _ in range(d - 1):
        gamma.append(gamma[-1] * (1 + p) % modulus)
    # omega^i gamma^j runs over every unit once; c_j sums over i
    plus = table.levels[n + 1][0]
    rows = [[plus[w * g % modulus] for g in gamma] for w in teichmueller_values(p, modulus)]
    sums = list(map(sum, zip(*rows)))
    # The change of basis from Y^j to X^k is unitriangular over Z, so the
    # X-coefficients are p-integral exactly when every c_j is: NotIntegral
    # is raised here or not at all.
    return p_integral(sums, table.denominators[0], p)


def check_compat(thetas, n: int, a_p: int, ctx) -> None:
    """Verify theta_n = a_p theta_(n-1) - Phi_(n-1) theta_(n-2) mod omega_(n-1)
    exactly, on thetas held as Y-vectors: with m = p^(n-1), omega_(n-1) =
    Y^m - 1 and Phi_(n-1) = sum_{i<p} Y^(i m/p), so the remainder, which
    must vanish, is fold(theta_n, m) - a_p fold(theta_(n-1), m) plus
    fold(theta_(n-2), m/p) tiled p times.  A remainder that does not vanish
    raises InconsistentTable here, naming its first nonzero Y-coefficient
    and that coefficient's p-adic valuation (the scale of the thetas leaves
    it unchanged).  ctx is the run's IwasawaContext.
    The congruence starts at n = 2: levels 0 and 1 are covered by the Hecke
    validation of the underlying table instead.
    """
    p, m = ctx.prime, ctx.prime ** (n - 1)
    tiled = fold(thetas[n - 2], m // p) * p
    rem = [a - a_p * b + c for a, b, c in
           zip(fold(thetas[n], m), fold(thetas[n - 1], m), tiled)]
    for idx, c in enumerate(rem):
        if c:
            raise InconsistentTable(f"level {n}: Y-coefficient {idx} of the remainder has "
                                    f"{p}-adic valuation {padic_valuation(c, p)}")
