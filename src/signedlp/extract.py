"""Signed series approximations from theta sequences.

With a_p = 0 the three-term relation decouples the even- and odd-level
theta chains: theta_n is exactly divisible by the product of the Phi_i of
parity opposite to n, and the (sign-corrected) quotients of one parity
cohere modulo growing distinguished ideals.  The top quotient of the odd
chain approximates the plus series, the even chain the minus series (an
internal labelling: the gcd is symmetric in the pair, and the invariant
fit reads it by position).

With 0 < v_p(a_p), the pair is solved from the two top theta lifts through
the inverse of the fundamental-solution matrix of s_(k+1) = a_p s_k -
Phi_k s_(k-1); every division is by a monic polynomial and is verified to
be exact over Z.  Both extractions return the pair as the tuple
(odd-class component, even-class component): (plus, minus) or (sharp,
flat).  The first component is anchored at level-1 data and the second at
level-0 data, as the odd and even classes of invariant_fit are, which
returns its fit in the same order.  Thetas, quotients and solves are
Y-vectors, plain lists of exact integers in Y = 1 + X read beside the run's
IwasawaContext, where each division is a pair of linear scans
(phi_quotient), and a division that does not go through is an
InconsistentTable: the table breaks a relation its Hecke relations imply.
The precision M enters only where the first X-coefficients of a top
representative are reduced mod p^M into a residue list in X
(x_coefficients), for Weierstrass preparation.

Sprung's pair specializes to Pollack's: with a_p = 0 the solve at level n
returns exactly the sign-corrected parity quotients at n and n - 1, odd
level first (tests/test_extract.py::test_solve_at_a_p_zero_is_the_parity_quotients).
So the two differ only in how they reach and grade their top
representatives; one builder (_component) makes each component from them.

Invariants are read off the canonical representative; readings with mu = 0
transfer to the limit object (a coefficient that is a unit stays a unit
under any change of representative modulo a distinguished ideal), readings
with mu > 0 do not, and are reported as observed-but-uncertified.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest

from .errors import InconsistentTable, NotStabilized, WrongReductionType
from .lambda_ring import (
    INCONCLUSIVE,
    mu_lambda_y,
    phi_quotient,
    weierstrass,
    x_coefficients,
)


class SignedSeries(namedtuple("SignedSeries", "label series modulus_desc invariants "
                              "stabilization x_lower_bound limit_certified")):
    """One member of a signed pair, with its certification data: series is
    the canonical representative, a Y-vector of exact integers in the scale
    of the thetas; invariants its InvariantReport at the working precision;
    stabilization "two-level", "single-level" or "zero-chain" (series = 0);
    x_lower_bound the certified X-divisibility of the limit, 1 when
    series(X = 0) = 0; limit_certified whether the invariants transfer to
    the limit (a mu = 0 reading)."""

    __slots__ = ()

    @property
    def is_x_times_unit(self) -> bool:
        r = self.invariants
        return r.conclusive and r.mu == 0 and r.lam == 1 and self.x_lower_bound >= 1


def _component(label, rep, modulus, grade, ctx, reading=None) -> SignedSeries:
    """The component named label: its top representative rep, a Y-vector
    in ctx, its class modulus (p^M, modulus) and its grade across levels;
    reading is mu_lambda_y(rep, p) when the caller has made it.

    A representative that is 0 is graded "zero-chain".  (mu, lambda) are
    read exactly from the whole representative F; at mu >= M the
    X-coefficients vanish mod p^M and the invariants are inconclusive.
    Otherwise weierstrass prepares only the first N = lambda * M' + 1
    X-coefficients, M' = M - mu >= 1.  This gives the same distinguished part:
    let P be the distinguished part of F at precision M', of degree
    lambda.  P - X^lambda lies in p*Lambda, so X^(lambda*M') = (P - (P -
    X^lambda))^M' lies in (P, p^M').  Two series that agree below X^N, with
    N >= lambda*M' and N > lambda, therefore lie in the same classes modulo
    (P, p^M'); they have the same (mu, lambda) reading, and by the
    uniqueness of Weierstrass preparation modulo p^M' the same
    distinguished part (Washington, Introduction to Cyclotomic Fields,
    section 7.1).  The unit part is that of the truncation.  The limit is
    certified by a mu = 0 reading, and divisible by X when F(0) = 0.
    """
    mu, lam = mu_lambda_y(rep, ctx.prime) if reading is None else reading
    n = 0 if mu is INCONCLUSIVE or mu >= ctx.precision else lam * (ctx.precision - mu) + 1
    inv = weierstrass(x_coefficients(rep, n, ctx), ctx)
    grade = grade if any(rep) else "zero-chain"
    return SignedSeries(label, rep, f"(p^{ctx.precision}, {modulus})", inv, grade,
                        0 if sum(rep) else 1, inv.conclusive and inv.mu == 0)


def extract_plus_minus(thetas, a_p: int, ctx) -> tuple:
    """(plus, minus) from the parity-decoupled theta chains (a_p = 0);
    thetas and the components' series are Y-vectors in ctx.  A component is
    graded two-level when its parity has two levels, whose quotients must
    agree modulo the lower class modulus and read the same invariants
    (NotStabilized otherwise), and single-level when it has one."""
    if a_p != 0:
        raise WrongReductionType("plus/minus extraction requires a_p = 0")
    components = []
    for label, parity in (("plus", 1), ("minus", 0)):
        # only the top two levels of the parity are graded
        levels = sorted(n for n in thetas if n % 2 == parity)[-2:]
        if not levels:
            raise NotStabilized(f"no theta levels of parity {parity}")
        quotients = {}
        for n in levels:
            # theta_n / prod of the Phi_i, 1 <= i < n, i of the parity of n - 1
            q = phi_quotient(thetas[n], range(n - 1, 0, -2), ctx)
            quotients[n] = [-c for c in q] if (n // 2) % 2 == 1 else q
        top, grade, reading = levels[-1], "single-level", None
        if len(levels) >= 2:
            low = levels[-2]
            # class modulus at the lower level: omega_low / parity product,
            # that is X * prod of the Phi_i, 1 <= i <= low, i of the parity of low
            diff = [a - b for a, b in zip_longest(quotients[top], quotients[low], fillvalue=0)]
            try:
                phi_quotient(diff, [0, *range(low, 0, -2)], ctx)
            except InconsistentTable:
                raise NotStabilized(
                    f"{label}: quotients at levels {low} and {top} disagree"
                ) from None
            reading = mu_lambda_y(quotients[top], ctx.prime)
            inv_low = mu_lambda_y(quotients[low], ctx.prime)
            if INCONCLUSIVE not in (reading[0], inv_low[0]) and reading != inv_low:
                raise NotStabilized(
                    f"{label}: invariants drift between levels {low} and {top}"
                )
            grade = "two-level"
        div = "*".join(f"Phi{i}" for i in reversed(range(top - 1, 0, -2))) or "1"
        components.append(
            _component(label, quotients[top], f"omega_{top}/{div}", grade, ctx, reading)
        )
    return tuple(components)


def _solve(thetas, n: int, a_p: int, ctx) -> tuple:
    """(A, B) = (D_1 ... D_(n-1))^(-1) (theta_n, theta_(n-1)), where
    D_k = [[a_p, -Phi_k], [1, 0]], each step dividing exactly by Phi_k."""
    u, v = thetas[n], thetas[n - 1]
    for k in range(n - 1, 0, -1):
        w = [a_p * b - a for a, b in zip_longest(u, v, fillvalue=0)]
        u, v = v, phi_quotient(w, (k,), ctx)
    return u, v


def extract_sharp_flat(thetas, a_p: int, ctx) -> tuple:
    """(sharp, flat) by inverting the fundamental-solution system
    (0 < v_p(a_p)): the solve at the top level, graded against the solve one
    level below; thetas and the components' series are Y-vectors in ctx.  A
    component is graded two-level when its two solves read the same
    conclusive invariants (NotStabilized when they differ), or when the
    lower solve is 0 and the top one vanishes at X = 0; else single-level."""
    if a_p == 0 or a_p % ctx.prime != 0:
        raise WrongReductionType(
            f"sharp/flat extraction requires 0 < v_p(a_p); a_p = {a_p}"
        )
    top = max((n for n in thetas if n - 1 in thetas), default=None)
    if top is None:
        raise NotStabilized("need at least theta_0 and theta_1")
    # only the top solve and the one below it are graded
    solves = {n: _solve(thetas, n, a_p, ctx) for n in (top - 1, top) if n - 1 in thetas}
    grades, readings = ["single-level", "single-level"], [None, None]
    if top - 1 in solves:
        for idx, (hi, lo) in enumerate(zip(solves[top], solves[top - 1])):
            readings[idx], inv_lo = mu_lambda_y(hi, ctx.prime), mu_lambda_y(lo, ctx.prime)
            if INCONCLUSIVE not in (readings[idx][0], inv_lo[0]):
                if readings[idx] != inv_lo:
                    raise NotStabilized(
                        f"component {idx}: invariants drift at level {top}"
                    )
                grades[idx] = "two-level"
            elif not any(lo):
                # lower solve is degenerate; consistency means the top
                # component vanishes modulo the lower class modulus (X)
                if not sum(hi):
                    grades[idx] = "two-level"
    A, B = solves[top]
    return (_component("sharp", A, f"omega_{top - 1}", grades[0], ctx, readings[0]),
            _component("flat", B, f"X*Phi_{top}", grades[1], ctx, readings[1]))


# -- invariant fit -----------------------------------------------------------------


def invariant_fit(thetas, ctx) -> tuple:
    """((mu*, lambda*) of the odd class, (mu*, lambda*) of the even class)
    fitted from raw theta invariants, read off thetas held as Y-vectors in
    ctx; mu* and lambda* are INCONCLUSIVE (None) without a conclusive level.

    Model: lambda(theta_n) = lambda* + q_n with q_n the degree of the
    accumulated opposite-parity Phi-product, and mu(theta_n) = mu*
    constant.  Drifting values raise NotStabilized rather than being
    averaged away; levels whose theta is 0 are skipped.
    """
    out, p = [], ctx.prime
    for parity, name in ((1, "odd"), (0, "even")):
        mus, lams = set(), set()
        for n in sorted(n for n in thetas if n % 2 == parity):
            mu, lam = mu_lambda_y(thetas[n], p)
            if mu is not INCONCLUSIVE:
                mus.add(mu)
                lams.add(lam - _accumulated_degree(p, n))
        if len(mus) > 1 or len(lams) > 1:
            raise NotStabilized(
                f"{name} class drifts: mu* candidates {sorted(mus)}, "
                f"lambda* candidates {sorted(lams)}"
            )
        # each set now holds one value, or none without a conclusive level
        out.append((min(mus, default=INCONCLUSIVE), min(lams, default=INCONCLUSIVE)))
    return tuple(out)


def _accumulated_degree(p: int, n: int) -> int:
    """deg of the product of the Phi_i, 1 <= i < n, i of the parity of n - 1."""
    return sum(p ** (i - 1) * (p - 1) for i in range(n - 1, 0, -2))


def fit_matches_pair(fits: tuple, pair: tuple) -> None:
    """Cross-check: the fitted class invariants of invariant_fit agree with
    the extracted pair, or NotStabilized is raised here.

    Both are in (odd, even) order: the first component, plus or sharp, is
    anchored at level-1 data and read against the odd class; the second,
    minus or flat, at level-0 data against the even class.
    """
    for (mu_star, lambda_star), comp in zip(fits, pair):
        inv = comp.invariants
        if inv.conclusive and mu_star is not None:
            if (inv.mu, inv.lam) != (mu_star, lambda_star):
                raise NotStabilized("extracted invariants disagree with the invariant fit")
