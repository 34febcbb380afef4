"""Signed series approximations from theta sequences.

With a_p = 0 the three-term relation decouples the even- and odd-level
theta chains: theta_n is exactly divisible by the product of the Phi_i of
parity opposite to n, and the (sign-corrected) quotients of one parity
cohere modulo growing distinguished ideals.  The top quotient of the odd
chain approximates the plus series, the even chain the minus series (an
internal labelling; every consumer is label-symmetric).

With 0 < v_p(a_p), the pair is solved from the two top theta lifts through
the inverse of the fundamental-solution matrix of s_(k+1) = a_p s_k -
Phi_k s_(k-1); every division is by a monic distinguished polynomial and is
verified to be exact at the working precision, so no p-adic digits are
lost.  Labels sharp/flat follow the solve order and may be swapped
relative to other tables.

Invariants are read off the canonical representative; readings with mu = 0
transfer to the limit object (a coefficient that is a unit stays a unit
under any change of representative modulo a distinguished ideal), readings
with mu > 0 do not, and are reported as observed-but-uncertified.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    NotStabilized,
    PrecisionExhausted,
    SingularSystem,
    WrongReductionType,
)
from .lambda_ring import (
    INCONCLUSIVE,
    IwasawaContext,
    InvariantReport,
    LambdaElement,
    divides_at_precision,
    exact_quotient,
    mu_lambda,
    weierstrass,
)


class SignedSeries(NamedTuple):
    """One member of a signed pair, with its certification data."""

    label: str
    series: Optional[LambdaElement]  # canonical representative; None if no data
    modulus_desc: str
    invariants: InvariantReport
    levels_used: tuple
    stabilization: str  # "two-level" | "single-level" | "zero-chain"
    x_lower_bound: int  # certified X-divisibility of the limit at precision
    limit_certified: bool  # invariants transfer to the limit (mu = 0 reading)

    @property
    def is_x_times_unit(self) -> bool:
        r = self.invariants
        return r.conclusive and r.mu == 0 and r.lam == 1 and self.x_lower_bound >= 1


class SignedPair(NamedTuple):
    labels: tuple
    components: tuple  # two SignedSeries
    method: str        # "parity-factor" | "linear-system" | "invariant-fit"
    stabilized: bool


def _wide_context(thetas) -> IwasawaContext:
    top = max(thetas)
    ctx = thetas[top].context
    return IwasawaContext(ctx.prime, ctx.precision, ctx.prime**top + 1)


def _parity_product(wide: IwasawaContext, n: int) -> LambdaElement:
    """prod of Phi_i for 1 <= i < n with i of the same parity as n - 1."""
    out = wide.one()
    i = n - 1
    while i >= 1:
        out = out * wide.phi(i)
        i -= 2
    return out


def _x_lower_bound(rep: LambdaElement) -> int:
    return 0 if rep.coeffs[0] else 1


def _class_invariants(rep: LambdaElement):
    """(InvariantReport, limit_certified); the limit needs mu = 0."""
    w = weierstrass(rep)
    return w, w.conclusive and w.mu == 0


def extract_plus_minus(thetas, a_p: int) -> SignedPair:
    """Plus/minus pair from the parity-decoupled theta chains (a_p = 0)."""
    if a_p != 0:
        raise WrongReductionType("plus/minus extraction requires a_p = 0")
    wide = _wide_context(thetas)
    components = []
    for label, parity in (("plus", 1), ("minus", 0)):
        levels = sorted(n for n in thetas if n % 2 == parity)
        if not levels:
            raise NotStabilized(f"no theta levels of parity {parity}")
        quotients = {}
        for n in levels:
            lifted = thetas[n].in_context(wide)
            W = _parity_product(wide, n)
            if W.degree() > 0:
                lifted = exact_quotient(lifted, W)
            if (n // 2) % 2 == 1:
                lifted = -lifted
            quotients[n] = lifted
        top = levels[-1]
        grade = "single-level"
        if len(levels) >= 2:
            low = levels[-2]
            # class modulus at the lower level: omega_low / parity product
            modulus = exact_quotient(wide.omega(low), _parity_product(wide, low))
            if not divides_at_precision(quotients[top] - quotients[low], modulus):
                raise NotStabilized(
                    f"{label}: quotients at levels {low} and {top} disagree"
                )
            inv_top, inv_low = mu_lambda(quotients[top]), mu_lambda(quotients[low])
            if INCONCLUSIVE not in (inv_top[0], inv_low[0]) and inv_top != inv_low:
                raise NotStabilized(
                    f"{label}: invariants drift between levels {low} and {top}"
                )
            grade = "two-level"
        rep = quotients[top]
        if rep.is_zero_at_precision:
            grade = "zero-chain"
        inv, certified = _class_invariants(rep)
        components.append(
            SignedSeries(
                label=label,
                series=rep,
                modulus_desc=_modulus_desc(thetas[top].context, top, parity),
                invariants=inv,
                levels_used=tuple(levels),
                stabilization=grade,
                x_lower_bound=_x_lower_bound(rep),
                limit_certified=certified,
            )
        )
    stabilized = all(c.stabilization == "two-level" for c in components)
    return SignedPair(("plus", "minus"), tuple(components), "parity-factor", stabilized)


def _modulus_desc(ctx, top, parity):
    prim = [i for i in range(1, top) if i % 2 == (top - 1) % 2]
    div = "*".join(f"Phi{i}" for i in prim) if prim else "1"
    return f"(p^{ctx.precision}, omega_{top}/{div})"


def extract_sharp_flat(thetas, a_p: int, p: int) -> SignedPair:
    """Sharp/flat pair by inverting the fundamental-solution system.

    Requires 0 < v_p(a_p); the solve at the top level n computes
    (A, B) = (D_1 ... D_(n-1))^(-1) (theta_n, theta_(n-1)) where
    D_k = [[a_p, -Phi_k], [1, 0]], each step dividing exactly by Phi_k.
    """
    if a_p == 0 or a_p % p != 0:
        raise WrongReductionType(
            f"sharp/flat extraction requires 0 < v_p(a_p); a_p = {a_p}"
        )
    if not any(n >= 1 for n in thetas):
        raise NotStabilized("need at least theta_0 and theta_1")
    wide = _wide_context(thetas)
    solves = {}
    for n in sorted(n for n in thetas if n >= 1):
        if n - 1 not in thetas:
            continue
        u, v = thetas[n].in_context(wide), thetas[n - 1].in_context(wide)
        try:
            for k in range(n - 1, 0, -1):
                u, v = v, exact_quotient(v.scale(a_p) - u, wide.phi(k))
        except PrecisionExhausted as exc:
            raise SingularSystem(f"level {n}: {exc}") from exc
        solves[n] = (u, v)
    top = max(solves)
    A, B = solves[top]
    grades = ["single-level", "single-level"]
    if top - 1 in solves:
        A_low, B_low = solves[top - 1]
        for idx, (hi, lo) in enumerate(((A, A_low), (B, B_low))):
            inv_hi, inv_lo = mu_lambda(hi), mu_lambda(lo)
            if INCONCLUSIVE not in (inv_hi[0], inv_lo[0]):
                if inv_hi != inv_lo:
                    raise NotStabilized(
                        f"component {idx}: invariants drift at level {top}"
                    )
                grades[idx] = "two-level"
            elif lo.is_zero_at_precision:
                # lower solve is degenerate; consistency means the top
                # component vanishes modulo the lower class modulus (X)
                if not hi.coeffs[0]:
                    grades[idx] = "two-level"
    components = []
    ctx = thetas[top].context
    for label, rep, grade, mdesc in (
        ("sharp", A, grades[0], f"(p^{ctx.precision}, omega_{top - 1})"),
        ("flat", B, grades[1], f"(p^{ctx.precision}, X*Phi_{top})"),
    ):
        if rep.is_zero_at_precision:
            grade = "zero-chain"
        inv, certified = _class_invariants(rep)
        components.append(
            SignedSeries(
                label=label,
                series=rep,
                modulus_desc=mdesc,
                invariants=inv,
                levels_used=tuple(sorted(solves)),
                stabilization=grade,
                x_lower_bound=_x_lower_bound(rep),
                limit_certified=certified,
            )
        )
    stabilized = all(c.stabilization == "two-level" for c in components)
    return SignedPair(("sharp", "flat"), tuple(components), "linear-system", stabilized)


# -- invariant fit -----------------------------------------------------------------


class FitResult(NamedTuple):
    parity: str            # "even" | "odd"
    mu_star: Optional[int]
    lambda_star: Optional[int]
    levels: tuple
    stabilized: bool       # at least two consistent levels
    detail: str = ""


def invariant_fit(thetas) -> dict:
    """Fitted (mu*, lambda*) per parity class from raw theta invariants.

    Model: lambda(theta_n) = lambda* + q_n with q_n the degree of the
    accumulated opposite-parity Phi-product, and mu(theta_n) = mu*
    constant.  Drifting values raise NotStabilized rather than being
    averaged away; levels that vanish at precision are skipped.
    """
    out = {}
    some_ctx = thetas[max(thetas)].context
    p = some_ctx.prime
    for parity, name in ((1, "odd"), (0, "even")):
        levels = sorted(n for n in thetas if n % 2 == parity)
        points = []
        for n in levels:
            mu, lam = mu_lambda(thetas[n])
            if mu is INCONCLUSIVE:
                continue
            points.append((n, mu, lam - _accumulated_degree(p, n)))
        if not points:
            out[name] = FitResult(name, INCONCLUSIVE, INCONCLUSIVE,
                                  tuple(levels), False, "no conclusive levels")
            continue
        mus = {m for _, m, _ in points}
        lams = {l for _, _, l in points}
        if len(mus) > 1 or len(lams) > 1:
            raise NotStabilized(
                f"{name} class drifts: mu* candidates {sorted(mus)}, "
                f"lambda* candidates {sorted(lams)}"
            )
        out[name] = FitResult(
            name, mus.pop(), lams.pop(),
            tuple(n for n, _, _ in points),
            stabilized=len(points) >= 2,
        )
    return out


def _accumulated_degree(p: int, n: int) -> int:
    total = 0
    i = n - 1
    while i >= 1:
        total += p ** (i - 1) * (p - 1)
        i -= 2
    return total


def fit_matches_pair(fits: dict, pair: SignedPair) -> bool:
    """Cross-check: fitted class invariants agree with the extracted pair.

    Both solve orders anchor the first component at level-1 data and the
    second at level-0 data, so the parity correspondence is constant:
    plus/sharp against the odd class, minus/flat against the even class.
    """
    mapping = {"plus": "odd", "minus": "even", "sharp": "odd", "flat": "even"}
    for comp in pair.components:
        fit = fits[mapping[comp.label]]
        inv = comp.invariants
        if inv.conclusive and fit.mu_star is not None:
            if (inv.mu, inv.lam) != (fit.mu_star, fit.lambda_star):
                return False
    return True
