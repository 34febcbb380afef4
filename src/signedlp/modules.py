"""Executable semantics for elementary torsion Lambda-modules.

A finitely generated Lambda-module is handled only in pseudo-decomposed
form: a free rank, p-power cyclic pieces Lambda/p^a and cyclic pieces
Lambda/(F^b) with F an irreducible distinguished polynomial.  That is all
the invariant theory needs, since mu, lambda and characteristic ideals are
pseudo-isomorphism invariants.

The predicted ideals attached to a Mordell-Weil rank sequence are kept in
factored form so they can be compared exactly against computed gcds.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotTorsion
from .lambda_ring import (
    IwasawaContext,
    LambdaElement,
    divides_at_precision,
    factored_string,
    mu_lambda,
    refuse_assignment,
)


class RankSequence:
    """e_0, e_1, ... with finite support; e_0 is the rank over Q."""

    __slots__ = ("e",)

    def __init__(self, e):
        e = tuple(int(v) for v in e)
        if any(v < 0 for v in e):
            raise ValueError("rank increments must be nonnegative")
        while len(e) > 1 and e[-1] == 0:
            e = e[:-1]
        object.__setattr__(self, "e", e)

    __setattr__ = refuse_assignment

    def __eq__(self, other):
        return type(other) is RankSequence and self.e == other.e

    def __hash__(self):
        return hash(self.e)

    def __getitem__(self, n: int) -> int:
        return self.e[n] if n < len(self.e) else 0

    def support(self):
        return [n for n, v in enumerate(self.e) if v >= 1]


class FactoredIdeal(NamedTuple("FactoredIdeal",
                               [("p_exp", int), ("x_exp", int), ("phi_exps", tuple)])):
    """Principal ideal written as p^a * X^alpha * prod Phi_n^beta_n; phi_exps
    may be given as a dict and is kept as sorted (n, beta_n) pairs."""

    __slots__ = ()

    def __new__(cls, p_exp=0, x_exp=0, phi_exps=()):
        if isinstance(phi_exps, dict):
            phi_exps = tuple(sorted((n, b) for n, b in phi_exps.items() if b))
        return super().__new__(cls, int(p_exp), int(x_exp), tuple(phi_exps))

    @property
    def phi_dict(self) -> dict:
        return dict(self.phi_exps)

    def times_x(self, k: int = 1) -> "FactoredIdeal":
        return FactoredIdeal(self.p_exp, self.x_exp + k, self.phi_exps)

    def __str__(self):
        return factored_string(self.p_exp, self.x_exp, self.phi_exps)


def parse_factored_ideal(spec: str) -> FactoredIdeal:
    """Parse '1', 'X', 'X^2*Phi1', 'p^2*X', '(1)' into a FactoredIdeal."""
    text = spec.strip().strip("()").replace(" ", "")
    if text in ("", "1"):
        return FactoredIdeal()
    p_exp = x_exp = 0
    phi: dict = {}
    for token in text.split("*"):
        base, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        if base in ("X", "x"):
            x_exp += k
        elif base == "p":
            p_exp += k
        elif base.lower().startswith("phi"):
            phi_n = int(base[3:])
            if phi_n == 0:
                x_exp += k
            else:
                phi[phi_n] = phi.get(phi_n, 0) + k
        else:
            raise ValueError(f"unknown factor {token!r} in ideal spec {spec!r}")
    return FactoredIdeal(p_exp, x_exp, phi)


def gr_ideal(e: RankSequence) -> FactoredIdeal:
    """prod over e_n >= 1, n >= 0 of Phi_n^(e_n - 1), with Phi_0 = X."""
    x_exp = max(e[0] - 1, 0) if e[0] >= 1 else 0
    phi = {n: e[n] - 1 for n in e.support() if n >= 1 and e[n] >= 2}
    return FactoredIdeal(0, x_exp, phi)


def kp_ideal(e: RankSequence) -> FactoredIdeal:
    """X^(e_0) * prod over e_n >= 1, n >= 1 of Phi_n^(e_n - 1)."""
    phi = {n: e[n] - 1 for n in e.support() if n >= 1 and e[n] >= 2}
    return FactoredIdeal(0, e[0], phi)


# -- elementary modules ----------------------------------------------------------


class ElementaryModule(NamedTuple("ElementaryModule",
                                  [("p_part", tuple), ("poly_part", tuple), ("free_rank", int)])):
    """Formal direct sum Lambda^r + sum Lambda/p^a_i + sum Lambda/(F_i^b_i);
    poly_part holds the pairs (F_i as LambdaElement, b_i)."""

    __slots__ = ()

    def __new__(cls, p_part=(), poly_part=(), free_rank=0):
        p_part = tuple(int(a) for a in p_part)
        poly_part = tuple((F, int(b)) for F, b in poly_part)
        if any(a < 1 for a in p_part) or any(b < 1 for _, b in poly_part):
            raise ValueError("exponents must be at least 1")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for F, _ in poly_part:
            if not F.is_distinguished():
                raise ValueError(f"{F!s} is not distinguished")
        return super().__new__(cls, p_part, poly_part, free_rank)

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def torsion_part(self) -> "ElementaryModule":
        return ElementaryModule(self.p_part, self.poly_part, 0)

    def direct_sum(self, other: "ElementaryModule") -> "ElementaryModule":
        return ElementaryModule(
            self.p_part + other.p_part,
            self.poly_part + other.poly_part,
            self.free_rank + other.free_rank,
        )

    def mu(self) -> int:
        return sum(self.p_part)

    def lam(self) -> int:
        return sum(b * F.degree() for F, b in self.poly_part)


def char_ideal(M: ElementaryModule, ctx: IwasawaContext) -> LambdaElement:
    """Generator p^(sum a_i) * prod F_i^(b_i) of the characteristic ideal."""
    if not M.is_torsion:
        raise NotTorsion(f"free rank {M.free_rank} > 0")
    gen = ctx.one().scale(ctx.prime ** M.mu())
    for F, b in M.poly_part:
        F = F.in_context(ctx)
        for _ in range(b):
            gen = gen * F
    return gen


def _is_p_element(f: LambdaElement) -> bool:
    mu, lam = mu_lambda(f)
    return bool(mu) and lam == 0  # mu >= 1; INCONCLUSIVE is None


def f_torsion_finite(M: ElementaryModule, f: LambdaElement, ctx: IwasawaContext) -> bool:
    """Whether M[f] is finite, i.e. f does not divide Char(M_tor).

    Computed two ways that must agree: divisibility of the characteristic
    generator, and direct inspection of the elementary factors.
    """
    gen = char_ideal(M.torsion_part(), ctx)
    if _is_p_element(f):
        by_divisibility = not mu_lambda(gen)[0]  # mu is 0 or INCONCLUSIVE
        by_inspection = len(M.p_part) == 0
    else:
        by_divisibility = not divides_at_precision(gen, f)
        by_inspection = not any(
            _same_distinguished(F, f) for F, _ in M.poly_part
        )
    if by_divisibility != by_inspection:
        raise AssertionError(
            "divisibility test and factor inspection disagree "
            f"for f={f!s} on {M}"
        )
    return by_divisibility


def _same_distinguished(F: LambdaElement, G: LambdaElement) -> bool:
    if F.degree() != G.degree():
        return False
    step = F.context.prime ** min(F.context.precision, G.context.precision)
    return all((a - b) % step == 0 for a, b in zip(F.coeffs, G.coeffs))


class SesVerdict(NamedTuple):
    passed: bool
    detail: str


def ses_char_check(
    A: ElementaryModule, B: ElementaryModule, C: ElementaryModule, ctx: IwasawaContext
) -> SesVerdict:
    """Char(A) * Char(C_tor) = Char(B_tor) for a split exact sequence.

    The harness constructs B as a direct sum refining A and C; the check
    multiplies the generators out and compares them coefficientwise.
    """
    if not A.is_torsion:
        raise NotTorsion("left-hand module must be torsion")
    lhs = char_ideal(A, ctx) * char_ideal(C.torsion_part(), ctx)
    rhs = char_ideal(B.torsion_part(), ctx)
    same = lhs.coeffs == rhs.coeffs
    detail = f"Char(A)*Char(C_tor) = {lhs!s}, Char(B_tor) = {rhs!s}"
    return SesVerdict(same, detail)
