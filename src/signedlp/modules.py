"""Rank sequences and the ideals of Lambda kept in factored form.

An ideal here is p^a * X^alpha * prod Phi_n^beta_n, written out by its
exponents: the fine characteristic given on the command line and the
ideals that the Greenberg and Pollack-Kurihara predictions attach to a
Mordell-Weil rank sequence.  Both are compared against a computed gcd
exponent by exponent, so no Lambda element is ever formed.
"""

from __future__ import annotations

from typing import NamedTuple

from .lambda_ring import factored_string, refuse_assignment


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
    may be given as a dict and is kept as sorted (n, beta_n) pairs.  Every
    exponent is nonnegative and every n at least 1 (Phi_0 is X)."""

    __slots__ = ()

    def __new__(cls, p_exp=0, x_exp=0, phi_exps=()):
        if isinstance(phi_exps, dict):
            phi_exps = tuple(sorted((n, b) for n, b in phi_exps.items() if b))
        self = super().__new__(cls, int(p_exp), int(x_exp), tuple(phi_exps))
        if min(self.p_exp, self.x_exp, *(b for _, b in self.phi_exps)) < 0:
            raise ValueError(f"negative exponent in the ideal {self}")
        if any(n < 1 for n, _ in self.phi_exps):
            raise ValueError(f"Phi index below 1 in the ideal {self}")
        return self

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
        is_phi = base.lower().startswith("phi")
        try:
            k = int(exp) if exp else 1
            phi_n = int(base[3:]) if is_phi else 0
        except ValueError:
            raise ValueError(
                f"non-integer exponent or index in {token!r} of ideal spec {spec!r}"
            ) from None
        if k < 0 or phi_n < 0:
            raise ValueError(f"negative exponent or index in {token!r} of ideal spec {spec!r}")
        if base in ("X", "x"):
            x_exp += k
        elif base == "p":
            p_exp += k
        elif is_phi:
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
