"""Finite-precision arithmetic in Z_p.

A scalar is a residue modulo p^M together with a two-state zero: a residue
of 0 either stands for an exact zero or for a quantity that is merely
indistinguishable from zero at the working precision.  Consumers of a
single scalar that certify anything must branch on this distinction.
Lambda elements (lambda_ring) store bare integer residues and build a
scalar only when one coefficient is asked for, so that scalar never claims
an exact zero.

Precision is absolute: every operation returns a value known modulo p^M and
never claims more digits than its inputs carried.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedContext, NotIntegral


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicScalar:
    """An element of Z_p known modulo p^M."""

    prime: int
    precision: int
    residue: int
    exact_zero: bool = False

    def __post_init__(self):
        if self.prime < 3 or self.prime % 2 == 0:
            raise ValueError("prime must be odd and at least 3")
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "residue", self.residue % self.modulus)
        if self.exact_zero and self.residue != 0:
            raise ValueError("exact zero must have residue 0")

    @property
    def modulus(self) -> int:
        return self.prime ** self.precision

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_integer(cls, n: int, p: int, M: int) -> "PadicScalar":
        return cls(p, M, n % p**M, exact_zero=(n == 0))

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, M: int) -> "PadicScalar":
        """num/den as an element of Z_p, or NotIntegral if it is not one."""
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if num == 0:
            return cls(p, M, 0, exact_zero=True)
        vden = padic_valuation(den, p)
        if vden > 0:
            vnum = padic_valuation(num, p)
            if vden > vnum:
                raise NotIntegral(f"{num}/{den} has negative {p}-adic valuation")
            num //= p**vden
            den //= p**vden
        inv = pow(den % p**M, -1, p**M)
        return cls(p, M, (num * inv) % p**M)

    # -- structure ------------------------------------------------------------

    @property
    def is_zero_at_precision(self) -> bool:
        return self.residue == 0

    def _check(self, other: "PadicScalar"):
        if self.prime != other.prime or self.precision != other.precision:
            raise MixedContext(
                f"(p={self.prime}, M={self.precision}) vs "
                f"(p={other.prime}, M={other.precision})"
            )

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_integer(other, self.prime, self.precision)
        self._check(other)
        return PadicScalar(
            self.prime,
            self.precision,
            (self.residue + other.residue) % self.modulus,
            exact_zero=self.exact_zero and other.exact_zero,
        )

    def __neg__(self):
        return PadicScalar(
            self.prime, self.precision, -self.residue % self.modulus,
            exact_zero=self.exact_zero,
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_integer(other, self.prime, self.precision)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_integer(other, self.prime, self.precision)
        self._check(other)
        return PadicScalar(
            self.prime,
            self.precision,
            (self.residue * other.residue) % self.modulus,
            exact_zero=self.exact_zero or other.exact_zero,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def reduce_precision(self, M: int) -> "PadicScalar":
        """Forget digits down to precision M (never extends)."""
        if M > self.precision:
            raise MixedContext("cannot extend precision")
        return PadicScalar(self.prime, M, self.residue % self.prime**M,
                           exact_zero=self.exact_zero)

    def __repr__(self):
        tag = " (exact)" if self.exact_zero else ""
        return f"{self.residue} mod {self.prime}^{self.precision}{tag}"

