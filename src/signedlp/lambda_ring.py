"""Arithmetic in Lambda = Z_p[[X]] at finite precision.

Elements are coefficient vectors reduced modulo (p^M, X^D).  Each
coefficient is stored as a plain integer residue in [0, p^M), so a
coefficient that reads 0 only vanishes at the working precision; callers
read coeffs[i] directly.  The topological generator convention is fixed
once and for all: gamma = 1 + p, sent to 1 + X.

The cyclotomic pieces Phi_n (Phi_0 = X) are constructed with exact integer
coefficients.  All polynomial arithmetic runs on residue lists through one
multiply and one division (von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 8-9).  The multiply is Kronecker substitution: both lists are packed
into one integer each (through array.array for slots of up to 8 bytes),
multiplied once, and read back.  The division by a monic polynomial is
long division for short quotients, and otherwise the reversed dividend
times a Newton reciprocal of the reversed divisor; every division
re-multiplies its quotient and checks the identity.  Division
with remainder, Weierstrass preparation and the Taylor shift of theta
elements all run on these two.  Division by a monic polynomial loses no
p-adic digits; the only precision loss in this module comes from stripping
p-power content, and Weierstrass preparation records it in the precision
of its parts.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import count, repeat
from typing import NamedTuple, Optional

from .errors import (
    MixedContext,
    NotDistinguished,
    PrecisionExhausted,
    TruncationTooSmall,
)
from .padic import padic_valuation

#: invariant value when a series cannot be read at the working precision
INCONCLUSIVE = None

#: a division whose (quotient length) * (divisor length) is at most this
#: runs as monic long division; longer quotients go through Newton
_LONG_DIVISION_WORK = 4000
#: terms of a reciprocal series taken from the direct recurrence before the
#: Newton steps start
_RECURRENCE_TERMS = 32


def refuse_assignment(record, name, value):
    """__setattr__ of the immutable value classes; their constructors set
    their slots with object.__setattr__."""
    raise AttributeError(f"cannot assign to {type(record).__name__}.{name}")


def _binomial_row(n: int):
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


class IwasawaContext:
    """Working modulus for Lambda: prime, p-precision M and the degree
    bound D of the X^D truncation (an element keeps D coefficients)."""

    __slots__ = ("prime", "precision", "trunc_len")

    def __init__(self, prime: int, precision: int, trunc_len: int):
        if trunc_len < 1:
            raise ValueError("degree bound must be at least 1")
        if precision < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "trunc_len", trunc_len)

    __setattr__ = refuse_assignment

    def __eq__(self, other):
        return (type(other) is IwasawaContext and self.prime == other.prime
                and self.precision == other.precision and self.trunc_len == other.trunc_len)

    def __hash__(self):
        return hash((self.prime, self.precision, self.trunc_len))

    def __repr__(self):
        return (f"IwasawaContext(prime={self.prime!r}, precision={self.precision!r}, "
                f"trunc_len={self.trunc_len!r})")

    @property
    def gamma(self) -> int:
        # fixed convention; comparisons with external tables must match it
        return 1 + self.prime

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def with_precision(self, M: int) -> "IwasawaContext":
        if M > self.precision:
            raise MixedContext("cannot extend precision")
        return IwasawaContext(self.prime, M, self.trunc_len)

    # -- canonical elements ------------------------------------------------------

    def element(self, int_coeffs) -> "LambdaElement":
        """The class of sum c_i X^i for exact integers c_i."""
        return LambdaElement(self, int_coeffs)

    def zero(self) -> "LambdaElement":
        return LambdaElement(self, [])

    def one(self) -> "LambdaElement":
        return self.element([1])

    def x_power(self, k: int) -> "LambdaElement":
        if k >= self.trunc_len:
            raise TruncationTooSmall(f"X^{k} does not fit below {self.trunc_len}")
        return self.element([0] * k + [1])

    def phi(self, n: int) -> "LambdaElement":
        """p^n-th cyclotomic polynomial in 1+X; Phi_0 = X by convention."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        if n == 0:
            return self.x_power(1)
        p = self.prime
        deg = p ** (n - 1) * (p - 1)
        if deg >= self.trunc_len:
            raise TruncationTooSmall(
                f"deg Phi_{n} = {deg} exceeds truncation {self.trunc_len}"
            )
        # Phi_n = sum_{k<p} (1+X)^{k p^(n-1)}, assembled with exact integers
        coeffs = [0] * (deg + 1)
        for k in range(p):
            for j, b in enumerate(_binomial_row(k * p ** (n - 1))):
                coeffs[j] += b
        return self.element(coeffs)

    def omega(self, n: int) -> "LambdaElement":
        """omega_n = (1+X)^{p^n} - 1 = X * prod_{1<=i<=n} Phi_i."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        deg = self.prime**n
        if deg >= self.trunc_len:
            raise TruncationTooSmall(
                f"deg omega_{n} = {deg} exceeds truncation {self.trunc_len}"
            )
        coeffs = _binomial_row(deg)[:]
        coeffs[0] -= 1
        return self.element(coeffs)


class LambdaElement:
    """Truncated element of Lambda; immutable, value semantics.

    coeffs holds trunc_len integer residues in [0, p^M).  The constructor
    accepts any integers and reduces them into the context modulus.
    """

    __slots__ = ("context", "coeffs", "_degree")

    def __init__(self, context, coeffs):
        coeffs, degree = _reduce_coeffs(context, coeffs)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_degree", degree)

    __setattr__ = refuse_assignment

    def __eq__(self, other):
        return (type(other) is LambdaElement and self.context == other.context
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.context, self.coeffs))

    # -- inspection -------------------------------------------------------------

    def degree(self) -> int:
        """Index of the last coefficient nonzero at precision; -1 for zero."""
        return self._degree

    @property
    def is_zero_at_precision(self) -> bool:
        return self._degree < 0

    def is_distinguished(self) -> bool:
        """Monic polynomial whose lower coefficients are divisible by p."""
        d = self.degree()
        if d < 0 or self.coeffs[d] != 1:
            return False
        p = self.context.prime
        return all(c % p == 0 for c in self.coeffs[:d])

    # -- ring structure ------------------------------------------------------------

    def _check(self, other: "LambdaElement"):
        if self.context != other.context:
            raise MixedContext(f"{self.context} vs {other.context}")

    # sums, differences and scalings read coefficients up to the degree
    # only: the zero tail is left to the constructor's padding

    def __add__(self, other):
        self._check(other)
        n = max(self._degree, other._degree) + 1
        return LambdaElement(
            self.context, [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])]
        )

    def __sub__(self, other):
        self._check(other)
        n = max(self._degree, other._degree) + 1
        return LambdaElement(
            self.context, [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])]
        )

    def __neg__(self):
        top = self.coeffs[: self._degree + 1]
        return LambdaElement(self.context, [-a for a in top])

    def scale(self, c: int) -> "LambdaElement":
        top = self.coeffs[: self._degree + 1]
        return LambdaElement(self.context, [c * a for a in top])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        da, db = self.degree(), other.degree()
        if da < 0 or db < 0:
            return self.context.zero()
        return LambdaElement(
            self.context,
            _mul(self.coeffs[: da + 1], other.coeffs[: db + 1], self.context.modulus),
        )

    __rmul__ = __mul__

    def reduce_precision(self, M: int) -> "LambdaElement":
        return LambdaElement(self.context.with_precision(M), self.coeffs)

    def in_context(self, ctx: IwasawaContext) -> "LambdaElement":
        """The same representative read in ctx: same prime, no more precision.

        The residues are reduced to ctx's precision and cut or padded to its
        degree bound; a different prime or a higher precision is refused.
        """
        own = self.context
        if ctx.prime != own.prime or ctx.precision > own.precision:
            raise MixedContext(f"cannot read {own} in {ctx}")
        return LambdaElement(ctx, self.coeffs)

    # -- presentation -----------------------------------------------------------

    def __str__(self):
        d = self.degree()
        if d < 0:
            return "0"
        mod = self.context.modulus
        terms = []
        for i in range(d, -1, -1):
            r = self.coeffs[i]
            if r == 0:
                continue
            if 2 * r > mod:  # smallest-magnitude representative
                r -= mod
            if i == 0:
                terms.append(f"{r}")
            else:
                mono = "X" if i == 1 else f"X^{i}"
                if r == 1:
                    terms.append(mono)
                elif r == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{r}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        ctx = self.context
        return f"<{self} mod (p^{ctx.precision}, X^{ctx.trunc_len}), p={ctx.prime}>"


def _reduce_coeffs(ctx: IwasawaContext, coeffs):
    """Residues of a raw integer coefficient list in the context modulus, cut
    or padded with zeros to trunc_len, and the degree, found before padding."""
    mod = ctx.modulus
    n = ctx.trunc_len
    work = [c % mod for c in coeffs[:n]]
    degree = len(work) - 1
    while degree >= 0 and not work[degree]:
        degree -= 1
    work.extend([0] * (n - len(work)))
    return tuple(work), degree


# -- the kernel: one multiply, one division ---------------------------------------


#: array typecode of each slot width up to 8 bytes, picked by itemsize
_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(values, width: int) -> int:
    """The integer whose little-endian slots of `width` bytes hold `values`."""
    if width in _TYPECODES:
        slots = array(_TYPECODES[width], values)
        if _BIG_ENDIAN:
            slots.byteswap()
        raw = slots.tobytes()
    else:
        raw = b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(raw: bytes, width: int, mod: int) -> list:
    """The little-endian slots of `width` bytes in `raw`, each reduced mod `mod`."""
    if width in _TYPECODES:
        slots = array(_TYPECODES[width], raw)
        if _BIG_ENDIAN:
            slots.byteswap()
        return [c % mod for c in slots]
    return [int.from_bytes(raw[i : i + width], "little") % mod for i in range(0, len(raw), width)]


def _mul(a, b, mod: int) -> list:
    """Product of two residue lists mod `mod`, by Kronecker substitution.

    A product coefficient is a sum of at most min(len) terms below mod^2, so
    slots of 2*bits(mod) + bits(min(len)) bits never overflow: one integer
    product carries the whole convolution.  Slots of 1, 2, 4 or 8 bytes are
    packed and read through array.array, other widths through bytes.  The
    result has len(a) + len(b) - 1 entries, none when an operand is empty.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bits = 2 * (mod - 1).bit_length() + min(len(a), len(b)).bit_length()
    width = next((w for w in (1, 2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
    A = _pack(a, width)
    return _unpack((A * (A if b is a else _pack(b, width))).to_bytes(n * width, "little"),
                   width, mod)


def _reciprocal(f, n: int, mod: int) -> list:
    """g with f*g = 1 mod (mod, X^n), for f[0] a unit mod `mod`.

    The first _RECURRENCE_TERMS terms come from the direct recurrence; each
    Newton step g <- g - g*(f*g - 1) then doubles the number of correct
    terms with two products.
    """
    inv0 = pow(f[0], -1, mod)
    k = min(n, _RECURRENCE_TERMS)
    g = [inv0]
    for i in range(1, k):
        acc = sum(f[j] * g[i - j] for j in range(1, min(i, len(f) - 1) + 1))
        g.append(-acc * inv0 % mod)
    while k < n:
        m = min(2 * k, n)
        err = _mul(f[:m], g, mod)[k:m]  # f*g = 1 + X^k * err mod X^m
        corr = _mul(g, err, mod)[: m - k]
        g += [-c % mod for c in corr] + [0] * (m - k - len(corr))
        k = m
    return g


def _divmod_monic(f, g, mod: int):
    """(q, r) with f = q*g + r and deg r < deg g, for a monic residue list g.

    Long division when (quotient length) * len(g) is at most
    _LONG_DIVISION_WORK; otherwise q is read from rev(f) * rev(g)^-1 mod
    X^(deg f - deg g + 1), where rev(g) has constant term 1.  Either way q*g
    is computed once and PrecisionExhausted is raised unless f - q*g
    vanishes in every degree >= deg g; r is the rest.
    """
    d = len(g) - 1
    m = len(f) - d  # quotient length
    if m <= 0:
        return [], list(f)
    if m * (d + 1) <= _LONG_DIVISION_WORK:
        # the running remainder is reduced only where a quotient term is read
        rem, low = list(f), g[:d]
        q = [0] * m
        for i in range(m - 1, -1, -1):
            c = q[i] = rem[i + d] % mod
            if c:
                for j, b in enumerate(low, i):
                    rem[j] -= c * b
    else:
        q = _mul(f[d:][::-1], _reciprocal(g[::-1], m, mod), mod)[m - 1 :: -1]
    diff = [(x - y) % mod for x, y in zip(f, _mul(q, g, mod))]
    if any(diff[d:]):
        raise PrecisionExhausted("division identity f = q*g + r failed")
    return q, diff[:d]


def taylor_shift(values, mod: int) -> list:
    """Monomial coefficients of sum_j values[j] * (1+X)^j, modulo `mod`.

    Divide and conquer over blocks of b = 1, 2, 4, ... coefficients: each
    pair of blocks (lo, hi) becomes lo + (1+X)^b * hi, and all the hi blocks
    of one round, spaced 2b apart, are multiplied by (1+X)^b in one product.
    """
    size = 1 << max(len(values) - 1, 0).bit_length()
    v = [c % mod for c in values] + [0] * (size - len(values))
    power, b = [1, 1], 1  # (1+X)^b
    while b < size:
        hi = []
        for s in range(0, size, 2 * b):
            hi += v[s + b : s + 2 * b] + [0] * b
            v[s + b : s + 2 * b] = [0] * b
        v = [(x + y) % mod for x, y in zip(v, _mul(hi, power, mod))]
        b *= 2
        if b < size:
            power = _mul(power, power, mod)
    return v[: len(values)]


# -- division ---------------------------------------------------------------------


def divrem(F: LambdaElement, P: LambdaElement):
    """Division with remainder by a distinguished polynomial.

    Monic division of the representatives (_divmod_monic): exact modulo
    (p^M, truncation), no p-adic digits are lost, and the identity
    F = Q*P + R is re-verified on every call.
    """
    F._check(P)
    if not P.is_distinguished():
        raise NotDistinguished(f"{P!s} is not distinguished")
    ctx = F.context
    q, r = _divmod_monic(
        F.coeffs[: F.degree() + 1], P.coeffs[: P.degree() + 1], ctx.modulus
    )
    return LambdaElement(ctx, q), LambdaElement(ctx, r)


def divides_at_precision(F: LambdaElement, P: LambdaElement) -> bool:
    """Remainder of F by P vanishes at the working precision."""
    _, R = divrem(F, P)
    return R.is_zero_at_precision


def exact_quotient(F: LambdaElement, P: LambdaElement) -> LambdaElement:
    """Quotient when P divides F at full precision; raises otherwise."""
    Q, R = divrem(F, P)
    if not R.is_zero_at_precision:
        raise PrecisionExhausted(f"{P!s} does not divide the operand at precision")
    return Q


# -- Weierstrass preparation and invariants ------------------------------------------


class InvariantReport(NamedTuple):
    """mu/lambda reading of a series, with the part that certifies it."""

    mu: Optional[int]
    lam: Optional[int]
    distinguished_part: Optional[LambdaElement] = None
    unit_part: Optional[LambdaElement] = None

    @property
    def conclusive(self) -> bool:
        return self.mu is not None and self.lam is not None


def mu_lambda(F: LambdaElement) -> tuple:
    """(mu, lambda) read off the coefficients: mu the least p-adic valuation,
    lambda the first index attaining it; (INCONCLUSIVE, INCONCLUSIVE) when
    every coefficient vanishes at precision.  weierstrass certifies them."""
    content = math.gcd(*F.coeffs)
    if not content:
        return INCONCLUSIVE, INCONCLUSIVE
    mu = padic_valuation(content, F.context.prime)
    q = F.context.prime ** (mu + 1)
    return mu, next(i for i, c in enumerate(F.coeffs) if c % q)


def weierstrass(F: LambdaElement) -> InvariantReport:
    """Invariants mu = min coefficient valuation, lambda = first index attaining it.

    The factorization F = p^mu * P * U comes from repeated monic division of
    the content-free part G: start from P = X^lambda, divide G = Q*P + R, and
    fold the remainder into P's lower coefficients as R * Q^-1 mod X^lambda.
    Each pass gains at least one p-adic digit, and divrem re-multiplies
    G = Q*P + R on every call, so a zero remainder certifies P and U = Q.
    Returns an inconclusive report when every coefficient vanishes at
    precision.
    """
    mu, lam = mu_lambda(F)
    if mu is INCONCLUSIVE:
        return InvariantReport(mu, lam)
    # strip content: coefficients are now known modulo p^(M - mu)
    content = F.context.prime**mu
    ctx = F.context.with_precision(F.context.precision - mu)
    mod = ctx.modulus
    G = ctx.element([c // content for c in F.coeffs])
    lower = [0] * lam
    for _ in range(ctx.precision + 1):
        P = ctx.element(lower + [1])
        Q, R = divrem(G, P)
        if R.is_zero_at_precision:
            return InvariantReport(mu, lam, distinguished_part=P, unit_part=Q)
        # delta = R / Q mod X^lam; Q(0) is a unit since P = X^lam mod p
        # makes Q(0) = G's lambda-th coefficient mod p
        inverse = _reciprocal(Q.coeffs[:lam], lam, mod)
        delta = _mul(R.coeffs[:lam], inverse, mod)
        lower = [(a + d) % mod for a, d in zip(lower, delta)]
    raise NotDistinguished(
        f"no distinguished part of degree {lam} after {ctx.precision + 1} divisions"
    )


# -- gcd -------------------------------------------------------------------------


def factored_string(mu, x_exp: int, phi_pairs, residual: str = "1") -> str:
    """Render p^mu * X^x_exp * prod Phi_n^b * (residual); "1" when empty.

    phi_pairs are (n, b) pairs in rendering order; a falsy mu (0 or
    INCONCLUSIVE) and a residual of "1" or "" are left out.
    """
    parts = []
    if mu:
        parts.append("p" if mu == 1 else f"p^{mu}")
    if x_exp:
        parts.append("X" if x_exp == 1 else f"X^{x_exp}")
    for n, b in phi_pairs:
        parts.append(f"Phi{n}" if b == 1 else f"Phi{n}^{b}")
    if residual not in ("1", ""):
        parts.append(f"({residual})")
    return "*".join(parts) if parts else "1"


class GcdReport(NamedTuple):
    """gcd presented as p^mu * X^x_exp * prod Phi_n^b_n * (residual).

    mu follows gcd_mu; residual is "1" or the rendering of a common factor
    that no named factor accounts for.  From gcd_lambda, certified says
    whether the residual was decided; analyzer.gcd_signed_pair narrows it
    to whether the gcd holds for the limit objects, and detail says why not.
    """

    mu: Optional[int]
    x_exp: int
    phi_exps: dict
    residual: str
    certified: bool
    detail: str = ""

    def as_string(self) -> str:
        return factored_string(
            self.mu, self.x_exp, sorted(self.phi_exps.items()), self.residual
        )

    @property
    def has_unknown_part(self) -> bool:
        return self.residual not in ("1", "")


def gcd_mu(*reports: InvariantReport):
    """mu of a gcd at finite precision, by the conservative rule: zero when
    some operand reads a unit coefficient, INCONCLUSIVE otherwise; never
    asserted positive from truncation alone."""
    return 0 if any(r.mu == 0 for r in reports) else INCONCLUSIVE


def gcd_lambda(wf: InvariantReport, wg: InvariantReport) -> GcdReport:
    """gcd in the form p^mu * h of two conclusive series, given by their
    Weierstrass reports.

    The named factors X and Phi_n (every n with deg Phi_n at most the
    smaller degree of the two) are detected on the distinguished parts by
    exact divrem remainder tests; whatever common factor remains is hunted
    by Euclidean reduction, and certified says whether that hunt reached a
    decision.
    """
    if not (wf.conclusive and wg.conclusive):
        raise PrecisionExhausted("gcd needs both operands conclusive")
    A, B = wf.distinguished_part, wg.distinguished_part
    if A.context != B.context:
        # align the two reduced precisions at the weaker one
        M = min(A.context.precision, B.context.precision)
        A, B = A.reduce_precision(M), B.reduce_precision(M)
        A._check(B)
    ctx = A.context
    x_exp = 0
    phi_exps: dict = {}
    X = ctx.x_power(1)
    while A.degree() > 0 and B.degree() > 0:
        quotients = _common_quotients(A, B, X)
        if quotients is None:
            break
        A, B = quotients
        x_exp += 1
    p = ctx.prime
    for n in count(1):
        if p ** (n - 1) * (p - 1) > min(A.degree(), B.degree()):
            break  # deg Phi_n grows with n: no later Phi_n divides both
        phin = ctx.phi(n)
        while A.degree() >= phin.degree() and B.degree() >= phin.degree():
            quotients = _common_quotients(A, B, phin)
            if quotients is None:
                break
            A, B = quotients
            phi_exps[n] = phi_exps.get(n, 0) + 1
    residual, certified, detail = _euclid_residual(A, B)
    return GcdReport(gcd_mu(wf, wg), x_exp, phi_exps, residual, certified, detail)


def _common_quotients(A: LambdaElement, B: LambdaElement, P: LambdaElement):
    """(A/P, B/P) when P divides both at precision, else None; one divrem each."""
    QA, RA = divrem(A, P)
    if not RA.is_zero_at_precision:
        return None
    QB, RB = divrem(B, P)
    if not RB.is_zero_at_precision:
        return None
    return QA, QB


def _euclid_residual(A: LambdaElement, B: LambdaElement):
    """Common factor of two distinguished polynomials beyond the named ones:
    (its rendering, or "1", whether it was decided, detail).

    A distinguished operand is its own distinguished part (mu = 0, lambda =
    degree); only the remainders of later passes are factored."""
    wa, wb = (InvariantReport(0, P.degree(), P) for P in (A, B))
    while True:
        if not (wa.conclusive and wb.conclusive):
            return "1", False, "operand vanished during reduction"
        if wa.lam == 0 or wb.lam == 0:
            # a unit appeared: the remaining parts are coprime, certified
            return "1", True, ""
        if wa.lam < wb.lam:
            A, B = B, A
            wa, wb = wb, wa
        # the divisor's distinguished part is known to wb.mu fewer digits
        Bd = wb.distinguished_part
        ctxA = A.context
        if Bd.context.precision < ctxA.precision:
            A = A.reduce_precision(Bd.context.precision)
            ctxA = A.context
        elif Bd.context.precision > ctxA.precision:
            Bd = Bd.reduce_precision(ctxA.precision)
        if ctxA.precision <= 1:
            raise PrecisionExhausted(
                "Euclid ran out of certified digits before deciding the residual"
            )
        _, R = divrem(A, Bd)
        if R.is_zero_at_precision:
            # divisor's distinguished part (degree wb.lam >= 1) is the
            # residual common factor
            return str(Bd), True, ""
        A, B = Bd, R
        wa, wb = InvariantReport(0, Bd.degree(), Bd), weierstrass(R)
