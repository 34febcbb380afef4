"""Arithmetic in Lambda = Z_p[[X]] at finite precision.

Elements are coefficient vectors reduced modulo (p^M, X^D) or modulo
(p^M, omega_n) where omega_n = (1+X)^{p^n} - 1.  Each coefficient is stored
as a plain integer residue in [0, p^M), so a coefficient that reads 0 only
vanishes at the working precision; callers read coeffs[i] directly.  The
topological generator convention is fixed once and for all: gamma = 1 + p,
sent to 1 + X.

The cyclotomic pieces Phi_n (Phi_0 = X) are constructed with exact integer
coefficients.  Division by a distinguished polynomial is plain monic long
division (divrem, the module's one division algorithm, on which Weierstrass
preparation also runs) and therefore loses no p-adic digits; the only
precision losses in this module come from stripping p-power content, and
they are tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    MixedContext,
    NotDistinguished,
    PrecisionExhausted,
    TruncationTooSmall,
)
from .padic import padic_valuation

#: invariant value when a series cannot be read at the working precision
INCONCLUSIVE = None


def _binomial_row(n: int):
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


@dataclass(frozen=True)
class IwasawaContext:
    """Working modulus for Lambda: prime, p-precision and X-truncation.

    truncation is either ("degree", D) meaning X^D, or ("level", n) meaning
    omega_n, in which case the representative degree bound is p^n.
    """

    prime: int
    precision: int
    truncation: tuple = ("degree", 16)

    def __post_init__(self):
        kind, value = self.truncation
        if kind not in ("degree", "level"):
            raise ValueError(f"unknown truncation kind {kind!r}")
        if kind == "degree" and value < 1:
            raise ValueError("degree bound must be at least 1")
        if kind == "level" and value < 0:
            raise ValueError("level must be nonnegative")
        if self.precision < 1:
            raise ValueError("precision must be at least 1")

    @property
    def gamma(self) -> int:
        # fixed convention; comparisons with external tables must match it
        return 1 + self.prime

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    @property
    def trunc_len(self) -> int:
        kind, value = self.truncation
        return value if kind == "degree" else self.prime**value

    @property
    def is_level(self) -> bool:
        return self.truncation[0] == "level"

    def with_truncation(self, truncation) -> "IwasawaContext":
        return IwasawaContext(self.prime, self.precision, truncation)

    def with_precision(self, M: int) -> "IwasawaContext":
        if M > self.precision:
            raise MixedContext("cannot extend precision")
        return IwasawaContext(self.prime, M, self.truncation)

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
        if deg > self.trunc_len:
            raise TruncationTooSmall(
                f"deg omega_{n} = {deg} exceeds truncation {self.trunc_len}"
            )
        coeffs = _binomial_row(deg)[:]
        coeffs[0] -= 1
        return self.element(coeffs)


@dataclass(frozen=True)
class LambdaElement:
    """Truncated element of Lambda; immutable, value semantics.

    coeffs holds trunc_len integer residues in [0, p^M).  The constructor
    accepts any integers and reduces them into the context modulus.
    """

    context: IwasawaContext
    coeffs: tuple

    def __init__(self, context, coeffs):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coeffs", _reduce_coeffs(context, coeffs))

    # -- inspection -------------------------------------------------------------

    def degree(self) -> int:
        """Index of the last coefficient nonzero at precision; -1 for zero."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    @property
    def is_zero_at_precision(self) -> bool:
        return not any(self.coeffs)

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

    def __add__(self, other):
        self._check(other)
        return LambdaElement(
            self.context, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return LambdaElement(
            self.context, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return LambdaElement(self.context, [-a for a in self.coeffs])

    def scale(self, c: int) -> "LambdaElement":
        return LambdaElement(self.context, [c * a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        da, db = self.degree(), other.degree()
        if da < 0 or db < 0:
            return self.context.zero()
        raw = [0] * (da + db + 1)
        B = other.coeffs[: db + 1]
        for i, a in enumerate(self.coeffs[: da + 1]):
            if a == 0:
                continue
            for j, b in enumerate(B):
                raw[i + j] += a * b
        return LambdaElement(self.context, raw)

    __rmul__ = __mul__

    def reduce_precision(self, M: int) -> "LambdaElement":
        return LambdaElement(self.context.with_precision(M), self.coeffs)

    def in_degree_context(self, D: Optional[int] = None) -> "LambdaElement":
        """Reinterpret the representative in a plain X^D truncation."""
        if D is None:
            D = self.context.trunc_len
        if D < self.context.trunc_len and any(self.coeffs[D:]):
            raise TruncationTooSmall("representative does not fit in X^D")
        return LambdaElement(self.context.with_truncation(("degree", D)), self.coeffs)

    def in_context(self, ctx: IwasawaContext) -> "LambdaElement":
        """The same representative read in ctx: same prime, no more precision.

        The residues are reduced to ctx's precision and folded into its
        truncation; a different prime or a higher precision is refused.
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
        kind, value = self.context.truncation
        mod = f"X^{value}" if kind == "degree" else f"omega_{value}"
        return (
            f"<{self} mod (p^{self.context.precision}, {mod}), "
            f"p={self.context.prime}>"
        )


def _reduce_coeffs(ctx: IwasawaContext, coeffs) -> tuple:
    """Residues of a raw integer coefficient list in the context modulus,
    padded with zeros to trunc_len."""
    mod = ctx.modulus
    n = ctx.trunc_len
    work = [c % mod for c in coeffs]
    if len(work) > n and ctx.is_level:
        # reduce modulo omega_level by monic polynomial division (exact)
        omega = _binomial_row(n)
        omega[0] -= 1  # monic of degree n = p^level
        for i in range(len(work) - 1, n - 1, -1):
            c = work[i]
            if c == 0:
                continue
            work[i] = 0
            for j in range(n):
                work[i - n + j] = (work[i - n + j] - c * omega[j]) % mod
    del work[n:]
    work.extend([0] * (n - len(work)))
    return tuple(work)


# -- division ---------------------------------------------------------------------


def divrem(F: LambdaElement, P: LambdaElement):
    """Division with remainder by a distinguished polynomial.

    Monic long division on representatives: exact modulo (p^M, truncation),
    no p-adic digits are lost.  The identity F = Q*P + R is re-verified by
    multiplication on every call.
    """
    F._check(P)
    if not P.is_distinguished():
        raise NotDistinguished(f"{P!s} is not distinguished")
    ctx = F.context
    d = P.degree()
    mod = ctx.modulus
    rem = list(F.coeffs)
    pc = P.coeffs[: d + 1]
    q = [0] * len(rem)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q[i - d] = c
        for j in range(d + 1):
            rem[i - d + j] = (rem[i - d + j] - c * pc[j]) % mod
    Q = LambdaElement(ctx, q)
    R = LambdaElement(ctx, rem[:d])
    if ctx.trunc_len >= d + max(Q.degree(), 0) + 1:
        # re-multiplication check is exact whenever the product fits
        if (Q * P + R).coeffs != F.coeffs:
            raise PrecisionExhausted("divrem identity F = Q*P + R failed")
    return Q, R


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


@dataclass(frozen=True)
class InvariantReport:
    """mu/lambda reading of a series, with the part that certifies it."""

    mu: Optional[int]
    lam: Optional[int]
    distinguished_part: Optional[LambdaElement] = None
    unit_part: Optional[LambdaElement] = None
    certified_precision: tuple = (0, 0)
    note: str = ""

    @property
    def conclusive(self) -> bool:
        return self.mu is not None and self.lam is not None

    def __str__(self):
        if not self.conclusive:
            return f"inconclusive ({self.note})"
        return f"mu={self.mu}, lambda={self.lam}"


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
    ctx = F.context
    M = ctx.precision
    p = ctx.prime
    vals = [padic_valuation(c, p) if c else M for c in F.coeffs]
    if not vals or min(vals) >= M:
        return InvariantReport(
            INCONCLUSIVE, INCONCLUSIVE,
            certified_precision=(M, ctx.trunc_len),
            note="all coefficients vanish at precision",
        )
    mu = min(vals)
    lam = vals.index(mu)
    # strip content: coefficients are now known modulo p^(M - mu)
    Mred = M - mu
    reduced_ctx = ctx.with_precision(Mred)
    mod = reduced_ctx.modulus
    G = reduced_ctx.element([c // p**mu for c in F.coeffs])
    lower = [0] * lam
    for _ in range(Mred + 1):
        P = reduced_ctx.element(lower + [1])
        Q, R = divrem(G, P)
        if R.is_zero_at_precision:
            return InvariantReport(
                mu, lam, distinguished_part=P, unit_part=Q,
                certified_precision=(Mred, ctx.trunc_len),
            )
        # delta = R / Q mod X^lam; Q(0) is a unit since P = X^lam mod p
        # makes Q(0) = G's lambda-th coefficient mod p
        q, r = Q.coeffs, R.coeffs
        inv0 = pow(q[0], -1, mod)
        delta = []
        for k in range(lam):
            acc = r[k] - sum(q[j] * delta[k - j] for j in range(1, k + 1))
            delta.append(acc * inv0 % mod)
        lower = [(a + d) % mod for a, d in zip(lower, delta)]
    raise NotDistinguished(
        f"no distinguished part of degree {lam} after {Mred + 1} divisions"
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


@dataclass
class GcdFactorization:
    """gcd presented as p^mu * X^alpha * prod Phi_n^beta_n * residual."""

    mu: int
    x_exp: int
    phi_exps: dict
    residual: Optional[LambdaElement]
    certified: bool
    precision_used: int
    detail: str = ""

    @property
    def residual_string(self) -> str:
        """The residual factor as a polynomial, or "1" when none is left."""
        if self.residual is not None and self.residual.degree() > 0:
            return str(self.residual)
        return "1"

    def as_string(self) -> str:
        return factored_string(
            self.mu, self.x_exp, sorted(self.phi_exps.items()), self.residual_string
        )


def gcd_lambda(F: LambdaElement, G: LambdaElement, phi_limit: Optional[int] = None):
    """gcd of two conclusive series in the form p^mu * h.

    The named factors X and Phi_n (n up to phi_limit) are detected by exact
    divrem remainder tests; whatever common factor remains is hunted by
    Euclidean reduction on the distinguished parts, with every digit of
    precision spent on content removal accounted for.
    """
    F._check(G)
    ctx = F.context
    wf, wg = weierstrass(F), weierstrass(G)
    if not (wf.conclusive and wg.conclusive):
        raise PrecisionExhausted("gcd needs both operands conclusive")
    mu = min(wf.mu, wg.mu)
    if phi_limit is None:
        phi_limit = _default_phi_limit(ctx)
    A = wf.distinguished_part.in_degree_context()
    B = wg.distinguished_part.in_degree_context()
    dctx = A.context
    if B.context != dctx:
        # align the two reduced precisions at the weaker one
        Mmin = min(A.context.precision, B.context.precision)
        A = A.reduce_precision(Mmin)
        B = B.reduce_precision(Mmin)
        dctx = A.context
    x_exp = 0
    phi_exps: dict = {}
    X = dctx.x_power(1)
    while A.degree() > 0 and B.degree() > 0:
        if divides_at_precision(A, X) and divides_at_precision(B, X):
            A, B = exact_quotient(A, X), exact_quotient(B, X)
            x_exp += 1
        else:
            break
    for n in range(1, phi_limit + 1):
        try:
            phin = dctx.phi(n)
        except TruncationTooSmall:
            break
        while (
            A.degree() >= phin.degree()
            and B.degree() >= phin.degree()
            and divides_at_precision(A, phin)
            and divides_at_precision(B, phin)
        ):
            A, B = exact_quotient(A, phin), exact_quotient(B, phin)
            phi_exps[n] = phi_exps.get(n, 0) + 1
    residual, certified, prec_used, detail = _euclid_residual(A, B)
    return GcdFactorization(
        mu=mu,
        x_exp=x_exp,
        phi_exps=phi_exps,
        residual=residual,
        certified=certified,
        precision_used=prec_used,
        detail=detail,
    )


def _default_phi_limit(ctx: IwasawaContext) -> int:
    if ctx.is_level:
        return ctx.truncation[1]
    n, p = 0, ctx.prime
    while p ** n * (p - 1) < ctx.trunc_len:
        n += 1
    return n


def _euclid_residual(A: LambdaElement, B: LambdaElement):
    """Common factor of two distinguished polynomials beyond the named ones."""
    prec_used = 0
    while True:
        wa, wb = weierstrass(A), weierstrass(B)
        if not (wa.conclusive and wb.conclusive):
            return None, False, prec_used, "operand vanished during reduction"
        if wa.lam == 0 or wb.lam == 0:
            # a unit appeared: the remaining parts are coprime, certified
            return A.context.one(), True, prec_used, ""
        if wa.lam < wb.lam:
            A, B = B, A
            wa, wb = wb, wa
        # strip content of the divisor before dividing (consumes digits)
        if wb.mu > 0:
            prec_used += wb.mu
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
            # divisor's distinguished part is the residual common factor
            return Bd, True, prec_used, ""
        A, B = Bd, R
