"""Arithmetic in Lambda = Z_p[[X]] at finite precision.

Elements are coefficient vectors reduced modulo (p^M, X^D) or modulo
(p^M, omega_n) where omega_n = (1+X)^{p^n} - 1.  Each coefficient is stored
as a plain integer residue in [0, p^M); the two-state zero of a single
scalar (exact versus vanishing at precision) lives on PadicScalar, which
coefficient() and evaluate_at_zero() build on demand.  The topological
generator convention is fixed once and for all: gamma = 1 + p, sent to 1 + X.

The cyclotomic pieces Phi_n (Phi_0 = X) are constructed with exact integer
coefficients.  Division by a distinguished polynomial is plain monic long
division and therefore loses no p-adic digits; the only precision losses in
this module come from stripping p-power content, and they are tracked.
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
from .padic import PadicScalar, padic_valuation

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

    def omega_signed(self, n: int, parity: str) -> "LambdaElement":
        """X times the product of the Phi_i of the given index parity, i <= n."""
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        rem = 0 if parity == "even" else 1
        out = self.x_power(1)
        for i in range(1, n + 1):
            if i % 2 == rem:
                out = out * self.phi(i)
        return out


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

    def coefficient(self, i: int) -> PadicScalar:
        """Coefficient of X^i as a scalar; a zero is never an exact zero."""
        ctx = self.context
        r = self.coeffs[i] if i < len(self.coeffs) else 0
        return PadicScalar(ctx.prime, ctx.precision, r)

    def degree(self) -> int:
        """Index of the last coefficient nonzero at precision; -1 for zero."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    @property
    def is_zero_at_precision(self) -> bool:
        return not any(self.coeffs)

    def evaluate_at_zero(self) -> PadicScalar:
        return self.coefficient(0)

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

    def reduce_to_level(self, n: int) -> "LambdaElement":
        """Image in Lambda/(omega_n, p^M); reduces, never extends."""
        ctx = self.context.with_truncation(("level", n))
        if ctx.trunc_len > self.context.trunc_len:
            raise TruncationTooSmall("target modulus exceeds current truncation")
        return LambdaElement(ctx, self.coeffs)

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


def divides_at_precision(F: LambdaElement, P: LambdaElement, slack: int = 0) -> bool:
    """Remainder of F by P vanishes modulo p^(M - slack)."""
    _, R = divrem(F, P)
    step = F.context.prime ** (F.context.precision - slack)
    return all(c % step == 0 for c in R.coeffs)


def exact_quotient(F: LambdaElement, P: LambdaElement) -> LambdaElement:
    """Quotient when P divides F at full precision; raises otherwise."""
    Q, R = divrem(F, P)
    if not R.is_zero_at_precision:
        raise PrecisionExhausted(f"{P!s} does not divide the operand at precision")
    return Q


def _poly_mul_mod(a, b, mod):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _poly_divmod_fp(a, b, p):
    """Division in F_p[X] on coefficient lists; b need not be monic."""
    a = [v % p for v in a]
    b = [v % p for v in b]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < i + len(b):
            continue
        c = (r[i + len(b) - 1] * inv_lead) % p
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = (r[i + j] - c * y) % p
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _strip_fp(a, p):
    a = [v % p for v in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _bezout_fp(a, b, p):
    """(s, t) with s*a + t*b = 1 in F_p[X]; the inputs must be coprime."""
    r0, r1 = _strip_fp(a, p), _strip_fp(b, p)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while any(v % p for v in r1):
        q, r = _poly_divmod_fp(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub_fp(s0, _poly_mul_mod(q, s1, p), p)
        t0, t1 = t1, _poly_sub_fp(t0, _poly_mul_mod(q, t1, p), p)
    if len(r0) != 1 or r0[0] % p == 0:
        raise NotDistinguished("factors are not coprime modulo p")
    c = pow(r0[0], -1, p)
    return [v * c % p for v in s0], [v * c % p for v in t0]


def _poly_sub_fp(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return [v % p for v in out]


def hensel_distinguished(coeffs, lam: int, p: int, M: int):
    """Unique factorization F = P * H mod p^M with P distinguished of degree
    lam and H a polynomial with unit constant term.

    Linear Hensel lifting of the coprime factorization F = X^lam * (F div
    X^lam) modulo p.  Pure polynomial arithmetic: exact at every p-adic
    digit and independent of any X-truncation.
    """
    mod = p**M
    F = [c % mod for c in coeffs]
    while F and F[-1] == 0:
        F.pop()
    fbar = [c % p for c in F]
    if any(fbar[:lam]) or lam >= len(fbar) or fbar[lam] % p == 0:
        raise NotDistinguished("series is not lambda-regular at the given index")
    hbar = _strip_fp(fbar[lam:], p)
    g = [0] * lam + [1]            # monic X^lam, lifted in place
    h = hbar[:]                    # unit constant term, lifted in place
    s, t = _bezout_fp(g, hbar, p)  # s*X^lam + t*hbar = 1 mod p
    pk = p
    for _ in range(1, M):
        gh = _poly_mul_mod(g, h, mod)
        e = [0] * max(len(F), len(gh))
        for i, v in enumerate(F):
            e[i] = v
        for i, v in enumerate(gh):
            e[i] = (e[i] - v) % mod
        if any(v % pk for v in e):
            raise NotDistinguished("Hensel invariant broken")
        ek = [(v // pk) % p for v in e]
        dg = _poly_mul_mod(t, ek, p)[:lam]  # t*e mod X^lam
        rem = _poly_sub_fp(ek, _poly_mul_mod(dg, hbar, p), p)
        if any(rem[:lam]):
            raise NotDistinguished("Hensel correction not divisible by X^lam")
        dh = rem[lam:]
        for i, v in enumerate(dg):
            g[i] = (g[i] + pk * v) % mod
        for i, v in enumerate(dh):
            if i < len(h):
                h[i] = (h[i] + pk * v) % mod
            else:
                h.append((pk * v) % mod)
        pk *= p
    return g, h


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

    The factorization F = p^mu * P * U is recovered and re-multiplied as a
    certificate.  Returns an inconclusive report when every coefficient
    vanishes at precision or when lambda would exceed the truncation bound.
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
    G = [c // p**mu for c in F.coeffs]
    # distinguished part by exact polynomial Hensel lifting of the coprime
    # factorization G = X^lam * (unit) modulo p
    g, h = hensel_distinguished(G, lam, p, Mred)
    recon = _poly_mul_mod(g, h, reduced_ctx.modulus)
    if recon != G[: len(recon)] or any(G[len(recon):]):
        return InvariantReport(
            mu, lam, certified_precision=(Mred, ctx.trunc_len),
            note="re-multiplication check failed",
        )
    P = reduced_ctx.element(g)
    U = reduced_ctx.element(h)
    return InvariantReport(
        mu, lam, distinguished_part=P, unit_part=U,
        certified_precision=(Mred, ctx.trunc_len),
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
        if Bd is None:
            return None, False, prec_used, "no distinguished part for divisor"
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
