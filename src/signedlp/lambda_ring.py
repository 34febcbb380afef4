"""Arithmetic in Lambda = Z_p[[X]] at finite precision.

A LambdaElement is a polynomial in X over Z/p^M: each coefficient is stored
as a plain integer residue in [0, p^M) up to the degree, with no trailing
zeros, so a coefficient that reads 0 only vanishes at the working
precision.  No degree bound is imposed: products, Phi_n and X^k are exact at
any degree.  The topological generator convention is fixed once and for
all: gamma = 1 + p, sent to 1 + X.

Theta elements, and every series divided out of them, are Y-vectors: plain
lists of the exact integer coefficients c_j of sum c_j Y^j in the
group-ring variable Y = 1 + X, kept at the length they were computed, with
an IwasawaContext passed beside them.  In Y, omega_n = Y^(p^n) - 1 and
Phi_n = sum_{i<p} Y^(i p^(n-1)) are monic with integer coefficients and
sparse, so dividing by them is an exact linear scan over Z, and reading mu
and lambda needs only the integers mod p; the precision M enters at
x_coefficients alone, the one place where a Y-vector is reduced mod p^M and
becomes a LambdaElement.  Weierstrass preparation
and the gcd work in X, on short polynomials (Phi_n, with Phi_0 = X, and
distinguished parts), through one multiply and monic long division (von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 8-9).  The multiply is
Kronecker substitution: both lists are packed into one integer each
(through array.array for slots of up to 8 bytes), multiplied once, and read
back as array.array words.  Every division re-multiplies its quotient and
checks the identity, and loses no p-adic digits; the only precision loss in
this module comes from stripping p-power content, and Weierstrass
preparation records it in the precision of its parts.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from itertools import accumulate, count, islice, repeat, zip_longest

from .errors import InconsistentTable, MixedContext, NotDistinguished, PrecisionExhausted
from .padic import padic_valuation

#: invariant value when a series cannot be read at the working precision
INCONCLUSIVE = None


class IwasawaContext(namedtuple("IwasawaContext", "prime precision")):
    """Working modulus for Lambda: the prime and the p-precision M."""

    __slots__ = ()

    def __new__(cls, prime: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        return super().__new__(cls, prime, precision)

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def with_precision(self, M: int) -> "IwasawaContext":
        if M > self.precision:
            raise MixedContext("cannot extend precision")
        return IwasawaContext(self.prime, M)

    # -- canonical elements ------------------------------------------------------

    def element(self, int_coeffs) -> "LambdaElement":
        """The class of sum c_i X^i for exact integers c_i."""
        return LambdaElement(self, int_coeffs)

    def x_power(self, k: int) -> "LambdaElement":
        return self.element([0] * k + [1])

    def phi(self, n: int) -> "LambdaElement":
        """p^n-th cyclotomic polynomial in 1+X; Phi_0 = X by convention."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        if n == 0:
            return self.x_power(1)
        p = self.prime
        # Phi_n = sum_{k<p} (1+X)^{k p^(n-1)}, assembled with exact integers
        coeffs = [0] * (p ** (n - 1) * (p - 1) + 1)
        for k in range(p):
            for j in range(k * p ** (n - 1) + 1):
                coeffs[j] += math.comb(k * p ** (n - 1), j)
        return self.element(coeffs)


class LambdaElement:
    """Element of Lambda at precision M; immutable, value semantics.

    coeffs holds the integer residues in [0, p^M) of a polynomial up to its
    degree, so the zero element has coeffs == ().  The constructor accepts
    any integers and reduces them into the context modulus.  Unlike the
    record types, which are namedtuples, an element is no tuple: a ring
    element must not pick up tuple length, indexing or ordering.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs):
        mod = context.modulus
        work = [c % mod for c in coeffs]
        while work and not work[-1]:
            work.pop()
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coeffs", tuple(work))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __eq__(self, other):
        return (type(other) is LambdaElement and self.context == other.context
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.context, self.coeffs))

    # -- inspection -------------------------------------------------------------

    def degree(self) -> int:
        """Index of the last coefficient nonzero at precision; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def is_zero_at_precision(self) -> bool:
        return not self.coeffs

    def is_distinguished(self) -> bool:
        """Monic polynomial whose lower coefficients are divisible by p."""
        if not self.coeffs or self.coeffs[-1] != 1:
            return False
        p = self.context.prime
        return all(c % p == 0 for c in self.coeffs[:-1])

    # -- ring structure ------------------------------------------------------------

    def _check(self, other: "LambdaElement"):
        if self.context != other.context:
            raise MixedContext(f"{self.context} vs {other.context}")

    def __mul__(self, other):
        self._check(other)
        return LambdaElement(
            self.context, _mul(self.coeffs, other.coeffs, self.context.modulus)
        )

    def reduce_precision(self, M: int) -> "LambdaElement":
        return LambdaElement(self.context.with_precision(M), self.coeffs)

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
        return f"<{self} mod p^{ctx.precision}, p={ctx.prime}>"


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
    """The little-endian slots of `width` bytes in `raw`, each reduced mod `mod`.

    Slots of 1, 2, 4 or 8 bytes are one array.array read.  Other widths are
    read as 8-byte words through array.array, highest word first: byte b of
    every slot is the extended slice raw[b::width], so each word is
    gathered by at most eight slice assignments, and a slot is its words
    shifted together.  The slots keep their width: rounding them up to
    whole words would enlarge the product that dominates _mul.
    """
    if width in _TYPECODES:
        slots = array(_TYPECODES[width], raw)
        if _BIG_ENDIAN:
            slots.byteswap()
        return [c % mod for c in slots]
    n, slots = len(raw) // width, None
    for start in reversed(range(0, width, 8)):
        word = bytearray(8 * n)
        for b in range(start, min(start + 8, width)):
            word[b - start :: 8] = raw[b::width]
        column = array(_TYPECODES[8], word)
        if _BIG_ENDIAN:
            column.byteswap()
        slots = column if slots is None else [v << 64 | w for v, w in zip(slots, column)]
    return [c % mod for c in slots]


def _mul(a, b, mod: int) -> list:
    """Product of two residue lists mod `mod`, by Kronecker substitution.

    A product coefficient is a sum of at most min(len) terms below mod^2, so
    slots of 2*bits(mod) + bits(min(len)) bits never overflow: one integer
    product carries the whole convolution.  Slots of 1, 2, 4 or 8 bytes are
    packed and read through array.array; other widths are packed through
    bytes and read as 8-byte words (_unpack).  The
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


def _divmod_monic(f, g, mod: int):
    """(q, r) with f = q*g + r and deg r < deg g, for a monic residue list g,
    by long division; q*g is then computed once and PrecisionExhausted is
    raised unless f - q*g vanishes in every degree >= deg g."""
    d = len(g) - 1
    m = len(f) - d  # quotient length
    if m <= 0:
        return [], list(f)
    # the running remainder is reduced only where a quotient term is read
    rem, low = list(f), g[:d]
    q = [0] * m
    for i in range(m - 1, -1, -1):
        c = q[i] = rem[i + d] % mod
        if c:
            for j, b in enumerate(low, i):
                rem[j] -= c * b
    diff = [(x - y) % mod for x, y in zip(f, _mul(q, g, mod))]
    if any(diff[d:]):
        raise PrecisionExhausted("division identity f = q*g + r failed")
    return q, diff[:d]


# -- division, in X by a distinguished polynomial and in Y by omega_n and Phi_n ------


def divrem(F: LambdaElement, P: LambdaElement):
    """Division with remainder by a distinguished polynomial.

    Monic division of the representatives (_divmod_monic): exact modulo
    p^M, no p-adic digits are lost, and the identity F = Q*P + R is
    re-verified on every call.
    """
    F._check(P)
    if not P.is_distinguished():
        raise NotDistinguished(f"{P!s} is not distinguished")
    ctx = F.context
    q, r = _divmod_monic(F.coeffs, P.coeffs, ctx.modulus)
    return LambdaElement(ctx, q), LambdaElement(ctx, r)


def fold(y, m: int) -> list:
    """y mod (Y^m - 1) for Y-coefficients y: the m sums of y[r::m], unreduced."""
    return [sum(y[r::m]) for r in range(m)]


def _quotient_by_y_power(y, m: int) -> list:
    """(sum y_j Y^j) / (Y^m - 1) when the remainder fold(y, m) vanishes,
    which the caller tests: q[r::m] are the suffix sums of y[r+m::m]."""
    q = [0] * max(len(y) - m, 0)
    for r in range(min(m, len(q))):
        q[r::m] = list(accumulate(y[r + m :: m][::-1]))[::-1]
    return q


def phi_quotient(y, levels, ctx: IwasawaContext) -> list:
    """The Y-vector y / prod of Phi_k over k in levels (Phi_0 = X = Y - 1),
    exactly over Z (y itself when levels is empty).  Phi_k (Y^s - 1) =
    Y^(ps) - 1 with s = p^(k-1), so each factor is a multiplication by
    Y^s - 1 and an exact division by Y^(ps) - 1.  Raises InconsistentTable,
    naming the product in X, unless it divides y."""
    for k in levels:
        if k:
            s = ctx.prime ** (k - 1)
            y = [a - b for a, b in zip_longest([0] * s + y, y, fillvalue=0)]
        if any(fold(y, ctx.prime**k)):
            divisor = math.prod((ctx.phi(i) for i in levels), start=ctx.element([1]))
            raise InconsistentTable(f"{divisor} does not divide the operand exactly")
        y = _quotient_by_y_power(y, ctx.prime**k)
    return y


def x_scan(y, mod: int):
    """The X-coefficients of sum_j y[j] * Y^j modulo `mod`, in order: the
    remainders (sums) of successive divisions by Y - 1, whose quotients are
    suffix sums.  Each costs one pass over y, so a caller stops early."""
    while y:
        yield sum(y) % mod
        y = [c % mod for c in accumulate(y[:0:-1])][::-1]


def x_coefficients(y, n: int, ctx: IwasawaContext) -> LambdaElement:
    """The first n X-coefficients of the Y-vector y, as an element in X."""
    return ctx.element(islice(x_scan(y, ctx.modulus), n))


# -- Weierstrass preparation and invariants ------------------------------------------


class InvariantReport(namedtuple("InvariantReport", "mu lam distinguished_part unit_part",
                                 defaults=(None, None))):
    """mu/lambda reading of a series, with the part that certifies it; mu and
    lam are INCONCLUSIVE (None) when the series vanishes at precision."""

    __slots__ = ()

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


def mu_lambda_y(y, p: int) -> tuple:
    """(mu, lambda) of the Y-vector y, read exactly, so mu may pass the
    working precision; INCONCLUSIVE only for y = 0.  The change of basis is
    unitriangular over Z, so mu is the least valuation of the
    Y-coefficients; lambda is the order of vanishing of y / p^mu mod p at
    Y = 1, and since Y^(p^j) - 1 = (Y - 1)^(p^j) over F_p, the exact
    divisions by Y^(p^j) - 1, largest j first, count its base-p digits."""
    content = math.gcd(*y)
    if not content:
        return INCONCLUSIVE, INCONCLUSIVE
    mu = padic_valuation(content, p)
    y = [c // p**mu for c in y]
    lam, m = 0, 1
    while m * p < len(y):
        m *= p
    while m:
        if any(c % p for c in fold(y, m)):
            m //= p
        else:
            y, lam = [c % p for c in _quotient_by_y_power(y, m)], lam + m
    return mu, lam


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
        # delta = R / Q mod X^lam, term by term; Q(0) is a unit since P =
        # X^lam mod p makes Q(0) = G's lambda-th coefficient mod p
        q, r = Q.coeffs, R.coeffs + (0,) * lam
        inv0 = pow(q[0], -1, mod)
        delta = []
        for k in range(lam):
            acc = r[k] - sum(q[j] * delta[k - j] for j in range(1, min(k, len(q) - 1) + 1))
            delta.append(acc * inv0 % mod)
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


class GcdReport(namedtuple("GcdReport", "mu x_exp phi_exps residual certified detail",
                           defaults=("",))):
    """gcd presented as p^mu * X^x_exp * prod Phi_n^b_n * (residual).

    mu follows gcd_mu; phi_exps maps n to b_n; residual is "1" or the
    rendering of a common factor that no named factor accounts for.  From
    gcd_lambda, certified says whether the residual was decided;
    analyzer.gcd_signed_pair narrows it to whether the gcd holds for the
    limit objects, and detail says why not.
    """

    __slots__ = ()

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
