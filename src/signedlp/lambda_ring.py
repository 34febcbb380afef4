"""Arithmetic in Lambda = Z_p[[X]] at finite precision.

An element in X is a residue list: the residues in [0, p^M) of a
polynomial's coefficients up to its degree, with no trailing zeros (zero is
[]), read beside the IwasawaContext that fixes p^M, as Y-vectors are.  A
coefficient that reads 0 only vanishes at the working precision.  No degree
bound is imposed: products, Phi_n and X^k are exact at any degree.  The
topological generator convention is fixed once and for all: gamma = 1 + p,
sent to 1 + X.

Theta elements, and every series divided out of them, are Y-vectors: plain
lists of the exact integer coefficients c_j of sum c_j Y^j in the
group-ring variable Y = 1 + X, kept at the length they were computed, with
an IwasawaContext passed beside them.  In Y, omega_n = Y^(p^n) - 1 and
Phi_n = sum_{i<p} Y^(i p^(n-1)) are monic with integer coefficients and
sparse, so dividing by them is an exact linear scan over Z, and reading mu
and lambda needs only the integers mod p; the precision M enters at
x_coefficients alone, the one place where a Y-vector is reduced mod p^M
into a residue list in X.  It is the one change of basis: extraction reads
the first N X-coefficients of a series through it, the theta payload all
of a theta element's, and phi all of Phi_n's, by a blocked Taylor shift
(leaves read against packed binomial rows, then pairing rounds of one
product each).  Weierstrass preparation and the gcd work in X, on short
polynomials (Phi_n, with Phi_0 = X, and distinguished parts), through one
multiply and monic long division (von zur Gathen-Gerhard, Modern Computer
Algebra, ch. 8-9).  The multiply is Kronecker substitution: both lists are
packed into one integer each (through array.array for slots of up to 8
bytes), multiplied once, and read back as array.array words.  Every
division re-multiplies its quotient and checks the identity, and loses no
p-adic digits; the only precision loss in this module comes from stripping
p-power content, and Weierstrass preparation records it in the context of
its report.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from itertools import accumulate, count, repeat, zip_longest
from operator import mul

from .errors import InconsistentTable, NotDistinguished, PrecisionExhausted
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

    def residues(self, coeffs) -> list:
        """sum c_i X^i for exact integers c_i, as a residue list mod p^M."""
        mod = self.modulus
        work = [c % mod for c in coeffs]
        while work and not work[-1]:
            work.pop()
        return work

    def phi(self, n: int) -> list:
        """p^n-th cyclotomic polynomial in 1+X; Phi_0 = X by convention.

        For n >= 1, Phi_n is the Y-vector sum_{k<p} Y^(k p^(n-1)) read in X
        at full length by x_coefficients.  Every caller passes n >= 0."""
        if n == 0:
            return [0, 1]
        y = ([1] + [0] * (self.prime ** (n - 1) - 1)) * (self.prime - 1) + [1]
        return x_coefficients(y, len(y), self)


def render(F, ctx: IwasawaContext) -> str:
    """The residue list F as a polynomial in X, highest degree first, each
    coefficient by its smallest-magnitude representative mod p^M; "0" for
    zero."""
    mod = ctx.modulus
    terms = []
    for i in range(len(F) - 1, -1, -1):
        r = F[i]
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
    return " + ".join(terms).replace("+ -", "- ") or "0"


# -- the kernel: one multiply, one division ---------------------------------------


#: array typecode of each slot width up to 8 bytes, picked by itemsize
_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def pack(values, width: int) -> int:
    """The integer whose little-endian slots of `width` bytes hold `values`;
    _mul, x_coefficients and manin's row reduction pack through it."""
    if width in _TYPECODES:
        slots = array(_TYPECODES[width], values)
        if _BIG_ENDIAN:
            slots.byteswap()
        raw = slots.tobytes()
    else:
        raw = b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def unpack(raw: bytes, width: int, mod: int) -> list:
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
    bytes and read as 8-byte words (unpack).  The
    result has len(a) + len(b) - 1 entries, none when an operand is empty.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bits = 2 * (mod - 1).bit_length() + min(len(a), len(b)).bit_length()
    width = next((w for w in (1, 2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
    A = pack(a, width)
    return unpack((A * (A if b is a else pack(b, width))).to_bytes(n * width, "little"),
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


def divrem(F, P, ctx: IwasawaContext):
    """(Q, R) with F = Q*P + R for residue lists in ctx, P distinguished.

    Monic division of the representatives (_divmod_monic): exact modulo
    p^M, no p-adic digits are lost, and the identity F = Q*P + R is
    re-verified on every call.
    """
    if not P or P[-1] != 1 or any(c % ctx.prime for c in P[:-1]):
        raise NotDistinguished(f"{render(P, ctx)} is not distinguished")
    q, r = _divmod_monic(F, P, ctx.modulus)
    return q, ctx.residues(r)


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
            divisor = [1]
            for i in levels:
                divisor = _mul(divisor, ctx.phi(i), ctx.modulus)
            raise InconsistentTable(f"{render(divisor, ctx)} does not divide the operand exactly")
        y = _quotient_by_y_power(y, ctx.prime**k)
    return y


#: Y-coefficients per leaf of x_coefficients
_LEAF = 64


def x_coefficients(y, n: int, ctx: IwasawaContext) -> list:
    """The first n X-coefficients of the Y-vector y, as a residue list in X:
    the one change of basis from Y to X (extraction, the theta payload and
    Phi_n read through it).

    The blocked Taylor shift of von zur Gathen-Gerhard (ISSAC 1997).  y,
    reduced mod p^M, is cut into leaves of _LEAF coefficients, and each leaf
    is read as its first t = min(_LEAF, n) X-coefficients sum_i y_i C(i, j)
    by one sum of products with packed rows of C(i, j) mod p^M: a slot of
    2 bits(p^M) + bits(_LEAF) bits holds _LEAF terms below p^(2M) without
    carrying.  Then the blocks pair up at spacing b = _LEAF, 2 _LEAF, ...:
    each pair (lo, hi) becomes lo + (1+X)^b hi, all the hi blocks of a round
    are multiplied by (1+X)^b mod X^n in one product, and each block is cut
    to its first min(2b, n) coefficients, the only ones read.
    """
    if n <= 0 or not y:
        return []
    mod, t = ctx.modulus, min(_LEAF, n)
    bits = 2 * (mod - 1).bit_length() + _LEAF.bit_length()
    width = next((w for w in (1, 2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
    rows = [pack([math.comb(i, j) % mod for j in range(min(i + 1, t))], width)
            for i in range(min(_LEAF, len(y)))]
    y = [c % mod for c in y]
    blocks = [unpack(sum(map(mul, y[s : s + _LEAF], rows)).to_bytes(t * width, "little"),
                     width, mod) for s in range(0, len(y), _LEAF)]
    b, power = _LEAF, [math.comb(_LEAF, j) % mod for j in range(min(_LEAF + 1, n))]
    while len(blocks) > 1:
        # the hi blocks, each padded to one stride (no block is longer than
        # the first), are multiplied by (1+X)^b in one product
        stride, m = len(blocks[0]) + len(power) - 1, min(2 * b, n)
        hi = [c for block in blocks[1::2] for c in block + [0] * (stride - len(block))]
        shifted = _mul(hi, power, mod)
        blocks = [[(u + w) % mod for u, w in zip_longest(lo, shifted[s : s + m], fillvalue=0)]
                  for lo, s in zip(blocks[::2], count(0, stride))]
        b *= 2
        if len(blocks) > 1:
            power = _mul(power, power, mod)[:n]
    return ctx.residues(blocks[0])


# -- Weierstrass preparation and invariants ------------------------------------------


class InvariantReport(namedtuple("InvariantReport",
                                 "mu lam distinguished_part unit_part context",
                                 defaults=(None, None, None))):
    """mu/lambda reading of a series, with the parts that certify it, residue
    lists in context, the IwasawaContext at the precision M - mu they are
    known to; mu and lam are INCONCLUSIVE (None) when the series vanishes at
    precision."""

    __slots__ = ()

    @property
    def conclusive(self) -> bool:
        return self.mu is not None and self.lam is not None


def mu_lambda(F, ctx: IwasawaContext) -> tuple:
    """(mu, lambda) read off the residue list F: mu the least p-adic
    valuation, lambda the first index attaining it; (INCONCLUSIVE,
    INCONCLUSIVE) when every coefficient vanishes at precision.  weierstrass
    certifies them."""
    content = math.gcd(*F)
    if not content:
        return INCONCLUSIVE, INCONCLUSIVE
    mu = padic_valuation(content, ctx.prime)
    q = ctx.prime ** (mu + 1)
    return mu, next(i for i, c in enumerate(F) if c % q)


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


def weierstrass(F, ctx: IwasawaContext) -> InvariantReport:
    """Invariants mu = min coefficient valuation, lambda = first index attaining it.

    The factorization F = p^mu * P * U comes from repeated monic division of
    the content-free part G: start from P = X^lambda, divide G = Q*P + R, and
    fold the remainder into P's lower coefficients as R * Q^-1 mod X^lambda.
    Each pass gains at least one p-adic digit, and divrem re-multiplies
    G = Q*P + R on every call, so a zero remainder certifies P and U = Q.
    F is a residue list in ctx, and the parts are residue lists in the
    report's context, at precision M - mu.  Returns an inconclusive report
    when every coefficient vanishes at precision.
    """
    mu, lam = mu_lambda(F, ctx)
    if mu is INCONCLUSIVE:
        return InvariantReport(mu, lam)
    # strip content: coefficients are now known modulo p^(M - mu)
    content = ctx.prime**mu
    ctx = IwasawaContext(ctx.prime, ctx.precision - mu)
    mod = ctx.modulus
    G = [c // content for c in F]
    lower = [0] * lam
    for _ in range(ctx.precision + 1):
        P = lower + [1]
        Q, R = divrem(G, P, ctx)
        if not R:
            return InvariantReport(mu, lam, P, Q, ctx)
        # delta = R / Q mod X^lam, term by term; Q(0) is a unit since P =
        # X^lam mod p makes Q(0) = G's lambda-th coefficient mod p
        q, r = Q, R + [0] * lam
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
    INCONCLUSIVE) and a residual of "1" are left out.
    """
    parts = []
    if mu:
        parts.append("p" if mu == 1 else f"p^{mu}")
    if x_exp:
        parts.append("X" if x_exp == 1 else f"X^{x_exp}")
    for n, b in phi_pairs:
        parts.append(f"Phi{n}" if b == 1 else f"Phi{n}^{b}")
    if residual != "1":
        parts.append(f"({residual})")
    return "*".join(parts) if parts else "1"


class GcdReport(namedtuple("GcdReport", "mu x_exp phi_exps residual certified detail",
                           defaults=(False, ""))):
    """gcd presented as p^mu * X^x_exp * prod Phi_n^b_n * (residual).

    mu follows gcd_mu; phi_exps maps n to b_n; residual is "1" or the
    rendering of a common factor that no named factor accounts for.  Only
    analyzer.gcd_signed_pair sets certified, whether the gcd holds for the
    limit objects (so mu = 0 and residual "1"), and detail, why not;
    gcd_lambda leaves them at False and "".
    """

    __slots__ = ()

    def as_string(self) -> str:
        return factored_string(
            self.mu, self.x_exp, sorted(self.phi_exps.items()), self.residual
        )

    @property
    def has_unknown_part(self) -> bool:
        return self.residual != "1"


def gcd_mu(*reports: InvariantReport):
    """mu of a gcd at finite precision, by the conservative rule: zero when
    some operand reads a unit coefficient, INCONCLUSIVE otherwise; never
    asserted positive from truncation alone."""
    return 0 if any(r.mu == 0 for r in reports) else INCONCLUSIVE


def gcd_lambda(wf: InvariantReport, wg: InvariantReport) -> GcdReport:
    """gcd in the form p^mu * h of two conclusive series, given by their
    Weierstrass reports (analyzer._gcd_two_conclusive, the one caller,
    passes no other).

    The named factors X and Phi_n (every n with deg Phi_n at most the
    smaller degree of the two) are detected on the distinguished parts by
    exact divrem remainder tests; whatever common factor remains is hunted
    by Euclidean reduction, which raises PrecisionExhausted when it runs out
    of digits before a decision.
    """
    # align the two reduced precisions at the weaker one (one prime, so the
    # lesser context)
    ctx = min(wf.context, wg.context)
    A, B = ctx.residues(wf.distinguished_part), ctx.residues(wg.distinguished_part)
    exps: dict = {}
    p = ctx.prime
    for n in count(0):  # Phi_0 = X first
        if (p ** (n - 1) * (p - 1) if n else 1) >= min(len(A), len(B)):
            break  # deg Phi_n grows with n: no later Phi_n divides both
        phin = ctx.phi(n)
        while len(A) >= len(phin) and len(B) >= len(phin):
            # B is divided only when Phi_n divides A
            QA, RA = divrem(A, phin, ctx)
            if RA:
                break
            QB, RB = divrem(B, phin, ctx)
            if RB:
                break
            A, B = QA, QB
            exps[n] = exps.get(n, 0) + 1
    x_exp = exps.pop(0, 0)
    return GcdReport(gcd_mu(wf, wg), x_exp, exps, _euclid_residual(A, B, ctx))


def _euclid_residual(A, B, ctx: IwasawaContext) -> str:
    """Common factor of two distinguished polynomials, residue lists in ctx,
    beyond the named ones: its rendering, or "1"; PrecisionExhausted when
    the digits run out before it is decided.

    A distinguished operand is its own distinguished part (mu = 0, lambda =
    degree); only the remainders of later passes are factored.  A and B
    stay in the working context ctx, which drops to the context of each
    divisor's distinguished part."""
    wa, wb = (InvariantReport(0, len(P) - 1, P, context=ctx) for P in (A, B))
    while True:
        if wa.lam == 0 or wb.lam == 0:
            # a unit appeared: the remaining parts are coprime
            return "1"
        if wa.lam < wb.lam:
            A, B = B, A
            wa, wb = wb, wa
        # the divisor's distinguished part is known to wb.mu fewer digits
        ctx = min(ctx, wb.context)
        if ctx.precision <= 1:
            raise PrecisionExhausted(
                "Euclid ran out of certified digits before deciding the residual"
            )
        Bd = ctx.residues(wb.distinguished_part)
        _, R = divrem(ctx.residues(A), Bd, ctx)
        if not R:
            # divisor's distinguished part (degree wb.lam >= 1) is the
            # residual common factor
            return render(Bd, ctx)
        A, B = Bd, R
        wa, wb = InvariantReport(0, len(Bd) - 1, Bd, context=ctx), weierstrass(R, ctx)
