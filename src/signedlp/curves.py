"""Elliptic curve data: ingestion, local coefficients, reduction types.

Standard library only.  One point counter serves every good prime and
chooses its algorithm by ell: at ell = 2 and 3, good or bad, every pair
(x, y) is tried on the long Weierstrass equation; from 5 to _BSGS_MIN_ELL,
and at bad primes from 5 on, points are counted exhaustively against a
bytearray of the squares mod ell; from there on Shanks-Mestre decides, with
the exhaustive count as its fallback.
The q-expansion is a list computed once per curve and grown in place.
Periods holds the generators of the period lattice.  They are computed
in manin.periods, next to the table build that needs them (curve-info is
the one other caller), since every report imports this module.

Lattice orientation convention: Omega_plus is the least positive real
period times the number of connected components of E(R); Omega_minus is the
generator of the purely imaginary periods, taken with positive imaginary
part.  Modular-symbol integrality depends on this choice.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from operator import itemgetter

from .errors import (
    BadReduction,
    MetadataMismatch,
    ParseError,
    SingularCurve,
)

# torsion_bound is accepted for older curve files and ignored
_CURVE_FIELDS = {
    "label", "a_invariants", "conductor", "rank",
    "e_sequence", "fricke_sign", "torsion_bound",
}


class CurveData(namedtuple("CurveData",
                           "label a_invariants conductor rank e_sequence fricke_sign")):
    """e_sequence is the rank sequence (e_0, e_1, ...) as a tuple of ints,
    e_0 the rank, without trailing zeros past e_0."""

    __slots__ = ()

    @property
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def ingest_curve(path) -> CurveData:
    """Load and validate a curve record from its JSON file: a JSON object,
    read from its bytes (UTF-8, as JSON text is)."""
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if type(raw) is not dict:
        raise ParseError(f"{path} does not hold a JSON object")
    curve = curve_from_dict(raw)
    if verify_conductor(curve) is False:
        raise MetadataMismatch(
            f"{curve.label}: conductor {curve.conductor} does not match the "
            f"discriminant {curve.discriminant}"
        )
    residual = fricke_residual(curve)
    if residual > _FRICKE_TOL:
        raise MetadataMismatch(
            f"{curve.label}: fricke_sign {curve.fricke_sign} breaks the functional "
            f"equation (relative residual {residual:.2e})"
        )
    # the root number is -fricke_sign, and (-1)^rank must equal it (the parity
    # conjecture; for Selmer ranks, Dokchitser-Dokchitser, Ann. of Math. 172
    # (2010)): a mismatch is an error in the record, not in the mathematics
    if (-1) ** curve.rank != -curve.fricke_sign:
        raise MetadataMismatch(
            f"{curve.label}: rank {curve.rank} has the wrong parity for root number "
            f"{-curve.fricke_sign} (fricke_sign {curve.fricke_sign})"
        )
    return curve


def _json_int(raw: dict, key: str, default=None) -> int:
    """raw[key] when it is a JSON integer (not a bool, not a float)."""
    value = raw.get(key, default)
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, not {value!r}")
    return value


def curve_from_dict(raw: dict) -> CurveData:
    unknown = set(raw) - _CURVE_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    for key in ("label", "a_invariants", "conductor", "rank"):
        if key not in raw:
            raise ParseError(f"missing field {key!r}")
    ai = raw["a_invariants"]
    if not (isinstance(ai, list) and len(ai) == 5 and all(type(v) is int for v in ai)):
        raise ParseError("a_invariants must be five integers")
    rank = _json_int(raw, "rank")
    e_seq = raw.get("e_sequence")
    if e_seq is None:
        e_seq = [rank]
    if not (isinstance(e_seq, list) and all(type(v) is int and v >= 0 for v in e_seq)):
        raise ParseError(f"e_sequence must be a list of nonnegative integers, not {e_seq!r}")
    if not e_seq or e_seq[0] != rank:
        raise ParseError("e_sequence[0] must equal the rank")
    while len(e_seq) > 1 and e_seq[-1] == 0:
        e_seq = e_seq[:-1]
    fricke = _json_int(raw, "fricke_sign", 1)
    if fricke not in (1, -1):
        raise ParseError("fricke_sign must be +1 or -1")
    curve = CurveData(
        label=str(raw["label"]),
        a_invariants=tuple(ai),
        conductor=_json_int(raw, "conductor"),
        rank=rank,
        e_sequence=tuple(e_seq),
        fricke_sign=fricke,
    )
    if curve.discriminant == 0:
        raise SingularCurve(f"{curve.label}: discriminant vanishes")
    return curve


# -- local point counts -----------------------------------------------------------


def a_ell(curve: CurveData, ell: int) -> int:
    """ell + 1 - #E(F_ell) for good primes.  At 2 and 3, _a_small; from
    _BSGS_MIN_ELL on, the one candidate that hasse_candidates leaves; in
    between, or when several remain, the exhaustive count.  Every answer is
    proved: the true a_ell is in every candidate set."""
    if curve.conductor % ell == 0:
        raise BadReduction(f"{ell} divides the conductor {curve.conductor}")
    if ell < 5:
        a = _a_small(curve, ell)
    else:
        candidates = hasse_candidates(curve, ell) if ell >= _BSGS_MIN_ELL else ()
        a = candidates.pop() if len(candidates) == 1 else _a_ell_naive(curve, ell)
    if a * a > 4 * ell:
        raise BadReduction(f"Hasse bound violated at {ell}: a = {a}")
    return a


def _a_small(curve: CurveData, ell: int) -> int:
    """ell - #{(x, y) in F_ell^2 on the long Weierstrass equation}, the
    singular point included, for ell = 2 and 3: a_ell at a good prime and
    a_p at a bad one."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    return ell - sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
                     for x in range(ell) for y in range(ell))


def _a_ell_naive(curve: CurveData, ell: int) -> int:
    """-sum over x of the Legendre symbol of the completed-square cubic
    f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, for ell >= 5."""
    b2, b4, b6, _ = curve.b_invariants
    # centred at t = -b2/12, f(t + u) = 4u^3 + A u + B has no u^2 term, so
    # u and -u give B + w and B - w with w = 4u^3 + A u
    t = -b2 * pow(12, -1, ell) % ell
    A = (12 * t * t + 2 * b2 * t + 2 * b4) % ell
    B = (((4 * t + b2) * t + 2 * b4) * t + b6) % ell
    half = range(1, ell // 2 + 1)
    square = bytearray(ell)  # 1 at the nonzero squares
    for u in half:
        square[u * u % ell] = 1
    w = [(4 * u * u + A) * u % ell for u in half]
    # square read at B + w and at B - w, for every w at once
    plus, minus = square[B:] + square[:B], square[B::-1] + square[:B:-1]
    squares = square[B] + sum(itemgetter(*w)(plus)) + sum(itemgetter(*w)(minus))
    zeros = (B == 0) + w.count(-B % ell) + w.count(B)
    # each x adds 1 + chi(f(x)) points: a = (#non-squares) - (#nonzero squares)
    return ell - zeros - 2 * squares


# From this prime on, a_ell counts points by baby-step giant-step (about
# ell^(1/4) group operations) instead of the O(ell) exhaustive count: the
# scale cycles of a table build expand to 6.3 N terms, every prime below
# 32,000 at N = 5077.
_BSGS_MIN_ELL = 1000
# Points tried before the exhaustive count decides.  Of the 53,448 good primes
# of 11a1, 37a1 and 53a1 in [10^3, 2*10^5], one point leaves several
# candidates at 867 and two points at 7 (tests/test_modsym.py FALLBACK).
_BSGS_POINTS = 2


def hasse_candidates(curve: CurveData, ell: int) -> set:
    """The values a, a^2 <= 4 ell, that _BSGS_POINTS points allow for a_ell.

    Shanks-Mestre (Cohen, A Course in Computational Algebraic Number Theory,
    7.4): on the short model y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6,
    any x0 with f(x0) = d != 0 gives the point (d x0, d^2) on the twist
    y^2 = x^3 + A d^2 x + B d^3, which is E when d is a square mod ell and
    its quadratic twist (trace -a_ell) when not, so no square root is
    needed and both twists get sampled.  The true a_ell is in every set,
    so the intersection never loses it.  Needs a good prime ell >= 5.
    """
    c4, c6 = curve.c_invariants
    A, B = -27 * c4 % ell, -54 * c6 % ell
    bound = math.isqrt(4 * ell)
    found = None
    x0 = 0
    for _ in range(_BSGS_POINTS):
        while (d := (x0 * x0 * x0 + A * x0 + B) % ell) == 0:
            x0 += 1
        twist = 1 if pow(d, (ell - 1) // 2, ell) == 1 else -1
        point = (d * x0 % ell, d * d % ell)
        killing = _traces_killing(point, A * d * d % ell, ell, bound)
        traces = {twist * a for a in killing}
        found = traces if found is None else found & traces
        if len(found) == 1:
            break
        x0 += 1
    return found


def _traces_killing(P, A, ell, bound):
    """Every a with |a| <= bound and [ell + 1 - a]P = O, by baby-step giant-step.

    Baby steps store x([j]P) for 1 <= j <= m; giant steps walk
    G_i = [ell + 1]P - [i s]P with s = 2m + 1 and match G_i = [r]P,
    |r| <= m (the sign of r read off y), so a = i s + r.
    """
    m = math.isqrt(bound) + 1
    baby = {}
    R = P
    for j in range(1, m + 1):
        if R is None or R[0] in baby:
            # ord(P) = j, or [j]P = -[j']P: too small for giant steps
            n = j if R is None else j + baby[R[0]][0]
            return [a for a in range(-bound, bound + 1) if (ell + 1 - a) % n == 0]
        baby[R[0]] = (j, R[1])
        last = R
        R = _ec_add(R, P, A, ell)
    s = 2 * m + 1
    step = _ec_add(R, last, A, ell)  # [m + 1]P + [m]P
    i_lo = -((bound + m) // s)
    G = _ec_add(_ec_mul(ell + 1, P, A, ell), _ec_mul(-i_lo, step, A, ell), A, ell)
    back = None if step is None else (step[0], -step[1] % ell)
    out = []
    for i in range(i_lo, -i_lo + 1):
        if G is None:
            r = 0
        elif G[0] in baby:
            j, y = baby[G[0]]
            r = j if y == G[1] else -j
        else:
            r = None
        if r is not None and abs(i * s + r) <= bound:
            out.append(i * s + r)
        G = _ec_add(G, back, A, ell)
    return out


def _ec_add(P, Q, A, ell):
    """P + Q on y^2 = x^3 + A x + B over F_ell, affine; None is the origin."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        slope = (3 * x1 * x1 + A) * pow(2 * y1, -1, ell) % ell
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (slope * slope - x1 - x2) % ell
    return x3, (slope * (x1 - x3) - y1) % ell


def _ec_mul(k, P, A, ell):
    """[k]P for k >= 0 by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, A, ell)
        k >>= 1
        if k:
            P = _ec_add(P, P, A, ell)
    return R


def a_bad_prime(curve: CurveData, p: int) -> int:
    """a_p = p + 1 - #E~(F_p) at a bad prime, singular point included: 1 for
    split and -1 for nonsplit multiplicative reduction, 0 for additive.
    Needs a model minimal at p."""
    return _a_small(curve, p) if p < 5 else _a_ell_naive(curve, p)


class ReductionType(namedtuple("ReductionType", "kind a_p", defaults=(None,))):
    """kind is good-ordinary, good-supersingular, multiplicative or additive;
    a_p is None at a bad prime."""

    __slots__ = ()

    @property
    def is_supersingular(self) -> bool:
        return self.kind == "good-supersingular"


def classify_reduction(curve: CurveData, p: int) -> ReductionType:
    if curve.conductor % p == 0:
        c4, _ = curve.c_invariants
        kind = "multiplicative" if c4 % p != 0 else "additive"
        return ReductionType(kind)
    ap = a_ell(curve, p)
    if ap % p == 0:
        # Hasse forces a_p = 0 for supersingular p >= 5, and |a_p| <= 3 at p = 3:
        # a_ell has already refused a_p^2 > 4p
        return ReductionType("good-supersingular", ap)
    return ReductionType("good-ordinary", ap)


def verify_conductor(curve: CurveData) -> bool | None:
    """Whether the conductor re-derived from the discriminant matches the record.

    Multiplicative primes contribute exponent 1, additive primes >= 5
    exponent 2.  Additive reduction at 2 or 3 needs the full tame/wild
    analysis, so the conductor is unverifiable there and None is returned.
    """
    c4, _ = curve.c_invariants
    n = 1
    for p in prime_divisors(abs(curve.discriminant)):
        if c4 % p != 0:
            n *= p
        elif p >= 5:
            n *= p * p
        else:
            return None
    return n == curve.conductor


# largest relative Fricke residual accepted at ingest: about 1e-15 with the
# right sign on every fixture, about 2 with the wrong one
_FRICKE_TOL = 1e-6


def fricke_residual(curve: CurveData) -> float:
    """Largest relative residual of f(i/(N y)) = -eps N y^2 f(i y) over
    y = s/sqrt N, s in {0.83, 1.37}.

    Float64 sums over as many terms as take the slower of the two series
    (exponent 2 pi n min(s, 1/s)/sqrt N) below e^-40, a count that depends
    on the conductor only.
    """
    N = curve.conductor
    samples = (0.83, 1.37)
    T = int(40 * math.sqrt(N) / (2 * math.pi * min(samples[0], 1 / samples[1]))) + 1
    terms = list(enumerate(an_expansion(curve, T)))[1:]
    worst = 0.0
    for s in samples:
        y = s / math.sqrt(N)
        f_y = math.fsum(a * math.exp(-2 * math.pi * n * y) for n, a in terms)
        f_wy = math.fsum(a * math.exp(-2 * math.pi * n / (N * y)) for n, a in terms)
        rhs = -curve.fricke_sign * N * y * y * f_y
        worst = max(worst, abs(f_wy - rhs) / max(abs(f_wy), 1e-30))
    return worst


def prime_divisors(n: int):
    """Distinct prime divisors of n >= 1 in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_odd_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, which decides every n below
    3.3e24 (Sorenson-Webster 2015); a larger n passing it is a strong
    probable prime.  Unlike trial division it answers at once for a huge n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 3 or n % 2 == 0:
        return False
    if n in bases:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- q-expansion ------------------------------------------------------------------


# (a-invariants, conductor) -> a_0..a_n of that curve, with a_0 = 0; grown
# when a longer expansion is asked for, so each prime is counted once
_EXPANSIONS: dict = {}


def an_expansion(curve: CurveData, n_max: int) -> list:
    """Coefficients a_1..a_n_max, n_max >= 1, via multiplicativity and Hecke
    recursion.

    Index 0 of the returned list is unused (kept 0) so that out[n] = a_n.
    The list is a copy of a per-curve expansion that is computed once and
    extended past its end when a larger n_max is asked for.  The good
    primes it adds take a_q from a_ell, the bad ones from a_bad_prime.
    """
    key = (curve.a_invariants, curve.conductor)
    an = _EXPANSIONS.get(key)
    if an is None or len(an) <= n_max:
        an = _EXPANSIONS[key] = _extend_expansion(curve, an, n_max)
    return an[: n_max + 1]


def _extend_expansion(curve: CurveData, known, n_max: int) -> list:
    """a_0..a_n_max, reusing the prefix `known` (None for a fresh start)."""
    out = [0, 1] if known is None else list(known)
    lo = len(out)
    out += [0] * (n_max + 1 - lo)
    spf = _smallest_prime_factors(n_max)
    for q in range(lo, n_max + 1):
        if spf[q] == q:
            out[q] = a_bad_prime(curve, q) if curve.conductor % q == 0 else a_ell(curve, q)
    # a_(q^k) = a_q a_(q^(k-1)) - q a_(q^(k-2)), without the q term at bad q
    for q in _primes_in(spf[: math.isqrt(n_max) + 1]):
        weight = q if curve.conductor % q else 0
        prev, cur = 1, q
        while cur * q <= n_max:
            prev, cur = cur, cur * q
            if cur >= lo:
                out[cur] = out[q] * out[prev] - weight * out[prev // q]
    # n = q^k * rest with q = spf(n) not dividing rest: a_n = a_(q^k) a_rest,
    # both factors below n
    for n in range(lo, n_max + 1):
        q = spf[n]
        rest = n // q
        while rest % q == 0:
            rest //= q
        if rest > 1:
            out[n] = out[n // rest] * out[rest]
    return out


def _smallest_prime_factors(n: int) -> list:
    """spf[k] = the smallest prime factor of k for 2 <= k <= n; spf[0:2] = 0, 1.

    Sieves with the primes up to sqrt(n) only, largest first, so that the
    smallest prime factor is the last one written; primes keep spf[k] = k.
    """
    spf = list(range(n + 1))
    root = math.isqrt(n)
    if root >= 2:
        for q in reversed(_primes_in(_smallest_prime_factors(root))):
            spf[q * q :: q] = [q] * len(range(q * q, n + 1, q))
    return spf


def _primes_in(spf: list) -> list:
    """The primes below len(spf), read off a smallest-prime-factor table."""
    return [q for q in range(2, len(spf)) if spf[q] == q]


# -- periods ----------------------------------------------------------------------


class Periods(namedtuple("Periods", "omega_plus omega_minus real_components")):
    """omega_plus is a positive float, omega_minus a purely imaginary complex
    with positive imaginary part, real_components the number of connected
    components of E(R)."""

    __slots__ = ()


def periods(curve: CurveData) -> Periods:
    """Generators of the real/imaginary period lattice directions, in float64:
    manin.periods, which lives next to the table build that calls it."""
    from . import manin  # only a build and curve-info need the periods

    return manin.periods(curve)
