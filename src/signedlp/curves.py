"""Elliptic curve data: ingestion, local coefficients, reduction types, periods.

Standard library only.  One point counter serves every good prime and
chooses its algorithm by ell: below _BSGS_MIN_ELL, and at bad primes, points
are counted exhaustively against a bytearray of the squares mod ell; from
there on Shanks-Mestre decides, with the exhaustive count as its fallback.
The q-expansion is a list computed once per curve and grown in place.
Periods of the real lattice are float64: Carlson's R_F by duplication on
the roots of the cubic, cross-checked in the tests against a 40-digit
reference and against direct numerical integration.

Lattice orientation convention: Omega_plus is the least positive real
period times the number of connected components of E(R); Omega_minus is the
generator of the purely imaginary periods, taken with positive imaginary
part.  Modular-symbol integrality depends on this choice.
"""

from __future__ import annotations

import cmath
import json
import math
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import (
    BadReduction,
    MetadataMismatch,
    NonConvergence,
    ParseError,
    SingularCurve,
)
from .modules import RankSequence

# torsion_bound is accepted for older curve files and ignored
_CURVE_FIELDS = {
    "label", "a_invariants", "conductor", "rank",
    "e_sequence", "fricke_sign", "torsion_bound",
}


class CurveData(NamedTuple):
    label: str
    a_invariants: tuple
    conductor: int
    rank: int
    e_sequence: RankSequence
    fricke_sign: int

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
    """Load and validate a curve record from its JSON file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
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
    fricke = _json_int(raw, "fricke_sign", 1)
    if fricke not in (1, -1):
        raise ParseError("fricke_sign must be +1 or -1")
    curve = CurveData(
        label=str(raw["label"]),
        a_invariants=tuple(ai),
        conductor=_json_int(raw, "conductor"),
        rank=rank,
        e_sequence=RankSequence(e_seq),
        fricke_sign=fricke,
    )
    if curve.discriminant == 0:
        raise SingularCurve(f"{curve.label}: discriminant vanishes")
    return curve


# -- local point counts -----------------------------------------------------------


def a_ell(curve: CurveData, ell: int) -> int:
    """ell + 1 - #E(F_ell) for good primes.  From _BSGS_MIN_ELL on, the one
    candidate that hasse_candidates leaves; below that, or when several
    remain, the exhaustive count.  Either answer is proved: the true a_ell
    is in every candidate set."""
    if curve.conductor % ell == 0:
        raise BadReduction(f"{ell} divides the conductor {curve.conductor}")
    if ell == 2:
        a = _a2_direct(curve)
    else:
        candidates = hasse_candidates(curve, ell) if ell >= _BSGS_MIN_ELL else ()
        a = candidates.pop() if len(candidates) == 1 else _a_ell_naive(curve, ell)
    if a * a > 4 * ell:
        raise BadReduction(f"Hasse bound violated at {ell}: a = {a}")
    return a


def _a_ell_naive(curve: CurveData, ell: int) -> int:
    """-sum over x of the Legendre symbol of the completed-square cubic
    f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, for odd ell."""
    b2, b4, b6, _ = curve.b_invariants
    if ell == 3:  # 12 is no unit mod 3: the three x one by one
        rhs = [(((4 * x + b2) * x + 2 * b4) * x + b6) % 3 for x in range(3)]
        return rhs.count(2) - rhs.count(1)
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


def _a2_direct(curve: CurveData) -> int:
    a1, a2, a3, a4, a6 = curve.a_invariants
    count = 1  # point at infinity
    for x in range(2):
        for y in range(2):
            lhs = y * y + a1 * x * y + a3 * y
            rhs = x**3 + a2 * x * x + a4 * x + a6
            if (lhs - rhs) % 2 == 0:
                count += 1
    return 2 + 1 - count


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
    return _a2_direct(curve) if p == 2 else _a_ell_naive(curve, p)


class ReductionType(NamedTuple):
    kind: str  # good-ordinary | good-supersingular | multiplicative | additive
    a_p: Optional[int] = None

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
        # Hasse forces a_p = 0 for supersingular p >= 5, and |a_p| <= 3 at p = 3
        if not (ap == 0 or (p == 3 and ap in (3, -3))):
            raise BadReduction(f"supersingular a_p = {ap} at p = {p} violates Hasse")
        return ReductionType("good-supersingular", ap)
    return ReductionType("good-ordinary", ap)


def verify_conductor(curve: CurveData) -> Optional[bool]:
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
    """Coefficients a_1..a_n_max via multiplicativity and Hecke recursion.

    Index 0 of the returned list is unused (kept 0) so that out[n] = a_n.
    The list is a copy of a per-curve expansion that is computed once and
    extended past its end when a larger n_max is asked for.  The good
    primes it adds take a_q from a_ell, the bad ones from a_bad_prime.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
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


class Periods(NamedTuple):
    omega_plus: float     # positive real
    omega_minus: complex  # purely imaginary with positive imaginary part
    real_components: int


def periods(curve: CurveData) -> Periods:
    """Generators of the real/imaginary period lattice directions, in float64.

    Carlson's R_F on the roots of the completed-square cubic
    4x^3 + b2 x^2 + 2 b4 x + b6, for both signs of the discriminant (Cremona,
    Algorithms for Modular Elliptic Curves, ch. 3).  The roots are the closed
    form of t^3 - (c4/48) t - c6/864 = 0 at t = x + b2/12, polished by Newton
    steps on the integer cubic.
    """
    b2, b4, b6, _ = curve.b_invariants
    c4, c6 = curve.c_invariants

    def root(t):  # x = t - b2/12 after three Newton steps
        x = t - b2 / 12
        for _ in range(3):
            x -= (((4 * x + b2) * x + 2 * b4) * x + b6) / ((12 * x + 2 * b2) * x + 2 * b4)
        return x

    if curve.discriminant > 0:
        # t_k = (sqrt(c4)/6) cos((theta - 2 pi k)/3), cos(theta) = c6/c4^(3/2)
        theta = math.acos(max(-1.0, min(1.0, c6 / c4**1.5)))
        e1, e2, e3 = sorted((root(math.sqrt(c4) / 6 * math.cos((theta - 2 * math.pi * k) / 3))
                             for k in range(3)), reverse=True)
        omega_least = 2 * _carlson_rf(0, e1 - e2, e1 - e3).real
        nu = 2 * _carlson_rf(0, e1 - e3, e2 - e3).real
        components = 2
    else:
        # Cardano: the two cube roots multiply to c4, so the second is read
        # off the first, taken where c6 and the square root agree in sign
        w = c6 + math.copysign(math.sqrt(c6 * c6 - c4**3), c6)
        u = math.copysign(abs(w) ** (1 / 3), w)
        t = (u + c4 / u) / 12
        e1 = root(t)
        # the conjugate pair solves s^2 + t s + t^2 - c4/48 = 0
        ra = root(complex(-t / 2, math.sqrt(max(0.75 * t * t - c4 / 48, 0.0))))
        if not ra.imag > 0:
            raise NonConvergence("expected exactly one real root")
        omega = 2 * _carlson_rf(0, e1 - ra, e1 - ra.conjugate())
        if abs(omega.imag) > 1e-12 * abs(omega):
            raise NonConvergence("real period came out complex")
        omega_least = omega.real
        # purely imaginary generator, 2 int_(-oo)^e1 dx / sqrt(-cubic(x)):
        # R_F of the conjugate pair is real up to rounding
        nu = 2 * _carlson_rf(0, ra - e1, ra.conjugate() - e1).real
        components = 1
    omega_plus = components * omega_least
    if not omega_plus > 0:
        raise NonConvergence("real period is not positive")
    return Periods(omega_plus, complex(0, nu), components)


def _carlson_rf(x, y, z) -> complex:
    """Carlson's R_F by duplication in complex float64, for arguments off the
    negative real axis with at most one zero (Carlson, Numer. Algorithms 10
    (1995); the series is DLMF 19.36.1 through degree 7)."""
    v0 = v = [complex(x), complex(y), complex(z)]
    a0 = a = sum(v) / 3
    # duplication stops once 4^-m (3 r)^(-1/8) max|A0 - v| < |A_m| with
    # r = 2^-53: the degree-7 series then truncates below rounding
    q = (3 * 2.0**-53) ** (-1 / 8) * max(abs(a0 - t) for t in v)
    for m in range(64):
        if q < abs(a):
            break
        sx, sy, sz = map(cmath.sqrt, v)
        lam = sx * sy + sx * sz + sy * sz
        v, a, q = [(t + lam) / 4 for t in v], (a + lam) / 4, q / 4
    else:
        raise NonConvergence("R_F duplication did not converge")
    dx, dy = ((a0 - t) / (4.0**m * a) for t in v0[:2])
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44 - 5 * e2**3 / 208
            + 3 * e3 * e3 / 104 + e2 * e2 * e3 / 16) / cmath.sqrt(a)
