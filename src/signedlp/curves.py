"""Elliptic curve data: ingestion, local coefficients, reduction types, periods.

Point counting is naive O(ell) per prime (vectorized with numpy), which is
plenty below ell ~ 10^6.  Periods of the real lattice come from AGM-type
iteration (Carlson symmetric integrals) and are cross-checked in the tests
against direct numerical integration.

Lattice orientation convention: Omega_plus is the least positive real
period times the number of connected components of E(R); Omega_minus is the
generator of the purely imaginary periods, taken with positive imaginary
part.  Modular-symbol integrality depends on this choice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .errors import BadReduction, NonConvergence, ParseError, SingularCurve
from .modules import RankSequence

_CURVE_FIELDS = {
    "label", "a_invariants", "conductor", "rank",
    "e_sequence", "fricke_sign", "torsion_bound",
}


@dataclass(frozen=True)
class CurveData:
    label: str
    a_invariants: tuple
    conductor: int
    rank: int
    e_sequence: RankSequence
    fricke_sign: int
    torsion_bound: int

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
    return curve_from_dict(raw)


def curve_from_dict(raw: dict) -> CurveData:
    unknown = set(raw) - _CURVE_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    for key in ("label", "a_invariants", "conductor", "rank"):
        if key not in raw:
            raise ParseError(f"missing field {key!r}")
    ai = raw["a_invariants"]
    if not (isinstance(ai, list) and len(ai) == 5 and all(isinstance(v, int) for v in ai)):
        raise ParseError("a_invariants must be five integers")
    rank = int(raw["rank"])
    e_seq = raw.get("e_sequence")
    if e_seq is None:
        e_seq = [rank]
    if not e_seq or e_seq[0] != rank:
        raise ParseError("e_sequence[0] must equal the rank")
    fricke = int(raw.get("fricke_sign", 1))
    if fricke not in (1, -1):
        raise ParseError("fricke_sign must be +1 or -1")
    curve = CurveData(
        label=str(raw["label"]),
        a_invariants=tuple(ai),
        conductor=int(raw["conductor"]),
        rank=rank,
        e_sequence=RankSequence(e_seq),
        fricke_sign=fricke,
        torsion_bound=int(raw.get("torsion_bound", 1)),
    )
    if curve.discriminant == 0:
        raise SingularCurve(f"{curve.label}: discriminant vanishes")
    return curve


# -- local point counts -----------------------------------------------------------


def a_ell(curve: CurveData, ell: int) -> int:
    """ell + 1 - #E(F_ell) by exhaustive counting, for good primes."""
    if curve.conductor % ell == 0:
        raise BadReduction(f"{ell} divides the conductor {curve.conductor}")
    if ell == 2:
        return _a2_direct(curve)
    b2, b4, b6, _ = curve.b_invariants
    # complete the square: y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_ell
    x = np.arange(ell, dtype=np.int64)
    rhs = (4 * x + b2 % ell) % ell
    rhs *= x
    rhs += 2 * b4 % ell
    rhs %= ell
    rhs *= x
    rhs += b6 % ell
    rhs %= ell
    sq = x[: ell // 2 + 1]
    is_sq = np.zeros(ell, dtype=np.int8)
    is_sq[(sq * sq) % ell] = 1
    chi = is_sq[rhs].astype(np.int64) * 2 - 1
    chi[rhs == 0] = 0
    a = -int(chi.sum())
    if a * a > 4 * ell:
        raise BadReduction(f"Hasse bound violated at {ell}: a = {a}")
    return a


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


def reduction_is_split(curve: CurveData, p: int) -> bool:
    """Multiplicative reduction at p is split iff -c6 is a square mod p."""
    _, c6 = curve.c_invariants
    val = (-c6) % p
    if p == 2:
        return val % 8 == 1
    return pow(val, (p - 1) // 2, p) == 1


def a_bad_prime(curve: CurveData, p: int) -> int:
    """a_p at a bad prime: +-1 for multiplicative reduction, 0 for additive."""
    kind = classify_reduction(curve, p).kind
    if kind == "multiplicative":
        return 1 if reduction_is_split(curve, p) else -1
    return 0


@dataclass(frozen=True)
class ReductionType:
    kind: str  # good-ordinary | good-supersingular | multiplicative | additive
    a_p: Optional[int] = None
    v_p_of_ap: Optional[int] = None  # None means a_p = 0 (infinite valuation)

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
        vp = None
        if ap != 0:
            from .padic import padic_valuation
            vp = padic_valuation(ap, p)
        # Hasse forces a_p = 0 for supersingular p >= 5, and |a_p| <= 3 at p = 3
        if not (ap == 0 or (p == 3 and ap in (3, -3))):
            raise BadReduction(f"supersingular a_p = {ap} at p = {p} violates Hasse")
        return ReductionType("good-supersingular", ap, vp)
    return ReductionType("good-ordinary", ap, 0)


def verify_conductor(curve: CurveData) -> bool:
    """Re-derive the conductor from the discriminant (odd-prime rules).

    Multiplicative primes contribute exponent 1, additive primes >= 5
    exponent 2.  Additive reduction at 2 or 3 needs the full tame/wild
    analysis and is reported as unverifiable.
    """
    disc = abs(curve.discriminant)
    n = 1
    d = disc
    for p in prime_divisors(d):
        c4, _ = curve.c_invariants
        if c4 % p != 0:
            n *= p
        elif p >= 5:
            n *= p * p
        else:
            raise NonConvergence(
                f"additive reduction at {p}: conductor exponent not implemented"
            )
    return n == curve.conductor


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


# -- q-expansion ------------------------------------------------------------------


def an_expansion(curve: CurveData, n_max: int) -> np.ndarray:
    """Coefficients a_1..a_n_max via multiplicativity and Hecke recursion.

    Index 0 of the returned array is unused (kept 0) so that out[n] = a_n.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = np.zeros(n_max + 1, dtype=np.int64)
    out[1] = 1
    spf = _smallest_prime_factors(n_max)
    prime_powers: dict = {}

    def app(p, k):
        key = (p, k)
        if key in prime_powers:
            return prime_powers[key]
        if curve.conductor % p == 0:
            val = a_bad_prime(curve, p) ** k
        else:
            ap = int(a_ell(curve, p))
            a_prev, a_cur = 1, ap
            for _ in range(k - 1):
                a_prev, a_cur = a_cur, ap * a_cur - p * a_prev
            val = a_cur
        prime_powers[key] = val
        return val

    for n in range(2, n_max + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        out[n] = app(p, k) * out[m] if m > 1 else app(p, k)
    return out


def _smallest_prime_factors(n: int) -> np.ndarray:
    spf = np.zeros(n + 1, dtype=np.int64)
    spf[1] = 1
    for i in range(2, n + 1):
        if spf[i] == 0:
            spf[i::i] = np.where(spf[i::i] == 0, i, spf[i::i])
    return spf


# -- periods ----------------------------------------------------------------------


@dataclass(frozen=True)
class Periods:
    omega_plus: object   # positive real (mpf)
    omega_minus: object  # purely imaginary with positive imaginary part (mpc)
    real_components: int


def periods(curve: CurveData, digits: int = 30) -> Periods:
    """Generators of the real/imaginary period lattice directions.

    Uses Carlson's R_F (an AGM-type duplication iteration) on the roots of
    the completed-square cubic 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    if digits < 15:
        digits = 15
    b2, b4, b6, _ = curve.b_invariants
    with mpmath.workdps(digits + 10):
        roots = mpmath.polyroots(
            [4, b2, 2 * b4, b6], maxsteps=200, extraprec=60
        )
        disc = curve.discriminant
        if disc > 0:
            es = sorted((r.real for r in roots), reverse=True)
            e1, e2, e3 = [mpmath.mpf(r) for r in es]
            omega_least = 2 * mpmath.elliprf(0, e1 - e2, e1 - e3)
            nu = 2 * mpmath.elliprf(0, e1 - e3, e2 - e3)
            components = 2
        else:
            real_roots = [r for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-digits)]
            if len(real_roots) != 1:
                raise NonConvergence("expected exactly one real root")
            e1 = real_roots[0].real
            others = [r for r in roots if r not in real_roots]
            ra, rb = others
            omega_least = 2 * mpmath.elliprf(0, e1 - ra, e1 - rb)
            if abs(omega_least.imag) > mpmath.mpf(10) ** (-digits + 2):
                raise NonConvergence("real period came out complex")
            omega_least = omega_least.real
            # purely imaginary generator: integrate where the cubic is negative
            cubic = lambda x: 4 * x**3 + b2 * x * x + 2 * b4 * x + b6
            nu = 2 * mpmath.quad(
                lambda x: 1 / mpmath.sqrt(-cubic(x)), [-mpmath.inf, e1]
            )
            if abs(mpmath.im(nu)) > mpmath.mpf(10) ** (-digits + 4) * abs(nu):
                raise NonConvergence("imaginary period came out complex")
            nu = mpmath.re(nu)
            components = 1
        omega_plus = components * omega_least
        if omega_plus <= 0:
            raise NonConvergence("real period is not positive")
        return Periods(
            omega_plus=+omega_plus,
            omega_minus=mpmath.mpc(0, +nu),
            real_components=components,
        )


def period_integral_oracle(curve: CurveData, digits: int = 25):
    """Least real period by direct quadrature; used to cross-check the AGM.

    The substitution x = e1 + t^2 removes the square-root singularity at the
    largest real root, so tanh-sinh quadrature reaches full precision.
    """
    b2, b4, b6, _ = curve.b_invariants
    with mpmath.workdps(digits + 15):
        roots = mpmath.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=60)
        e1 = max(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-digits))
        others = sorted(roots, key=lambda r: abs(r - e1))[1:]
        ra, rb = others
        integrand = lambda t: 1 / mpmath.sqrt(
            (t * t + e1 - ra) * (t * t + e1 - rb)
        )
        return 2 * mpmath.quad(integrand, [0, mpmath.inf])
