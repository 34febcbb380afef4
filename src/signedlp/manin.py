"""The Manin-symbol computation behind a symbol table: [a/p^k]^+- exactly,
up to one rational scale per sign.

Cremona, Algorithms for Modular Elliptic Curves, ch. 2; Merel, "Universal
Fourier expansions of modular forms", 1994:

* the Manin symbols (c:d) in P^1(Z/NZ), modulo the two-term, three-term
  and star relations of each sign;
* the eigen-functional phi+- cut out by T_q - a_q for primes q not dividing
  N, with Merel's Heilbronn matrices, adding primes until the kernel is a
  line;
* [a/p^k]+- as phi+-({a/p^k, oo}), a sum over the continued-fraction
  convergents of a/p^k.

The only numerics fix one rational scale per sign: the float64 period of
one closed cycle {0, gamma 0}, divided by Omega_plus or nu, is recognized as
a rational of denominator at most 10^4 and confirmed on a second cycle.

This is the package's only user of numpy.  modsym.SymbolTableBuilder
imports this module when it builds, so a report that reads its table from
a file loads neither it nor numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .curves import CurveData, a_bad_prime, an_expansion, prime_divisors
from .errors import NonConvergence


# -- Manin symbols ------------------------------------------------------------------


class ManinSymbols:
    """P^1(Z/NZ): the Manin symbols (c:d) of Gamma_0(N).

    (c:d) stands for the path g{0, oo} = {b/d, a/c} of any g = (a b; c d) in
    SL_2(Z) with bottom row (c, d) mod N.  Each point is kept in the
    canonical form (g, d) with g = gcd(c, N) and d least under the units
    that fix g; `index` maps any pair coprime to N onto its position, and
    `indices` does so for arrays of pairs through (c:d) = (c/d : 1) when d
    is a unit.  S, star and R hold the images of every point under the maps
    behind the relations: S(c:d) = (-d:c), star(c:d) = (-c:d) and
    R(c:d) = (c+d:-c).
    """

    def __init__(self, N: int):
        self.N = N
        self.points = [(0, 1)] + [
            (g, d)
            for g in range(1, N) if N % g == 0
            for d in range(N)
            if math.gcd(math.gcd(g, d), N) == 1 and self._normalize(g, d) == (g, d)
        ]
        self._index = {pt: i for i, pt in enumerate(self.points)}
        units = [d for d in range(N) if math.gcd(d, N) == 1]
        self._inverse = np.full(N, -1, dtype=np.int64)
        self._inverse[units] = [pow(d, -1, N) for d in units]
        self._over_one = np.array([self.index(c, 1) for c in range(N)])
        self.S = [self.index(-d, c) for c, d in self.points]
        self.star = [self.index(-c, d) for c, d in self.points]
        self.R = [self.index(c + d, -c) for c, d in self.points]

    def _normalize(self, c: int, d: int):
        N = self.N
        g = math.gcd(c, N)
        if g == N:
            return (0, 1)
        n1 = N // g
        s = pow(c // g, -1, n1)
        while math.gcd(s, N) != 1:
            s += n1
        d = d * s % N
        return g, min(d * t % N for t in range(1, N, n1) if math.gcd(t, N) == 1)

    def index(self, c: int, d: int) -> int:
        key = (c % self.N, d % self.N)
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = self._index[self._normalize(*key)]
        return i

    def indices(self, c, d):
        N = self.N
        c, d = c % N, d % N
        inverse = self._inverse[d]
        out = self._over_one[c * inverse % N]
        # the pairs whose d is no unit go through `index`, once per distinct pair
        rest = np.flatnonzero(inverse < 0)
        pairs, back = np.unique(c[rest] * N + d[rest], return_inverse=True)
        found = [self.index(*divmod(pair, N)) for pair in pairs.tolist()]
        out[rest] = np.array(found, dtype=out.dtype)[back]
        return out

    def to_infinity(self, values, a, m: int):
        """{a/m, oo} for every residue in the array a at once, under the
        functionals whose values on the points fill the last axis of values.

        With q_j the denominators of the continued-fraction convergents of
        a/m, {a/m, oo} = -sum_(j >= 0) ((-1)^(j-1) q_j : q_(j-1)); the walks
        run side by side, one Euclid step per pass.
        """
        values = np.asarray(values)
        num = np.asarray(a, dtype=np.int64) % m
        den = np.full_like(num, m)
        q2, q1 = np.ones_like(num), np.zeros_like(num)
        total = np.zeros(values.shape[:-1] + num.shape, dtype=values.dtype)
        s = -1
        while (live := np.flatnonzero(den)).size:
            t = num[live] // den[live]
            q2[live], q1[live] = q1[live], t * q1[live] + q2[live]
            total[..., live] -= values[..., self.indices(s * q1[live], q2[live])]
            s = -s
            num[live], den[live] = den[live], num[live] - t * den[live]
        return total


def _quotient(symbols: ManinSymbols, sign: int):
    """One sign-quotient of the Manin symbols: x + S x = 0, x = sign * star x
    and x + R x + R^2 x = 0.

    Returns (rep, coef, expand, free): point i equals coef[i] times the
    representative rep[i]; expand(r) writes a representative as a combination
    {free point: coefficient} of the free ones, the basis of the quotient.
    The three-term relations are eliminated sparsely, on unit pivots where
    there is one, so the coordinates stay integral on every fixture.
    """
    S, star, R = symbols.S, symbols.star, symbols.R
    n = len(symbols.points)
    rep, coef = [None] * n, [0] * n
    for i in range(n):
        if rep[i] is not None:
            continue
        orbit, vanish = {i: 1}, False
        for j, c in ((S[i], -1), (star[i], sign), (S[star[i]], -sign)):
            vanish |= orbit.setdefault(j, c) != c
        for j, c in orbit.items():
            rep[j], coef[j] = i, 0 if vanish else c
    # eliminated representative -> its expression in the representatives not
    # (yet) eliminated, kept reduced; users[v]: the expressions that hold v
    pivots, users = {}, {}
    for i in range(n):
        if i > R[i] or i > R[R[i]]:
            continue  # one relation per R-orbit
        rel = {}
        for j in (i, R[i], R[R[i]]):
            if coef[j]:
                rel[rep[j]] = rel.get(rep[j], 0) + coef[j]
        for v in [v for v in rel if v in pivots]:
            w = rel.pop(v)
            for u, t in pivots[v].items():
                rel[u] = rel.get(u, 0) + w * t
        rel = {v: w for v, w in rel.items() if w}
        if not rel:
            continue
        x = min(rel, key=lambda v: (abs(rel[v]) != 1, v))
        c = rel.pop(x)
        expr = {v: -w * c if c in (1, -1) else Fraction(-w, c) for v, w in rel.items()}
        for y in users.pop(x, ()):
            held = pivots[y]
            w = held.pop(x, 0)
            for u, t in expr.items() if w else ():
                held[u] = held.get(u, 0) + w * t
                if held[u]:
                    users.setdefault(u, set()).add(y)
                else:
                    del held[u]
        pivots[x] = expr
        for u in expr:
            users.setdefault(u, set()).add(x)
    free = [i for i in range(n) if rep[i] == i and coef[i] and i not in pivots]
    return rep, coef, lambda r: pivots.get(r, {r: 1}), free


def _heilbronn(n: int):
    """Merel's matrices (a b; c d) with a > b >= 0, d > c >= 0, ad - bc = n,
    through which T_n acts on Manin symbols: (u:v) -> sum (ua + vc : ub + vd)."""
    out = []
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            bc = a * d - n
            if bc == 0:
                out += [(a, b, 0, d) for b in range(a)]
                out += [(a, 0, c, d) for c in range(1, d)]
            elif bc > 0:
                out += [(a, bc // c, c, d) for c in range(1, d)
                        if bc % c == 0 and bc // c < a]
    return out


# primes below 2^31: entries and products of two stay inside int64
_MODULI = (2**31 - 1, 2**31 - 19, 2**31 - 61, 2**31 - 69)
# largest Hecke prime tried before the eigenspace is declared not to settle
_MAX_HECKE_PRIME = 100


def _nullspace_mod(rows, P: int):
    """A basis of {x : rows x = 0} over F_P, by row reduction (int64 numpy)."""
    B = rows % P
    pivots = []
    for col in range(B.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(B[r:, col])
        if not len(nz):
            continue
        B[[r, r + nz[0]]] = B[[r + nz[0], r]]
        B[r] = B[r] * pow(int(B[r, col]), -1, P) % P
        hit = np.flatnonzero(B[:, col])
        hit = hit[hit != r]
        # rows at and below r vanish left of col, so the update starts there
        B[hit, col:] = (B[hit, col:] - np.outer(B[hit, col], B[r, col:])) % P
        pivots.append(col)
    out = []
    for col in sorted(set(range(B.shape[1])) - set(pivots)):
        x = np.zeros(B.shape[1], dtype=np.int64)
        x[col] = 1
        x[pivots] = -B[: len(pivots), col] % P
        out.append(x)
    return out


def _rational(x: int, M: int):
    """n/d with |n|, d <= sqrt(M/2) and n = d x mod M, or None."""
    bound = math.isqrt(M // 2)
    r0, r1, s0, s1 = M, x % M, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(s1, M) != 1:
        return None
    return Fraction(r1, s1)


def _eigen_functional(symbols: ManinSymbols, sign: int, a_of):
    """The functional phi on one sign-quotient with phi o T_q = a_q phi for
    the primes q not dividing N, as exact values on every point, and the
    primes q it took for the kernel of the T_q - a_q to become a line.

    The kernel is found modulo a 31-bit prime, lifted by rational
    reconstruction (with CRT over further primes if needed), and then proved
    exact: phi o T_q = a_q phi is re-checked in rational arithmetic, and a
    kernel of dimension one modulo a prime has dimension at most one over Q.
    """
    rep, coef, expand, free = _quotient(symbols, sign)
    pos = {f: k for k, f in enumerate(free)}

    def coordinates(j):
        """Point j in the free basis: {position in free: coefficient}."""
        return {pos[u]: coef[j] * t for u, t in expand(rep[j]).items()} if coef[j] else {}

    def column(q, f):
        """T_q of the free symbol f in the free basis."""
        c, d = symbols.points[f]
        col = {}
        for a, b, cc, dd in _heilbronn(q):
            for g, t in coordinates(symbols.index(c * a + d * cc, c * b + d * dd)).items():
                col[g] = col.get(g, 0) + t
        return col

    hecke = []  # (q, a_q, the columns of T_q)

    def kernel_mod(P):
        rows = np.zeros((len(hecke) * len(free), len(free)), dtype=np.int64)
        for h, (q, a_q, cols) in enumerate(hecke):
            for g, col in enumerate(cols):
                row = rows[h * len(free) + g]
                for f, t in col.items():
                    row[f] = t.numerator * pow(t.denominator, -1, P) % P
                row[g] = (row[g] - a_q) % P
        return _nullspace_mod(rows, P)

    primes = (q for q in range(2, _MAX_HECKE_PRIME + 1)
              if symbols.N % q and prime_divisors(q) == [q])
    kernel = []
    while len(kernel) != 1:
        q = next(primes, None)
        if q is None:
            raise NonConvergence(
                f"the T_q - a_q kernel did not become a line by q = {_MAX_HECKE_PRIME}")
        hecke.append((q, a_of(q), [column(q, f) for f in free]))
        kernel = kernel_mod(_MODULI[0])
        if not kernel:
            raise NonConvergence(f"no eigenvector of T_q with eigenvalue a_q, q <= {q}")
    j0 = int(np.flatnonzero(kernel[0])[0])
    residues, modulus = [0] * len(free), 1
    for P in _MODULI:
        if P != _MODULI[0]:
            kernel = kernel_mod(P)
            if len(kernel) != 1 or not kernel[0][j0]:
                continue  # P divides a minor: no information here
        x = [int(v) for v in kernel[0] * pow(int(kernel[0][j0]), -1, P) % P]
        k = pow(modulus, -1, P)
        residues = [r + modulus * ((v - r) * k % P) for r, v in zip(residues, x)]
        modulus *= P
        phi = [_rational(r, modulus) for r in residues]
        if None in phi:
            continue
        den = math.lcm(*(v.denominator for v in phi))
        phi = [int(v * den) for v in phi]
        if all(
            sum(t * phi[f] for f, t in col.items()) == a_q * phi[g]
            for _, a_q, cols in hecke for g, col in enumerate(cols)
        ):
            values = [sum(t * phi[f] for f, t in coordinates(i).items())
                      for i in range(len(symbols.points))]
            den = math.lcm(*(Fraction(v).denominator for v in values))
            values = [int(v * den) for v in values]
            # int64 while a walk's sum (a few dozen terms) cannot wrap
            dtype = np.int64 if max(map(abs, values)) < 2**50 else object
            return np.array(values, dtype=dtype), [q for q, _, _ in hecke]
    raise NonConvergence("the Hecke eigenvector did not lift to Q")


# -- the scale of each sign -----------------------------------------------------------


def _cycles(symbols: ManinSymbols, values):
    """(gamma, exact value of {0, gamma 0} = {0, b/d}) for gamma = (a b; c d)
    in Gamma_0(N) where the functional is nonzero, by increasing c = N, 2N,
    ... and d."""
    c = symbols.N
    while True:
        for d in range(1, c):
            if math.gcd(d, c) == 1:
                a = pow(d, -1, c)
                b = (a * d - 1) // c
                exact = values[symbols.index(0, 1)] - symbols.to_infinity(values, [b], d)[0]
                if exact:
                    yield (a, b, c, d), int(exact)
        c += symbols.N


def _cycle_period(curve: CurveData, a: int, c: int, d: int) -> complex:
    """2 pi i int f(z) dz from z0 = (-d + i)/c to gamma z0 = (a + i)/c, that
    is F(gamma z0) - F(z0) with F = sum (a_n/n) q^n, in float64.  Both ends
    have height 1/c; 6.3 c terms leave a tail below e^-39."""
    T = math.ceil(6.3 * c)
    n = np.arange(1, T + 1)
    w = np.array(an_expansion(curve, T, _a_ell)[1:]) / n * np.exp(-2 * np.pi * n / c)
    turn = 2j * np.pi / c
    return complex(np.sum(w * (np.exp(turn * (n * a % c)) - np.exp(turn * (-n * d % c)))))


def _a_ell(curve: CurveData, ell: int) -> int:
    """ell + 1 - #E~(F_ell): the exhaustive count of curves.a_ell, vectorized
    over x.  A scale cycle at c = N expands to 6.3 N terms, so at N = 5077 it
    counts every prime below 32,000, in about a sixth of the time that
    curves.a_ell takes."""
    if ell == 2:
        return a_bad_prime(curve, 2)  # no completed square mod 2
    b2, b4, b6, _ = curve.b_invariants
    # y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over F_ell; the partial values stay
    # below 6 ell^2, inside int64 for ell < 10^9
    x = np.arange(ell, dtype=np.int64)
    rhs = (4 * x + b2 % ell) * x
    rhs += 2 * b4 % ell
    rhs %= ell
    rhs *= x
    rhs += b6 % ell
    rhs %= ell
    sq = x[1 : ell // 2 + 1]
    chi = np.full(ell, -1, dtype=np.int8)
    chi[sq * sq % ell] = 1
    chi[0] = 0
    return -int(chi[rhs].sum(dtype=np.int64))


def _recognize(x: float) -> Fraction:
    q = Fraction(x).limit_denominator(10**4)
    if abs(x - q) > 1e-9:
        raise NonConvergence(f"cycle period {x!r} is no rational of denominator <= 10^4")
    return q


def _fix_scale(curve: CurveData, symbols: ManinSymbols, values, part, omega: float):
    """The rational s with [r]^+- = s * values on paths, and its certificate.

    The period of a closed cycle {0, gamma 0} divided by omega must be a
    rational of small denominator: it fixes s on the first cycle where the
    exact functional is nonzero, and the second such cycle confirms it.
    """
    cycles = _cycles(symbols, values)
    ((a, b, c, d), exact), ((a2, b2, c2, d2), exact2) = next(cycles), next(cycles)
    x = part(_cycle_period(curve, a, c, d)) / omega
    value = _recognize(x)
    x2 = part(_cycle_period(curve, a2, c2, d2)) / omega
    if _recognize(x2) != value / exact * exact2:
        raise NonConvergence(
            f"cycle {[[a2, b2], [c2, d2]]} reads {x2!r}, not {value / exact * exact2}"
        )
    return value / exact, {
        "cycle": [[a, b], [c, d]],
        "value": str(value),
        "deviation": float(f"{abs(x - value):.1e}"),
    }
