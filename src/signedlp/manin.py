"""The Manin-symbol computation behind a symbol table: [a/p^k]^+- exactly,
up to one rational scale per sign.

Cremona, Algorithms for Modular Elliptic Curves, ch. 2; Merel, "Universal
Fourier expansions of modular forms", 1994:

* the Manin symbols (c:d) in P^1(Z/NZ), modulo the two-term, three-term
  and star relations of each sign, eliminated over F_P;
* the eigen-functional phi+- cut out by T_q - a_q for primes q not dividing
  N, with Merel's Heilbronn matrices, adding primes until the kernel is a
  line, lifted from F_P to Q and certified exactly on every point;
* [a/p^k]+- as phi+-({a/p^k, oo}), a sum over the continued-fraction
  convergents of a/p^k.

The only numerics fix one rational scale per sign: the float64 period of
one closed cycle {0, gamma 0}, divided by Omega_plus or nu, is recognized as
a rational of denominator at most 10^4 and confirmed on a second cycle.
The q-expansion behind those periods, and every a_q of a Hecke row, comes
from curves.a_ell, the one point counter.

build_table assembles the table; the float64 periods (Carlson's R_F by
duplication on the roots of the cubic, cross-checked in the tests against a
40-digit reference and against direct numerical integration) are computed
here too, since a build and curve-info are their only callers.

Standard library only, in Python ints.  modsym.SymbolTableBuilder.build and
curves.periods import this module when they are called, so a report that
reads its table from the cache or a file never compiles it.
"""

from __future__ import annotations

import cmath
import math
import operator

from .curves import CurveData, Periods, _primes_in, _smallest_prime_factors, a_ell, an_expansion
from .errors import NonConvergence
from .lambda_ring import pack, unpack
from .modsym import SymbolTable


# -- Manin symbols ------------------------------------------------------------------


class ManinSymbols:
    """P^1(Z/NZ): the Manin symbols (c:d) of Gamma_0(N).

    (c:d) stands for the path g{0, oo} = {b/d, a/c} of any g = (a b; c d) in
    SL_2(Z) with bottom row (c, d) mod N.  Each point is kept in the
    canonical form (g, d) with g = gcd(c, N) and d least under the units
    that fix g; `index` maps any pair coprime to N onto its position.  S,
    star and R hold the images of every point under the maps behind the
    relations: S(c:d) = (-d:c), star(c:d) = (-c:d) and R(c:d) = (c+d:-c).
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
        # 1/d mod N at the units d, -1 elsewhere; the point (c : 1) of each c
        self._inverse = [pow(d, -1, N) if math.gcd(d, N) == 1 else -1 for d in range(N)]
        self._over_one = [self.index(c, 1) for c in range(N)]
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

    def to_infinity(self, values, residues, m: int) -> list:
        """{a/m, oo} for every a in residues, 0 <= a < m, under each
        functional, given by its values on the points: one list of walks per
        functional.

        With q_j the denominators of the continued-fraction convergents of
        a/m, {a/m, oo} = -sum_(j >= 0) ((-1)^(j-1) q_j : q_(j-1)).  While
        q_(j-1) is a unit mod N, the term is (+-u : 1) with u = q_j/q_(j-1)
        = t_j + q_(j-2)/q_(j-1) mod N, so a Euclid step is one sum mod N, a
        lookup of the term and one of 1/u; past a q_j that is no unit, the
        pair (q_j, q_(j-1)) mod N is carried up to a unit multiple until one
        is again.  The functionals' values are packed into one int per
        point, in slots wide enough for any walk's sum.
        """
        N, index, inverse = self.N, self.index, self._inverse
        # a walk has at most log_phi(m) + 2 <= 2 bits(m) + 2 terms
        bound = (2 * m.bit_length() + 2) * max(abs(v) for vs in values for v in vs)
        width = bound.bit_length() + 1
        packed = [sum(v << width * k for k, v in enumerate(vs)) for vs in zip(*values)]
        plus = [packed[i] for i in self._over_one]  # (c : 1) for c mod N
        minus = plus[:1] + plus[:0:-1]  # (-c : 1)
        first = packed[index(-1, 0)]  # the j = 0 term, after t_0 = 0
        walks = []
        for a in residues:
            total = -first
            # s = q_(j-1)/q_j while q_j is a unit, else -1 and (c, d) = (q_j, q_(j-1));
            # the term is (e q_j : q_(j-1)) with e = +1 at odd j, -1 at even j
            num, den, s, c, d = m, a, 0, 0, 0
            terms, other, e = plus, minus, 1
            while den:
                t = num // den
                if s >= 0:
                    u = (t + s) % N
                    total -= terms[u]
                    s = inverse[u]
                    c, d = u, 1
                else:
                    c, d = (t * c + d) % N, c
                    total -= packed[index(e * c, d)]
                    s = d * inverse[c] % N if inverse[c] >= 0 else -1
                num, den = den, num - t * den
                terms, other, e = other, terms, -e
            walks.append(total)
        half, mask = 1 << (width - 1), (1 << width) - 1
        columns = []
        for _ in values[1:]:
            low = [((x + half) & mask) - half for x in walks]
            walks = [(x - v) >> width for x, v in zip(walks, low)]
            columns.append(low)
        columns.append(walks)
        return columns


def _quotient(symbols: ManinSymbols, sign: int, P: int):
    """One sign-quotient of the Manin symbols over F_P: x + S x = 0,
    x = sign * star x and x + R x + R^2 x = 0.

    Returns (rep, coef, expand, free): point i equals coef[i] (0 or +-1)
    times the representative rep[i]; expand(r) writes a representative as a
    combination {free point: coefficient mod P} of the free ones, the basis
    of the quotient.  The three-term relations are eliminated sparsely, each
    on its largest representative, with the pivot inverted mod P; a later
    relation's pivot is substituted back into the expressions that hold it.
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
        rel = {v: w % P for v, w in rel.items() if w % P}
        if not rel:
            continue
        x = max(rel)
        inverse = -pow(rel.pop(x), -1, P)
        expr = {v: w * inverse % P for v, w in rel.items()}
        for y in users.pop(x, ()):
            held = pivots[y]
            w = held.pop(x, 0)
            for u, t in expr.items() if w else ():
                held[u] = (held.get(u, 0) + w * t) % P
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


# 31-bit primes: one usually carries the rational reconstruction of a
# functional, and a row entry of _nullspace_mod stays within a few bits of
# the square of one
_MODULI = (2**31 - 1, 2**31 - 19, 2**31 - 61, 2**31 - 69)
# largest Hecke prime tried before the eigenspace is declared not to settle
_MAX_HECKE_PRIME = 100


def _nullspace_mod(rows, P: int) -> list:
    """A basis of {x : rows x = 0} over F_P, for rows given as lists of ints
    of one length n: for each column f without a pivot, the x with x_f = 1
    and 0 at the other such columns.

    Each row is one int holding entry j in the w-bit slot j.  Column by
    column, a row whose lowest slot is nonzero mod P becomes the pivot,
    scaled to 1 in front with its slots reduced, and every other row with a
    nonzero c there takes row += (P - c) pivot, one integer product.  Slots
    are reduced only where they are read: a row takes at most n updates,
    each adding less than P^2 to a slot, so w bits never carry.  After each
    column every live row is shifted down one slot.  The kernel then comes
    from back-substitution on the pivot rows.
    """
    n = len(rows[0]) if rows else 0
    size = ((n + 1) * P * P).bit_length() // 8 + 1  # bytes per slot
    width, low = 8 * size, (1 << 8 * size) - 1
    live = [pack([v % P for v in row], size) for row in rows]
    pivots = {}  # column -> its pivot row from that column on, reduced
    for col in range(n):
        i = next((i for i, row in enumerate(live) if (row & low) % P), None)
        if i is not None:
            entries = unpack(live.pop(i).to_bytes((n - col) * size, "little"), size, P)
            inverse = pow(entries[0], -1, P)
            entries = pivots[col] = [v * inverse % P for v in entries]
            pivot = pack(entries, size)
            live = [row + (P - c) * pivot if (c := (row & low) % P) else row for row in live]
        live = [row >> width for row in live]
    out = []
    for f in range(n):
        if f in pivots:
            continue
        x = [0] * (f + 1)
        x[f] = 1
        # the pivot columns beyond f take 0
        for col in range(f - 1, -1, -1):
            if col in pivots:
                x[col] = -sum(map(operator.mul, pivots[col][1 : f + 1 - col], x[col + 1 :])) % P
        out.append(x + [0] * (n - f - 1))
    return out


def _reduced(n: int, d: int) -> tuple:
    """n/d in lowest terms as (num, den) with den > 0; d != 0."""
    g = math.gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _rational(x: int, M: int):
    """n/d with |n|, d <= sqrt(M/2) and n = d x mod M, as a reduced
    (n, d) with d > 0, or None."""
    bound = math.isqrt(M // 2)
    r0, r1, s0, s1 = M, x % M, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(s1, M) != 1:
        return None
    return _reduced(r1, s1)


def _eigen_functional(curve: CurveData, symbols: ManinSymbols, sign: int):
    """The functional phi on one sign-quotient with phi o T_q = a_q phi for
    the primes q not dividing N, as exact values on every point, and the
    primes q it took for the kernel of the T_q - a_q to become a line.

    Modulo each 31-bit prime P, one quotient and the rows of T_q - a_q on
    its free symbols give the kernel, which is written as values mod P on
    every point; those are lifted by rational reconstruction, with CRT over
    further primes if needed.  The lift is certified in ints at every point
    x: x + S x = 0, x = sign star x, x + R x + R^2 x = 0 and
    phi(T_q x) = a_q phi(x) for each q used.  This is sound whatever the
    elimination did: the true functional satisfies every one of these rows,
    by Merel's theorem, and the rows imposed mod P are a subset of the rows
    checked exactly, so a kernel of dimension one mod P bounds the
    dimension over Q by one.
    """
    points, index = symbols.points, symbols.index
    S, star, R = symbols.S, symbols.star, symbols.R

    def rows_of(free, coordinates, a_q, matrices):
        """The rows of T_q - a_q on the free symbols of a quotient."""
        rows = []
        for g, f in enumerate(free):
            c, d = points[f]
            row = [0] * len(free)
            row[g] = -a_q
            for a, b, cc, dd in matrices:
                for k, t in coordinates[index(c * a + d * cc, c * b + d * dd)].items():
                    row[k] += t
            rows.append(row)
        return rows

    primes = (q for q in _primes_in(_smallest_prime_factors(_MAX_HECKE_PRIME))
              if symbols.N % q)
    hecke = []  # (q, a_q, the Heilbronn matrices of q)
    residues, modulus, j0 = [0] * len(points), 1, None
    for P in _MODULI:
        rep, coef, expand, free = _quotient(symbols, sign, P)
        pos = {f: k for k, f in enumerate(free)}
        # each point in the free basis: {position in free: coefficient}
        coordinates = [{pos[u]: c * t for u, t in expand(r).items()} if c else {}
                       for r, c in zip(rep, coef)]
        rows = [row for _, a_q, m in hecke for row in rows_of(free, coordinates, a_q, m)]
        kernel = _nullspace_mod(rows, P)
        while j0 is None and len(kernel) != 1:  # the first P decides the Hecke primes
            q = next(primes, None)
            if q is None:
                raise NonConvergence(
                    f"the T_q - a_q kernel did not become a line by q = {_MAX_HECKE_PRIME}")
            hecke.append((q, a_ell(curve, q), _heilbronn(q)))
            rows += rows_of(free, coordinates, *hecke[-1][1:])
            kernel = _nullspace_mod(rows, P)
            if not kernel:
                raise NonConvergence(f"no eigenvector of T_q with eigenvalue a_q, q <= {q}")
        if len(kernel) != 1:
            continue  # P divides a minor: no information here
        x = [sum(t * kernel[0][k] for k, t in point.items()) % P for point in coordinates]
        j0 = next(j for j, v in enumerate(x) if v) if j0 is None else j0
        if not x[j0]:
            continue  # P divides the value at j0: no information here either
        scale, k = pow(x[j0], -1, P), pow(modulus, -1, P)
        residues = [r + modulus * ((v * scale - r) * k % P) for r, v in zip(residues, x)]
        modulus *= P
        phi = [_rational(r, modulus) for r in residues]
        if None in phi:
            continue
        den = math.lcm(*(d for _, d in phi))
        phi = [n * (den // d) for n, d in phi]
        # the certificate: every relation and every Hecke row, at every point
        if all(v + phi[S[i]] == 0 and v == sign * phi[star[i]]
               and v + phi[R[i]] + phi[R[R[i]]] == 0 for i, v in enumerate(phi)) and all(
            a_q * phi[i] == sum(phi[index(c * a + d * cc, c * b + d * dd)]
                                for a, b, cc, dd in matrices)
            for _, a_q, matrices in hecke for i, (c, d) in enumerate(points)
        ):
            return phi, [q for q, _, _ in hecke]
    raise NonConvergence("the Hecke eigenvector did not lift to Q")


# -- the scale of each sign -----------------------------------------------------------


def _cycles(symbols: ManinSymbols, values):
    """(gamma, exact value of {0, gamma 0} = {0, b/d}) for gamma = (a b; c d)
    in Gamma_0(N) where the functional, given by its values on the points,
    is nonzero, by increasing c = N, 2N, ... and d."""
    c = symbols.N
    while True:
        for d in range(1, c):
            if math.gcd(d, c) == 1:
                a = pow(d, -1, c)
                b = (a * d - 1) // c
                [[walk]] = symbols.to_infinity([values], [b], d)
                exact = values[symbols.index(0, 1)] - walk
                if exact:
                    yield (a, b, c, d), exact
        c += symbols.N


def _cycle_period(curve: CurveData, a: int, c: int, d: int) -> complex:
    """2 pi i int f(z) dz from z0 = (-d + i)/c to gamma z0 = (a + i)/c, that
    is F(gamma z0) - F(z0) with F = sum (a_n/n) q^n, in float64, each part
    summed exactly.  Both ends have height 1/c; 6.3 c terms leave a tail
    below e^-39."""
    T = math.ceil(6.3 * c)
    an = an_expansion(curve, T)
    turn = 2j * math.pi / c
    root = [cmath.exp(turn * k) for k in range(c)]
    terms = [an[n] / n * math.exp(-2 * math.pi * n / c) * (root[n * a % c] - root[-n * d % c])
             for n in range(1, T + 1) if an[n]]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _recognize(x: float) -> tuple:
    """The last convergent of x with denominator at most 10^4, as a reduced
    (num, den); NonConvergence unless it lies within 1e-9 of x.  It is the
    closest such rational whenever one lies that close: by Legendre's
    theorem a rational n/d with d <= 10^4 and |x - n/d| < 1/(2 d^2) is a
    convergent, later convergents lie closer to x, and two rationals of
    denominator at most 10^4 lie at least 1e-8 apart."""
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den and q0 + (a := num // den) * q1 <= 10**4:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        num, den = den, num - a * den
    if abs(x - p1 / q1) > 1e-9:
        raise NonConvergence(f"cycle period {x!r} is no rational of denominator <= 10^4")
    return p1, q1


def _ratio_str(n: int, d: int) -> str:
    """A reduced (num, den) written as the standard library writes a rational: n, or n/d."""
    return str(n) if d == 1 else f"{n}/{d}"


def _fix_scale(curve: CurveData, symbols: ManinSymbols, values, part, omega: float):
    """The rational s with [r]^+- = s * values on paths, as a reduced
    (num, den), and its certificate.

    The period of a closed cycle {0, gamma 0} divided by omega must be a
    rational of small denominator: it fixes s on the first cycle where the
    exact functional is nonzero, and the second such cycle confirms it.
    """
    cycles = _cycles(symbols, values)
    ((a, b, c, d), exact), ((a2, b2, c2, d2), exact2) = next(cycles), next(cycles)
    x = part(_cycle_period(curve, a, c, d)) / omega
    n, den = _recognize(x)
    x2 = part(_cycle_period(curve, a2, c2, d2)) / omega
    n2, den2 = _recognize(x2)
    # the second cycle must read value / exact * exact2
    if n2 * den * exact != n * exact2 * den2:
        raise NonConvergence(
            f"cycle {[[a2, b2], [c2, d2]]} reads {x2!r}, "
            f"not {_ratio_str(*_reduced(n * exact2, den * exact))}"
        )
    return _reduced(n, den * exact), {
        "cycle": [[a, b], [c, d]],
        "value": _ratio_str(n, den),
        "deviation": float(f"{abs(x - n / den):.1e}"),
    }


# -- the table ----------------------------------------------------------------------


def build_table(curve: CurveData, p: int, K: int) -> SymbolTable:
    """The table of [a/p^k]^+- through level K, with the certification of its
    scale in meta: per sign the Hecke primes, and the cycle that fixed the
    scale with its exact value and the float64 deviation from it."""
    symbols = ManinSymbols(curve.conductor)
    per = periods(curve)
    parts = (
        ("plus", lambda z: z.real, per.omega_plus, 1),
        ("minus", lambda z: z.imag, per.omega_minus.imag, -1),
    )
    meta, functionals, scales = {}, [], []
    for name, part, omega, sign in parts:
        phi, primes = _eigen_functional(curve, symbols, sign)
        scale, cert = _fix_scale(curve, symbols, phi, part, omega)
        meta[name] = {"hecke_primes": primes, **cert}
        functionals.append(phi)
        scales.append(scale)
    (n1, d1), (n2, d2) = scales
    levels = []
    for k in range(K + 1):
        m = p**k
        half = [a for a in range(1, m // 2 + 1) if a % p] if k else [0]
        level = ([0] * m, [0] * m)
        walks = symbols.to_infinity(functionals, half, m)
        for numerators, column, n, sign in zip(level, walks, (n1, n2), (1, -1)):
            for a, v in zip(half, column):
                # {-a/m, oo} = star {a/m, oo}; for the minus sign [0] = -[0] = 0
                numerators[a] = x = n * v
                numerators[-a] = sign * x
        levels.append(level)
    return SymbolTable(curve.label, p, (d1, d2), levels, meta=meta)


# -- periods ------------------------------------------------------------------------


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
