"""Exact modular symbols [a/p^k]^+- for one curve: Manin symbols, Hecke
validation, and table import/export.

The plus (resp. minus) symbol is the real (resp. imaginary) part of the
period integral lambda(a/m) = 2 pi i int_{a/m}^{i oo} f(z) dz, divided by
the real period Omega_plus (resp. by the imaginary-period length nu).  The
normalisation of nu is an internal convention; every downstream consumer is
insensitive to a global rescaling of the minus symbols.

Both parts are exact rationals, computed with Manin symbols on Gamma_0(N)
(Cremona, Algorithms for Modular Elliptic Curves, ch. 2; Merel, "Universal
Fourier expansions of modular forms", 1994):

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
The exact Hecke relations at p are then an independent cross-check.  An
imported table bypasses the computation, so the Lambda-side pipeline is
testable on its own.

A table holds integers only: per level one numerator array per sign,
indexed by a mod p^k, over one denominator per sign (SymbolTable).  The
Hecke check is one array identity per level and sign; the CSV format
writes each symbol as a fraction in lowest terms.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .curves import CurveData, a_ell, an_expansion, is_odd_prime, periods, prime_divisors
from .errors import ContextMismatch, IncompleteTable, NonConvergence, ParseError


class SymbolTable:
    """[a/p^k]^+- for k <= K as integer numerators over one positive
    denominator per sign.

    levels[k] is a (2, p^k) array: row 0 the plus and row 1 the minus
    numerators, indexed by a mod p^k, with 0 at the non-units; levels[0]
    holds the boundary symbol [0].  The entries are int64 when `_level`
    proves that no Hecke or gamma-fiber sum over them can wrap, Python ints
    otherwise.  A level that an imported file does not cover is None.
    """

    def __init__(self, curve_label: str, p: int, denominators: tuple, levels: list,
                 provenance: str = "computed", meta: dict = None):
        self.curve_label = curve_label
        self.p = p
        self.denominators = denominators  # (plus, minus)
        self.levels = levels
        self.provenance = provenance
        self.meta = {} if meta is None else meta  # build certification

    def has_level(self, k: int) -> bool:
        return k < len(self.levels) and self.levels[k] is not None

    @property
    def entries(self) -> int:
        """The number of symbols held."""
        return sum(len(_units(self.p, k))
                   for k in range(len(self.levels)) if self.has_level(k))


def _units(p: int, k: int):
    """The residues a mod p^k of the symbols [a/p^k]: the units, or 0 at k = 0."""
    a = np.arange(p**k)
    return a[a % p != 0] if k else a


def _level(p: int, k: int, x, scale=1):
    """Level k of a table from its values x at the residues of _units (two
    rows, scale an int or a column of ints): scale * x there, 0 elsewhere.
    int64 when every entry times p + 1 fits, so that no Hecke relation (a_p x
    against p + 1 entries, |a_p| <= 2 sqrt p) and no gamma-fiber sum (p - 1
    entries) can wrap; Python ints otherwise."""
    x, scale = np.asarray(x), np.asarray(scale, dtype=object)
    top = max(int(np.abs(x).max(initial=0)), 1) * max(abs(s) for s in scale.flat)
    if top * (p + 1) < 2**63:
        x, scale = x.astype(np.int64), scale.astype(np.int64)
    else:
        x = x.astype(object)
    level = np.zeros((2, p**k), dtype=x.dtype)
    level[:, _units(p, k)] = x * scale
    return level


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
        c, d = c % self.N, d % self.N
        inverse = self._inverse[d]
        out = self._over_one[c * inverse % self.N]
        for i in np.flatnonzero(inverse < 0):
            out[i] = self.index(int(c[i]), int(d[i]))
        return out

    def to_infinity(self, values, a, m: int):
        """{a/m, oo} for every residue in the array a at once, under the
        functionals whose values on the points fill the last axis of values.

        With q_j the denominators of the continued-fraction convergents of
        a/m, {a/m, oo} = -sum_(j >= 0) ((-1)^(j-1) q_j : q_(j-1)); the walks
        run side by side, one Euclid step per pass.
        """
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
    w = an_expansion(curve, T)[1:] / n * np.exp(-2 * np.pi * n / c)
    turn = 2j * np.pi / c
    return complex(np.sum(w * (np.exp(turn * (n * a % c)) - np.exp(turn * (-n * d % c)))))


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


# -- table construction ----------------------------------------------------------


class SymbolTableBuilder:
    """Builds the full table of symbols [a/p^k]^+- for k <= K."""

    def __init__(self, curve: CurveData, p: int):
        self.curve = curve
        self.p = p

    def build(self, K: int) -> SymbolTable:
        """Table through level K, with the certification of its scale in meta:
        per sign the Hecke primes, and the cycle that fixed the scale with its
        exact value and the float64 deviation from it."""
        curve, p = self.curve, self.p
        symbols = ManinSymbols(curve.conductor)
        per = periods(curve)
        parts = (
            ("plus", lambda z: z.real, per.omega_plus, 1),
            ("minus", lambda z: z.imag, per.omega_minus.imag, -1),
        )
        meta, values, scales = {}, [], []
        for name, part, omega, sign in parts:
            phi, primes = _eigen_functional(symbols, sign, lambda q: a_ell(curve, q))
            scale, cert = _fix_scale(curve, symbols, phi, part, omega)
            meta[name] = {"hecke_primes": primes, **cert}
            values.append(phi)
            scales.append(scale.as_integer_ratio())
        values = np.array(values)
        (n1, d1), (n2, d2) = scales
        levels = [_level(p, k, symbols.to_infinity(values, _units(p, k), p**k), [[n1], [n2]])
                  for k in range(K + 1)]
        return SymbolTable(curve.label, p, (d1, d2), levels, meta=meta)


# -- Hecke validation --------------------------------------------------------------


class HeckeReport(NamedTuple):
    passed: bool
    levels_checked: tuple
    violations: list  # (level, residue, side, lhs, rhs)

    def __str__(self):
        if self.passed:
            return f"Hecke relations hold exactly at levels {list(self.levels_checked)}"
        lines = [f"{len(self.violations)} Hecke violations:"]
        for lvl, a, side, lhs, rhs in self.violations[:10]:
            lines.append(f"  level {lvl}, residue {a}, {side}: {lhs} != {rhs}")
        return "\n".join(lines)


def validate_hecke(table: SymbolTable, p: int, max_level: int, a_p: int) -> HeckeReport:
    """Re-prove a_p [a/p^n] = [a/p^(n-1)] + sum_k [(a + k p^n)/p^(n+1)] exactly.

    Runs over every unit residue at levels 1..max_level; needs the table
    complete through max_level + 1.  Each sign is checked on its numerators,
    one array identity per level; violations are reported as fractions.
    """
    if table.p != p:
        raise ContextMismatch(f"table is for p = {table.p}, not {p}")
    for k in range(0, max_level + 2):
        if not table.has_level(k):
            raise IncompleteTable(f"table missing level {k}")
    violations = []
    for n in range(1, max_level + 1):
        mn = p**n
        low, x, high = table.levels[n - 1], table.levels[n], table.levels[n + 1]
        if abs(a_p) > p + 1:
            x = x.astype(object)  # outside the bound of _level
        lhs = a_p * x
        rhs = np.tile(low, (1, p)) + high.reshape(2, p, mn).sum(axis=1)
        bad = lhs != rhs
        bad[:, ::p] = False  # the non-units
        for a, s in np.argwhere(bad.T):
            den = table.denominators[s]
            violations.append((n, int(a), ("plus", "minus")[s],
                               Fraction(int(lhs[s, a]), den), Fraction(int(rhs[s, a]), den)))
    return HeckeReport(not violations, tuple(range(1, max_level + 1)), violations)


# -- persistence -------------------------------------------------------------------


def export_table(table: SymbolTable, path) -> None:
    """One row k, a, plus numerator, denominator, minus numerator, denominator
    per symbol, by level and residue, each fraction in lowest terms."""
    dens = np.array([[d] for d in table.denominators], dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([table.curve_label, table.p])
        for k, level in enumerate(table.levels):
            if level is None:
                continue
            a = _units(table.p, k)
            nums = level[:, a].astype(object)
            g = np.gcd(nums, dens)
            (pn, mn), (pd, md) = (nums // g).tolist(), (dens // g).tolist()
            writer.writerows(zip([k] * len(a), a.tolist(), pn, pd, mn, md))


def import_table(path, expect_curve=None, expect_p=None) -> SymbolTable:
    """A table from the CSV format of export_table.  The fractions may come in
    any form; each sign is brought to the lcm of its reduced denominators.
    A level is kept when its rows cover every unit residue."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != 2:
        raise ParseError("expected header 'curve,p'", line=1)
    label = rows[0][0]
    try:
        p = int(rows[0][1])
    except ValueError:
        raise ParseError(f"bad prime {rows[0][1]!r}", line=1) from None
    if not is_odd_prime(p):
        raise ParseError(f"{p} is not an odd prime", line=1)
    if expect_curve is not None and label != expect_curve:
        raise ContextMismatch(f"table is for {label!r}, expected {expect_curve!r}")
    if expect_p is not None and p != expect_p:
        raise ContextMismatch(f"table is for p = {p}, expected {expect_p}")
    found = {}  # k -> {a mod p^k: ((plus num, den), (minus num, den))}, reduced
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=i)
        try:
            k, a, pn, pd, mn_, md = (int(v) for v in row)
        except ValueError:
            raise ParseError(f"non-integer field in {row}", line=i) from None
        if pd == 0 or md == 0:
            raise ParseError("zero denominator", line=i)
        if k < 0:
            raise ParseError(f"negative level {k}", line=i)
        # level k has p^(k-1) * (p-1) rows; p^(k-1) >= 2^(k-1) bounds a huge k
        # before any power of p is built
        if k and (k - 1 > len(rows).bit_length() or p ** (k - 1) * (p - 1) >= len(rows)):
            raise ParseError(
                f"level {k} needs {p}^{k - 1}*{p - 1} rows, the file has {len(rows) - 1}",
                line=i,
            )
        if k and a % p == 0:
            raise ParseError(f"residue {a} is not a unit mod {p}", line=i)
        held = found.setdefault(k, {})
        if a % p**k in held:
            raise ParseError(f"second row for [{a}/{p}^{k}]", line=i)
        held[a % p**k] = (_lowest(pn, pd), _lowest(mn_, md))
    dens = tuple(math.lcm(*(v[s][1] for held in found.values() for v in held.values()))
                 for s in (0, 1))
    levels = [None] * (max(found, default=0) + 1)
    for k, held in found.items():
        if len(held) != (p**k - p ** (k - 1) if k else 1):
            continue  # a unit residue has no row
        signs = zip(*(held[r] for r in _units(p, k).tolist()))
        nums = [[n * (den // d) for n, d in col] for col, den in zip(signs, dens)]
        levels[k] = _level(p, k, np.array(nums, dtype=object))
    return SymbolTable(label, p, dens, levels, provenance="imported")


def _lowest(n: int, d: int):
    """n/d in lowest terms with d > 0."""
    g = math.gcd(n, d) * (1 if d > 0 else -1)
    return n // g, d // g
