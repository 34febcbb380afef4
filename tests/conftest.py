import math
import os
import tempfile
import time
from fractions import Fraction
from itertools import accumulate, zip_longest

import mpmath
import numpy as np
import pytest

from signedlp.curves import Periods, a_ell, an_expansion, ingest_curve
from signedlp.errors import NonConvergence
from signedlp.lambda_ring import _mul
from signedlp.modsym import SymbolTableBuilder, export_table, import_table
from signedlp.theta import build_theta

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CURVES = os.path.join(ROOT, "curves")


def curve_path(label):
    return os.path.join(CURVES, f"{label}.json")


class TableStore:
    """Session-wide cache of symbol tables and theta sequences."""

    def __init__(self):
        self._curves = {}
        self._tables = {}
        self._thetas = {}
        self.build_seconds = {}

    def curve(self, label):
        if label not in self._curves:
            self._curves[label] = ingest_curve(curve_path(label))
        return self._curves[label]

    def table(self, label, p, K):
        key = (label, p, K)
        if key not in self._tables:
            t0 = time.time()
            self._tables[key] = SymbolTableBuilder(self.curve(label), p).build(K)
            self.build_seconds[key] = time.time() - t0
        return self._tables[key]

    def thetas(self, label, p, n_max):
        key = (label, p, n_max)
        if key not in self._thetas:
            table = self.table(label, p, n_max + 1)
            self._thetas[key] = {n: build_theta(table, n) for n in range(n_max + 1)}
        return self._thetas[key]

    def ap(self, label, p):
        return a_ell(self.curve(label), p)


def table_keys(p, K):
    """(k, a) of every symbol [a/p^k] through level K."""
    return [(0, 0)] + [(k, a) for k in range(1, K + 1) for a in range(1, p**k) if a % p]


def synthetic_table(p, plus, label="synthetic"):
    """The table of the plus symbols {(k, a): Fraction}, minus symbols 0,
    read through import_table."""
    rows = [f"{label},{p}"]
    for (k, a), v in sorted(plus.items()):
        v = Fraction(v)
        rows.append(f"{k},{a},{v.numerator},{v.denominator},0,1")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        return import_table(path)


def symbol(table, k, a, sign=0):
    """[a/p^k]^+ (sign 0) or [a/p^k]^- (sign 1) as a Fraction."""
    return Fraction(table.levels[k][sign][a % table.p**k], table.denominators[sign])


def exported(table):
    """The CSV export of a table, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        export_table(table, path)
        with open(path, newline="") as fh:
            return fh.read()


def smoothed_l_sum(curve, t):
    """S(t) = sum (a_n/n) e^(-2 pi n t/sqrt N) to float64 accuracy; for every
    t > 0, L(E, 1) = S(t) - eps S(1/t) with eps the Fricke sign."""
    root = math.sqrt(curve.conductor)
    T = int(10 * root / t) + 50
    n = np.arange(1, T + 1)
    return float(np.sum(an_expansion(curve, T)[1:] / n * np.exp(-2 * np.pi * n * t / root)))


def x_power(k):
    """X^k as a residue list, in any context."""
    return [0] * k + [1]


def x_product(ctx, *factors):
    """The product of residue lists in ctx, as a residue list; [1] for none."""
    out = [1]
    for F in factors:
        out = ctx.residues(_mul(out, F, ctx.modulus))
    return out


def omega(ctx, n):
    """omega_n = (1+X)^(p^n) - 1 = X * prod_{1<=i<=n} Phi_i, in X."""
    coeffs = [math.comb(ctx.prime**n, k) for k in range(ctx.prime**n + 1)]
    coeffs[0] -= 1
    return ctx.residues(coeffs)


def y_element(F):
    """F in X, a residue list or a list of integers a_k, as a Y-vector: the
    exact Y-coefficients of sum a_k (Y - 1)^k, Y = 1 + X, one per
    X-coefficient of F, by Horner's rule in Y.  Residues are read as the
    integers they are."""
    y = []
    for a in reversed(F):
        y = [u - v for u, v in zip([0, *y], [*y, 0])]
        y[0] += a
    return y


def y_times_phi(y, levels, p):
    """The Y-vector y times the product of the Phi_k over k in levels,
    exactly, with Phi_0 = Y - 1 and Phi_k = sum_{i<p} Y^(i p^(k-1)); so
    levels 0..n give omega_n = Y^(p^n) - 1."""
    for k in levels:
        terms = [(0, -1), (1, 1)] if k == 0 else [(i * p ** (k - 1), 1) for i in range(p)]
        out = [0] * (len(y) + terms[-1][0])
        for shift, c in terms:
            for j, a in enumerate(y, shift):
                out[j] += c * a
        y = out
    return y


def y_sum(*vectors):
    """The sum of Y-vectors of any lengths, as long as the longest."""
    return [sum(column) for column in zip_longest(*vectors, fillvalue=0)]


def stripped(y):
    """The Y-vector y without its trailing zeros."""
    y = list(y)
    while y and not y[-1]:
        y.pop()
    return y


def x_by_division(y, n, ctx):
    """The first n X-coefficients of the Y-vector y, a residue list in ctx,
    by n successive divisions by Y - 1: each remainder is the sum of the
    coefficients and each quotient holds their suffix sums, so every
    X-coefficient costs one pass over y."""
    mod, out = ctx.modulus, []
    while y and len(out) < n:
        out.append(sum(y) % mod)
        y = [c % mod for c in accumulate(y[:0:-1])][::-1]
    return ctx.residues(out)


def x_element(y, ctx):
    """The Y-vector y in X, a residue list in ctx: every X-coefficient, by
    the division reference."""
    return x_by_division(y, len(y), ctx)


def combination(ctx, *terms):
    """sum of c * F over the pairs (c, F) in terms, F residue lists in ctx,
    added as coefficient lists."""
    coeffs = [0] * max(len(F) for _, F in terms)
    for c, F in terms:
        for i, a in enumerate(F):
            coeffs[i] += c * a
    return ctx.residues(coeffs)


def omega_signed(ctx, n, parity):
    """X times the product of the Phi_i, 1 <= i <= n, with i of the given parity."""
    start = 2 if parity == "even" else 1
    return x_product(ctx, x_power(1), *(ctx.phi(i) for i in range(start, n + 1, 2)))


def mu_lambda_of(pair):
    """(mu of each component, lambda of each component) of a signed pair."""
    return (tuple(c.invariants.mu for c in pair),
            tuple(c.invariants.lam for c in pair))


def ideal_to_lambda(ideal, ctx):
    """The generator p^a X^b prod Phi_n^(e_n) of a FactoredIdeal, a residue
    list in ctx."""
    return x_product(ctx, ctx.residues([ctx.prime**ideal.p_exp]), x_power(ideal.x_exp),
                     *(ctx.phi(n) for n, b in ideal.phi_exps for _ in range(b)))


def reference_periods(curve, digits: int = 30) -> Periods:
    """Generators of the real/imaginary period lattice directions, in mpmath
    at digits + 10 working digits: the reference for the float64 periods.

    Uses Carlson's R_F (an AGM-type duplication iteration) on the roots of
    the completed-square cubic 4x^3 + b2 x^2 + 2 b4 x + b6, for both signs
    of the discriminant (Cremona, Algorithms for Modular Elliptic Curves, ch. 3).
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
            # purely imaginary generator, 2 int_(-oo)^e1 dx / sqrt(-cubic(x)):
            # R_F of the conjugate pair is real up to rounding
            nu = mpmath.re(2 * mpmath.elliprf(0, ra - e1, rb - e1))
            components = 1
        omega_plus = components * omega_least
        if omega_plus <= 0:
            raise NonConvergence("real period is not positive")
        return Periods(
            omega_plus=+omega_plus,
            omega_minus=mpmath.mpc(0, +nu),
            real_components=components,
        )


def period_integral_oracle(curve, digits: int = 25):
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


@pytest.fixture(scope="session")
def store():
    return TableStore()


ACCEPTANCE_LINES = []


def record_acceptance(number, passed, message):
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {message}"
    )


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
