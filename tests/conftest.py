import math
import os
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest

from signedlp.curves import a_ell, an_expansion, ingest_curve
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

    def thetas(self, label, p, n_max, M=8):
        key = (label, p, n_max, M)
        if key not in self._thetas:
            table = self.table(label, p, n_max + 1)
            self._thetas[key] = {
                n: build_theta(table, n, M) for n in range(n_max + 1)
            }
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
    return Fraction(int(table.levels[k][sign, a % table.p**k]), table.denominators[sign])


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


def omega_signed(ctx, n, parity):
    """X times the product of the Phi_i, 1 <= i <= n, with i of the given parity."""
    out = ctx.x_power(1)
    for i in range(2 if parity == "even" else 1, n + 1, 2):
        out = out * ctx.phi(i)
    return out


def ideal_to_lambda(ideal, ctx):
    """The generator p^a X^b prod Phi_n^(e_n) of a FactoredIdeal in ctx."""
    out = ctx.one().scale(ctx.prime**ideal.p_exp)
    if ideal.x_exp:
        out = out * ctx.x_power(ideal.x_exp)
    for n, b in ideal.phi_exps:
        for _ in range(b):
            out = out * ctx.phi(n)
    return out


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
