import os
import time

import pytest

from signedlp.curves import a_ell, ingest_curve
from signedlp.modsym import SymbolTableBuilder
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

    def table(self, label, p, K, digits):
        key = (label, p, K, digits)
        if key not in self._tables:
            t0 = time.time()
            builder = SymbolTableBuilder(
                self.curve(label), p, digits=digits, denom_bound=500000
            )
            self._tables[key] = builder.build(K)
            self.build_seconds[key] = time.time() - t0
        return self._tables[key]

    def thetas(self, label, p, n_max, digits, M=8):
        key = (label, p, n_max, digits, M)
        if key not in self._thetas:
            table = self.table(label, p, n_max + 1, digits)
            self._thetas[key] = {
                n: build_theta(table, n, M) for n in range(n_max + 1)
            }
        return self._thetas[key]

    def ap(self, label, p):
        return a_ell(self.curve(label), p)


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
