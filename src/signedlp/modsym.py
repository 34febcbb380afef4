"""Rational modular symbols [a/p^k]^+- for one curve: numerics, recognition,
validation, and table import/export.

The plus (resp. minus) symbol is the real (resp. imaginary) part of the
period integral lambda(a/m) = 2 pi i int_{a/m}^{i oo} f(z) dz, divided by
the real period Omega_plus (resp. by the imaginary-period length nu).  The
normalisation of nu is an internal convention; every downstream consumer is
insensitive to a global rescaling of the minus symbols.

Recognition turns the numerics into exact rationals via continued-fraction
convergents under a denominator bound, and the Hecke three-term relations
are then re-proved in exact arithmetic.  An imported table bypasses the
numerics entirely, so the Lambda-side pipeline is testable without the
analytic engine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .curves import CurveData, periods
from .errors import (
    ContextMismatch,
    IncompleteTable,
    ParseError,
    RecognitionFailed,
)
from .lseries import SIGN_PINS, SymbolNumerics


@dataclass(frozen=True)
class ModularSymbol:
    a: int
    m: int  # power of p (1 for the boundary symbol)
    plus: Fraction
    minus: Fraction


@dataclass
class SymbolTable:
    curve_label: str
    p: int
    max_level: int
    symbols: dict = field(default_factory=dict)  # (k, a mod p^k) -> ModularSymbol
    provenance: str = "computed"
    meta: dict = field(default_factory=dict, compare=False)  # build certification

    def get(self, k: int, a: int) -> ModularSymbol:
        if k == 0:
            key = (0, 0)
        else:
            key = (k, a % self.p**k)
        try:
            return self.symbols[key]
        except KeyError:
            raise IncompleteTable(f"no symbol [{a}/{self.p}^{k}]") from None

    def plus(self, k: int, a: int) -> Fraction:
        return self.get(k, a).plus

    def minus(self, k: int, a: int) -> Fraction:
        return self.get(k, a).minus

    def has_level(self, k: int) -> bool:
        if k == 0:
            return (0, 0) in self.symbols
        m = self.p**k
        return all(
            (k, a) in self.symbols for a in range(1, m) if a % self.p != 0
        )


# -- rational recognition -------------------------------------------------------


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    # mpmath mpf: exact binary value (sign, mantissa, exponent, bitcount)
    sign, man, exp, _ = x._mpf_
    frac = Fraction(man, 1) * Fraction(2) ** exp
    return -frac if sign else frac


def recognize_rational(x, bound: int, tol: Fraction) -> Fraction:
    """First continued-fraction convergent within tol under the bound."""
    target = _to_fraction(x)
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(target), 1
    rest = target - int(target)
    while True:
        if q_cur > bound:
            break
        cand = Fraction(p_cur, q_cur)
        if abs(target - cand) <= tol:
            return cand
        if rest == 0:
            break
        rest = 1 / rest
        a = int(rest)
        rest -= a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    raise RecognitionFailed(
        f"no rational with denominator <= {bound} within {float(tol):.2e} of {float(target)!r}"
    )


# -- table construction ----------------------------------------------------------


class SymbolTableBuilder:
    """Builds the full table of symbols [a/p^k]^+- for k <= K."""

    def __init__(self, curve: CurveData, p: int, digits: int = 30,
                 denom_bound: int = 10**6):
        self.curve = curve
        self.p = p
        self.digits = digits
        self.denom_bound = denom_bound

    def build(self, K: int) -> SymbolTable:
        """Table through level K: the first sign pin whose table is recognized
        and passes the Hecke check, at the working precision and then once at
        ten more digits.

        The Hecke relations at levels 1..K-1 referee the functional-equation
        signs of SIGN_PINS.  At K < 2 there is no relation to referee them, so
        only the default pin is tried.  The character sums, lambda(0) and the
        periods are computed once per digits value and shared by every pin.
        """
        failure = None
        for digits in (self.digits, self.digits + 10):
            numerics = SymbolNumerics(self.curve, self.p, digits=digits)
            per = periods(self.curve, max(digits, 20))
            for signs in SIGN_PINS if K >= 2 else SIGN_PINS[:1]:
                try:
                    table = self._recognize(numerics, per, K, signs)
                except RecognitionFailed as exc:
                    failure = exc
                    continue
                if K < 2 or validate_hecke(table, self.p, K - 1, numerics.ap).passed:
                    return table
                failure = RecognitionFailed(
                    "symbols fail the Hecke relations at every sign convention"
                )
        raise failure

    def _recognize(self, numerics: SymbolNumerics, per, K: int, signs) -> SymbolTable:
        digits = numerics.digits
        tol = Fraction(1, 10 ** max(digits - 4, 5))

        def split(lam):
            """(plus, minus) parts of one lambda value, recognized as rationals."""
            if numerics.use_mp:
                with mpmath.workdps(digits + 8):
                    plus_val = mpmath.re(lam) / per.omega_plus
                    minus_val = mpmath.im(lam) / per.omega_minus.imag
            else:
                plus_val = float(lam.real) / float(per.omega_plus)
                minus_val = float(lam.imag) / float(per.omega_minus.imag)
            return (
                recognize_rational(plus_val, self.denom_bound, tol),
                recognize_rational(minus_val, self.denom_bound, tol),
            )

        table = SymbolTable(self.curve.label, self.p, K)
        table.symbols[(0, 0)] = ModularSymbol(0, 1, *split(numerics.lambda_zero()))
        bounds = {}
        for k in range(1, K + 1):
            level = numerics.level(k, signs)
            bounds[k] = level.error_bound
            m = self.p**k
            for a, lam in level.values.items():
                table.symbols[(k, a)] = ModularSymbol(a, m, *split(lam))
        table.meta = {
            "digits": digits,
            "denominator_bound": self.denom_bound,
            "recognition_tolerance": float(tol),
            "functional_equation_signs": signs,
            "tail_bounds": bounds,
        }
        return table


# -- Hecke validation --------------------------------------------------------------


@dataclass
class HeckeReport:
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
    complete through max_level + 1.  All arithmetic is exact.
    """
    if table.p != p:
        raise ContextMismatch(f"table is for p = {table.p}, not {p}")
    for k in range(0, max_level + 2):
        if not table.has_level(k):
            raise IncompleteTable(f"table missing level {k}")
    violations = []
    for n in range(1, max_level + 1):
        mn = p**n
        for a in range(1, mn):
            if a % p == 0:
                continue
            for side in ("plus", "minus"):
                pick = (lambda kk, aa: getattr(table.get(kk, aa), side))
                lhs = a_p * pick(n, a)
                low = pick(n - 1, a) if n > 1 else pick(0, 0)
                high = sum(pick(n + 1, a + k * mn) for k in range(p))
                rhs = low + high
                if lhs != rhs:
                    violations.append((n, a, side, lhs, rhs))
    return HeckeReport(not violations, tuple(range(1, max_level + 1)), violations)


# -- persistence -------------------------------------------------------------------


def export_table(table: SymbolTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([table.curve_label, table.p])
        for (k, a) in sorted(table.symbols):
            sym = table.symbols[(k, a)]
            writer.writerow([
                k, a,
                sym.plus.numerator, sym.plus.denominator,
                sym.minus.numerator, sym.minus.denominator,
            ])


def import_table(path, expect_curve=None, expect_p=None) -> SymbolTable:
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
    if expect_curve is not None and label != expect_curve:
        raise ContextMismatch(f"table is for {label!r}, expected {expect_curve!r}")
    if expect_p is not None and p != expect_p:
        raise ContextMismatch(f"table is for p = {p}, expected {expect_p}")
    symbols = {}
    max_level = 0
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
        m = p**k if k else 1
        symbols[(k, a % m if k else 0)] = ModularSymbol(
            a, m, Fraction(pn, pd), Fraction(mn_, md)
        )
        max_level = max(max_level, k)
    table = SymbolTable(label, p, max_level, symbols, provenance="imported")
    return table
