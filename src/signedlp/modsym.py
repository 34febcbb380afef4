"""Exact modular symbols [a/p^k]^+- for one curve: the table, its Hecke
validation, and its CSV import/export.

The plus (resp. minus) symbol is the real (resp. imaginary) part of the
period integral lambda(a/m) = 2 pi i int_{a/m}^{i oo} f(z) dz, divided by
the real period Omega_plus (resp. by the imaginary-period length nu).  The
normalisation of nu is an internal convention; every downstream consumer is
insensitive to a global rescaling of the minus symbols.

Both parts are exact rationals.  SymbolTableBuilder computes them with
Manin symbols on Gamma_0(N) (the `manin` module, imported only when a table
is built); the exact Hecke relations at p are then an independent
cross-check.  An imported table bypasses the computation, so the
Lambda-side pipeline is testable on its own.

A table holds Python ints only: per level one numerator list per sign,
indexed by a mod p^k, over one denominator per sign (SymbolTable).  The
Hecke check is one list identity per level and sign; the CSV format
writes each symbol as a fraction in lowest terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import CurveData, a_ell, is_odd_prime, periods
from .errors import ContextMismatch, IncompleteTable, ParseError


class SymbolTable:
    """[a/p^k]^+- for k <= K as integer numerators over one positive
    denominator per sign.

    levels[k] is a pair (plus, minus) of lists of p^k numerators, indexed
    by a mod p^k, with 0 at the non-units; levels[0] holds the boundary
    symbol [0].  A level that an imported file does not cover is None.
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


def _units(p: int, k: int) -> list:
    """The residues a mod p^k of the symbols [a/p^k]: the units, or 0 at k = 0."""
    return [a for a in range(p**k) if a % p] if k else [0]


def _level(p: int, k: int, values: list) -> list:
    """The p^k numerators of one sign at level k from their values at the
    residues of _units, 0 elsewhere.  _units lists a = q p + r by q, then r,
    so the residues a = r mod p take every (p-1)-th value from r - 1."""
    if not k:
        return list(values)
    level = [0] * p**k
    for r in range(1, p):
        level[r::p] = values[r - 1 :: p - 1]
    return level


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
        from . import manin  # only a build needs the Manin-symbol code

        curve, p = self.curve, self.p
        symbols = manin.ManinSymbols(curve.conductor)
        per = periods(curve)
        parts = (
            ("plus", lambda z: z.real, per.omega_plus, 1),
            ("minus", lambda z: z.imag, per.omega_minus.imag, -1),
        )
        meta, functionals, scales = {}, [], []
        for name, part, omega, sign in parts:
            phi, primes = manin._eigen_functional(symbols, sign, lambda q: a_ell(curve, q))
            scale, cert = manin._fix_scale(curve, symbols, (phi, sign), part, omega)
            meta[name] = {"hecke_primes": primes, **cert}
            functionals.append((phi, sign))
            scales.append(scale)
        (n1, d1), (n2, d2) = scales
        levels = []
        for k in range(K + 1):
            plus, minus = symbols.to_infinity(functionals, _units(p, k), p**k)
            levels.append((_level(p, k, [n1 * v for v in plus]),
                           _level(p, k, [n2 * v for v in minus])))
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
    one list identity per level; violations are reported as fractions, by
    level, residue and sign.
    """
    if table.p != p:
        raise ContextMismatch(f"table is for p = {table.p}, not {p}")
    for k in range(0, max_level + 2):
        if not table.has_level(k):
            raise IncompleteTable(f"table missing level {k}")
    violations = []
    for n in range(1, max_level + 1):
        mn = p**n
        bad = []  # (residue, sign, lhs, rhs)
        for s, (low, x, high) in enumerate(zip(*table.levels[n - 1 : n + 2])):
            lhs = [a_p * v for v in x]
            # low is read mod p^(n-1), high summed over its p slices mod p^n
            rhs = list(map(sum, zip(low * p, *(high[j * mn : (j + 1) * mn] for j in range(p)))))
            if lhs != rhs:
                bad += [(a, s, lhs[a], rhs[a])
                        for a in range(mn) if a % p and lhs[a] != rhs[a]]
        for a, s, lhs, rhs in sorted(bad):
            from fractions import Fraction  # only a violation is shown as fractions

            den = table.denominators[s]
            violations.append((n, a, ("plus", "minus")[s], Fraction(lhs, den), Fraction(rhs, den)))
    return HeckeReport(not violations, tuple(range(1, max_level + 1)), violations)


# -- persistence -------------------------------------------------------------------


def export_table(table: SymbolTable, path) -> None:
    """One row k, a, plus numerator, denominator, minus numerator, denominator
    per symbol, by level and residue, each fraction in lowest terms."""
    import csv  # only CSV I/O needs it

    gcd = math.gcd
    dp, dm = table.denominators
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([table.curve_label, table.p])
        for k, level in enumerate(table.levels):
            if level is None:
                continue
            plus, minus = level
            for a in _units(table.p, k):
                g, h = gcd(plus[a], dp), gcd(minus[a], dm)
                writer.writerow((k, a, plus[a] // g, dp // g, minus[a] // h, dm // h))


def import_table(path, expect_curve=None, expect_p=None) -> SymbolTable:
    """A table from the CSV format of export_table.  The fractions may come in
    any form; each sign is brought to the lcm of its reduced denominators.
    A level is kept when its rows cover every unit residue."""
    import csv  # only CSV I/O needs it

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
    gcd = math.gcd
    found = {}  # k -> (p^k, {a mod p^k: (plus num, den, minus num, den)}), reduced
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=i)
        try:
            k, a, pn, pd, mn_, md = map(int, row)
        except ValueError:
            raise ParseError(f"non-integer field in {row}", line=i) from None
        if pd == 0 or md == 0:
            raise ParseError("zero denominator", line=i)
        if k < 0:
            raise ParseError(f"negative level {k}", line=i)
        level = found.get(k)
        if level is None:
            # level k has p^(k-1) * (p-1) rows; p^(k-1) >= 2^(k-1) bounds a huge k
            # before any power of p is built
            if k and (k - 1 > len(rows).bit_length() or p ** (k - 1) * (p - 1) >= len(rows)):
                raise ParseError(
                    f"level {k} needs {p}^{k - 1}*{p - 1} rows, the file has {len(rows) - 1}",
                    line=i,
                )
            level = found[k] = (p**k, {})
        if k and a % p == 0:
            raise ParseError(f"residue {a} is not a unit mod {p}", line=i)
        m, held = level
        r = a % m
        if r in held:
            raise ParseError(f"second row for [{a}/{p}^{k}]", line=i)
        # lowest terms, denominators positive
        g = gcd(pn, pd) if pd > 0 else -gcd(pn, pd)
        h = gcd(mn_, md) if md > 0 else -gcd(mn_, md)
        held[r] = (pn // g, pd // g, mn_ // h, md // h)
    dens = tuple(math.lcm(*{v[s] for _, held in found.values() for v in held.values()})
                 for s in (1, 3))
    levels = [None] * (max(found, default=0) + 1)
    for k, (m, held) in found.items():
        if len(held) != m - m // p:
            continue  # a unit residue has no row
        units = [held[r] for r in _units(p, k)]
        levels[k] = (_level(p, k, [n * (dens[0] // d) for n, d, _, _ in units]),
                     _level(p, k, [n * (dens[1] // d) for _, _, n, d in units]))
    return SymbolTable(label, p, dens, levels, provenance="imported")
