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

A table holds integers only: per level one numerator array per sign,
indexed by a mod p^k, over one denominator per sign (SymbolTable).  The
Hecke check is one array identity per level and sign; the CSV format
writes each symbol as a fraction in lowest terms.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from .curves import CurveData, a_ell, is_odd_prime, periods
from .errors import ContextMismatch, IncompleteTable, ParseError


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
        meta, values, scales = {}, [], []
        for name, part, omega, sign in parts:
            phi, primes = manin._eigen_functional(symbols, sign, lambda q: a_ell(curve, q))
            scale, cert = manin._fix_scale(curve, symbols, phi, part, omega)
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
            from fractions import Fraction  # only a violation is shown as fractions

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
        units = [held[r] for r in _units(p, k).tolist()]
        nums = [[n * (dens[0] // d) for n, d, _, _ in units],
                [n * (dens[1] // d) for _, _, n, d in units]]
        levels[k] = _level(p, k, np.array(nums, dtype=object))
    return SymbolTable(label, p, dens, levels, provenance="imported")
