"""Exact modular symbols [a/p^k]^+- for one curve: the table and its Hecke
validation.

The plus (resp. minus) symbol is the real (resp. imaginary) part of the
period integral lambda(a/m) = 2 pi i int_{a/m}^{i oo} f(z) dz, divided by
the real period Omega_plus (resp. by the imaginary-period length nu).  The
normalisation of nu is an internal convention; every downstream consumer is
insensitive to a global rescaling of the minus symbols.

Both parts are exact rationals.  SymbolTableBuilder computes them with
Manin symbols on Gamma_0(N) (manin.build_table); the exact Hecke relations
at p are then an independent cross-check.  An imported table bypasses the
computation, so the Lambda-side pipeline is testable on its own.

A table holds Python ints only: per level one numerator list per sign,
indexed by a mod p^k, over one denominator per sign (SymbolTable).  The
Hecke check is one list identity per level and sign.

Every report imports this module, so it holds only what a report runs.
The table build (manin) and the CSV format (tablefile) are imported by the
functions below that call them, when they are called.
"""

from __future__ import annotations

from collections import namedtuple

from .curves import CurveData
from .errors import IncompleteTable, InconsistentTable


class SymbolTable(namedtuple("SymbolTable",
                             "curve_label p denominators levels provenance meta")):
    """[a/p^k]^+- for k <= K as integer numerators over one positive
    denominator per sign: denominators is the pair (plus, minus).

    levels[k] is a pair (plus, minus) of lists of p^k numerators, indexed
    by a mod p^k, with 0 at the non-units; levels[0] holds the boundary
    symbol [0].  A level that an imported file does not cover is None.
    provenance is "computed" or "imported"; meta holds the certification of
    a build ({} when there is none).
    """

    __slots__ = ()

    def __new__(cls, curve_label: str, p: int, denominators: tuple, levels: list,
                provenance: str = "computed", meta: dict | None = None):
        return super().__new__(cls, curve_label, p, denominators, levels, provenance,
                               {} if meta is None else meta)

    def has_level(self, k: int) -> bool:
        return k < len(self.levels) and self.levels[k] is not None


def _units(p: int, k: int) -> list:
    """The residues a mod p^k of the symbols [a/p^k]: the units, or 0 at k = 0."""
    return [a for a in range(p**k) if a % p] if k else [0]


# -- table construction ----------------------------------------------------------


class SymbolTableBuilder:
    """Builds the full table of symbols [a/p^k]^+- for k <= K."""

    def __init__(self, curve: CurveData, p: int):
        self.curve = curve
        self.p = p

    def build(self, K: int) -> SymbolTable:
        """Table through level K, with the certification of its scale in meta
        (manin.build_table)."""
        from .manin import build_table  # only a build needs the Manin-symbol code

        return build_table(self.curve, self.p, K)


# -- Hecke validation --------------------------------------------------------------


def validate_hecke(table: SymbolTable, p: int, max_level: int, a_p: int) -> None:
    """Re-prove a_p [a/p^n] = [a/p^(n-1)] + sum_k [(a + k p^n)/p^(n+1)] exactly.

    Runs over every unit residue at levels 1..max_level; needs a table for
    p (an import checks its prime, a build and the cache use p) complete
    through max_level + 1.  Each sign is checked on its numerators,
    one list identity per level.  A broken relation raises InconsistentTable
    carrying every violation as (level, residue, side, lhs, rhs), the sides
    as fractions, sorted by level, residue and sign; its message is their
    count and the first ten of them.
    """
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
    if violations:
        shown = [f"  level {n}, residue {a}, {side}: {lhs} != {rhs}"
                 for n, a, side, lhs, rhs in violations[:10]]
        raise InconsistentTable("\n".join([f"{len(violations)} Hecke violations:", *shown]),
                                violations)


# -- persistence -------------------------------------------------------------------


def export_table(table: SymbolTable, path) -> None:
    """Write table to path in the CSV format (tablefile.export_table)."""
    from . import tablefile  # only CSV output needs it

    tablefile.export_table(table, path)


def import_table(path, expect_curve=None, expect_p=None) -> SymbolTable:
    """A table read from the CSV format (tablefile.import_table)."""
    from . import tablefile  # only CSV input needs it

    return tablefile.import_table(path, expect_curve, expect_p)
