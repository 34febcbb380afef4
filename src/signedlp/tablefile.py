"""The CSV format of symbol tables, read by --import and written by --export.

Header `curve,p`; one row `k,a,plus_num,plus_den,minus_num,minus_den` per
symbol [a/p^k] (the k = 0 row is the boundary symbol), each fraction in
lowest terms.  Only --import and --export load this module, so a report
that builds its table or reads it from the cache never compiles it.
"""

from __future__ import annotations

import math

from .curves import is_odd_prime
from .errors import ContextMismatch, IoError, ParseError
from .modsym import SymbolTable, _level, _units


def export_table(table: SymbolTable, path) -> None:
    """One row k, a, plus numerator, denominator, minus numerator, denominator
    per symbol, by level and residue, each fraction in lowest terms.  The
    table holds every level (a built or cached one does)."""
    import csv  # only CSV I/O needs it

    gcd = math.gcd
    dp, dm = table.denominators
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([table.curve_label, table.p])
            for k, (plus, minus) in enumerate(table.levels):
                for a in _units(table.p, k):
                    g, h = gcd(plus[a], dp), gcd(minus[a], dm)
                    writer.writerow((k, a, plus[a] // g, dp // g, minus[a] // h, dm // h))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def import_table(path, expect_curve=None, expect_p=None) -> SymbolTable:
    """A table from the CSV format of export_table.  The fractions may come in
    any form; each sign is brought to the lcm of its reduced denominators.
    A level is kept when its rows cover every unit residue."""
    import csv  # only CSV I/O needs it

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path} as UTF-8 CSV: {exc}") from exc
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
