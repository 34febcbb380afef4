"""End-to-end orchestration: curve file to verdict report, with table caching.

Stage order: ingest -> classify -> symbols (compute or import) -> Hecke
validation -> theta elements -> compatibility -> signed extraction (method
chosen by the reduction type) -> invariant-fit cross-check -> gcd ->
prediction comparison; a run may stop after Hecke validation or after
compatibility.  The run record, embedded in the report so identical
configs reproduce byte-identical output, holds the config and, per stage,
only the data that can vary between printed runs: the reduction type, the
table's provenance and certification, theta's vanishing at zero, the
signed components and the gcd's detail.  A check raises where it fails
(validate_hecke, check_compat, fit_matches_pair), so the record holds no
pass flags, and run_pipeline tags the exception with the stage it stopped
at.
"""

from __future__ import annotations

import binascii
import json
import os
from collections import namedtuple

from . import __version__
from .analyzer import (
    Verdict,
    compare_predictions,
    gcd_signed_pair,
    theorem_consistency,
)
from .curves import CurveData, classify_reduction, ingest_curve, is_odd_prime
from .errors import IoError, MetadataMismatch, SignedLPError, WrongReductionType
from .extract import (
    extract_plus_minus,
    extract_sharp_flat,
    fit_matches_pair,
    invariant_fit,
)
from .lambda_ring import IwasawaContext
from .modsym import (
    SymbolTable,
    SymbolTableBuilder,
    export_table,
    import_table,
    validate_hecke,
)
from .modules import parse_factored_ideal
from .theta import build_theta, check_compat

CACHE_ENV = "SIGNEDLP_CACHE_DIR"


class RunConfig(namedtuple("RunConfig", "curve_file p n_max precision import_path "
                           "export_path fine_char fine_ideal")):
    """One run's inputs, checked on construction: p an odd prime, p-adic
    precision M >= 2, the top level n_max (default 2 for p <= 5, else 1)
    nonnegative, at most one of the CSV paths import_path and export_path
    (export_table needs every level, and an imported table has not yet
    passed validate_hecke when the export would run), and the fine
    characteristic spec, if given, a factored ideal; fine_ideal holds
    fine_char parsed."""

    __slots__ = ()

    def __new__(cls, curve_file: str, p: int, n_max: int | None = None,
                precision: int = 8, import_path: str | None = None,
                export_path: str | None = None, fine_char: str | None = None):
        if not is_odd_prime(p):
            raise ValueError("p must be an odd prime")
        if precision < 2:
            raise ValueError("p-adic precision must be at least 2")
        if n_max is None:
            n_max = 2 if p <= 5 else 1
        if n_max < 0:
            raise ValueError("level must be nonnegative")
        if import_path is not None and export_path is not None:
            raise ValueError("--import and --export exclude each other")
        fine_ideal = None if fine_char is None else parse_factored_ideal(fine_char)
        return super().__new__(cls, curve_file, p, n_max, precision, import_path, export_path,
                               fine_char, fine_ideal)


class PipelineResult(namedtuple("PipelineResult", "record curve table thetas pair gcd "
                                "verdict", defaults=(None,) * 4)):
    """What the stages through the last one that ran produced; the fields
    of the stages after it are None.  The verdict holds the prediction
    checks, then the theorem checks named "thm:..."; it is empty when no
    fine characteristic was given.  thetas map each level to its theta
    element, a Y-vector: the list of its exact Y-coefficients, each times
    the unit part of the plus denominator (theta.build_theta).  pair is
    extraction's (odd-class, even-class) tuple of SignedSeries."""

    __slots__ = ()


def cache_path(cfg: RunConfig, curve: CurveData) -> str | None:
    """The cached table's JSON path, named by every input that changes the
    table (not the label: a cached table takes it from the curve in hand),
    spelled out rather than hashed, since hashlib would load OpenSSL into
    every run (about 3.6 MB of resident memory).  A cache directory that
    cannot be created raises IoError."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create cache directory {root}: {exc}") from exc
    ainvs = ",".join(str(a) for a in curve.a_invariants)
    return os.path.join(root, f"p{cfg.p}_k{cfg.n_max + 1}_a{ainvs}_N{curve.conductor}"
                              f"_e{curve.fricke_sign}_v{__version__}.json")


def _write_atomically(path: str, data: bytes) -> None:
    """data to tmp, renamed over path: readers never see a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write cache entry {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _ints(values, length: int) -> bool:
    return type(values) is list and len(values) == length and set(map(type, values)) == {int}


def _read_cached(path: str, curve: CurveData, p: int, K: int) -> SymbolTable | None:
    """The table of a cache entry as it was built; None when the entry is
    missing, fails its checksum, does not parse or does not have the shape
    of its key: two positive denominators, and levels 0..K of p^k
    numerators per sign.  An entry is a line with the CRC-32 of the rest in
    eight hex digits, then the table as one JSON document."""
    try:
        with open(path, "rb") as fh:
            crc, _, body = fh.read().partition(b"\n")
        if crc != b"%08x" % binascii.crc32(body):
            return None
        entry = json.loads(body)
        meta, dens, levels = entry["meta"], entry["denominators"], entry["levels"]
        shaped = (type(meta) is dict and _ints(dens, 2) and min(dens) > 0 and len(levels) == K + 1
                  and all(len(level) == 2 and all(_ints(sign, p**k) for sign in level)
                          for k, level in enumerate(levels)))
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return SymbolTable(curve.label, p, tuple(dens), levels, meta=meta) if shaped else None


def load_or_build_table(cfg: RunConfig, curve: CurveData) -> SymbolTable:
    K = cfg.n_max + 1
    if cfg.import_path is not None:
        # validate_hecke refuses a table without every level 0..K
        return import_table(cfg.import_path, expect_curve=curve.label, expect_p=cfg.p)
    cached = cache_path(cfg, curve)
    table = _read_cached(cached, curve, cfg.p, K) if cached else None
    if table is None:
        table = SymbolTableBuilder(curve, cfg.p).build(K)
        if cached:
            entry = {"meta": table.meta, "denominators": table.denominators,
                     "levels": table.levels}
            body = json.dumps(entry, sort_keys=True).encode()
            _write_atomically(cached, b"%08x\n" % binascii.crc32(body) + body)
    # a cached table is exported too
    if cfg.export_path is not None:
        export_table(table, cfg.export_path)
    return table


def run_pipeline(cfg: RunConfig, last_stage: str | None = None) -> PipelineResult:
    """Run the stages in order, through last_stage ("validate_hecke" or
    "compat"; None runs them all)."""
    record = {
        "tool": f"signedlp {__version__}",
        "config": {
            "curve_file": os.path.basename(cfg.curve_file),
            "p": cfg.p,
            "n_max": cfg.n_max,
            "p_precision": cfg.precision,
            "fine_char": cfg.fine_char,
        },
        "stages": {},
    }
    stage = "ingest"
    try:
        curve = ingest_curve(cfg.curve_file)
        record["config"]["curve"] = curve.label

        stage = "classify"
        red = classify_reduction(curve, cfg.p)
        record["stages"]["classify"] = {
            "reduction": red.kind, "a_p": red.a_p,
        }
        if red.kind in ("multiplicative", "additive"):
            # bad reduction breaks the Hecke relation at p; nothing downstream
            # makes sense.  Good ordinary reduction only fails at extraction.
            raise WrongReductionType(
                f"{curve.label} has {red.kind} reduction at {cfg.p}"
            )

        stage = "symbols"
        table = load_or_build_table(cfg, curve)
        record["stages"]["symbols"] = {"provenance": table.provenance}
        if table.meta:
            record["stages"]["symbols"]["certification"] = table.meta

        stage = "validate_hecke"
        validate_hecke(table, cfg.p, cfg.n_max, red.a_p)
        if last_stage == "validate_hecke":
            return PipelineResult(record, curve, table)

        stage = "theta"
        ctx = IwasawaContext(cfg.p, cfg.precision)
        thetas = {n: build_theta(table, n) for n in range(cfg.n_max + 1)}
        if curve.rank and any(thetas[0]):
            # theta_0 = (a_p - 2)[0]^+: theta_0 != 0 means L(E,1) != 0, and
            # then the rank is 0 (Kolyvagin)
            raise MetadataMismatch(
                f"{curve.label}: rank {curve.rank} contradicts theta_0 != 0, "
                "that is L(E,1) != 0, which forces rank 0"
            )
        record["stages"]["theta"] = {
            "value_at_zero_vanishes": [not sum(theta) for theta in thetas.values()],
        }

        stage = "compat"
        for n in range(2, cfg.n_max + 1):
            check_compat(thetas, n, red.a_p, ctx)
        if last_stage == "compat":
            return PipelineResult(record, curve, table, thetas)

        stage = "extract"
        if not red.is_supersingular:
            raise WrongReductionType(
                f"{curve.label} is {red.kind} at {cfg.p}; "
                "signed extraction needs good supersingular reduction"
            )
        if red.a_p == 0:
            pair = extract_plus_minus(thetas, red.a_p, ctx)
        else:
            pair = extract_sharp_flat(thetas, red.a_p, ctx)
        fit_matches_pair(invariant_fit(thetas, ctx), pair)
        record["stages"]["extract"] = {
            "components": [
                {
                    "label": c.label,
                    "mu": c.invariants.mu,
                    "lambda": c.invariants.lam,
                    "grade": c.stabilization,
                    "modulus": c.modulus_desc,
                    "limit_certified": c.limit_certified,
                }
                for c in pair
            ],
        }

        stage = "gcd"
        gcd = gcd_signed_pair(pair)
        record["stages"]["gcd"] = {"detail": gcd.detail}

        verdict = Verdict()
        if cfg.fine_ideal is not None:
            stage = "compare"
            verdict = compare_predictions(gcd, curve.e_sequence, cfg.fine_ideal)
            verdict = verdict._replace(
                checks=verdict.checks + theorem_consistency(gcd, cfg.fine_ideal).checks)
        return PipelineResult(record, curve, table, thetas, pair, gcd, verdict)
    except SignedLPError as exc:
        exc.stage = stage
        raise

