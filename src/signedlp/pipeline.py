"""End-to-end orchestration: curve file to verdict report, with table caching.

Stage order: ingest -> classify -> symbols (compute or import) -> Hecke
validation -> theta elements -> compatibility -> signed extraction (method
chosen by the reduction type) -> invariant-fit cross-check -> gcd ->
prediction comparison; a run may stop after Hecke validation or after
compatibility.  Every stage deposits its certification data into the run
record, which is embedded in the report so identical configs reproduce
byte-identical output.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple, Optional

from . import __version__
from .analyzer import (
    GcdReport,
    Verdict,
    compare_predictions,
    gcd_signed_pair,
    theorem_consistency,
)
from .curves import CurveData, classify_reduction, ingest_curve, is_odd_prime
from .errors import CompatFailed, IoError, NotStabilized, SignedLPError, WrongReductionType
from .extract import (
    SignedPair,
    extract_plus_minus,
    extract_sharp_flat,
    fit_matches_pair,
    invariant_fit,
)
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


class RunConfig:
    """One run's inputs, checked on construction: p an odd prime, p-adic
    precision M >= 2, the top level n_max (default 2 for p <= 5, else 1)
    nonnegative, and the fine characteristic spec, if given, a factored
    ideal; fine_ideal holds it parsed."""

    def __init__(self, curve_file: str, p: int, n_max: Optional[int] = None,
                 precision: int = 8, table_path: Optional[str] = None,
                 table_mode: str = "",  # "import" | "export" | ""
                 fine_char: Optional[str] = None):
        if not is_odd_prime(p):
            raise ValueError("p must be an odd prime")
        if precision < 2:
            raise ValueError("p-adic precision must be at least 2")
        if n_max is None:
            n_max = 2 if p <= 5 else 1
        if n_max < 0:
            raise ValueError("level must be nonnegative")
        self.curve_file = curve_file
        self.p = p
        self.n_max = n_max
        self.precision = precision  # p-adic digits M
        self.table_path = table_path
        self.table_mode = table_mode
        self.fine_char = fine_char
        self.fine_ideal = None if fine_char is None else parse_factored_ideal(fine_char)


class PipelineResult(NamedTuple):
    """What the stages through the last one that ran produced; the fields
    of the stages after it are None.  The verdict holds the prediction
    checks, then the theorem checks named "thm:..."; it is empty when no
    fine characteristic was given.  thetas hold Y-coefficients."""
    record: dict
    curve: CurveData
    table: SymbolTable
    thetas: Optional[dict] = None
    compat: Optional[list] = None
    pair: Optional[SignedPair] = None
    gcd: Optional[GcdReport] = None
    verdict: Optional[Verdict] = None


def cache_path(cfg: RunConfig, curve: CurveData) -> Optional[str]:
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


def _write_atomically(path: str, text: str) -> None:
    """text to tmp, renamed over path: readers never see a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write cache entry {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _ints(values, length: int) -> bool:
    return type(values) is list and len(values) == length and set(map(type, values)) == {int}


def _read_cached(path: str, curve: CurveData, p: int, K: int) -> Optional[SymbolTable]:
    """The table of a cache entry as it was built; None when the entry is
    missing, does not parse or does not have the shape of its key: two
    positive denominators, and levels 0..K of p^k numerators per sign."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
        meta, dens, levels = entry["meta"], entry["denominators"], entry["levels"]
        shaped = (type(meta) is dict and _ints(dens, 2) and min(dens) > 0 and len(levels) == K + 1
                  and all(len(level) == 2 and all(_ints(sign, p**k) for sign in level)
                          for k, level in enumerate(levels)))
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return SymbolTable(curve.label, p, tuple(dens), levels, meta=meta) if shaped else None


def load_or_build_table(cfg: RunConfig, curve: CurveData) -> SymbolTable:
    K = cfg.n_max + 1
    if cfg.table_path and cfg.table_mode == "import":
        # validate_hecke refuses a table without every level 0..K
        return import_table(cfg.table_path, expect_curve=curve.label, expect_p=cfg.p)
    cached = cache_path(cfg, curve)
    table = _read_cached(cached, curve, cfg.p, K) if cached else None
    if table is None:
        table = SymbolTableBuilder(curve, cfg.p).build(K)
        if cached:
            entry = {"meta": table.meta, "denominators": table.denominators,
                     "levels": table.levels}
            _write_atomically(cached, json.dumps(entry, sort_keys=True))
    # a cached table is exported too
    if cfg.table_path and cfg.table_mode == "export":
        export_table(table, cfg.table_path)
    return table


def run_pipeline(cfg: RunConfig, last_stage: Optional[str] = None) -> PipelineResult:
    """Run the stages in order, through last_stage ("validate_hecke" or
    "compat"; None runs them all)."""
    if last_stage not in (None, "validate_hecke", "compat"):
        raise ValueError(f"cannot stop after stage {last_stage!r}")
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
        record["stages"]["symbols"] = {
            "provenance": table.provenance,
            "levels": cfg.n_max + 1,
        }
        if table.meta:
            record["stages"]["symbols"]["certification"] = table.meta

        stage = "validate_hecke"
        hecke = validate_hecke(table, cfg.p, cfg.n_max, red.a_p)
        record["stages"]["validate_hecke"] = {
            "passed": hecke.passed,
            "levels": list(hecke.levels_checked),
        }
        if not hecke.passed:
            raise SignedLPError(str(hecke))
        if last_stage == "validate_hecke":
            return PipelineResult(record, curve, table)

        stage = "theta"
        thetas = {
            n: build_theta(table, n, cfg.precision)
            for n in range(cfg.n_max + 1)
        }
        record["stages"]["theta"] = {
            "levels": sorted(thetas),
            "value_at_zero_vanishes": [
                not thetas[n].value_at_one() for n in sorted(thetas)
            ],
        }

        stage = "compat"
        compat = []
        for n in range(2, cfg.n_max + 1):
            rep = check_compat(thetas, n, red.a_p)
            compat.append(rep)
            if not rep.passed:
                raise CompatFailed(
                    f"level {n}: {rep.detail}", index=rep.index
                )
        record["stages"]["compat"] = {"levels": [c.level for c in compat]}
        if last_stage == "compat":
            return PipelineResult(record, curve, table, thetas, compat)

        stage = "extract"
        if not red.is_supersingular:
            raise WrongReductionType(
                f"{curve.label} is {red.kind} at {cfg.p}; "
                "signed extraction needs good supersingular reduction"
            )
        if red.a_p == 0:
            pair = extract_plus_minus(thetas, red.a_p)
        else:
            pair = extract_sharp_flat(thetas, red.a_p, cfg.p)
        fits = invariant_fit(thetas)
        fit_agrees = fit_matches_pair(fits, pair)
        if not fit_agrees:
            raise NotStabilized(
                "extracted invariants disagree with the invariant fit"
            )
        record["stages"]["extract"] = {
            "method": pair.method,
            "labels": list(pair.labels),
            "stabilized": pair.stabilized,
            "fit_agrees": fit_agrees,
            "components": [
                {
                    "label": c.label,
                    "mu": c.invariants.mu,
                    "lambda": c.invariants.lam,
                    "grade": c.stabilization,
                    "modulus": c.modulus_desc,
                    "limit_certified": c.limit_certified,
                }
                for c in pair.components
            ],
        }

        stage = "gcd"
        gcd = gcd_signed_pair(pair)
        record["stages"]["gcd"] = {
            "gcd": gcd.as_string(),
            "certified": gcd.certified,
            "detail": gcd.detail,
        }

        verdict = Verdict()
        if cfg.fine_ideal is not None:
            stage = "compare"
            verdict = compare_predictions(gcd, curve.e_sequence, cfg.fine_ideal)
            theorem = theorem_consistency(gcd, cfg.fine_ideal)
            record["stages"]["compare"] = {
                "delta_E": verdict.delta_e,
                "KP": verdict.status_of("KP"),
                "Gr": verdict.status_of("Gr"),
                "theorem": "PASS" if theorem.all_pass else "FAIL",
            }
            for c in theorem.checks:
                verdict.add(f"thm:{c.name}", c.status, c.detail)
        return PipelineResult(record, curve, table, thetas, compat, pair, gcd, verdict)
    except SignedLPError as exc:
        exc.stage = stage
        raise

