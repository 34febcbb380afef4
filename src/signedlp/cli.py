"""Command-line front end.

Subcommands mirror the pipeline stages: curve-info, symbols, theta, signed,
gcd, verify, report.  Exit codes: 0 success, 1 computational failure
(precision, stabilization, validation), 2 usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# a table build imports numpy, whose OpenBLAS would start a thread pool that
# nothing here uses
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analyzer import emit_report
from .curves import a_ell, classify_reduction, ingest_curve, periods
from .errors import SignedLPError
from .modsym import validate_hecke
from .pipeline import RunConfig, load_or_build_table, result_payload, run_pipeline
from .theta import build_theta, check_compat


def _common_flags() -> argparse.ArgumentParser:
    """The flags of every pipeline subcommand, as a parent parser: built once,
    its actions are copied into each subcommand rather than built again."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--curve", required=True, help="curve JSON file")
    common.add_argument("--p", type=int, required=True, help="odd supersingular prime")
    common.add_argument("--level", type=int, default=None,
                        help="top theta level n_max (default: 2 for p <= 5, else 1)")
    common.add_argument("--prec", type=int, default=8, help="p-adic precision M")
    common.add_argument("--digits", type=int, default=30,
                        help="accepted and ignored: symbol tables are exact")
    common.add_argument("--table", default=None, help="symbol table CSV path")
    group = common.add_mutually_exclusive_group()
    group.add_argument("--import", dest="table_import", action="store_true",
                       help="read the symbol table from --table instead of computing")
    group.add_argument("--export", dest="table_export", action="store_true",
                       help="write the computed symbol table to --table")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    return common


def _config(args) -> RunConfig:
    """The run's RunConfig; a flag value it refuses is a usage error."""
    mode = "import" if args.table_import else ("export" if args.table_export else "")
    if mode and not args.table:
        args.usage_error("--import/--export need --table FILE")
    try:
        return RunConfig(
            curve_file=args.curve,
            p=args.p,
            n_max=args.level,
            precision=args.prec,
            table_path=args.table,
            table_mode=mode,
            fine_char=getattr(args, "fine_char", None),
            out_path=args.out,
            out_format=args.format,
        )
    except ValueError as exc:
        args.usage_error(str(exc))


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_curve_info(args) -> int:
    curve = ingest_curve(args.curve)
    info = {
        "label": curve.label,
        "conductor": curve.conductor,
        "discriminant": curve.discriminant,
        "rank": curve.rank,
        "e_sequence": list(curve.e_sequence.e),
        "fricke_sign": curve.fricke_sign,
    }
    if args.p:
        red = classify_reduction(curve, args.p)
        info["reduction_at_p"] = {"p": args.p, "type": red.kind, "a_p": red.a_p}
    per = periods(curve)
    info["omega_plus"] = per.omega_plus
    info["omega_minus_imag"] = per.omega_minus.imag
    info["real_components"] = per.real_components
    _emit(info, args)
    return 0


def _curve_and_table(cfg: RunConfig):
    """Ingest and the symbol table, a failure named by its stage as in
    run_pipeline."""
    stage = "ingest"
    try:
        curve = ingest_curve(cfg.curve_file)
        stage = "symbols"
        return curve, load_or_build_table(cfg, curve)
    except SignedLPError as exc:
        exc.stage = stage
        raise


def cmd_symbols(args) -> int:
    cfg = _config(args)
    curve, table = _curve_and_table(cfg)
    ap = a_ell(curve, cfg.p)
    rep = validate_hecke(table, cfg.p, cfg.n_max, ap)
    payload = {
        "curve": curve.label,
        "p": cfg.p,
        "levels": cfg.n_max + 1,
        "entries": table.entries,
        "provenance": table.provenance,
        "hecke": "PASS" if rep.passed else "FAIL",
    }
    _emit(payload, args)
    return 0 if rep.passed else 1


def cmd_theta(args) -> int:
    cfg = _config(args)
    curve, table = _curve_and_table(cfg)
    payload = {"curve": curve.label, "p": cfg.p, "thetas": {}}
    thetas = {}
    for n in range(cfg.n_max + 1):
        thetas[n] = build_theta(table, n, cfg.precision)
        payload["thetas"][str(n)] = {
            "body": str(thetas[n]),
            "value_at_zero_vanishes": not thetas[n].coeffs[0],
        }
    ap = a_ell(curve, cfg.p)
    payload["compat"] = {
        str(n): check_compat(thetas, n, ap).passed
        for n in range(2, cfg.n_max + 1)
    }
    _emit(payload, args)
    return 0


def cmd_signed(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg)
    payload = {
        "curve": result.curve.label,
        "p": cfg.p,
        "method": result.pair.method,
        "labels": list(result.pair.labels),
        "components": result.record["stages"]["extract"]["components"],
        "stabilized": result.pair.stabilized,
        "gcd": result.gcd.as_string(),
        "gcd_certified": result.gcd.certified,
    }
    _emit(payload, args)
    return 0


def cmd_gcd(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg)
    payload = {
        "curve": result.curve.label,
        "p": cfg.p,
        "gcd": result.gcd.as_string(),
        "mu": result.gcd.mu,
        "x": result.gcd.x_exp,
        "phi": {str(k): v for k, v in sorted(result.gcd.phi_exps.items())},
        "residual": result.gcd.residual,
        "certified": result.gcd.certified,
    }
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg)
    payload = result_payload(result, cfg)
    _emit(payload, args)
    ok = (
        result.predictions is not None
        and result.predictions.all_pass
        and result.theorem.all_pass
    )
    return 0 if ok else 1


def cmd_report(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg)
    payload = result_payload(result, cfg)
    if cfg.out_path:
        emit_report([payload], cfg.out_format, cfg.out_path)
    else:
        _emit(payload, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedlp",
        description="signed p-adic L-series approximations, invariants and "
                    "gcd audits at supersingular primes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    info = subs.add_parser("curve-info", help="curve invariants and periods")
    info.add_argument("--curve", required=True)
    info.add_argument("--p", type=int, default=None)
    info.add_argument("--digits", type=int, default=30,
                      help="accepted and ignored: periods are float64")
    info.add_argument("--out", default=None)
    info.set_defaults(func=cmd_curve_info)

    common = _common_flags()
    for name, func, fine in (
        ("symbols", cmd_symbols, False),
        ("theta", cmd_theta, False),
        ("signed", cmd_signed, False),
        ("gcd", cmd_gcd, False),
        ("verify", cmd_verify, True),
        ("report", cmd_report, True),
    ):
        sub = subs.add_parser(name, parents=[common])
        if fine:
            sub.add_argument("--fine-char", dest="fine_char", default="1",
                             help="fine characteristic hypothesis, e.g. '1' or 'X'")
        sub.set_defaults(func=func, usage_error=sub.error)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignedLPError as exc:
        stage = getattr(exc, "stage", None)
        where = f" [stage: {stage}]" if stage else ""
        print(f"signedlp: {exc.__class__.__name__}: {exc}{where}", file=sys.stderr)
        return 1


def entry() -> None:
    """The process entry point of `signedlp` and `python -m signedlp`."""
    # Shutdown would otherwise walk and free every object the imports made
    # (about 35 ms of each report); frozen, the collector skips them.  Not
    # in main(), which tests call in-process many times.  `python -m
    # signedlp` runs the imports with the collector off, so it is enabled
    # only after the freeze.
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    entry()
