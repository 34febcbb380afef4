"""Command-line front end.

Subcommands mirror the pipeline stages: curve-info, symbols, theta, signed,
gcd, verify, report.  Each of the last six is one run_pipeline call, stopped
after the stage it shows, and one payload written by analyzer.emit.  Exit
codes: 0 success, 1 computational failure (precision, stabilization,
validation, an unwritable --out), 2 usage errors.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .analyzer import emit, report_payload
from .curves import classify_reduction, ingest_curve, periods
from .errors import SignedLPError
from .pipeline import RunConfig, run_pipeline


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
        )
    except ValueError as exc:
        args.usage_error(str(exc))


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
    emit(info, "json", args.out)
    return 0


def _symbols_payload(result, cfg):
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "levels": cfg.n_max + 1,
        "entries": result.table.entries,
        "provenance": result.table.provenance,
        "hecke": "PASS",  # a table that fails validation stops the run
    }


def _theta_payload(result, cfg):
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "thetas": {
            str(n): {"body": str(theta), "value_at_zero_vanishes": not theta.coeffs[0]}
            for n, theta in result.thetas.items()
        },
        "compat": {str(rep.level): rep.passed for rep in result.compat},
    }


def _signed_payload(result, cfg):
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "method": result.pair.method,
        "labels": list(result.pair.labels),
        "components": result.record["stages"]["extract"]["components"],
        "stabilized": result.pair.stabilized,
        "gcd": result.gcd.as_string(),
        "gcd_certified": result.gcd.certified,
    }


def _gcd_payload(result, cfg):
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "gcd": result.gcd.as_string(),
        "mu": result.gcd.mu,
        "x": result.gcd.x_exp,
        "phi": {str(k): v for k, v in sorted(result.gcd.phi_exps.items())},
        "residual": result.gcd.residual,
        "certified": result.gcd.certified,
    }


def _report_payload(result, cfg):
    return report_payload(result.curve.label, cfg.p, result.gcd, result.verdict,
                          header=result.record)


# subcommand -> (the stage its run stops after, None for all; its payload)
PIPELINE_COMMANDS = {
    "symbols": ("validate_hecke", _symbols_payload),
    "theta": ("compat", _theta_payload),
    "signed": (None, _signed_payload),
    "gcd": (None, _gcd_payload),
    "verify": (None, _report_payload),
    "report": (None, _report_payload),
}


def cmd_pipeline(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg, args.last_stage)
    emit(args.payload(result, cfg), args.format, args.out)
    # verify alone exits with its verdict
    return 1 if args.command == "verify" and not result.verdict.all_pass else 0


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
    for name, (last_stage, payload) in PIPELINE_COMMANDS.items():
        sub = subs.add_parser(name, parents=[common])
        if payload is _report_payload:  # the one payload with checks and a CSV form
            sub.add_argument("--format", choices=("json", "csv"), default="json")
            sub.add_argument("--fine-char", dest="fine_char", default="1",
                             help="fine characteristic hypothesis, e.g. '1' or 'X'")
        sub.set_defaults(func=cmd_pipeline, last_stage=last_stage, payload=payload,
                         format="json", usage_error=sub.error)
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
