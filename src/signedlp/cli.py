"""Command-line front end.

Subcommands mirror the pipeline stages: curve-info, symbols, theta, signed,
gcd, verify, report.  Each of the last six is one run_pipeline call, stopped
after the stage it shows, and one payload written by analyzer.emit.  Exit
codes: 0 success, 1 computational failure (precision, stabilization,
validation, an unwritable --out), 2 usage errors.

FLAGS declares every flag once; both readers of a command line are built
from it.  main() reads a command line directly when it is a subcommand
followed only by that subcommand's own flags, each spelled `--flag value`
(a switch alone), every value valid as given and every required flag
present.  Every other command line (--help, an abbreviated flag,
--flag=value, a value starting with '-', a usage error) goes to the
argparse parser, and so does a usage error found later (--import without
--table, a value RunConfig refuses).  Only build_parser imports argparse,
and with it gettext and locale; help, usage lines, error messages and exit
codes are argparse's.
"""

from __future__ import annotations

import gc
import os
import sys
import types

from .analyzer import emit, report_payload
from .curves import classify_reduction, ingest_curve, is_odd_prime, periods
from .errors import SignedLPError
from .lambda_ring import taylor_shift
from .pipeline import RunConfig, run_pipeline


def _config(args) -> RunConfig:
    """The run's RunConfig; a flag value it refuses is a usage error."""
    mode = "import" if args.table_import else ("export" if args.table_export else "")
    if mode and not args.table:
        args.usage_error("--import/--export need --table FILE")
    if args.table and not mode:
        args.usage_error("--table FILE needs --import or --export")
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
    if args.p is not None and not is_odd_prime(args.p):
        args.usage_error("p must be an odd prime")
    curve = ingest_curve(args.curve)
    info = {
        "label": curve.label,
        "conductor": curve.conductor,
        "discriminant": curve.discriminant,
        "rank": curve.rank,
        "e_sequence": list(curve.e_sequence.e),
        "fricke_sign": curve.fricke_sign,
    }
    if args.p is not None:
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
    """Each theta, held as Y-coefficients, is printed in X."""
    mod = cfg.p**cfg.precision
    return {
        "curve": result.curve.label,
        "p": cfg.p,
        "thetas": {
            str(n): {"body": str(theta.context.element(taylor_shift(theta.coeffs, mod))),
                     "value_at_zero_vanishes": not theta.value_at_one()}
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


REQUIRED = object()  # the default of a flag that must be given
_INFO = ("curve-info",)
_PIPELINE = tuple(PIPELINE_COMMANDS)
_CHECKED = ("verify", "report")  # the report payload: checks, and a CSV form

# (flag, dest, type, default, help, subcommands), in the order --help lists
# them.  type is int, str, a tuple of the choices, or bool for a switch; the
# two switches, --import and --export, exclude each other.
FLAGS = (
    ("--curve", "curve", str, REQUIRED, None, _INFO),
    ("--curve", "curve", str, REQUIRED, "curve JSON file", _PIPELINE),
    ("--p", "p", int, None, None, _INFO),
    ("--p", "p", int, REQUIRED, "odd supersingular prime", _PIPELINE),
    ("--level", "level", int, None,
     "top theta level n_max (default: 2 for p <= 5, else 1)", _PIPELINE),
    ("--prec", "prec", int, 8, "p-adic precision M", _PIPELINE),
    ("--digits", "digits", int, 30, "accepted and ignored: periods are float64", _INFO),
    ("--digits", "digits", int, 30, "accepted and ignored: symbol tables are exact",
     _PIPELINE),
    ("--table", "table", str, None, "symbol table CSV path", _PIPELINE),
    ("--import", "table_import", bool, False,
     "read the symbol table from --table instead of computing", _PIPELINE),
    ("--export", "table_export", bool, False,
     "write the computed symbol table to --table", _PIPELINE),
    ("--out", "out", str, None, None, _INFO),
    ("--out", "out", str, None, "output file (default: stdout)", _PIPELINE),
    ("--format", "format", ("json", "csv"), "json", None, _CHECKED),
    ("--fine-char", "fine_char", str, "1",
     "fine characteristic hypothesis, e.g. '1' or 'X'", _CHECKED),
)


def _settings(command) -> dict:
    """What a subcommand sets in the namespace besides its flags."""
    if command == "curve-info":
        return {"func": cmd_curve_info}
    last_stage, payload = PIPELINE_COMMANDS[command]
    return {"func": cmd_pipeline, "last_stage": last_stage, "payload": payload,
            "format": "json"}


def build_parser():
    """The argparse parser of FLAGS: it reads every command line that
    _read_directly leaves, and prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="signedlp",
        description="signed p-adic L-series approximations, invariants and "
                    "gcd audits at supersingular primes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _INFO + _PIPELINE:
        if command == "curve-info":
            sub = subs.add_parser(command, help="curve invariants and periods")
        else:
            sub = subs.add_parser(command)
        switches = None  # an empty group breaks the usage line
        for flag, dest, kind, default, text, commands in FLAGS:
            if command not in commands:
                continue
            if kind is bool:
                switches = switches or sub.add_mutually_exclusive_group()
                switches.add_argument(flag, dest=dest, action="store_true", help=text)
                continue
            required = default is REQUIRED
            sub.add_argument(flag, dest=dest, type=int if kind is int else None,
                             choices=kind if isinstance(kind, tuple) else None,
                             required=required, default=None if required else default,
                             help=text)
        sub.set_defaults(**_settings(command), usage_error=sub.error)
    return parser


def _parse(argv):
    """argparse's reading of argv; a usage error exits 2."""
    return build_parser().parse_args(argv)


def _read_directly(argv):
    """The namespace _parse(argv) returns, read from FLAGS without argparse;
    None unless argv is a subcommand followed only by its own flags, each
    spelled `--flag value` (a switch alone) with a value that does not start
    with '-' and that the flag's type takes, every required flag given and
    not both switches.  Its usage_error hands argv to argparse, to print the
    subcommand's usage line."""
    if not argv or argv[0] not in _INFO + _PIPELINE:
        return None
    command, tokens = argv[0], iter(argv[1:])
    flags = {row[0]: row for row in FLAGS if command in row[5]}
    values = {row[1]: row[3] for row in flags.values()}
    for token in tokens:
        if token not in flags:
            return None
        _, dest, kind, _, _, _ = flags[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if REQUIRED in values.values() or (values.get("table_import")
                                        and values.get("table_export")):
        return None
    # a flag's value overrides its subcommand's setting, as in argparse
    return types.SimpleNamespace(
        **{"command": command, **_settings(command), **values},
        usage_error=lambda message: _parse(argv).usage_error(message),
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_directly(argv) or _parse(argv)
    try:
        return args.func(args)
    except SignedLPError as exc:
        stage = getattr(exc, "stage", None)
        where = f" [stage: {stage}]" if stage else ""
        print(f"signedlp: {exc.__class__.__name__}: {exc}{where}", file=sys.stderr)
        return 1


def _run_by_interpreter(frame) -> bool:
    """Whether frame, the caller of entry(), is the process's main program:
    below it on the stack lie only the interpreter's start-up frames (runpy's
    for `python -m`), so nothing would run after entry() but shutdown."""
    frame = frame.f_back
    while frame is not None and frame.f_globals.get("__name__") == "runpy":
        frame = frame.f_back
    return frame is None


def entry() -> None:
    """The process entry point of `signedlp` and `python -m signedlp`.

    Once main() returns, stdout and stderr are flushed and the process
    leaves through os._exit, skipping interpreter shutdown: every file the
    program writes (a cache entry, --out, --export) is closed by its `with`
    block before main() returns, so shutdown would only free memory, and
    atexit hooks registered before the run do not run.  A flush that fails
    (a closed pipe) ends through sys.exit, as every run did before; so does
    a run that a Python caller started in-process (runpy.run_module, as
    perfbench/trace_child.py does, or cProfile), which gets SystemExit
    back.  An exception or SystemExit raised by main() propagates.
    """
    # Shutdown would otherwise walk and free every object the imports made,
    # and the collector would keep scanning them during the run; frozen, it
    # skips them.  Not in main(), which tests call in-process many times.
    # `python -m signedlp` runs the imports with the collector off, so it is
    # enabled only after the freeze.
    gc.freeze()
    gc.enable()
    code = main()
    if not _run_by_interpreter(sys._getframe(1)):
        sys.exit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
