"""Command-line front end: the path of report and verify.

Subcommands mirror the pipeline stages: curve-info, symbols, theta, signed,
gcd, verify, report.  Each of the last six is one run_pipeline call, stopped
after the stage it shows, and one payload written by analyzer.emit.  Exit
codes: 0 success, 1 computational failure (precision, stabilization,
validation, an unwritable --out or --export file), 2 usage errors.

FLAGS declares every flag once; both readers of a command line are built
from it.  main() reads a command line directly when it is a subcommand
followed only by that subcommand's own flags, each spelled `--flag value`,
every value valid as given and every required flag present.  Every other
command line (--help, an abbreviated flag, --flag=value, a value starting
with '-', a usage error) goes to the argparse parser, and so does a usage
error found later (a value RunConfig refuses, --import with --export).
Only the parser imports argparse, and with it gettext and locale; help,
usage lines, error messages and exit codes are argparse's.

A process compiles every module it imports when no bytecode is cached, so
this module holds only what a report or verify run executes.  curve-info,
the symbols, theta, signed and gcd payloads and the argparse parser live in
`subcommands`, which is imported when one of them is needed.
"""

from __future__ import annotations

import gc
import os
import sys
import types

from .analyzer import emit, report_payload
from .errors import SignedLPError
from .pipeline import RunConfig, run_pipeline


def _config(args) -> RunConfig:
    """The run's RunConfig; a flag value it refuses is a usage error."""
    try:
        return RunConfig(
            curve_file=args.curve,
            p=args.p,
            n_max=args.level,
            precision=args.prec,
            import_path=args.import_path,
            export_path=args.export_path,
            fine_char=getattr(args, "fine_char", None),
        )
    except ValueError as exc:
        args.usage_error(str(exc))


def cmd_curve_info(args) -> int:
    """curve-info (subcommands.cmd_curve_info)."""
    from . import subcommands

    return subcommands.cmd_curve_info(args)


# subcommand -> the stage its run stops after, None for all
PIPELINE_COMMANDS = {
    "symbols": "validate_hecke",
    "theta": "compat",
    "signed": None,
    "gcd": None,
    "verify": None,
    "report": None,
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
# them.  type is int, str or a tuple of the choices; every flag takes a value.
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
    ("--import", "import_path", str, None,
     "read the symbol table from this CSV file instead of computing it", _PIPELINE),
    ("--export", "export_path", str, None, "write the symbol table to this CSV file",
     _PIPELINE),
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
    if command in _CHECKED:
        payload = report_payload
    else:
        from .subcommands import PAYLOADS

        payload = PAYLOADS[command]
    return {"func": cmd_pipeline, "last_stage": PIPELINE_COMMANDS[command],
            "payload": payload, "format": "json"}


def build_parser():
    """The argparse parser of FLAGS (subcommands.build_parser)."""
    from . import subcommands

    return subcommands.build_parser()


def _read_directly(argv):
    """The namespace argparse's parser returns for argv, read from FLAGS;
    None unless argv is a subcommand followed only by its own flags, each
    spelled `--flag value` with a value that does not start with '-' and
    that the flag's type takes, and every required flag given.  Its
    usage_error hands argv to argparse, to print the subcommand's usage
    line."""
    if not argv or argv[0] not in _INFO + _PIPELINE:
        return None
    command, tokens = argv[0], iter(argv[1:])
    flags = {row[0]: row for row in FLAGS if command in row[5]}
    values = {row[1]: row[3] for row in flags.values()}
    for token in tokens:
        if token not in flags:
            return None
        _, dest, kind, _, _, _ = flags[token]
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
    if REQUIRED in values.values():
        return None
    # a flag's value overrides its subcommand's setting, as in argparse
    return types.SimpleNamespace(
        **{"command": command, **_settings(command), **values},
        usage_error=lambda message: build_parser().parse_args(argv).usage_error(message),
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # any other command line goes to argparse; a usage error exits 2
    args = _read_directly(argv) or build_parser().parse_args(argv)
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
