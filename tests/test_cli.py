import binascii
import json
import os
import re
import subprocess
import sys

import pytest

from signedlp import cli
from signedlp.cli import main
from signedlp.curves import ingest_curve
from signedlp.errors import InconsistentTable
from signedlp.modsym import SymbolTableBuilder, export_table
from signedlp.pipeline import RunConfig, run_pipeline

from conftest import ROOT, curve_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


_REPORT_53A1 = ["report", "--curve", curve_path("53a1")]


@pytest.mark.parametrize("argv", [
    ["signed", "--bogus"],
    _REPORT_53A1 + ["--p", "4"],
    _REPORT_53A1 + ["--p", "5", "--prec", "1"],
    _REPORT_53A1 + ["--p", "5", "--level", "-1"],
    _REPORT_53A1 + ["--p", "5", "--import"],
    ["gcd", "--curve", curve_path("53a1"), "--p", "3", "--level", "1", "--table", "t.csv"],
    ["gcd", "--curve", curve_path("53a1"), "--p", "3", "--format", "csv"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "X^a"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "Y"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "Phi1^-1"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "p^-1"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "X^"],
    *(["curve-info", "--curve", curve_path("37a1"), "--p", p] for p in ("4", "-3", "1", "0", "2")),
], ids=["unknown-flag", "p-not-prime", "prec-1", "level-negative", "import-without-table",
        "table-without-import-or-export",
        "format-without-csv-form", "fine-char-exponent-not-integer",
        "fine-char-unknown-factor", "fine-char-phi-exponent-negative",
        "fine-char-p-exponent-negative", "fine-char-dangling-caret",
        "curve-info-p-4", "curve-info-p-negative", "curve-info-p-1", "curve-info-p-0",
        "curve-info-p-2"])
def test_unknown_flag_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "signedlp", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
    assert "Traceback" not in proc.stderr and "SignedLPError" not in proc.stderr


def _command_lines(command):
    """(argv, well_formed) pairs built from cli.FLAGS for one subcommand, or
    for the top level when command is None.  A well-formed command line is
    the subcommand followed only by its own flags, each spelled `--flag
    value` with a value that does not start with '-' and that the flag
    takes, and every required flag given.  --import with --export is read,
    and refused later by RunConfig."""
    if command is None:
        return [([], False), (["bogus"], False), (["--help"], False),
                (["-h", "report"], False), (["--curve", "f.json", "report"], False)]
    rows = [row for row in cli.FLAGS if command in row[5]]
    own = {row[0] for row in rows}

    def spell(row, value=None):
        flag, _, kind, _, _, _ = row
        if value is None:
            value = kind[-1] if isinstance(kind, tuple) else "7" if kind is int else "f.json"
        return [flag, value]

    required = [row for row in rows if row[3] is cli.REQUIRED]
    base = [command, *(token for row in required for token in spell(row))]
    # value -> whether the flag takes it as given
    samples = {int: {" 5": True, "+5": True, "0": True, "-3": False, "2.5": False,
                     "x": False, "": False},
               str: {"": True, "a=b": True, "report": True, "-x": False, "-": False,
                     "--curve": False}}
    lines = [(base, True), (base + ["stray"], False), (base + ["--bogus", "x"], False),
             (base + ["--help"], False), (base + ["-h"], False), (base + ["--"], False)]
    lines += [(base + spell(row), False) for row in cli.FLAGS if row[0] not in own]
    lines.append(([command, *(t for row in reversed(rows) for t in spell(row))], True))
    if "--import" in own:  # each alone is spelled below, with every flag
        lines += [(base + ["--import", "a.csv", "--export", "b.csv"], True),
                  (base + ["--table", "a.csv", "--import"], False)]
    for row in rows:
        flag, _, kind, _, _, _ = row
        lines.append((base + spell(row), True))
        lines.append((base + spell(row) + spell(row), True))
        lines.append((base + [flag[:-1], *spell(row)[1:]], False))
        if row in required:
            rest = [token for other in required if other is not row for token in spell(other)]
            lines.append(([command, *rest], False))
        lines.append((base + [f"{flag}={spell(row)[1]}"], False))
        lines.append((base + [flag], False))
        if isinstance(kind, tuple):
            samples[kind] = {**dict.fromkeys(kind, True), "xml": False, "": False,
                             "-json": False}
        for value, taken in samples[kind].items():
            lines.append((base + spell(row, value), taken))
            lines.append((base + spell(row, value) + spell(row), taken))
    return lines


def _outcome(read, argv, capsys):
    """What reading argv gives: the exit code and output of a parse that
    exits, else the namespace's fields, with usage_error replaced by the exit
    code and stderr of calling it."""
    try:
        args = read(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err
    fields = dict(vars(args))
    with pytest.raises(SystemExit) as exc:
        fields.pop("usage_error")("p must be an odd prime")
    fields["usage_error"] = (exc.value.code, capsys.readouterr().err)
    return fields


@pytest.mark.parametrize("command", [None, "curve-info", *cli.PIPELINE_COMMANDS])
def test_direct_read_agrees_with_argparse(command, capsys, monkeypatch):
    # the direct read takes exactly the well-formed command lines, and main()
    # ends every command line as argparse's parse would: the same namespace
    # handed to the subcommand, or the same exit code and output
    handed = []
    for name in ("cmd_curve_info", "cmd_pipeline"):
        monkeypatch.setattr(cli, name, handed.append)

    def read(argv):
        assert main(argv) is None
        return handed.pop()

    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)  # built once: 5 ms
    lines = _command_lines(command)
    assert command is None or any(well_formed for _, well_formed in lines)
    for argv, well_formed in lines:
        assert (cli._read_directly(argv) is not None) == well_formed, argv
        assert _outcome(read, argv, capsys) == _outcome(parser.parse_args, argv, capsys), argv
    assert not handed


def test_readme_spells_only_declared_flags():
    # every example command line in README is read directly, so it uses only
    # its subcommand's flags from FLAGS, and README names every flag of
    # FLAGS and no other flag of signedlp
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    examples = [line.split() for line in readme.splitlines() if line.startswith("signedlp ")]
    assert {argv[1] for argv in examples} == {"curve-info", *cli.PIPELINE_COMMANDS}
    for _, command, *flags in examples:
        own = {row[0] for row in cli.FLAGS if command in row[5]}
        assert {t for t in flags if t.startswith("--")} <= own, command
        assert cli._read_directly([command, *flags]) is not None, command
    # --flag stands for any flag; the other two are argparse's and pip's
    others = {"--flag", "--help", "--no-build-isolation"}
    assert set(re.findall(r"--[a-z][a-z-]*", readme)) == {row[0] for row in cli.FLAGS} | others


def test_entry_freezes_gc_before_main(monkeypatch):
    # as the process's main program, entry() leaves through os._exit
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli.gc, "enable", lambda: calls.append("enable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(f"_exit({code})"))
    monkeypatch.setattr(cli, "_run_by_interpreter", lambda frame: True)
    cli.entry()
    assert calls == ["freeze", "enable", "main", "_exit(3)"]


def test_entry_called_in_process_raises_system_exit(monkeypatch):
    # a Python caller below entry() (here pytest) gets SystemExit back, and
    # the process goes on
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(f"_exit({code})"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert calls == ["main"]


def _pythonpath(*first):
    """PYTHONPATH with the given directories first and every entry absolute,
    for a child that runs in another directory."""
    inherited = filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
    return os.pathsep.join([*first, *map(os.path.abspath, inherited)])


# how a run ended before entry() left through os._exit: interpreter shutdown
_TEARDOWN_EXIT = "import sys; from signedlp.cli import main; sys.exit(main())"
_REPORT_53A1_P5 = _REPORT_53A1 + ["--p", "5", "--level", "1"]
_GCD_53A1_P5 = ["gcd", *_REPORT_53A1_P5[1:]]  # a payload that fits the stdout buffer


@pytest.mark.parametrize("argv, stdout, code, err", [
    (_REPORT_53A1_P5, "pipe", 0, b""),
    (_REPORT_53A1_P5 + ["--out", "r.json"], "pipe", 0, b""),
    (_REPORT_53A1_P5 + ["--format", "csv", "--export", "t.csv"], "pipe", 0, b""),
    (_REPORT_53A1 + ["--p", "4"], "pipe", 2, b"usage: signedlp"),
    (["report", "--curve", curve_path("37a1"), "--p", "5", "--level", "1"], "pipe", 1,
     b"signedlp: WrongReductionType: "),
    (_GCD_53A1_P5, "closed-unbuffered", 1, b"signedlp: IoError: cannot write stdout"),
    (_GCD_53A1_P5, "closed", 120, b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'"),
], ids=["stdout", "out", "csv-export", "usage-error", "stage-failure",
        "closed-pipe-unbuffered", "closed-pipe-buffered"])
def test_fast_exit_ends_as_interpreter_shutdown(argv, stdout, code, err, tmp_path):
    # exit code, stdout bytes, stderr and the files written match a run that
    # ends by shutting the interpreter down
    env = {k: v for k, v in os.environ.items()
           if k not in ("SIGNEDLP_CACHE_DIR", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = _pythonpath()
    if stdout == "closed-unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    ends = []
    for cmd in (["-m", "signedlp"], ["-c", _TEARDOWN_EXIT]):
        for f in cwd.iterdir():
            f.unlink()
        out = subprocess.PIPE
        if stdout != "pipe":
            read, out = os.pipe()
            os.close(read)
        try:
            proc = subprocess.run([sys.executable, *cmd, *argv], cwd=cwd, env=env,
                                  stdout=out, stderr=subprocess.PIPE)
        finally:
            if stdout != "pipe":
                os.close(out)
        written = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        ends.append((proc.returncode, proc.stdout, proc.stderr, written))
    fast, teardown = ends
    assert fast == teardown
    returncode, printed, logged, written = fast
    assert returncode == code and logged.startswith(err), logged
    assert bool(printed) == (stdout == "pipe" and code == 0 and "--out" not in argv)
    assert bool(written) == (code == 0 and ("--out" in argv or "--export" in argv))
    if code == 1 and stdout == "pipe":
        assert logged.rstrip().endswith(b"[stage: extract]")


def test_in_process_caller_gets_control_back(tmp_path):
    # runpy.run_module, as perfbench/trace_child.py runs the program, gets
    # SystemExit and goes on; `python -m signedlp` skips shutdown, and with
    # it an atexit hook registered at start-up
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\natexit.register(lambda: sys.stderr.write('atexit ran'))\n")
    env = dict(os.environ, PYTHONPATH=_pythonpath(str(tmp_path)))
    argv = ["curve-info", "--curve", curve_path("11a1")]
    direct = subprocess.run([sys.executable, "-m", "signedlp", *argv], env=env,
                            capture_output=True, text=True)
    assert direct.returncode == 0 and direct.stderr == ""
    wrapped = subprocess.run([sys.executable, "-c", (
        "import runpy, sys\n"
        f"sys.argv = ['signedlp', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('signedlp', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('back', exc.code)\n")], env=env, capture_output=True, text=True)
    assert wrapped.returncode == 0
    assert wrapped.stdout == direct.stdout + "back 0\n"
    assert wrapped.stderr == "atexit ran"


# modules a run must not load unless it needs them
_PROBED = ("mpmath", "dataclasses", "numpy", "fractions", "decimal", "csv", "argparse",
           "gettext", "locale", "signedlp.manin", "signedlp.tablefile",
           "signedlp.subcommands")
_IMPORT_PROBE = (
    "import sys; import signedlp.cli\n{run}"
    "print(*(m for m in {probed!r} if m in sys.modules))"
)


@pytest.mark.parametrize("case, expected", [
    (None, []),
    ("hit", []),
    ("miss", ["signedlp.manin"]),
    ("import", ["csv", "signedlp.tablefile"]),
    ("export", ["csv", "signedlp.manin", "signedlp.tablefile"]),
    ("csv", ["csv"]),
    ("usage-error", ["argparse", "gettext", "locale", "signedlp.subcommands"]),
    ("curve-info", ["signedlp.manin", "signedlp.subcommands"]),
    ("no-site", []),
], ids=["unset", "cache-hit", "cache-miss", "import", "export", "report-csv", "usage-error",
        "curve-info", "no-site"])
def test_report_loads_only_the_modules_it_needs(case, expected, tmp_path, monkeypatch):
    # a fresh interpreter, so that modules loaded by pytest cannot mask what
    # importing the CLI loads, and what one run then adds: the Manin-symbol
    # code only when the table is built (or for the periods of curve-info),
    # not when it is read from the cache or from --import; the CSV table
    # format and csv only for --import and --export; csv alone for --format
    # csv; the rest of the command line only for curve-info and a usage
    # error, and argparse, gettext and locale only for the latter; numpy,
    # mpmath, dataclasses, fractions and decimal never.  typing is probed
    # only without site (-S), which can preload it through a .pth file
    env = {k: v for k, v in os.environ.items() if k != "SIGNEDLP_CACHE_DIR"}
    run, flags, probed = "", [], _PROBED
    if case == "no-site":
        flags, probed = ["-S"], _PROBED + ("typing",)
        env["PYTHONPATH"] = _pythonpath(os.path.join(ROOT, "src"))
    if case == "curve-info":
        argv = ["curve-info", "--curve", curve_path("37a1"), "--p", "17",
                "--out", str(tmp_path / "info.json")]
        run = f"sys.exit(1) if signedlp.cli.main({argv!r}) else None\n"
    elif case not in (None, "no-site"):
        argv = ["report", "--curve", curve_path("37a1"), "--p", "3", "--level", "1",
                "--out", str(tmp_path / "report.json")]
        env["SIGNEDLP_CACHE_DIR"] = str(tmp_path / "cache")
        if case in ("hit", "csv"):
            monkeypatch.setenv("SIGNEDLP_CACHE_DIR", env["SIGNEDLP_CACHE_DIR"])
            assert main(argv) == 0 and list((tmp_path / "cache").glob("*.json"))
        table = str(tmp_path / "table.csv")
        if case == "import":
            assert main(argv + ["--export", table]) == 0
            argv += ["--import", table]
        if case == "export":
            argv += ["--export", table]
        if case == "csv":
            argv += ["--format", "csv"]
        run = f"sys.exit(1) if signedlp.cli.main({argv!r}) else None\n"
        if case == "usage-error":  # read directly, then refused by RunConfig
            argv[argv.index("--p") + 1] = "4"
            run = (f"try:\n    signedlp.cli.main({argv!r})\n"
                   "except SystemExit as exc:\n    assert exc.code == 2\n")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMPORT_PROBE.format(run=run, probed=probed)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected
    if case == "export":
        assert os.path.getsize(table) and list((tmp_path / "cache").glob("*.json"))


def test_traced_report_keeps_the_benchmark_contract(tmp_path):
    # perfbench/trace_child.py wraps the package's functions by their old
    # names and digests every table through modsym.export_table: a name that
    # stops resolving, or a table that exports differently, makes each traced
    # benchmark report fail.  The five names below are gone from the package
    # and stay missing until the benchmark is next changed.
    (tmp_path / "cache").mkdir()
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "trace_child.py"), str(spans),
         "53a1-p5-level3", "report", "--curve", curve_path("53a1"), "--p", "5",
         "--level", "3", "--digits", "14"],
        capture_output=True, text=True,
        env=dict(os.environ, SIGNEDLP_CACHE_DIR=str(tmp_path / "cache")),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(spans.read_text().splitlines()[-1])
    assert summary["missing_targets"] == [
        "signedlp.pipeline.result_payload",
        "signedlp.lseries.SymbolNumerics.level",
        "signedlp.lseries.SymbolNumerics.lambda_zero",
        "signedlp.modsym.recognize_rational",
        "signedlp.padic.PadicScalar.__init__",
    ]
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)["53a1-p5-level3-digits14"]
    assert summary["table_digests"] == [reference["table_sha256"]]


@pytest.mark.parametrize("path, p", [
    (curve_path("11a1"), 19),
    (curve_path("53a1"), 5),
    (os.path.join(ROOT, "tests", "data", "15a1.json"), 7),
], ids=["11a1-19", "53a1-5", "15a1-7"])
def test_build_and_cache_hit_load_no_fractions_decimal_or_csv(path, p, tmp_path):
    # one fresh interpreter builds the table, then reads it from the cache;
    # test_report_loads_only_the_modules_it_needs covers 37a1.  The minus
    # quotient of 15a1 has a three-term relation with no unit coefficient
    argv = ["report", "--curve", path, "--p", str(p), "--level", "1",
            "--out", str(tmp_path / "report.json")]
    env = {**os.environ, "SIGNEDLP_CACHE_DIR": str(tmp_path / "cache")}
    code = (
        "import sys; from signedlp.cli import main\n"
        f"assert main({argv!r}) == 0 and main({argv!r}) == 0\n"
        "print(*(m in sys.modules for m in ('signedlp.manin', 'fractions', 'decimal', 'csv')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False", "False"]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def test_signed_reports_gcd_x(capsys):
    code, out, _ = run_cli(
        ["signed", "--curve", curve_path("53a1"), "--p", "3",
         "--level", "2", "--prec", "8", "--digits", "14"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd"] == "X" and payload["gcd_certified"]
    assert payload["method"] == "linear-system"


def test_signed_payload_reads_method_labels_and_stabilized_off_the_components(capsys):
    # at level 1 the plus component has one level and the minus chain is 0
    code, out, _ = run_cli(["signed", "--curve", curve_path("37a1"), "--p", "17"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["grade"] for c in payload["components"]] == ["single-level", "zero-chain"]
    assert payload["method"] == "parity-factor" and payload["labels"] == ["plus", "minus"]
    assert payload["stabilized"] is False


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--curve", curve_path("53a1"), "--p", "5",
         "--level", "2", "--prec", "8", "--digits", "14", "--fine-char", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_E"] == 1
    assert all(c["status"] == "PASS" for c in payload["checks"])


def test_ordinary_prime_fails_at_extract_stage(capsys):
    # symbols, thetas and compatibility are meaningful at any good prime;
    # only the signed extraction demands supersingular reduction
    code, _, err = run_cli(
        ["signed", "--curve", curve_path("37a1"), "--p", "5",
         "--digits", "14"],
        capsys,
    )
    assert code == 1
    assert "WrongReductionType" in err
    assert "stage: extract" in err


def _shift_theta_2(monkeypatch, c):
    """Make the pipeline's theta_2 theta_2 + c (Y - 1): the remainder of the
    three-term congruence mod omega_1 is c (Y - 1) over Z."""
    from signedlp import pipeline

    build = pipeline.build_theta

    def shifted(table, n):
        theta = build(table, n)
        if n == 2:
            theta = [theta[0] - c, theta[1] + c, *theta[2:]]
        return theta

    monkeypatch.setattr(pipeline, "build_theta", shifted)


def test_broken_congruence_stops_report_at_compat(capsys, monkeypatch):
    # the remainder X = Y - 1 is named by its first nonzero Y-coefficient
    _shift_theta_2(monkeypatch, 1)
    argv = ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == ("signedlp: InconsistentTable: level 2: Y-coefficient 0 of the remainder "
                   "has 3-adic valuation 0 [stage: compat]\n")
    with pytest.raises(InconsistentTable) as exc:
        run_pipeline(RunConfig(curve_path("53a1"), 3, n_max=2))
    assert exc.value.stage == "compat"


@pytest.mark.parametrize("M", [2, 8])
def test_congruence_broken_only_beyond_the_precision_stops_at_compat(capsys, monkeypatch, M):
    # a remainder p^M (Y - 1) vanishes mod p^M in every coefficient, but not
    # over Z: the check reads it exactly and fails, naming valuation M
    _shift_theta_2(monkeypatch, 3**M)
    argv = ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
            "--prec", str(M)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert ("InconsistentTable: level 2: Y-coefficient 0 of the remainder has 3-adic "
            f"valuation {M} ") in err
    assert err.rstrip().endswith("[stage: compat]")


def test_fit_disagreeing_with_the_pair_stops_report_at_extract(capsys, monkeypatch):
    # a fit whose lambda* is one above the extracted lambda of each class
    from signedlp import pipeline

    fit = pipeline.invariant_fit

    def shifted(thetas, ctx):
        return tuple((mu, lam + 1) for mu, lam in fit(thetas, ctx))

    monkeypatch.setattr(pipeline, "invariant_fit", shifted)
    argv = ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "NotStabilized: extracted invariants disagree with the invariant fit " in err
    assert err.rstrip().endswith("[stage: extract]")


def test_bad_prime_fails_at_classify_stage(capsys):
    code, _, err = run_cli(
        ["signed", "--curve", curve_path("37a1"), "--p", "37",
         "--digits", "14"],
        capsys,
    )
    assert code == 1
    assert "WrongReductionType" in err
    assert "stage: classify" in err


@pytest.mark.parametrize("command", ["symbols", "theta"])
def test_bad_prime_stops_every_subcommand_at_classify(command, capsys):
    code, out, err = run_cli([command, "--curve", curve_path("37a1"), "--p", "37"], capsys)
    assert (code, out) == (1, "")
    assert err.rstrip().endswith("WrongReductionType: 37a1 has multiplicative reduction "
                                 "at 37 [stage: classify]")


def test_curve_info(capsys):
    code, out, _ = run_cli(
        ["curve-info", "--curve", curve_path("37a1"), "--p", "17"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conductor"] == 37
    assert payload["reduction_at_p"]["type"] == "good-supersingular"
    assert abs(payload["omega_plus"] - 5.9869172924639) < 1e-10
    code, out, _ = run_cli(["curve-info", "--curve", curve_path("37a1")], capsys)
    assert code == 0 and "reduction_at_p" not in json.loads(out)


def test_imported_table_matches_computed(tmp_path, capsys):
    table_file = tmp_path / "53a1_p3.csv"
    code, out1, _ = run_cli(
        ["signed", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--prec", "8", "--digits", "14", "--export", str(table_file)],
        capsys,
    )
    assert code == 0 and table_file.exists()
    code, out2, _ = run_cli(
        ["signed", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--prec", "8", "--digits", "14", "--import", str(table_file)],
        capsys,
    )
    assert code == 0
    assert json.loads(out1) == json.loads(out2)


def test_run_config_validates_inputs():
    with pytest.raises(ValueError):
        RunConfig(curve_file=curve_path("53a1"), p=9)
    with pytest.raises(ValueError):
        RunConfig(curve_file=curve_path("53a1"), p=2)
    with pytest.raises(ValueError):
        RunConfig(curve_file=curve_path("53a1"), p=5, precision=1)
    with pytest.raises(ValueError, match="^--import and --export exclude each other$"):
        RunConfig(curve_file=curve_path("53a1"), p=5, import_path="a.csv", export_path="b.csv")
    cfg = RunConfig(curve_file=curve_path("53a1"), p=5)
    assert cfg.n_max == 2
    assert RunConfig(curve_file=curve_path("53a1"), p=11).n_max == 1


@pytest.mark.parametrize("argv, reason", [
    (_REPORT_53A1 + ["--p", "5", "--level", "-1"], "level must be nonnegative"),
    *((["curve-info", "--curve", curve_path("53a1"), "--p", p], "p must be an odd prime")
      for p in ("4", "9")),
], ids=["report-level-negative", "curve-info-p-4", "curve-info-p-9"])
def test_refused_value_is_a_usage_error_with_its_reason(argv, reason, capsys):
    # test_unknown_flag_exits_2 runs these in a child process and reads the
    # exit code; here the reason the check gives is read too
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: signedlp {argv[0]} ")
    assert err.endswith(f": error: {reason}\n")


def test_import_with_export_is_a_usage_error_that_writes_nothing(tmp_path, capsys,
                                                                  monkeypatch):
    # export_table needs every level, and an imported table has not passed
    # validate_hecke when the export would run
    monkeypatch.chdir(tmp_path)
    flags = ["--curve", curve_path("53a1"), "--p", "5", "--level", "1"]
    assert run_cli(["symbols", *flags, "--export", "a.csv"], capsys)[0] == 0
    monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(tmp_path / "cache"))
    for command in ("symbols", "report"):
        for both in (["--import", "a.csv", "--export", "b.csv"],
                     ["--export=b.csv", "--import", "a.csv"]):
            with pytest.raises(SystemExit) as exc:
                main([command, *flags, *both])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert err.startswith(f"usage: signedlp {command} ")
            assert err.endswith(": error: --import and --export exclude each other\n")
    assert sorted(os.listdir(tmp_path)) == ["a.csv"]


def test_gcd_stable_under_p_precision():
    results = {}
    for M in (2, 8):
        cfg = RunConfig(curve_file=curve_path("53a1"), p=5, n_max=2, precision=M)
        results[M] = run_pipeline(cfg).gcd.as_string()
    assert results[2] == results[8] == "X"


def test_report_deterministic(tmp_path, capsys):
    paths = []
    for i in (0, 1):
        out = tmp_path / f"report{i}.json"
        code, _, _ = run_cli(
            ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
             "--prec", "8", "--digits", "14", "--fine-char", "1",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_csv_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run_cli(
        ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--prec", "8", "--digits", "14", "--fine-char", "1",
         "--format", "csv", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("curve,p,gcd")
    assert len(lines) > 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_out_holds_the_bytes_of_stdout(fmt, tmp_path, capsysbinary):
    argv = ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
            "--format", fmt]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed.startswith(b"{" if fmt == "json" else b"curve,p,gcd")
    path = tmp_path / f"report.{fmt}"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == printed


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["gcd", "--curve", curve_path("53a1"), "--p", "3",
         "--out", str(tmp_path / "missing" / "gcd.json")],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith("signedlp: IoError: cannot write") and "Traceback" not in err


def test_unwritable_export_is_an_io_error_at_symbols(tmp_path, capsys):
    path = tmp_path / "missing" / "t.csv"
    code, out, err = run_cli(
        ["symbols", "--curve", curve_path("53a1"), "--p", "5", "--level", "1",
         "--export", str(path)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"signedlp: IoError: cannot write {path}: ")
    assert err.endswith(" [stage: symbols]\n")


@pytest.mark.parametrize("content", [b"5", b"null", b'"abc"', b"{", b'{"label": "\xff"}'],
                         ids=["number", "null", "string", "invalid-json", "not-utf-8"])
def test_malformed_curve_file_is_a_parse_error_at_ingest(content, tmp_path, capsys):
    # a top level other than an object, JSON that does not parse and bytes
    # that are not UTF-8 are each refused naming the file
    path = tmp_path / "curve.json"
    path.write_bytes(content)
    code, out, err = run_cli(["report", "--curve", str(path), "--p", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("signedlp: ParseError: ") and str(path) in err
    assert err.endswith(" [stage: ingest]\n")


@pytest.mark.parametrize("row", [b"1,1,\xff,1,0,1", b"1,1," + b"7" * 200000 + b",1,0,1"],
                         ids=["not-utf-8", "field-over-the-csv-limit"])
def test_unreadable_import_is_a_parse_error_at_symbols(row, tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"53a1,3\n0,0,0,1,0,1\n" + row + b"\n")
    code, out, err = run_cli(
        ["symbols", "--curve", curve_path("53a1"), "--p", "3", "--import", str(path)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"signedlp: ParseError: cannot read {path} as UTF-8 CSV: ")
    assert err.endswith(" [stage: symbols]\n")


@pytest.mark.parametrize("label, p, message", [
    ("53a1", 5, "no theta levels of parity 1"),
    ("37a1", 3, "need at least theta_0 and theta_1"),
], ids=["plus-minus", "sharp-flat"])
def test_level_zero_report_stops_at_extract(label, p, message, capsys):
    code, out, err = run_cli(
        ["report", "--curve", curve_path(label), "--p", str(p), "--level", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == f"signedlp: NotStabilized: {message} [stage: extract]\n"


@pytest.fixture(scope="module")
def corrupted_table(tmp_path_factory):
    """53a1 at p = 3 through level 3 with one plus symbol changed: the file
    imports, and the table fails the Hecke relations."""
    path = tmp_path_factory.mktemp("tables") / "53a1_p3.csv"
    export_table(SymbolTableBuilder(ingest_curve(curve_path("53a1")), 3).build(3), str(path))
    lines = path.read_text().splitlines()
    k, a, num, den, *minus = lines[2].split(",")
    assert k == "1"
    lines[2] = ",".join([k, a, str(int(num) + 1), den, *minus])
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["symbols", "theta", "report"])
def test_invalid_imported_table_fails_at_validate_hecke(command, corrupted_table, capsys):
    code, out, err = run_cli(
        [command, "--curve", curve_path("53a1"), "--p", "3",
         "--import", corrupted_table],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith("signedlp: InconsistentTable: 4 Hecke violations:\n  level 1, ")
    assert err.rstrip().endswith("[stage: validate_hecke]")


def test_symbols_subcommand(tmp_path, capsys):
    table_file = tmp_path / "t.csv"
    code, out, _ = run_cli(
        ["symbols", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--digits", "14", "--export", str(table_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    # a table that fails validation stops the run, so no field restates a pass
    assert set(payload) == {"curve", "p", "levels", "entries", "provenance"}
    assert table_file.exists()


def test_theta_subcommand(capsys):
    code, out, _ = run_cli(
        ["theta", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--digits", "14"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"curve", "p", "thetas"}
    assert all(v["value_at_zero_vanishes"] for v in payload["thetas"].values())


def test_report_embeds_certification(capsys):
    code, out, _ = run_cli(
        ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--digits", "14", "--fine-char", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["run"]["stages"]["symbols"]["certification"]
    assert set(cert) == {"plus", "minus"}
    for part in cert.values():
        (a, b), (c, d) = part["cycle"]
        assert a * d - b * c == 1 and c % 53 == 0
        assert part["hecke_primes"] == [2] and part["deviation"] < 1e-12
        assert part["value"] in ("-1/2", "-1")


@pytest.mark.extended
def test_spec_invocation_37a1_p17(capsys):
    # the documented invocation shape, at an explicit fast digit count
    code, out, _ = run_cli(
        ["signed", "--curve", curve_path("37a1"), "--p", "17",
         "--level", "1", "--prec", "6", "--digits", "13"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd"] == "X"


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
    flags = ["--curve", curve_path("53a1"), "--p", "3", "--level", "2"]
    args = ["gcd"] + flags + ["--prec", "8"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    cached = list(cache.glob("*.json"))
    assert len(cached) == 1
    code, out2, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out1) == json.loads(out2)
    # a report from the cache is byte-identical to one computed without it;
    # the table does not depend on --prec or --digits, so one entry serves all
    for prec, digits in (("8", "14"), ("6", "14"), ("6", "40")):
        report = ["report"] + flags + ["--prec", prec, "--digits", digits, "--fine-char", "1"]
        code, warm, _ = run_cli(report, capsys)
        assert code == 0 and len(list(cache.glob("*.json"))) == 1
        monkeypatch.delenv("SIGNEDLP_CACHE_DIR")
        code, cold, _ = run_cli(report, capsys)
        monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
        assert code == 0 and warm == cold


def test_export_writes_from_a_filled_cache(tmp_path, capsys, monkeypatch):
    # --export writes whenever it is given: a table read from the cache is
    # exported byte for byte as the one built without a cache
    argv = ["symbols", "--curve", curve_path("53a1"), "--p", "5", "--level", "2"]
    exports = {}
    for run in ("cold", "miss", "hit"):
        if run == "miss":
            monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / f"{run}.csv"
        assert run_cli(argv + ["--export", str(path)], capsys)[0] == 0
        exports[run] = path.read_bytes()
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    assert exports["hit"] == exports["miss"] == exports["cold"]


_REPORT_37A1_P3 = ["report", "--p", "3", "--level", "1"]


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _corrupt_entry(change, checksum=False):
    """Edit the JSON table of an entry in place.  The entry's checksum line,
    if any, is kept and so no longer matches, unless checksum asks for one
    that does."""
    def corrupt(path):
        text = path.read_text()
        head, body = text[: text.index("{")], text[text.index("{"):]
        entry = json.loads(body)
        change(entry)
        body = json.dumps(entry)
        if checksum:
            head = "%08x\n" % binascii.crc32(body.encode())
        path.write_text(head + body)
    return corrupt


def _float_numerator(entry):
    entry["levels"][1][0][1] += 0.5


def _numerator_plus_one(entry):
    entry["levels"][2][0][7] += 1


def _certification_value(entry):
    entry["meta"]["plus"]["value"] = "7"


def _numerators_times_five(entry):
    for level in entry["levels"]:
        for sign in level:
            sign[:] = [5 * a for a in sign]


@pytest.mark.parametrize("corrupt", [
    _corrupt_truncated,
    _corrupt_entry(_float_numerator),
    _corrupt_entry(lambda entry: entry["levels"].pop()),
    _corrupt_entry(lambda entry: entry["levels"].pop(), checksum=True),
    _corrupt_entry(_numerator_plus_one),
    _corrupt_entry(_certification_value),
    _corrupt_entry(_numerators_times_five),
], ids=["truncated", "float-numerator", "one-level-short", "one-level-short-checksummed",
        "numerator-plus-one", "certification-value", "numerators-times-five"])
def test_bad_cache_entry_is_rebuilt(corrupt, tmp_path, capsys, monkeypatch):
    # an entry that fails its checksum, does not parse, or whose shape does
    # not match its key is a miss: the report is the cold one and the entry
    # is written again.  An edit that keeps the shape (a numerator off by
    # one, another certification value, every numerator times 5) would
    # otherwise fail the Hecke check or change the report
    argv = ["report", "--curve", curve_path("53a1"), "--p", "5", "--level", "2"]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
    assert run_cli(argv, capsys)[:2] == (0, cold)
    (entry,) = cache.iterdir()
    written = entry.read_bytes()
    corrupt(entry)
    assert entry.read_bytes() != written
    assert run_cli(argv, capsys)[:2] == (0, cold)
    assert list(cache.iterdir()) == [entry] and entry.read_bytes() == written
    # a line with the CRC-32 of the rest in eight hex digits, then the table
    crc, body = written.split(b"\n", 1)
    assert crc == b"%08x" % binascii.crc32(body)
    json.loads(body)


@pytest.mark.parametrize("label", ["a/b", "../escaped"])
def test_label_stays_out_of_the_cache_name(label, tmp_path, capsys, monkeypatch):
    # the label does not change the table, so it is not part of the entry's
    # name: a label that reads as a path neither fails nor escapes the cache
    with open(curve_path("37a1")) as fh:
        raw = json.load(fh)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({**raw, "label": label}))
    argv = _REPORT_37A1_P3 + ["--curve", str(curve)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(cold)["curve"] == label
    cache = tmp_path / "cache"
    monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
    for _ in range(2):  # cold, then a hit
        assert run_cli(argv, capsys)[:2] == (0, cold)
    (entry,) = cache.iterdir()
    assert entry.is_file() and entry.suffix == ".json"
    assert sorted(tmp_path.rglob("*")) == sorted([curve, cache, entry])


def _cache_under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "cache"


def _entry_is_a_directory(tmp_path):
    cache = tmp_path / "cache"
    env = {**os.environ, "SIGNEDLP_CACHE_DIR": str(cache)}
    argv = _REPORT_37A1_P3 + ["--curve", curve_path("37a1")]
    subprocess.run([sys.executable, "-m", "signedlp", *argv], env=env, check=True,
                   capture_output=True)
    (entry,) = cache.iterdir()
    entry.unlink()
    entry.mkdir()
    return cache


@pytest.mark.parametrize("make_cache", [_cache_under_a_file, _entry_is_a_directory],
                         ids=["directory-under-a-file", "entry-is-a-directory"])
def test_unusable_cache_is_an_io_error(make_cache, tmp_path):
    env = {**os.environ, "SIGNEDLP_CACHE_DIR": str(make_cache(tmp_path))}
    proc = subprocess.run(
        [sys.executable, "-m", "signedlp", *_REPORT_37A1_P3, "--curve", curve_path("37a1")],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("signedlp: IoError: cannot ")
    assert proc.stderr.rstrip().endswith("[stage: symbols]")
    assert "Traceback" not in proc.stderr


def test_import_missing_a_unit_residue_fails_at_validate_hecke(tmp_path, capsys):
    # a level whose rows miss a unit residue is not held
    table = tmp_path / "table.csv"
    flags = ["--curve", curve_path("53a1"), "--p", "3", "--level", "1"]
    assert run_cli(["symbols", "--export", str(table)] + flags, capsys)[0] == 0
    rows = table.read_text().splitlines()
    assert rows[-1].startswith("2,")
    table.write_text("\n".join(rows[:-1]) + "\n")
    code, out, err = run_cli(["symbols", "--import", str(table)] + flags, capsys)
    assert (code, out) == (1, "")
    assert err == "signedlp: IncompleteTable: table missing level 2 [stage: validate_hecke]\n"


def test_too_shallow_import_fails_at_validate_hecke(tmp_path, capsys):
    table = str(tmp_path / "table.csv")
    flags = ["--curve", curve_path("53a1"), "--p", "3"]
    assert run_cli(["symbols", "--level", "1", "--export", table] + flags, capsys)[0] == 0
    code, out, err = run_cli(["report", "--level", "2", "--import", table] + flags, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("signedlp: IncompleteTable: table missing level 3")
    assert err.rstrip().endswith("[stage: validate_hecke]")


@pytest.mark.parametrize("label, p, x", [("37a1", 3, 1), ("53a1", 5, 1), ("11a1", 19, 0)])
def test_default_flags_on_every_fixture(label, p, x, capsys):
    code, out, err = run_cli(["report", "--curve", curve_path(label), "--p", str(p)], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert "certification" in payload["run"]["stages"]["symbols"]
    assert payload["gcd"]["x"] == x


@pytest.mark.parametrize("field", ["fricke_sign", "conductor", "rank"])
def test_bad_metadata_fails_at_ingest_stage(field, tmp_path, capsys, monkeypatch):
    # rank 0 contradicts the root number -1 of 37a1 (its fricke_sign is +1)
    from signedlp import pipeline

    with open(curve_path("37a1")) as fh:
        raw = json.load(fh)
    if field == "rank":
        raw.update(rank=0, e_sequence=[0])
    else:
        raw[field] = -raw[field] if field == "fricke_sign" else 2 * raw[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(
        pipeline, "load_or_build_table", lambda *args: pytest.fail("symbols were built")
    )
    code, _, err = run_cli(
        ["report", "--curve", str(path), "--p", "3", "--digits", "14"], capsys
    )
    assert code == 1
    assert "MetadataMismatch" in err and field in err
    assert "stage: ingest" in err


def test_rank_that_contradicts_theta_0_fails_at_theta_stage(tmp_path, capsys):
    # 11a1 re-recorded with rank 2 keeps the parity of its root number +1, so
    # ingest passes; but theta_0 = (a_p - 2)[0]^+ != 0 exactly, so L(E,1) != 0
    # and the rank is 0 (Kolyvagin)
    with open(curve_path("11a1")) as fh:
        raw = json.load(fh)
    raw.update(rank=2, e_sequence=[2])
    path = tmp_path / "11a1_rank2.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(["report", "--curve", str(path), "--p", "19", "--level", "1"],
                             capsys)
    assert (code, out) == (1, "")
    assert err == ("signedlp: MetadataMismatch: 11a1: rank 2 contradicts theta_0 != 0, "
                   "that is L(E,1) != 0, which forces rank 0 [stage: theta]\n")


@pytest.mark.parametrize("command", ["symbols", "theta"])
def test_missing_import_table_names_symbols_stage(command, tmp_path, capsys):
    code, _, err = run_cli(
        [command, "--curve", curve_path("53a1"), "--p", "3", "--digits", "14",
         "--import", str(tmp_path / "missing.csv")],
        capsys,
    )
    assert code == 1
    assert "ParseError: cannot open" in err
    assert err.rstrip().endswith("[stage: symbols]")


def test_digits_reach_no_report(capsys):
    # --digits still parses, and every table is exact: 13 and 40 digits give
    # the same bytes
    outs = []
    for digits in ("13", "40"):
        code, out, _ = run_cli(
            ["report", "--curve", curve_path("37a1"), "--p", "17", "--level", "1",
             "--digits", digits, "--fine-char", "1"],
            capsys,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_report_under_python_O_is_unchanged():
    # certification must not live in assert statements, which -O strips
    args = ["-m", "signedlp", "report", "--curve", curve_path("53a1"), "--p", "5"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *args], capture_output=True)
        for flags in ((), ("-O",))
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
