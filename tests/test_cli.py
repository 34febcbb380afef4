import json
import os
import subprocess
import sys

import pytest

from signedlp import cli
from signedlp.cli import main
from signedlp.curves import ingest_curve
from signedlp.modsym import SymbolTableBuilder, export_table
from signedlp.pipeline import RunConfig, run_pipeline

from conftest import curve_path


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
    ["gcd", "--curve", curve_path("53a1"), "--p", "3", "--format", "csv"],
], ids=["unknown-flag", "p-not-prime", "prec-1", "level-negative", "import-without-table",
        "format-without-csv-form"])
def test_unknown_flag_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "signedlp", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
    assert "Traceback" not in proc.stderr and "SignedLPError" not in proc.stderr


def test_entry_freezes_gc_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli.gc, "enable", lambda: calls.append("enable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert calls == ["freeze", "enable", "main"]


_IMPORT_PROBE = (
    "import os, sys; import signedlp.cli; {run}"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), *(m in sys.modules for m in "
    "('mpmath', 'dataclasses', 'signedlp.manin', 'fractions', 'numpy')))"
)


@pytest.mark.parametrize("preset, cache, expected", [
    (None, None, ["1", "False", "False", "False", "False", "False"]),
    ("2", None, ["2", "False", "False", "False", "False", "False"]),
    (None, "hit", ["1", "False", "False", "False", "False", "False"]),
    (None, "miss", ["1", "False", "False", "True", "True", "True"]),
    (None, "import", ["1", "False", "False", "False", "False", "False"]),
], ids=["unset", "preset", "cache-hit", "cache-miss", "import"])
def test_cli_import_pins_openblas_and_skips_mpmath(preset, cache, expected, tmp_path,
                                                   monkeypatch):
    # a fresh interpreter, so that numpy, mpmath, dataclasses or fractions
    # loaded by pytest cannot mask what importing the CLI loads, and what
    # one report then adds: the Manin-symbol code and numpy only when the
    # table is built, not when it is read from the cache or from --import
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "SIGNEDLP_CACHE_DIR")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = ""
    if cache is not None:
        argv = ["report", "--curve", curve_path("37a1"), "--p", "3", "--level", "1",
                "--out", str(tmp_path / "report.json")]
        env["SIGNEDLP_CACHE_DIR"] = str(tmp_path / "cache")
        if cache == "hit":
            monkeypatch.setenv("SIGNEDLP_CACHE_DIR", env["SIGNEDLP_CACHE_DIR"])
            assert main(argv) == 0 and list((tmp_path / "cache").glob("*.csv"))
        if cache == "import":
            table = str(tmp_path / "table.csv")
            assert main(argv + ["--table", table, "--export"]) == 0
            argv += ["--table", table, "--import"]
        run = f"sys.exit(1) if signedlp.cli.main({argv!r}) else None; "
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(run=run)], capture_output=True,
        text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def test_first_build_imports_numpy_frozen(tmp_path):
    # in a process that froze its start-up imports, as cli.entry does, the
    # first build imports manin and numpy with the collector off and then
    # freezes them, so that later collections and shutdown skip them
    argv = ["report", "--curve", curve_path("37a1"), "--p", "3", "--level", "1",
            "--out", str(tmp_path / "report.json")]
    code = ("import gc, signedlp.cli; gc.freeze(); frozen = gc.get_freeze_count(); "
            f"assert signedlp.cli.main({argv!r}) == 0; "
            "print(gc.get_freeze_count() > frozen, gc.isenabled())")
    env = {k: v for k, v in os.environ.items() if k != "SIGNEDLP_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


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


def test_imported_table_matches_computed(tmp_path, capsys):
    table_file = tmp_path / "53a1_p3.csv"
    code, out1, _ = run_cli(
        ["signed", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--prec", "8", "--digits", "14", "--table", str(table_file), "--export"],
        capsys,
    )
    assert code == 0 and table_file.exists()
    code, out2, _ = run_cli(
        ["signed", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--prec", "8", "--digits", "14", "--table", str(table_file), "--import"],
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
    cfg = RunConfig(curve_file=curve_path("53a1"), p=5)
    assert cfg.n_max == 2
    assert RunConfig(curve_file=curve_path("53a1"), p=11).n_max == 1


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
         "--table", corrupted_table, "--import"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "Hecke violations" in err
    assert err.rstrip().endswith("[stage: validate_hecke]")


def test_symbols_subcommand(tmp_path, capsys):
    table_file = tmp_path / "t.csv"
    code, out, _ = run_cli(
        ["symbols", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--digits", "14", "--table", str(table_file), "--export"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hecke"] == "PASS" and table_file.exists()


def test_theta_subcommand(capsys):
    code, out, _ = run_cli(
        ["theta", "--curve", curve_path("53a1"), "--p", "3", "--level", "2",
         "--digits", "14"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["compat"] == {"2": True}
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
    cached = list(cache.glob("*.csv"))
    assert len(cached) == 1
    code, out2, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out1) == json.loads(out2)
    # a report from the cache is byte-identical to one computed without it;
    # the table does not depend on --prec or --digits, so one entry serves all
    for prec, digits in (("8", "14"), ("6", "14"), ("6", "40")):
        report = ["report"] + flags + ["--prec", prec, "--digits", digits, "--fine-char", "1"]
        code, warm, _ = run_cli(report, capsys)
        assert code == 0 and len(list(cache.glob("*.csv"))) == 1
        monkeypatch.delenv("SIGNEDLP_CACHE_DIR")
        code, cold, _ = run_cli(report, capsys)
        monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
        assert code == 0 and warm == cold


@pytest.mark.parametrize("label, p, x", [("37a1", 3, 1), ("53a1", 5, 1), ("11a1", 19, 0)])
def test_default_flags_on_every_fixture(label, p, x, capsys):
    code, out, err = run_cli(["report", "--curve", curve_path(label), "--p", str(p)], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert "certification" in payload["run"]["stages"]["symbols"]
    assert payload["gcd"]["x"] == x


@pytest.mark.parametrize("field", ["fricke_sign", "conductor"])
def test_bad_metadata_fails_at_ingest_stage(field, tmp_path, capsys, monkeypatch):
    from signedlp import pipeline

    with open(curve_path("37a1")) as fh:
        raw = json.load(fh)
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


@pytest.mark.parametrize("command", ["symbols", "theta"])
def test_missing_import_table_names_symbols_stage(command, tmp_path, capsys):
    code, _, err = run_cli(
        [command, "--curve", curve_path("53a1"), "--p", "3", "--digits", "14",
         "--table", str(tmp_path / "missing.csv"), "--import"],
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
