import json
import os
import subprocess
import sys

import pytest

from signedlp import cli
from signedlp.cli import main
from signedlp.curves import ingest_curve
from signedlp.errors import CompatFailed
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
    _REPORT_53A1 + ["--p", "5", "--fine-char", "X^a"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "Y"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "Phi1^-1"],
    _REPORT_53A1 + ["--p", "5", "--fine-char", "p^-1"],
], ids=["unknown-flag", "p-not-prime", "prec-1", "level-negative", "import-without-table",
        "format-without-csv-form", "fine-char-exponent-not-integer",
        "fine-char-unknown-factor", "fine-char-phi-exponent-negative",
        "fine-char-p-exponent-negative"])
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
    "import sys; import signedlp.cli; {run}"
    "print(*(m in sys.modules for m in "
    "('mpmath', 'dataclasses', 'signedlp.manin', 'fractions', 'numpy')))"
)


@pytest.mark.parametrize("cache, expected", [
    (None, ["False", "False", "False", "False", "False"]),
    ("hit", ["False", "False", "False", "False", "False"]),
    ("miss", ["False", "False", "True", "True", "False"]),
    ("import", ["False", "False", "False", "False", "False"]),
], ids=["unset", "cache-hit", "cache-miss", "import"])
def test_report_loads_only_the_modules_it_needs(cache, expected, tmp_path, monkeypatch):
    # a fresh interpreter, so that numpy, mpmath, dataclasses or fractions
    # loaded by pytest cannot mask what importing the CLI loads, and what
    # one report then adds: the Manin-symbol code only when the table is
    # built, not when it is read from the cache or from --import, and numpy
    # never
    env = {k: v for k, v in os.environ.items() if k != "SIGNEDLP_CACHE_DIR"}
    run = ""
    if cache is not None:
        argv = ["report", "--curve", curve_path("37a1"), "--p", "3", "--level", "1",
                "--out", str(tmp_path / "report.json")]
        env["SIGNEDLP_CACHE_DIR"] = str(tmp_path / "cache")
        if cache == "hit":
            monkeypatch.setenv("SIGNEDLP_CACHE_DIR", env["SIGNEDLP_CACHE_DIR"])
            assert main(argv) == 0 and list((tmp_path / "cache").glob("*.json"))
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


def test_broken_congruence_stops_report_at_compat(capsys, monkeypatch):
    from signedlp import pipeline

    build = pipeline.build_theta

    def shifted(table, n, M):
        # theta_2 + X: the remainder mod omega_1 is X, so coefficient 1 breaks
        theta = build(table, n, M)
        return theta + theta.context.x_power(1) if n == 2 else theta

    monkeypatch.setattr(pipeline, "build_theta", shifted)
    argv = ["report", "--curve", curve_path("53a1"), "--p", "3", "--level", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "CompatFailed: level 2: coefficient 1 " in err
    assert err.rstrip().endswith("[stage: compat]")
    with pytest.raises(CompatFailed) as exc:
        run_pipeline(RunConfig(curve_path("53a1"), 3, n_max=2))
    assert exc.value.index == 1


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


_REPORT_37A1_P3 = ["report", "--p", "3", "--level", "1"]


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _corrupt_entry(change):
    def corrupt(path):
        entry = json.loads(path.read_text())
        change(entry)
        path.write_text(json.dumps(entry))
    return corrupt


def _float_numerator(entry):
    entry["levels"][1][0][1] += 0.5


@pytest.mark.parametrize("corrupt", [
    _corrupt_truncated,
    _corrupt_entry(_float_numerator),
    _corrupt_entry(lambda entry: entry["levels"].pop()),
], ids=["truncated", "float-numerator", "one-level-short"])
def test_bad_cache_entry_is_rebuilt(corrupt, tmp_path, capsys, monkeypatch):
    # an entry that does not parse, or whose shape does not match its key,
    # is a miss: the report is the cold one and the entry is written again
    argv = _REPORT_37A1_P3 + ["--curve", curve_path("37a1")]
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
    json.loads(written)


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


def test_too_shallow_import_fails_at_validate_hecke(tmp_path, capsys):
    table = str(tmp_path / "table.csv")
    flags = ["--curve", curve_path("53a1"), "--p", "3", "--table", table]
    assert run_cli(["symbols", "--level", "1", "--export"] + flags, capsys)[0] == 0
    code, out, err = run_cli(["report", "--level", "2", "--import"] + flags, capsys)
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
