"""Byte-for-byte output of fixed command lines.

Each file under tests/data/golden holds one command line (paths relative to
the repository root) with the exit code, stdout and stderr that cli.main
gave for it without a table cache.  A change of representation or algorithm
on the Lambda side that keeps every reading keeps these bytes, and so does
the table cache: each line runs twice under a fresh cache directory, once
building its table (the cold run, which writes the entry) and once reading
it back, and both runs must give the recorded bytes.
"""

import json
import os

import pytest

from signedlp.cli import main

from conftest import ROOT

GOLDEN = os.path.join(ROOT, "tests", "data", "golden")


@pytest.mark.parametrize("name", sorted(f[: -len(".json")] for f in os.listdir(GOLDEN)))
def test_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        case = json.load(fh)
    monkeypatch.chdir(ROOT)
    cache = tmp_path / "cache"
    monkeypatch.setenv("SIGNEDLP_CACHE_DIR", str(cache))
    # --import and curve-info never touch the cache; every other line
    # writes its one entry on the miss
    entries = 0 if "--import" in case["argv"] or case["argv"][0] == "curve-info" else 1
    for run in ("miss", "hit"):
        code = main(list(case["argv"]))
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (case["exit"], case["stdout"], case["stderr"]), run
        assert len(list(cache.glob("*"))) == entries
