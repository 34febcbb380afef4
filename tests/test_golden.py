"""Byte-for-byte output of fixed command lines.

Each file under tests/data/golden holds one command line (paths relative to
the repository root) with the exit code, stdout and stderr that cli.main
gave for it without a table cache.  A change of representation or algorithm
on the Lambda side that keeps every reading keeps these bytes.
"""

import json
import os

import pytest

from signedlp.cli import main

from conftest import ROOT

GOLDEN = os.path.join(ROOT, "tests", "data", "golden")


@pytest.mark.parametrize("name", sorted(f[: -len(".json")] for f in os.listdir(GOLDEN)))
def test_output_matches_golden(name, capsys, monkeypatch):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        case = json.load(fh)
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SIGNEDLP_CACHE_DIR", raising=False)
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert code == case["exit"]
    assert out.out == case["stdout"]
    assert out.err == case["stderr"]
