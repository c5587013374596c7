"""The documentation scripts still reproduce their documented values."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ltlim.cli
import ltlim.postulates
from ltlim.postulates import Postulate

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_worked_examples_script_reproduces_the_documented_values():
    result = run_script("reproduce_worked_examples.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_postulate_matrix_script_finds_every_cell_as_expected():
    result = run_script("postulate_matrix.py", "--sweep", "20")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("every cell as expected\n")


def postulate_matrix():
    spec = importlib.util.spec_from_file_location(
        "postulate_matrix", ROOT / "scripts" / "postulate_matrix.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_postulate_matrix_script_flags_a_cell_that_fails_where_it_should_hold(
    monkeypatch, capsys
):
    matrix = {mid: dict(row) for mid, row in ltlim.postulates.EXPECTED_MATRIX.items()}
    matrix["d"][Postulate.TIME_SENSITIVITY] = True
    monkeypatch.setattr(ltlim.postulates, "EXPECTED_MATRIX", matrix)
    monkeypatch.setattr(ltlim.cli, "EXPECTED_MATRIX", matrix)
    assert postulate_matrix()(["--sweep", "5"]) == 1
    out = capsys.readouterr().out
    assert "d      TS: expected holds no certificate;" in out
    assert out.count("SURPRISE") == 1


def test_postulate_matrix_script_flags_a_certificate_that_stops_violating(
    monkeypatch, capsys
):
    # A contradiction is not contingent, so the time-sensitivity check
    # does not apply to it.
    curated = dict(ltlim.postulates._CURATED)
    curated["d", Postulate.TIME_SENSITIVITY] = {"phi": "a & (! a)"}
    monkeypatch.setattr(ltlim.postulates, "_CURATED", curated)
    assert postulate_matrix()(["--sweep", "5"]) == 1
    out = capsys.readouterr().out
    assert "d      TS: expected fails certificate not_applicable;" in out
    assert out.count("SURPRISE") == 1
