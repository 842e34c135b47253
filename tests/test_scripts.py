"""Smoke runs of the scripts under scripts/, which import the package API."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

from linwenger.fields import CONWAY_TABLE
from linwenger.graphs import Layout

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_scripts_run():
    survey = run_script("scripts/spectrum_survey.py", "--max-q", "4", "--max-m", "2")
    assert survey.returncode == 0, survey.stderr
    assert "all consistent" in survey.stdout
    assert survey.stdout.split()[8] == "regular"
    conway = run_script("scripts/gen_conway_table.py", "--max-p", "3", "--max-n", "3")
    assert conway.returncode == 0, conway.stderr
    # the printed dict literal, "CONWAY_TABLE: ... = {...}", entry by entry
    generated = ast.literal_eval(conway.stdout.split("=", 1)[1].strip())
    assert generated == {
        (p, n): CONWAY_TABLE[(p, n)] for p in (2, 3) for n in (1, 2, 3)
    }


def test_survey_counts_a_layout_fault_as_a_mismatch(monkeypatch, capsys):
    path = ROOT / "scripts" / "spectrum_survey.py"
    spec = importlib.util.spec_from_file_location("spectrum_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(survey, "layout_certificate", lambda graph: Layout(0, 0, 0, 2))
    monkeypatch.setattr(sys, "argv", ["spectrum_survey.py", "--max-q", "3", "--max-m", "1"])
    assert survey.main() == 4
    *rows, summary = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[8:11] for row in rows] == [["NO", "yes", "MISMATCH"]] * 2
    assert summary == "2 graphs, MISMATCH found"
