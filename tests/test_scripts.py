"""Smoke runs of the scripts under scripts/, which import the package API."""

import ast
import subprocess
import sys
from pathlib import Path

from linwenger.fields import CONWAY_TABLE

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_scripts_run():
    survey = run_script("scripts/spectrum_survey.py", "--max-q", "4", "--max-m", "2")
    assert survey.returncode == 0, survey.stderr
    assert "all consistent" in survey.stdout
    conway = run_script("scripts/gen_conway_table.py", "--max-p", "3", "--max-n", "3")
    assert conway.returncode == 0, conway.stderr
    # the printed dict literal, "CONWAY_TABLE: ... = {...}", entry by entry
    generated = ast.literal_eval(conway.stdout.split("=", 1)[1].strip())
    assert generated == {
        (p, n): CONWAY_TABLE[(p, n)] for p in (2, 3) for n in (1, 2, 3)
    }
