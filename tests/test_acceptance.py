"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints a single pass/fail line and asserts exact integer agreement
(the check functions themselves compare with ==, never with tolerances).
Criteria with a stated time budget also assert the wall-clock bound.  A last
test feeds criteria 4-7 wrong predictions and expects them to fail.
"""

import dataclasses
import time

import pytest

from linwenger import verify
from linwenger.verify import CHECKS, _Runner

_BY_NUMBER = {number: (name, fn) for number, name, fn in CHECKS}


@pytest.fixture(scope="session")
def runner():
    # one shared runner so expensive graphs are built once across criteria
    return _Runner(seed=0, max_vertices=2_000_000, max_evals=10**8, perturb=False)


def run_criterion(number: int, runner: _Runner, deadline: float | None = None) -> None:
    name, fn = _BY_NUMBER[number]
    t0 = time.perf_counter()
    status, detail = fn(runner)
    elapsed = time.perf_counter() - t0
    print(f"criterion {number} ({name}): {status} ({elapsed:.1f}s): {detail}")
    assert status == "PASS", f"criterion {number} ({name}) {status}: {detail}"
    if deadline is not None:
        assert elapsed < deadline, f"criterion {number} took {elapsed:.1f}s, budget {deadline}s"


def test_criterion_01_spectrum_closed_form_vs_enumeration(runner):
    run_criterion(1, runner, deadline=30)


def test_criterion_02_walk_trace_identity(runner):
    run_criterion(2, runner, deadline=60)


def test_criterion_03_regularity_and_counts(runner):
    run_criterion(3, runner)


def test_criterion_04_component_count_formula(runner):
    run_criterion(4, runner)


def test_criterion_05_diameter_closed_form(runner):
    run_criterion(5, runner, deadline=60)


def test_criterion_06_girth_table(runner):
    run_criterion(6, runner)


def test_criterion_07_path_and_cycle_witnesses(runner):
    run_criterion(7, runner)


def test_criterion_08_common_neighbor_vs_brute_force(runner):
    run_criterion(8, runner)


def test_criterion_09_matrix_rank_counts(runner):
    run_criterion(9, runner)


def test_criterion_10_expander_second_eigenvalue(runner):
    run_criterion(10, runner)


def test_criterion_11_negative_control(runner):
    run_criterion(11, runner)


def _swap_girth(pred):
    return dataclasses.replace(pred, girth=14 - pred.girth)  # 6 <-> 8


@pytest.mark.parametrize(
    "name,wrong,failing",
    [
        ("predicted_metrics", _swap_girth, (6, 7)),
        ("predicted_metrics", lambda pred: dataclasses.replace(pred, girth=None), (6, 7)),
        ("predicted_metrics", lambda pred: dataclasses.replace(pred, diameter=None), (5, 7)),
        ("component_count_formula", lambda count: count + 1, (4,)),
    ],
    ids=["girth-swapped", "girth-none", "diameter-none", "count-off-by-one"],
)
def test_wrong_predictions_fail(monkeypatch, name, wrong, failing):
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda spec: wrong(real(spec)))
    run = _Runner(seed=0, max_vertices=300)
    statuses = {n: _BY_NUMBER[n][1](run)[0] for n in (4, 5, 6, 7)}
    assert {n for n, status in statuses.items() if status == "FAIL"} == set(failing)
