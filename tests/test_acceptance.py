"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints a single pass/fail line and asserts exact integer agreement
(the check functions themselves compare with ==, never with tolerances).
Criteria with a stated time budget also assert the wall-clock bound.  A last
test feeds criteria 4-7 wrong predictions and expects them to fail, and the
criterion 8 tests feed it wrong common-neighbour answers.  The fork tests
check that run_acceptance's forked criteria raise through it unchanged,
leave no process behind, give the same results without a fork, and build,
certify and compute no orbit record in the child, while this process
enumerates no spectrum.
"""

import dataclasses
import errno
import faulthandler
import os
import random
import sys
import time

import numpy as np
import pytest

from linwenger import cli, graphs, metrics, verify
from linwenger.errors import BudgetExceeded
from linwenger.verify import CHECKS, _Runner

_BY_NUMBER = {number: (name, fn) for number, name, fn in CHECKS}


@pytest.fixture(scope="session")
def runner():
    # one shared runner so expensive graphs are built once across criteria
    return _Runner(seed=0)


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
    run = _Runner(seed=0)
    statuses = {n: _BY_NUMBER[n][1](run)[0] for n in (4, 5, 6, 7)}
    assert {n for n, status in statuses.items() if status == "FAIL"} == set(failing)


def test_criterion_02_walks_each_graph_once(monkeypatch):
    """One walk_trace(g, 3) per graph gives all three traces."""
    real, calls = verify.walk_trace, []
    monkeypatch.setattr(verify, "walk_trace", lambda g, k: calls.append(k) or real(g, k))
    assert _BY_NUMBER[2][1](_Runner(seed=0))[0] == "PASS"
    assert calls == [3] * len(verify.SPECTRUM_CASES)


def test_one_run_certifies_each_layout_once(monkeypatch):
    """Criteria 2 to 6 all read the layout certificate (walk traces, the
    regularity check, the BFS sweep), but each of the 14 graphs of one run
    is certified once, before the forked criteria start."""
    real, certified = graphs._certify_layout, []

    def counted(nbrs):
        certified.append(nbrs)
        return real(nbrs)

    monkeypatch.setattr(graphs, "_certify_layout", counted)
    results = verify.run_acceptance(seed=0)
    assert all(r.status == "PASS" for r in results)
    assert len(certified) == len(verify.ALL_CASES) == 14
    assert len({id(nbrs) for nbrs in certified}) == 14


def test_one_run_computes_each_orbit_record_once(monkeypatch):
    """Criterion 2's walk traces (one call per graph) and the BFS sweeps of
    criteria 5 and 6 all read the certified orbits, but each of the 14
    graphs of one run has its candidate maps tried once."""
    real, tried = metrics._candidate_shifts, []

    def counted(spec, tables):
        tried.append(spec)
        return real(spec, tables)

    monkeypatch.setattr(metrics, "_candidate_shifts", counted)
    results = verify.run_acceptance(seed=0)
    assert all(r.status == "PASS" for r in results)
    assert sorted((s.p, s.e, s.m) for s in tried) == sorted(verify.ALL_CASES)


def test_no_check_steps_through_the_object_oracles(monkeypatch):
    """line_through and point_through are oracles only: every route the
    checks run steps on element indices, so all eleven still pass with both
    made to raise, and metrics does not even bind them."""
    assert not hasattr(metrics, "line_through") and not hasattr(metrics, "point_through")

    def refuse(*args):
        raise AssertionError("an object oracle was called")

    monkeypatch.setattr(graphs, "line_through", refuse)
    monkeypatch.setattr(graphs, "point_through", refuse)
    results = verify.run_acceptance(seed=0)
    assert len(results) == 11 and all(r.status == "PASS" for r in results)


# run_acceptance(seed=0), criterion by criterion: a change to any check's
# outcome or wording shows here.
GOLDEN_SEED_0 = [
    (1, "spectrum closed form vs enumeration", "PASS", "14 multiplicity tables match"),
    (2, "walk trace identity trace(A^2k) = 2 sum (qN)^k", "PASS",
     "trace(A^2k) identity holds for 14 graphs, k=1..3"),
    (3, "regularity and vertex/edge counts", "PASS",
     "14 neighbour arrays: rows listed by first coordinate (q distinct ids, 2 q^(m+2) nonzeros), "
     "points next to lines only, symmetric"),
    (4, "component count formula", "PASS", "BFS component counts match the rank formula on 14 graphs"),
    (5, "diameter equals 2(m+1) for m <= e", "PASS", "BFS diameter = 2(m+1) on 9 graphs"),
    (6, "girth matrix (6 odd/small even, 8 binary regimes)", "PASS",
     "BFS girth matches the 6/8 matrix on 10 graphs"),
    (7, "diameter and cycle witnesses", "PASS",
     "9000 path witnesses within 2(m+1), lower bounds exact, 14 cycle witnesses valid"),
    (8, "common neighbor vs brute force", "PASS", "10386 point pairs agree with brute-force intersection"),
    (9, "matrix rank counts", "PASS",
     "F_p rank tallies of every linear part match the rank distribution on 9 graphs"),
    (10, "expander second eigenvalue", "PASS",
     "second-largest radicand equals q*p^(m-1) for all m<=e cases"),
    (11, "negative control: system necessary, not sufficient", "PASS",
     "L_1(11) six-tuple satisfies the system yet fails cycle validation (P4 = P1)"),
]


def test_seed_0_results_are_unchanged():
    results = verify.run_acceptance(seed=0)
    assert [(r.number, r.name, r.status, r.detail) for r in results] == GOLDEN_SEED_0


def _raise(exc):
    def raising(*args):
        raise exc

    return raising


@pytest.mark.parametrize(
    "name,exc,code,message",
    [
        ("components", ValueError("boom"), cli.EXIT_MISMATCH,
         "error: internal error: ValueError: boom\n"),
        ("component_count_formula", BudgetExceeded("too big"), cli.EXIT_BUDGET, "error: too big\n"),
        ("spectrum_enumerate", ValueError("boom"), cli.EXIT_MISMATCH,
         "error: internal error: ValueError: boom\n"),
        ("walk_trace", ValueError("boom"), cli.EXIT_MISMATCH,
         "error: internal error: ValueError: boom\n"),
    ],
    ids=["child-internal-error", "child-budget", "child-spectrum", "parent-internal-error"],
)
def test_an_exception_crosses_the_fork_unchanged(monkeypatch, capsys, name, exc, code, message):
    """Criteria 4 (components, component_count_formula) and 1 and 10
    (spectrum_enumerate) run in the forked child and criterion 2
    (walk_trace) in this process: either way the CLI sees the exception
    itself, so its exit code and line stay the same."""
    monkeypatch.setattr(verify, name, _raise(exc))
    assert cli.main(["verify"]) == code
    assert capsys.readouterr().err == message


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="without os.fork the check would end the test process")
def test_a_child_that_exits_without_a_result_is_an_internal_error(monkeypatch, capsys):
    """The parent reads the pipe to its end, which the child's exit closes,
    so it does not hang; a hang would end the test process after 120 s."""
    monkeypatch.setattr(verify, "components", lambda g: os._exit(1))
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    try:
        code = cli.main(["verify"])
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == cli.EXIT_MISMATCH
    assert capsys.readouterr().err == (
        "error: internal error: RuntimeError: the forked criteria sent no result (exit code 1)\n"
    )


def test_no_process_is_left_behind(monkeypatch, capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    assert cli.main(["verify", "--perturb"]) == cli.EXIT_MISMATCH
    monkeypatch.setattr(verify, "components", _raise(ValueError("boom")))
    assert cli.main(["verify"]) == cli.EXIT_MISMATCH
    monkeypatch.setattr(verify, "walk_trace", _raise(ValueError("boom")))
    assert cli.main(["verify"]) == cli.EXIT_MISMATCH
    capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_fails():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize(
    "patch",
    [lambda mp: mp.setattr(os, "fork", _fork_fails), lambda mp: mp.delattr(os, "fork")],
    ids=["fork-raises", "no-fork"],
)
def test_without_a_fork_every_criterion_runs_here(monkeypatch, patch):
    patch(monkeypatch)
    results = verify.run_acceptance(seed=0)
    assert [(r.number, r.name, r.status, r.detail) for r in results] == GOLDEN_SEED_0


def test_the_child_builds_and_certifies_nothing(monkeypatch):
    """Every graph is built, and every layout certified, in this process
    before the fork: a build or a certificate in the child raises there,
    and its exception would come back through run_acceptance."""
    pid, built, certified = os.getpid(), [], []
    real_materialize, real_certify = graphs.Graph.materialize, graphs._certify_layout

    def here_only(what):
        if os.getpid() != pid:
            raise AssertionError(f"{what} in the forked child")

    def materialize(self):
        if not self.materialized:  # a materialized graph returns itself
            here_only("a graph built")
            built.append((self.spec.p, self.spec.e, self.spec.m))
        return real_materialize(self)

    def certify(nbrs):
        here_only("a layout certified")
        certified.append(nbrs)
        return real_certify(nbrs)

    monkeypatch.setattr(graphs.Graph, "materialize", materialize)
    monkeypatch.setattr(graphs, "_certify_layout", certify)
    results = verify.run_acceptance(seed=0)
    assert [r.status for r in results] == ["PASS"] * 11
    assert sorted(built) == sorted(verify.ALL_CASES + (verify.SAMPLED_NEIGHBOR_CASE,))
    assert len(built) == 15 and len(certified) == 14


def _confine(monkeypatch, module, name, child: bool):
    """Patch module.name to raise AssertionError when it runs on the wrong
    side of run_acceptance's fork: outside the child if child, else in it."""
    pid, real = os.getpid(), getattr(module, name)

    def confined(*args):
        if (os.getpid() != pid) != child:
            raise AssertionError(f"{name} ran in the {'main process' if child else 'forked child'}")
        return real(*args)

    monkeypatch.setattr(module, name, confined)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork every criterion runs here")
def test_the_main_process_enumerates_no_spectrum(monkeypatch):
    """Criteria 1 and 10 enumerate the spectra in the child, and criterion 2
    reads the closed form."""
    _confine(monkeypatch, verify, "spectrum_enumerate", child=True)
    results = verify.run_acceptance(seed=0)
    assert [(r.number, r.name, r.status, r.detail) for r in results] == GOLDEN_SEED_0


def test_the_child_computes_no_orbit_record(monkeypatch):
    """Criteria 2, 5 and 6, which read the certified orbits, run here."""
    _confine(monkeypatch, metrics, "_candidate_shifts", child=False)
    results = verify.run_acceptance(seed=0)
    assert [(r.number, r.name, r.status, r.detail) for r in results] == GOLDEN_SEED_0


def _wrong_table(table):
    """table with one weight vector moved from no root to the most roots."""
    most = max(table.root_mults)
    return dataclasses.replace(
        table,
        root_mults={**table.root_mults, most: table.root_mults[most] + 1},
        zero_mult=table.zero_mult - 1,
    )


def test_a_wrong_closed_form_fails_criteria_1_and_2(monkeypatch):
    """Criterion 1 compares the closed form with enumeration (in the child)
    and criterion 2 with the walk counts on the graph (here)."""
    real = verify.closed_form_linearized
    monkeypatch.setattr(verify, "closed_form_linearized", lambda *case: _wrong_table(real(*case)))
    results = verify.run_acceptance(seed=0)
    assert {r.number for r in results if r.status == "FAIL"} == {1, 2}


def test_criterion_08_checks_the_same_pairs():
    """Every point pair of the four exhaustive graphs, and each i != j draw
    of the seeded L_1(11) sample: 10386 pairs at seed 0."""
    rng = random.Random("0:common-neighbor")
    draws = [(rng.randrange(121), rng.randrange(121)) for _ in range(verify.SAMPLED_NEIGHBOR_PAIRS)]
    expected = 6 + 36 + 120 + 300 + sum(i != j for i, j in draws)
    assert expected == 10386
    status, detail = _BY_NUMBER[8][1](_Runner(seed=0))
    assert (status, detail) == ("PASS", f"{expected} point pairs agree with brute-force intersection")


def _flip_after_cross_check(got, flip):
    """A copy of a batch answer with one answer past the cross-checked
    prefix changed by flip (line id -> wrong answer)."""
    got = got.copy()
    k = verify.CROSS_CHECK + int(np.flatnonzero(got[verify.CROSS_CHECK :] >= 0)[0])
    got[k] = flip(got[k])
    return got


@pytest.mark.parametrize(
    "flip", [lambda line: -1, lambda line: line + 1], ids=["line-to-none", "wrong-line"]
)
def test_criterion_08_catches_a_wrong_batch_answer(monkeypatch, flip):
    real = verify.common_neighbors
    monkeypatch.setattr(
        verify, "common_neighbors", lambda g, i, j: _flip_after_cross_check(real(g, i, j), flip)
    )
    status, detail = _BY_NUMBER[8][1](_Runner(seed=0))
    assert status == "FAIL" and "mismatch at" in detail


def test_criterion_08_cross_check_catches_a_wrong_per_pair_answer(monkeypatch):
    real, calls = verify.common_neighbor, []

    def wrong_once(g, P, P2):
        calls.append(P)
        line = real(g, P, P2)
        if len(calls) == 3:  # one answer in the first graph's cross-check
            F = g.spec.field
            return verify.Line((F.one, F.one)) if line is None else None
        return line

    monkeypatch.setattr(verify, "common_neighbor", wrong_once)
    status, detail = _BY_NUMBER[8][1](_Runner(seed=0))
    assert status == "FAIL" and "batch != common_neighbor" in detail


def test_criterion_08_fails_a_pair_sharing_two_lines(graph_cache):
    """The row-intersection oracle fails a pair listed as sharing two lines,
    though the batch still finds (and certifies) the one it solves for."""
    g = graph_cache(5, 1, 1)
    points, others = np.triu_indices(g.half, 1)
    lines = verify.common_neighbors(g, points, others)
    # a pair whose line is not the least of row j, so that the largest id
    # listed twice stays the batch's line and only the count can fail it
    k = next(k for k, line in enumerate(lines) if line > g.adjacency[others[k]].min())
    i, j, line = int(points[k]), int(others[k]), int(lines[k])
    fake = verify.Graph(g.spec)
    fake._nbrs = g.adjacency.copy()
    fake._nbrs[i, (line + 1) % g.spec.q] = g.adjacency[j].min()
    fails = []
    assert verify._check_point_pairs(fake, np.array([[i, j]]), fails) == 0
    assert fails == [f"L_1(5): mismatch at {g.decode(i)}, {g.decode(j)}"]


@pytest.mark.parametrize("n", [1, 2, 3, 121, 8192, 8193, 2**31, 2**32 - 1])
def test_bulk_draws_match_randrange(n):
    """_draws takes the words randrange would, in the same order, and no
    more: if the generator's word order ever changes, this fails rather
    than the seeded samples of criteria 7 and 8 changing silently."""
    for seed in ("0:common-neighbor", 1717, "7:witness:2:3:3"):
        for count in (0, 1, 7, 2000):
            rng, oracle = random.Random(seed), random.Random(seed)
            got = verify._draws(rng, n, count)
            assert got.dtype == np.int64
            assert got.tolist() == [oracle.randrange(n) for _ in range(count)]
            assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_bulk_draws_refuse_a_range_outside_one_word(n):
    with pytest.raises(ValueError):
        verify._draws(random.Random(0), n, 5)


def test_check_point_pairs_takes_an_empty_batch(graph_cache):
    fails = []
    assert verify._check_point_pairs(graph_cache(3, 1, 1), np.zeros((0, 2), dtype=np.int64), fails) == 0
    assert fails == []
