"""One-shot acceptance suite: every theorem check the package makes, run
against a fixed matrix of small cases with dual-route verification.

Each criterion compares an independent computation (exhaustive enumeration,
BFS, brute force) against the corresponding closed form or constructive
witness.  Results carry PASS or FAIL per criterion.  Every case is built at
the package's default budgets, which the largest, L_3(8), stays far below.

The case tables name graphs only.  The component, diameter and girth values
they are checked against come from component_count_formula and
predicted_metrics, the predictions `linwenger metrics` reports, so the
theorems are stated once; a prediction of None fails its criterion.

Criterion 7 builds its seeded path witnesses with one path_witnesses batch
per graph, which steps along the neighbour array criterion 3 certifies and
checks every step against it, and compares the first CROSS_CHECK walks of
each graph id for id with diameter_witness, so both routes stay exercised
and paired.  Its length bound is the predicted diameter, and the predicted
girth picks the cycle witness of each case.

Criterion 8 solves its point pairs (every pair on four graphs, seeded
samples on L_1(11)) with one common_neighbors batch per graph, which checks
every line it returns against the neighbour array.  The oracle is the
intersection of the two neighbour rows, sorted and searched for an id listed
twice, so it shares nothing with the solver; the first CROSS_CHECK answers
of each graph are compared id for id with common_neighbor, and the published
L_1(11) pair is solved by common_neighbor alone.

The seeded samples of criteria 7 and 8 come in bulk from _draws: the same
ids, from the same stream, that one randrange call per id would give.

Criterion 2 checks the graph against the theorem: the walk counts on each
certified array against the closed-form spectrum.  Criterion 1 checks that
closed form against enumeration, so a wrong table fails both.

run_acceptance builds the run's 15 graphs and certifies the 14 layouts, then
runs the criteria on two cores.  Criteria 2, 5 and 6 read the certified orbit
records, so they run in this process, which enumerates no spectrum.  The
others read none, so they run in one forked child (_forked), criteria 1 and
10 sharing the enumerated spectra there; the child sends back its results,
or the exception it raised, to be raised again here.  Where os.fork is
missing or fails, they run in this process, before the others.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import time
from collections import Counter
from dataclasses import dataclass

from .fields import GF, _fq_rref
from .graphs import FamilySpec, Graph, Line, Point, _certify_layout, layout_certificate
from .linearized import rank_distribution
from .metrics import (
    common_neighbor,
    common_neighbors,
    components,
    cycle_from_coefficients,
    cycle_witness_6,
    cycle_witness_8,
    diameter,
    diameter_witness,
    girth,
    path_witnesses,
    predicted_metrics,
    verify_cycle_system,
    walk_trace,
)
from .spectrum import (
    closed_form_linearized,
    component_count_formula,
    expansion_bound,
    spectrum_enumerate,
)

# (p, e, m) matrices for the individual criteria.
SPECTRUM_CASES = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3),
    (3, 1, 1), (3, 1, 2), (2, 3, 3), (3, 2, 2), (5, 1, 1), (7, 1, 1),
    (2, 2, 1), (2, 3, 1), (3, 2, 1),
)
DIAMETER_CASES = (
    (2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (2, 3, 1),
    (3, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3),
)
GIRTH_CASES = (
    (3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2), (2, 2, 1), (2, 3, 1),
    (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 3),
)
EXPANDER_CASES = ((2, 1, 1), (2, 2, 2), (3, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1))
RANK_CASES = (
    (2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 2, 2),
    (2, 3, 3), (3, 2, 2), (2, 2, 3), (3, 1, 2),
)
# Criterion 8 checks every pair of points on these, and samples L_1(11).
NEIGHBOR_CASES = ((2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1))
SAMPLED_NEIGHBOR_CASE = (11, 1, 1)
WITNESS_PAIRS_PER_GRAPH = 1000
# Leading batched answers per graph compared id for id with the per-pair
# route: walks with diameter_witness (criterion 7), lines with
# common_neighbor (criterion 8).
CROSS_CHECK = 32
SAMPLED_NEIGHBOR_PAIRS = 10_000

ALL_CASES = tuple(sorted(set(SPECTRUM_CASES) | set(DIAMETER_CASES) | set(GIRTH_CASES)))


def _label(case) -> str:
    p, e, m = case
    return f"L_{m}({p ** e})"


@dataclass
class CheckResult:
    number: int
    name: str
    status: str  # PASS / FAIL
    detail: str
    seconds: float

    def line(self) -> str:
        return f"[{self.number:2d}] {self.status:4s} {self.name} ({self.seconds:.1f}s): {self.detail}"


class _Runner:
    """Shared state for one acceptance run: seed, graph/report caches."""

    def __init__(self, seed=0, perturb=False):
        self.seed = seed
        self.perturb = perturb
        self._graphs: dict[tuple[int, int, int], Graph] = {}
        self._enum_reports: dict[tuple[int, int, int], object] = {}

    def spec(self, case) -> FamilySpec:
        p, e, m = case
        return FamilySpec.linearized(p, e, m)

    def graph(self, case) -> Graph:
        """The materialized graph of a case, built once per run."""
        if case not in self._graphs:
            self._graphs[case] = Graph(self.spec(case)).materialize()
        return self._graphs[case]

    def enum_report(self, case):
        if case not in self._enum_reports:
            self._enum_reports[case] = spectrum_enumerate(self.spec(case))
        return self._enum_reports[case]

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")


def _draws(rng: random.Random, n: int, count: int):
    """[rng.randrange(n) for _ in range(count)] as an int64 array, drawn
    from the same stream.  randrange(n) takes 32-bit words, shifts each right
    by 32 - n.bit_length() and rejects values >= n; getrandbits(32 * w)
    returns w such words, the first in the lowest bits.  Each round asks for
    one word per draw still missing, so no word past the last draw is taken.
    ValueError unless 1 <= n < 2^32."""
    import numpy as np

    if not 1 <= n < 1 << 32:
        raise ValueError(f"bulk draws need 1 <= n < 2^32, got {n}")
    shift, kept, need = 32 - n.bit_length(), [np.zeros(0, dtype=np.int64)], count
    while need > 0:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        words = words >> shift
        kept.append(words[words < n].astype(np.int64))
        need -= kept[-1].size
    return np.concatenate(kept)


def _finish(fails: list[str], ok_detail: str) -> tuple[str, str]:
    if fails:
        return "FAIL", "; ".join(fails[:4])
    return "PASS", ok_detail


def check_spectrum_closed_vs_enum(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in SPECTRUM_CASES:
        enum_hist = run.enum_report(case).histogram()
        closed_hist = closed_form_linearized(*case).histogram()
        if closed_hist != enum_hist:
            fails.append(f"{_label(case)}: closed {closed_hist} != enum {enum_hist}")
    return _finish(fails, f"{len(SPECTRUM_CASES)} multiplicity tables match")


def check_walk_trace_identity(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in SPECTRUM_CASES:
        g, hist = run.graph(case), closed_form_linearized(*case).histogram()
        q = g.spec.q
        for k, actual in enumerate(walk_trace(g, 3), start=1):
            expected = 2 * sum(count * (q * n) ** k for n, count in hist.items())
            if actual != expected:
                fails.append(f"{_label(case)} k={k}: trace {actual} != 2*sum (qN)^k = {expected}")
    return _finish(
        fails, f"trace(A^2k) identity holds for {len(SPECTRUM_CASES)} graphs, k=1..3"
    )


def check_regularity_and_counts(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in ALL_CASES:
        g = run.graph(case)
        faults = layout_certificate(g).faults()
        if run.perturb and case == ALL_CASES[0]:
            nbrs = g.adjacency.copy()
            nbrs[0, -1] = nbrs[0, 0]  # injected fault: one neighbour listed twice
            faults = _certify_layout(nbrs).faults()
        fails += [f"{_label(case)}: {fault}" for fault in faults]
    return _finish(
        fails,
        f"{len(ALL_CASES)} neighbour arrays: rows listed by first coordinate (q distinct ids, "
        "2 q^(m+2) nonzeros), points next to lines only, symmetric",
    )


def check_components(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in ALL_CASES:
        g = run.graph(case)
        count, _sizes = components(g)
        predicted = component_count_formula(g.spec)
        if count != predicted:
            fails.append(f"{_label(case)}: BFS {count} components != formula {predicted}")
    return _finish(fails, f"BFS component counts match the rank formula on {len(ALL_CASES)} graphs")


def check_diameter(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in DIAMETER_CASES:
        g = run.graph(case)
        d = diameter(g)
        predicted = predicted_metrics(g.spec).diameter
        if d != predicted:
            fails.append(f"{_label(case)}: BFS diameter {d} != predicted {predicted}")
    return _finish(fails, f"BFS diameter = 2(m+1) on {len(DIAMETER_CASES)} graphs")


def check_girth(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in GIRTH_CASES:
        g = run.graph(case)
        got = girth(g)
        predicted = predicted_metrics(g.spec).girth
        if got != predicted:
            fails.append(f"{_label(case)}: BFS girth {got} != predicted {predicted}")
    return _finish(fails, f"BFS girth matches the 6/8 matrix on {len(GIRTH_CASES)} graphs")


def check_witnesses(run: _Runner) -> tuple[str, str]:
    fails = []
    n_pairs = 0
    for case in DIAMETER_CASES:
        g = run.graph(case)
        p, e, m = case
        label = _label(case)
        bound = predicted_metrics(g.spec).diameter
        if bound is None:
            fails.append(f"{label}: no predicted diameter to bound the witnesses")
            continue
        ends = _draws(run.rng(f"witness:{p}:{e}:{m}"), g.n, 2 * WITNESS_PAIRS_PER_GRAPH)
        sources, targets = ends[0::2], ends[1::2]
        try:
            walks = path_witnesses(g, sources, targets)
        except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
            fails.append(f"{label}: batched path witnesses raised {exc!r}")
            walks = []
        for a, b, walk in zip(sources.tolist(), targets.tolist(), walks[:CROSS_CHECK]):
            try:
                w = diameter_witness(g, g.decode(a), g.decode(b))
            except Exception as exc:  # noqa: BLE001
                fails.append(f"{label}: witness {a} -> {b} raised {exc!r}")
                break
            if [g.encode(v) for v in w.vertices] != walk:
                fails.append(f"{label}: batched walk {a} -> {b} != diameter_witness")
                break
        longest = max((len(walk) - 1 for walk in walks), default=0)
        if longest > bound:
            fails.append(f"{label}: witness length {longest} > {bound}")
        n_pairs += sum(len(walk) - 1 <= bound for walk in walks)
        F = g.spec.field
        far = Line((F.zero,) * m + (F.one,))
        try:
            w = diameter_witness(g, Line((F.zero,) * (m + 1)), far)
            length = w.length
        except Exception as exc:  # noqa: BLE001
            fails.append(f"{label}: lower-bound pair raised {exc!r}")
        else:
            if length != bound:
                fails.append(f"{label}: lower-bound pair length {length} != {bound}")
    builders = {6: cycle_witness_6, 8: cycle_witness_8}
    n_cycles = 0
    for case in ALL_CASES:
        spec = run.spec(case)
        size = predicted_metrics(spec).girth
        if size not in builders:
            fails.append(f"no cycle witness for predicted girth {size} of {_label(case)}")
            continue
        try:
            w = builders[size](spec)
            ok = w.is_valid_cycle() and verify_cycle_system(w) and w.length == size
        except Exception as exc:  # noqa: BLE001
            fails.append(f"{size}-cycle witness raised for {_label(case)}: {exc!r}")
        else:
            if not ok:
                fails.append(f"{size}-cycle witness invalid for {_label(case)}")
        n_cycles += 1
    return _finish(
        fails,
        f"{n_pairs} path witnesses within 2(m+1), lower bounds exact, {n_cycles} cycle witnesses valid",
    )


def _check_point_pairs(g: Graph, ij, fails: list[str]) -> int:
    """Compare one common_neighbors batch over the rows (i, j) of a
    (pairs, 2) array of point ids with the intersection of the two neighbour
    rows, and its first CROSS_CHECK answers id for id with common_neighbor.
    The intersection reads only graph.adjacency, nothing of the solver: each
    pair's 2q ids are sorted, an id listed twice is a shared line, and a pair
    with more than one fails.  Returns the number of pairs before the first
    mismatch, whose points are named in fails."""
    import numpy as np

    label = _label((g.spec.p, g.spec.e, g.spec.m))
    try:
        got = common_neighbors(g, ij[:, 0], ij[:, 1])
    except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
        fails.append(f"{label}: batched common neighbours raised {exc!r}")
        return 0
    for (i, j), line_id in zip(ij[:CROSS_CHECK].tolist(), got.tolist()):
        try:
            line = common_neighbor(g, g.decode(i), g.decode(j))
        except Exception as exc:  # noqa: BLE001
            fails.append(f"{label}: common_neighbor at {g.decode(i)}, {g.decode(j)} raised {exc!r}")
            break
        if (-1 if line is None else g.encode(line)) != line_id:
            fails.append(f"{label}: batch != common_neighbor at {g.decode(i)}, {g.decode(j)}")
            break
    rows = np.sort(np.concatenate([g.adjacency[ij[:, 0]], g.adjacency[ij[:, 1]]], axis=1), axis=1)
    twice = rows[:, 1:] == rows[:, :-1]
    shared = np.where(twice, rows[:, 1:], -1).max(axis=1, initial=-1)
    bad = np.flatnonzero((got != shared) | (twice.sum(axis=1) > 1))
    if bad.size:
        i, j = ij[bad[0]].tolist()
        fails.append(f"{label}: mismatch at {g.decode(i)}, {g.decode(j)}")
        return int(bad[0])
    return len(ij)


def check_common_neighbor(run: _Runner) -> tuple[str, str]:
    import numpy as np

    fails = []
    n_checked = 0
    for case in NEIGHBOR_CASES:
        g = run.graph(case)
        n_checked += _check_point_pairs(g, np.column_stack(np.triu_indices(g.half, 1)), fails)
    g = run.graph(SAMPLED_NEIGHBOR_CASE)
    ij = _draws(run.rng("common-neighbor"), g.half, 2 * SAMPLED_NEIGHBOR_PAIRS).reshape(-1, 2)
    n_checked += _check_point_pairs(g, ij[ij[:, 0] != ij[:, 1]], fails)
    F = g.spec.field
    P = Point((F.zero, F.zero))
    P2 = Point((F.from_int(-1), F.from_int(-1)))
    expected = Line((F.one, F.zero))
    got = common_neighbor(g, P, P2)
    if got != expected:
        fails.append(f"L_1(11) published pair: got {got}, expected {expected}")
    return _finish(fails, f"{n_checked} point pairs agree with brute-force intersection")


def check_rank_distribution(run: _Runner) -> tuple[str, str]:
    """Tally the F_p rank of the matrix of every linear part by elimination
    and compare it with rank_distribution, scaled by q^(m - min(m, e))."""
    fails: list[str] = []
    for case in RANK_CASES:
        p, e, m = case
        spec = run.spec(case)
        F, ops_p = spec.field, GF(p).ops()
        add, mul = F.ops().add, F.ops().mul
        f_basis = [[spec.f_index(p**i, j) for j in range(m)] for i in range(e)]
        tally: Counter[int] = Counter()
        for linear in itertools.product(range(spec.q), repeat=m):
            images = []  # the images of the basis: the matrix's columns as rows
            for fb in f_basis:
                acc = 0
                for w, f in zip(linear, fb):
                    acc = add(acc, mul(w, f))
                # the F_p coordinates of the image are the base-p digits of its index
                images.append([acc // p**j % p for j in range(e)])
            tally[len(_fq_rref(ops_p, images, e))] += 1
        scale = spec.q ** (m - min(m, e))
        predicted = {r: a * scale for r, a in rank_distribution(p, e, m).items()}
        if dict(tally) != predicted:
            fails.append(f"L_{m}({spec.q}): rank tally {dict(tally)} != A_r {predicted}")
    return _finish(fails, "F_p rank tallies of every linear part match the rank "
                   f"distribution on {len(RANK_CASES)} graphs")


def check_expander_radicand(run: _Runner) -> tuple[str, str]:
    fails = []
    for case in EXPANDER_CASES:
        bound = expansion_bound(*case)
        second = run.enum_report(case).second_largest_radicand()
        if second != bound.radicand:
            fails.append(
                f"{_label(case)}: second radicand {second} != q*p^(m-1) = {bound.radicand}"
            )
    return _finish(fails, "second-largest radicand equals q*p^(m-1) for all m<=e cases")


def check_negative_control(run: _Runner) -> tuple[str, str]:
    spec = FamilySpec.linearized(11, 1, 1)
    w = cycle_from_coefficients(spec, (1, 1, -2, 1, 1, -2), (1, -1, 0, 2, 6, 4))
    fails = []
    if not verify_cycle_system(w):
        fails.append("coefficient system unexpectedly rejected")
    if not w.is_closed():
        fails.append("walk does not close")
    if w.vertices_distinct():
        fails.append("expected a repeated vertex, found none")
    if w.points[3] != w.points[0]:
        fails.append("the repeat is not at the documented position (P4 = P1)")
    if w.is_valid_cycle():
        fails.append("cycle validation accepted a non-cycle")
    F = spec.field
    expected_points = [(0, 0), (-1, -1), (-2, 0), (0, 0), (-1, -2), (-2, -8)]
    expected_lines = [(1, 0), (-1, 2), (0, 0), (2, 0), (6, -4), (4, 0)]
    pts = [tuple(F.from_int(c) for c in t) for t in expected_points]
    lns = [tuple(F.from_int(c) for c in t) for t in expected_lines]
    if [pt.coords for pt in w.points] != pts:
        fails.append("constructed points differ from the documented sequence")
    if [ln.coords for ln in w.lines] != lns:
        fails.append("constructed lines differ from the documented sequence")
    if fails:
        return "FAIL", "; ".join(fails)
    return "PASS", "L_1(11) six-tuple satisfies the system yet fails cycle validation (P4 = P1)"


CHECKS = (
    (1, "spectrum closed form vs enumeration", check_spectrum_closed_vs_enum),
    (2, "walk trace identity trace(A^2k) = 2 sum (qN)^k", check_walk_trace_identity),
    (3, "regularity and vertex/edge counts", check_regularity_and_counts),
    (4, "component count formula", check_components),
    (5, "diameter equals 2(m+1) for m <= e", check_diameter),
    (6, "girth matrix (6 odd/small even, 8 binary regimes)", check_girth),
    (7, "diameter and cycle witnesses", check_witnesses),
    (8, "common neighbor vs brute force", check_common_neighbor),
    (9, "matrix rank counts", check_rank_distribution),
    (10, "expander second eigenvalue", check_expander_radicand),
    (11, "negative control: system necessary, not sufficient", check_negative_control),
)


# The criteria that read no orbit record: they run in the forked child, which
# enumerates the spectra criteria 1 and 10 share.
FORKED = (1, 3, 4, 7, 8, 9, 10, 11)


def _run_checks(run: _Runner, checks) -> list[CheckResult]:
    results = []
    for number, name, fn in checks:
        t0 = time.perf_counter()
        status, detail = fn(run)
        results.append(CheckResult(number, name, status, detail, time.perf_counter() - t0))
    return results


def _outcome(work):
    """(True, work()), or (False, the exception work() raised)."""
    try:
        return True, work()
    except BaseException as exc:  # noqa: BLE001 - the caller raises it again
        return False, exc


def _forked(work):
    """Start work() in a forked child and return a function that waits for
    it and gives its _outcome.  The child pickles that outcome into a pipe
    and leaves with os._exit; a child that sends nothing gives a
    RuntimeError.  Where os.fork is missing or raises OSError, work() runs
    here, now, and the function gives its outcome.  The package starts no
    thread; numpy's BLAS pool may hold some, and the forked criteria make no
    BLAS call."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):
        os.close(read_end)
        os.close(write_end)
        outcome = _outcome(work)
        return lambda: outcome
    if pid == 0:  # the child
        status = 1
        try:
            os.close(read_end)
            data = pickle.dumps(_outcome(work))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)

    def wait():
        try:
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
        if not data:
            code = os.waitstatus_to_exitcode(status)
            return False, RuntimeError(f"the forked criteria sent no result (exit code {code})")
        return pickle.loads(data)

    return wait


def run_acceptance(seed=0, perturb=False) -> list[CheckResult]:
    run = _Runner(seed=seed, perturb=perturb)
    for case in ALL_CASES:
        layout_certificate(run.graph(case))
    run.graph(SAMPLED_NEIGHBOR_CASE)
    wait = _forked(lambda: _run_checks(run, [c for c in CHECKS if c[0] in FORKED]))
    try:
        results = _run_checks(run, [c for c in CHECKS if c[0] not in FORKED])
    finally:
        ok, forked = wait()
    if not ok:
        raise forked
    return sorted(results + forked, key=lambda r: r.number)
