"""One-shot acceptance suite: every theorem check the package makes, run
against a fixed matrix of small cases with dual-route verification.

Each criterion compares an independent computation (exhaustive enumeration,
BFS, brute force) against the corresponding closed form or constructive
witness.  Results carry PASS/FAIL/SKIP per criterion; a case is skipped,
never silently dropped, when it exceeds the configured budgets.

Criterion 7 builds its seeded path witnesses with one path_witnesses batch
per graph, which checks every step against the neighbour array criterion 3
certifies, and compares the first WITNESS_CROSS_CHECK walks of each graph id
for id with diameter_witness, so both routes stay exercised and paired.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded
from .fields import FpMatrix, fp_rank_kernel
from .graphs import DEFAULT_VERTEX_BUDGET, FamilySpec, Graph, Line, Point, structure_faults
from .linearized import rank_distribution
from .metrics import (
    common_neighbor,
    components,
    cycle_from_coefficients,
    cycle_witness_6,
    cycle_witness_8,
    diameter,
    diameter_witness,
    girth,
    path_witnesses,
    verify_cycle_system,
)
from .spectrum import (
    DEFAULT_EVAL_BUDGET,
    closed_form_linearized,
    component_count_formula,
    expansion_bound,
    spectrum_enumerate,
    walk_trace,
)

TRACE_VERTEX_CAP = 20_000

# (p, e, m) matrices for the individual criteria.
SPECTRUM_CASES = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3),
    (3, 1, 1), (3, 1, 2), (2, 3, 3), (3, 2, 2), (5, 1, 1), (7, 1, 1),
    (2, 2, 1), (2, 3, 1), (3, 2, 1),
)
DISCONNECTED_EXPECTED = {(2, 1, 2): 2, (2, 1, 3): 4, (3, 1, 2): 3}
DIAMETER_CASES = (
    (2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (2, 3, 1),
    (3, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3),
)
GIRTH_6_CASES = ((3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2), (2, 2, 1), (2, 3, 1))
GIRTH_8_CASES = ((2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 3))
EXPANDER_CASES = ((2, 1, 1), (2, 2, 2), (3, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1))
RANK_CASES = (
    (2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 2, 2),
    (2, 3, 3), (3, 2, 2), (2, 2, 3), (3, 1, 2),
)
WITNESS_PAIRS_PER_GRAPH = 1000
# Leading batched walks per graph compared id for id with diameter_witness.
WITNESS_CROSS_CHECK = 32
SAMPLED_NEIGHBOR_PAIRS = 10_000

ALL_CASES = tuple(
    sorted(set(SPECTRUM_CASES) | set(DIAMETER_CASES) | set(GIRTH_6_CASES) | set(GIRTH_8_CASES))
)


@dataclass
class CheckResult:
    number: int
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str
    seconds: float

    def line(self) -> str:
        return f"[{self.number:2d}] {self.status:4s} {self.name} ({self.seconds:.1f}s): {self.detail}"


class _Runner:
    """Shared state for one acceptance run: budgets, seed, graph/report caches."""

    def __init__(self, seed=0, max_vertices=DEFAULT_VERTEX_BUDGET,
                 max_evals=DEFAULT_EVAL_BUDGET, perturb=False):
        self.seed = seed
        self.max_vertices = max_vertices
        self.max_evals = max_evals
        self.perturb = perturb
        self._graphs: dict[tuple[int, int, int], Graph] = {}
        self._enum_reports: dict[tuple[int, int, int], object] = {}

    def spec(self, case) -> FamilySpec:
        p, e, m = case
        return FamilySpec.linearized(p, e, m)

    def graph(self, case) -> Graph | None:
        """Materialized graph for a case, or None when over the vertex budget."""
        if case in self._graphs:
            return self._graphs[case]
        spec = self.spec(case)
        if spec.n_vertices > self.max_vertices:
            return None
        g = Graph(spec, vertex_budget=self.max_vertices).materialize()
        self._graphs[case] = g
        return g

    def enum_report(self, case):
        if case not in self._enum_reports:
            self._enum_reports[case] = spectrum_enumerate(self.spec(case), self.max_evals)
        return self._enum_reports[case]

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")


def _finish(results: list[str], skips: list[str], ok_detail: str) -> tuple[str, str]:
    if results:
        return "FAIL", "; ".join(results[:4])
    if skips:
        return "SKIP", f"{ok_detail}; skipped: {', '.join(skips)}"
    return "PASS", ok_detail


def check_spectrum_closed_vs_enum(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    for case in SPECTRUM_CASES:
        p, e, m = case
        try:
            enum_hist = run.enum_report(case).histogram()
        except BudgetExceeded:
            skips.append(f"L_{m}({p ** e})")
            continue
        closed_hist = closed_form_linearized(p, e, m).histogram()
        if closed_hist != enum_hist:
            fails.append(f"L_{m}({p ** e}): closed {closed_hist} != enum {enum_hist}")
    return _finish(fails, skips, f"{len(SPECTRUM_CASES)} multiplicity tables match")


def check_walk_trace_identity(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    checked = 0
    for case in SPECTRUM_CASES:
        p, e, m = case
        spec = run.spec(case)
        if spec.n_vertices > TRACE_VERTEX_CAP:
            continue
        g = run.graph(case)
        if g is None:
            skips.append(f"L_{m}({p ** e})")
            continue
        try:
            hist = run.enum_report(case).histogram()
        except BudgetExceeded:
            skips.append(f"L_{m}({p ** e})")
            continue
        q = spec.q
        for k in (1, 2, 3):
            expected = 2 * sum(count * (q * n) ** k for n, count in hist.items())
            actual = walk_trace(g, k)
            if actual != expected:
                fails.append(f"L_{m}({q}) k={k}: trace {actual} != 2*sum (qN)^k = {expected}")
        checked += 1
    return _finish(fails, skips, f"trace(A^2k) identity holds for {checked} graphs, k=1..3")


def check_regularity_and_counts(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    checked = 0
    for case in ALL_CASES:
        p, e, m = case
        g = run.graph(case)
        if g is None:
            skips.append(f"L_{m}({p ** e})")
            continue
        nbrs = g.adjacency
        if run.perturb and checked == 0:
            nbrs = nbrs.copy()
            nbrs[0, -1] = nbrs[0, 0]  # injected fault: one neighbour listed twice
        fails += [f"L_{m}({p ** e}): {fault}" for fault in structure_faults(g.spec, nbrs)]
        checked += 1
    return _finish(
        fails, skips,
        f"{checked} neighbour arrays: q distinct ids per row, points next to lines only, "
        "symmetric, 2 q^(m+2) nonzeros",
    )


def check_components(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    checked = 0
    for case in ALL_CASES:
        p, e, m = case
        g = run.graph(case)
        if g is None:
            skips.append(f"L_{m}({p ** e})")
            continue
        count, _sizes = components(g)
        predicted = component_count_formula(g.spec)
        if count != predicted:
            fails.append(f"L_{m}({p ** e}): BFS {count} components != formula {predicted}")
        if case in DISCONNECTED_EXPECTED and count != DISCONNECTED_EXPECTED[case]:
            fails.append(f"L_{m}({p ** e}): {count} != q^(m-e) = {DISCONNECTED_EXPECTED[case]}")
        if m <= e and count != 1:
            fails.append(f"L_{m}({p ** e}): m <= e but {count} components")
        checked += 1
    return _finish(fails, skips, f"BFS component counts match the rank formula on {checked} graphs")


def check_diameter(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    checked = 0
    for case in DIAMETER_CASES:
        p, e, m = case
        g = run.graph(case)
        if g is None:
            skips.append(f"L_{m}({p ** e})")
            continue
        d = diameter(g)
        if d != 2 * (m + 1):
            fails.append(f"L_{m}({p ** e}): BFS diameter {d} != {2 * (m + 1)}")
        checked += 1
    return _finish(fails, skips, f"BFS diameter = 2(m+1) on {checked} graphs")


def check_girth(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    checked = 0
    for expected, cases in ((6, GIRTH_6_CASES), (8, GIRTH_8_CASES)):
        for case in cases:
            p, e, m = case
            g = run.graph(case)
            if g is None:
                skips.append(f"L_{m}({p ** e})")
                continue
            got = girth(g)
            if got != expected:
                fails.append(f"L_{m}({p ** e}): BFS girth {got} != {expected}")
            if got < 6:
                fails.append(f"L_{m}({p ** e}): girth {got} < 6 (4-cycle exists)")
            checked += 1
    return _finish(fails, skips, f"BFS girth matches the 6/8 matrix on {checked} graphs")


def _applicable_6(case) -> bool:
    p, e, m = case
    return p % 2 == 1 or (e >= 2 and m == 1)


def _applicable_8(case) -> bool:
    p, e, m = case
    return p == 2 and (m >= 2 or (e == 1 and m == 1))


def check_witnesses(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    n_pairs = 0
    for case in DIAMETER_CASES:
        p, e, m = case
        g = run.graph(case)
        if g is None:
            skips.append(f"L_{m}({p ** e})")
            continue
        bound = 2 * (m + 1)
        rng = run.rng(f"witness:{p}:{e}:{m}")
        ends = [rng.randrange(g.n) for _ in range(2 * WITNESS_PAIRS_PER_GRAPH)]
        sources, targets = ends[0::2], ends[1::2]
        try:
            walks = path_witnesses(g, sources, targets)
        except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
            fails.append(f"L_{m}({p ** e}): batched path witnesses raised {exc!r}")
            walks = []
        for a, b, walk in zip(sources, targets, walks[:WITNESS_CROSS_CHECK]):
            try:
                w = diameter_witness(g, g.decode(a), g.decode(b))
            except Exception as exc:  # noqa: BLE001
                fails.append(f"L_{m}({p ** e}): witness {a} -> {b} raised {exc!r}")
                break
            if [g.encode(v) for v in w.vertices] != walk:
                fails.append(f"L_{m}({p ** e}): batched walk {a} -> {b} != diameter_witness")
                break
        longest = max((len(walk) - 1 for walk in walks), default=0)
        if longest > bound:
            fails.append(f"L_{m}({p ** e}): witness length {longest} > {bound}")
        n_pairs += sum(len(walk) - 1 <= bound for walk in walks)
        F = g.spec.field
        far = Line((F.zero,) * m + (F.one,))
        try:
            w = diameter_witness(g, Line((F.zero,) * (m + 1)), far)
            length = w.length
        except Exception as exc:  # noqa: BLE001
            fails.append(f"L_{m}({p ** e}): lower-bound pair raised {exc!r}")
        else:
            if length != bound:
                fails.append(f"L_{m}({p ** e}): lower-bound pair length {length} != {bound}")
    n_cycles = 0
    for case in ALL_CASES:
        spec = run.spec(case)
        for applicable, builder, size in (
            (_applicable_6(case), cycle_witness_6, 6),
            (_applicable_8(case), cycle_witness_8, 8),
        ):
            if not applicable:
                continue
            try:
                w = builder(spec)
                ok = w.is_valid_cycle() and verify_cycle_system(w) and w.length == size
            except Exception as exc:  # noqa: BLE001
                fails.append(f"{size}-cycle witness raised for L_{case[2]}({spec.q}): {exc!r}")
            else:
                if not ok:
                    fails.append(f"{size}-cycle witness invalid for L_{case[2]}({spec.q})")
            n_cycles += 1
    return _finish(
        fails, skips,
        f"{n_pairs} path witnesses within 2(m+1), lower bounds exact, {n_cycles} cycle witnesses valid",
    )


def _common_agrees(g: Graph, P: Point, P2: Point) -> bool:
    shared = set(g.neighbor_ids(g.encode(P))) & set(g.neighbor_ids(g.encode(P2)))
    predicted = common_neighbor(g, P, P2)
    if predicted is None:
        return not shared
    return shared == {g.encode(predicted)}


def check_common_neighbor(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    n_checked = 0
    for q_p, q_e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        case = (q_p, q_e, 1)
        g = run.graph(case)
        if g is None:
            skips.append(f"L_1({q_p ** q_e})")
            continue
        pts = [g.decode(i) for i in range(g.half)]
        for P, P2 in itertools.combinations(pts, 2):
            if not _common_agrees(g, P, P2):
                fails.append(f"L_1({g.spec.q}): mismatch at {P}, {P2}")
                break
            n_checked += 1
    case11 = (11, 1, 1)
    g11 = run.graph(case11)
    if g11 is None:
        skips.append("L_1(11)")
    else:
        rng = run.rng("common-neighbor")
        half = g11.half
        for _ in range(SAMPLED_NEIGHBOR_PAIRS):
            i = rng.randrange(half)
            j = rng.randrange(half)
            if i == j:
                continue
            if not _common_agrees(g11, g11.decode(i), g11.decode(j)):
                fails.append(f"L_1(11): mismatch at pair ({i}, {j})")
                break
            n_checked += 1
        F = g11.spec.field
        P = Point((F.zero, F.zero))
        P2 = Point((F.from_int(-1), F.from_int(-1)))
        expected = Line((F.one, F.zero))
        got = common_neighbor(g11, P, P2)
        if got != expected:
            fails.append(f"L_1(11) published pair: got {got}, expected {expected}")
    return _finish(fails, skips, f"{n_checked} point pairs agree with brute-force intersection")


def check_rank_distribution(run: _Runner) -> tuple[str, str]:
    """Tally the F_p rank of the matrix of every linear part by elimination
    and compare it with rank_distribution, scaled by q^(m - min(m, e))."""
    fails: list[str] = []
    for case in RANK_CASES:
        p, e, m = case
        spec = run.spec(case)
        F = spec.field
        f_basis = [spec.f_values(b) for b in F.basis]
        tally: Counter[int] = Counter()
        for linear in itertools.product(F.elements(), repeat=m):
            images = []  # the images of the basis: the matrix's columns as rows
            for fb in f_basis:
                acc = F.zero
                for w, f in zip(linear, fb):
                    acc = acc + w * f
                images.append(acc.coeffs)
            rank, _ = fp_rank_kernel(FpMatrix(p, tuple(images)))
            tally[rank] += 1
        scale = spec.q ** (m - min(m, e))
        predicted = {r: a * scale for r, a in rank_distribution(p, e, m).items()}
        if dict(tally) != predicted:
            fails.append(f"L_{m}({spec.q}): rank tally {dict(tally)} != A_r {predicted}")
    if fails:
        return "FAIL", "; ".join(fails[:4])
    return "PASS", (
        "F_p rank tallies of every linear part match the rank distribution "
        f"on {len(RANK_CASES)} graphs"
    )


def check_expander_radicand(run: _Runner) -> tuple[str, str]:
    fails, skips = [], []
    for case in EXPANDER_CASES:
        p, e, m = case
        try:
            report = run.enum_report(case)
        except BudgetExceeded:
            skips.append(f"L_{m}({p ** e})")
            continue
        bound = expansion_bound(p, e, m)
        second = report.second_largest_radicand()
        if second != bound.radicand:
            fails.append(
                f"L_{m}({p ** e}): second radicand {second} != q*p^(m-1) = {bound.radicand}"
            )
    return _finish(fails, skips, "second-largest radicand equals q*p^(m-1) for all m<=e cases")


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


def run_acceptance(seed=0, max_vertices=DEFAULT_VERTEX_BUDGET,
                   max_evals=DEFAULT_EVAL_BUDGET, perturb=False) -> list[CheckResult]:
    run = _Runner(seed=seed, max_vertices=max_vertices, max_evals=max_evals, perturb=perturb)
    results = []
    for number, name, fn in CHECKS:
        t0 = time.perf_counter()
        status, detail = fn(run)
        results.append(CheckResult(number, name, status, detail, time.perf_counter() - t0))
    return results
