"""The four benchmark workloads.

Each workload makes its inputs from a seed once, then runs whole passes over
them.  A pass builds a fresh FamilySpec and Graph for every case, so the
per-object caches (Graph._adj, Graph._csr, FamilySpec.theta_injective) never
carry work from one pass to the next; only the GF() cache survives, and the
benchmark pays for it as set-up.  Every output is checked against an oracle
and counted as one operation that passed or failed.  A pass's time covers
the calls into the package and not the checks that follow them.

The package is always reached through its modules (``metrics.girth``, not a
name bound here), so a tracer that rebinds those module attributes sees every
call this file makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import hostspeed
from linwenger import cli, graphs, metrics, spectrum
from linwenger.graphs import FamilySpec, Line, Point


def label(family: str, p: int, e: int, m: int) -> str:
    """Case name used in per-layer metric names: lin-p-e-m, wen-p-e-m, cus-p-e-m."""
    return f"{family[:3]}-{p}-{e}-{m}"


def spec_label(spec: FamilySpec) -> str:
    return label(spec.family, spec.p, spec.e, spec.m)


def parse_label(case: str) -> tuple[int, int, int]:
    _, p, e, m = case.split("-")
    return int(p), int(e), int(m)


@dataclass
class PassResult:
    """What one pass did: operations attempted and failed, the time of each
    timed block, the work counts the end-to-end rates are made from, and the
    host-speed kernel's median time over the pass (set by the caller)."""

    attempted: int = 0
    failed: int = 0
    edges: int = 0
    weights: int = 0
    block_s: list[float] = field(default_factory=list)
    kernel_s: float = hostspeed.NOMINAL_KERNEL_S

    @property
    def wall_s(self) -> float:
        return sum(self.block_s)

    @property
    def ref_s(self) -> float:
        """wall_s at the reference host speed."""
        return hostspeed.to_reference(self.wall_s, self.kernel_s)

    @contextlib.contextmanager
    def timed(self):
        """Time a block that calls the package and checks nothing; the
        host-speed samples taken inside it are left out."""
        t0 = time.perf_counter()
        h0 = hostspeed.handler_seconds()
        try:
            yield
        finally:
            spent = hostspeed.handler_seconds() - h0
            self.block_s.append(time.perf_counter() - t0 - spent)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Acceptance:
    """``linwenger verify --seed S`` driven in-process through cli.main.

    The seed picks the witness pairs and the sampled common-neighbour pairs.
    One operation per acceptance criterion; a criterion that is not PASS, or
    an exit code that disagrees with the criteria, fails."""

    name = "acceptance"
    FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1))
    N_CRITERIA = 11

    def __init__(self, seed: int, perturb: bool = False):
        self.argv = ["verify", "--seed", str(seed), "--json"]
        if perturb:
            self.argv.append("--perturb")

    def fields(self):
        return [(p, e, None) for p, e in self.FIELDS]

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        out = io.StringIO()
        try:
            with tr.unit("verify"), contextlib.redirect_stdout(out), res.timed():
                rc = cli.main(self.argv)
            rows = json.loads(out.getvalue())
        except Exception:  # noqa: BLE001 - a crash fails every criterion
            _report_error("linwenger verify")
            res.attempted = res.failed = self.N_CRITERIA
            return res
        statuses = [row["status"] for row in rows]
        expected_rc = cli.EXIT_MISMATCH if "FAIL" in statuses else cli.EXIT_OK
        for status in statuses:
            res.record(status == "PASS" and rc == expected_rc)
        return res


def _irreducible_low_degree(coeffs: tuple[int, ...], p: int) -> bool:
    """Monic of degree 2 or 3 over F_p: irreducible iff it has no root."""
    return all(sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p))


def irreducible_moduli(p: int, e: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree e (2 or 3) over F_p, low degree first."""
    if e not in (2, 3):
        raise ValueError("the root test decides irreducibility for degree 2 and 3 only")
    return [
        (*tail, 1)
        for tail in itertools.product(range(p), repeat=e)
        if _irreducible_low_degree((*tail, 1), p)
    ]


class Bfs:
    """The ``linwenger metrics`` path: Graph(spec).materialize() and
    metrics_report, compared with predicted_metrics.

    lin-2-3-3 (8192 vertices, girth 8) keeps the dense eccentricity frontier
    visible in peak memory; lin-7-1-3 has 49 components; wen-3-2-2 has no
    certified structure and is the control for linearized-only shortcuts.
    The seed picks the irreducible modulus of the e >= 2 linearized cases,
    which changes the arithmetic but not the size or the invariants."""

    name = "bfs"
    CASES = (
        ("linearized", 2, 3, 3),
        ("linearized", 7, 1, 3),
        ("linearized", 3, 2, 2),
        ("wenger", 3, 2, 2),
    )
    # Wenger graphs W_m(q) have diameter 2m+2 for 1 <= m <= q-1 and girth 8
    # for m >= 2; predicted_metrics covers only their component count.
    WENGER_KNOWN = {(3, 2, 2): (6, 8)}

    def __init__(self, seed: int):
        rng = random.Random(f"bfs:{seed}")
        self.cases = []
        for family, p, e, m in self.CASES:
            modulus = None
            if family == "linearized" and e >= 2:
                modulus = rng.choice(irreducible_moduli(p, e))
            self.cases.append((family, p, e, m, modulus))

    def fields(self):
        return [(p, e, modulus) for _, p, e, _, modulus in self.cases]

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for family, p, e, m, modulus in self.cases:
            case = label(family, p, e, m)
            with tr.unit("graph", case):
                try:
                    with res.timed():
                        spec = FamilySpec(p, e, m, family, modulus)
                        g = graphs.Graph(spec).materialize()
                        report = metrics.metrics_report(g)
                    pred = metrics.predicted_metrics(spec)
                except Exception:  # noqa: BLE001 - counted as a failed graph
                    _report_error(f"metrics on {case}")
                    res.record(False)
                    continue
            pairs = [
                (report.components, pred.components),
                (report.diameter, pred.diameter),
                (report.girth, pred.girth),
            ]
            if family == "wenger":
                diam, girth = self.WENGER_KNOWN[(p, e, m)]
                pairs += [(report.diameter, diam), (report.girth, girth)]
            for got, want in pairs:
                if want is not None:
                    res.record(got == want)
            res.record(sum(report.sizes) == g.n and len(report.sizes) == report.components)
            res.edges += spec.n_edges
        return res


def spectrum_moments_hold(report, q: int, m: int) -> bool:
    """Oracles that share nothing with the enumeration.

    Counting pairs (w, x) with P_w(x) = 0 gives sum_w N(w) = q^(m+1); counting
    triples (w, x, y) gives sum_w N(w)^2 = q^(m+1) + (q-1) q^m when the
    generator map is injective.  The eigenvalue count is 2 q^(m+1)."""
    hist = report.histogram()
    first = sum(n * c for n, c in hist.items())
    second = sum(n * n * c for n, c in hist.items())
    return (
        report.total_multiplicity == 2 * q ** (m + 1)
        and first == q ** (m + 1)
        and second == q ** (m + 1) + (q - 1) * q**m
    )


class Spectrum:
    """The ``linwenger spectrum`` path; no graph is built.

    lin-5-2-2 (m = e) and lin-3-2-3 (m > e) compare closed_form_linearized with
    spectrum_enumerate.  lin-3-3-2 and lin-2-5-2 (m < e, no closed form) and
    the exhaustive sweeps wen-2-4-2 and cus-3-2-2 are checked by the moment
    identities.  The seed picks the theta-injective custom maps."""

    name = "spectrum"
    CLOSED_VS_ENUM = (("linearized", 5, 2, 2), ("linearized", 3, 2, 3))
    ENUM_ONLY = (
        ("linearized", 3, 3, 2),
        ("linearized", 2, 5, 2),
        ("wenger", 2, 4, 2),
        ("custom", 3, 2, 2),
    )
    CUSTOM_DEGREE = 3

    def __init__(self, seed: int):
        rng = random.Random(f"spectrum:{seed}")
        _, p, e, m = self.ENUM_ONLY[-1]
        q = p**e
        while True:
            f_indices = tuple(
                tuple(rng.randrange(q) for _ in range(self.CUSTOM_DEGREE + 1))
                for _ in range(m)
            )
            if FamilySpec.custom(p, e, m, f_indices).theta_injective:
                break
        self.f_indices = f_indices

    def fields(self):
        return sorted({(p, e, None) for _, p, e, _ in self.CLOSED_VS_ENUM + self.ENUM_ONLY})

    def _spec(self, family, p, e, m) -> FamilySpec:
        if family == "custom":
            return FamilySpec.custom(p, e, m, self.f_indices)
        return FamilySpec(p, e, m, family)

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for case in self.CLOSED_VS_ENUM + self.ENUM_ONLY:
            family, p, e, m = case
            with tr.unit("spectrum", label(*case)):
                try:
                    with res.timed():
                        spec = self._spec(*case)
                        enum = spectrum.spectrum_enumerate(spec)
                        closed = None
                        if case in self.CLOSED_VS_ENUM:
                            closed = spectrum.closed_form_linearized(p, e, m).to_report(spec)
                    ok = spectrum_moments_hold(enum, spec.q, m)
                    if closed is not None:
                        ok = ok and closed.same_spectrum(enum)
                except Exception:  # noqa: BLE001 - counted as a failed spectrum
                    _report_error(f"spectrum of {label(*case)}")
                    ok = False
            res.record(ok)
            res.weights += (p**e) ** (m + 1)
        return res


def _incident(spec: FamilySpec, P: Point, L: Line) -> bool:
    """l_k + p_k = p_1^(p^(k-2)) l_1 for k = 2..m+1, by plain powering rather
    than the package's Frobenius matrices."""
    p1, l1 = P.coords[0], L.coords[0]
    return all(
        L.coords[k - 1] + P.coords[k - 1] == p1 ** (spec.p ** (k - 2)) * l1
        for k in range(2, spec.m + 2)
    )


def path_is_valid(spec: FamilySpec, walk, a, b) -> bool:
    """A walk from a to b of length at most 2(m+1) whose steps alternate
    sides along edges."""
    verts = walk.vertices
    if verts[0] != a or verts[-1] != b or len(verts) - 1 > 2 * (spec.m + 1):
        return False
    for u, v in zip(verts, verts[1:]):
        pt, ln = (u, v) if isinstance(u, Point) else (v, u)
        if not (isinstance(pt, Point) and isinstance(ln, Line) and _incident(spec, pt, ln)):
            return False
    return True


class Witness:
    """Certified queries on lazy linearized graphs that are never built.

    A path query asks diameter_witness for a walk between two vertex ids and
    checks it edge by edge.  A common-neighbour query asks common_neighbor for
    two points and checks the answer against the intersection of their lazy
    neighbour lists, as acceptance criterion 8 does.  The path queries cycle
    through point-point, point-line, line-point and line-line pairs, whose
    costs differ, and half the point pairs are made to share a line, so both
    answers occur; the seed picks the pairs, not that mix.  Each query is timed from the vertex ids to the answer; its check
    runs after the timer stops."""

    name = "witness"
    # (p, e, m): path queries, common-neighbour queries per pass
    CASES = {(3, 3, 3): (200, 400), (2, 6, 2): (200, 200), (2, 8, 3): (100, 20)}

    def __init__(self, seed: int):
        rng = random.Random(f"witness:{seed}")
        self.paths = {}
        self.pairs = {}
        for (p, e, m), (n_path, n_common) in self.CASES.items():
            spec = FamilySpec.linearized(p, e, m)
            g = graphs.Graph(spec)
            F = spec.field
            paths = []
            while len(paths) < n_path:
                a_side, b_side = divmod(len(paths) % 4, 2)
                a = a_side * g.half + rng.randrange(g.half)
                b = b_side * g.half + rng.randrange(g.half)
                if a != b:
                    paths.append((a, b))
            pairs = []
            while len(pairs) < n_common:
                P = g.decode(rng.randrange(g.half))
                if len(pairs) % 2:
                    P2 = g.decode(rng.randrange(g.half))
                else:
                    ln = graphs.line_through(spec, P, F.from_index(rng.randrange(F.q)))
                    x = F.from_index(rng.randrange(F.q))
                    P2 = graphs.point_through(spec, ln, x)
                if P2 != P:
                    pairs.append((g.encode(P), g.encode(P2)))
            self.paths[(p, e, m)] = paths
            self.pairs[(p, e, m)] = pairs

    def fields(self):
        return [(p, e, None) for p, e, _ in self.CASES]

    @staticmethod
    def _ask_path(g, a: int, b: int):
        return metrics.diameter_witness(g, g.decode(a), g.decode(b))

    @staticmethod
    def _check_path(g, a: int, b: int, walk) -> bool:
        return path_is_valid(g.spec, walk, g.decode(a), g.decode(b))

    @staticmethod
    def _ask_common(g, i: int, j: int):
        return metrics.common_neighbor(g, g.decode(i), g.decode(j))

    @staticmethod
    def _check_common(g, i: int, j: int, line) -> bool:
        shared = set(g.neighbor_ids(i)) & set(g.neighbor_ids(j))
        return shared == (set() if line is None else {g.encode(line)})

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for key in self.CASES:
            g = graphs.Graph(FamilySpec.linearized(*key))
            case = label("linearized", *key)
            path = (self._ask_path, self._check_path)
            common = (self._ask_common, self._check_common)
            queries = [(path, a, b) for a, b in self.paths[key]]
            queries += [(common, i, j) for i, j in self.pairs[key]]
            for (ask, check), u, v in queries:
                with tr.unit("query", case):
                    try:
                        with res.timed():
                            answer = ask(g, u, v)
                        ok = check(g, u, v, answer)
                    except Exception:  # noqa: BLE001 - counted as a failed query
                        _report_error(f"query {u}, {v} on {case}")
                        ok = False
                res.record(ok)
        return res


WORKLOADS = {w.name: w for w in (Acceptance, Bfs, Spectrum, Witness)}
