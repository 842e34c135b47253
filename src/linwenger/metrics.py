"""BFS metrics (components, diameter, girth) and constructive witnesses.

BFS results are exact and assume nothing about the graph.  They read
graph.csr(): components through scipy's connected_components, and
eccentricities and girth through one batched level-synchronous sweep whose
working set is capped at _SWEEP_BYTES whatever the vertex count.  The witness
builders do the opposite: they exploit the Frobenius-family structure to
produce short paths and cycles in closed form, and every witness is
re-validated edge by edge before it is returned.

Path witnesses have two routes that build the same walks.  diameter_witness
works on Point and Line objects, one pair at a time, and serves lazy graphs
up to q = 2^16, where no q x q table exists.  path_witnesses takes whole
arrays of vertex-id pairs on a materialized graph, runs each construction
once per batch as numpy gathers over the field's index tables, and checks
every step against graph.adjacency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    Acyclic,
    NoSixCycle,
    OutOfRange,
    SamePoint,
    SolveFailed,
    UnsupportedRegime,
)
from .fields import FieldElement, fq_solve
from .graphs import FamilySpec, Graph, Line, Point, adjacent, line_through, point_through
from .spectrum import component_count_formula

# ---------------------------------------------------------------------------
# BFS oracles.

# Bytes of one sweep batch: about eight bit matrices of n rows and one bit
# per source, so a batch runs _SWEEP_BYTES // n sources at any n.
_SWEEP_BYTES = 1 << 25


def components(graph: Graph) -> tuple[int, list[int]]:
    """Number of connected components and their sizes, in discovery order
    (ordered by smallest contained vertex id)."""
    import numpy as np
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(graph.csr(), directed=False)
    _, first = np.unique(labels, return_index=True)
    return count, np.bincount(labels)[np.argsort(first)].tolist()


def _sweep(graph: Graph, girth_only: bool):
    """Level-synchronous BFS from every vertex of graph.csr(), in batches.

    A batch holds one bit column per source in n-row bit matrices.  One
    level ORs each vertex's neighbour rows into `once`, and `twice` keeps the
    bits reached from two frontier neighbours.  A new vertex reached twice
    closes a cycle of 2 * level; a frontier vertex with a frontier neighbour
    closes one of 2 * level - 1.  Every non-tree edge of each BFS is one of
    these, so the shortest over all sources is the girth.

    Returns the eccentricity array, or with girth_only the girth (None for a
    forest); a girth_only batch stops once its next level cannot close a
    shorter cycle."""
    import numpy as np

    A = graph.csr()
    n = A.shape[0]
    deg = np.diff(A.indptr)
    d = int(deg.max(initial=0))
    if (deg == d).all():
        table = A.indices.reshape(n, d)
    else:  # pad short rows with the id n of an empty extra row
        table = np.full((n, d), n)
        table[np.arange(d) < deg[:, None]] = A.indices
    width = max(1, _SWEEP_BYTES // n)
    ecc = np.zeros(n, dtype=np.int64)
    best = None
    for lo in range(0, n, width):
        cols = np.arange(min(width, n - lo))
        frontier = np.zeros((n + 1, (cols.size + 7) // 8), dtype=np.uint8)
        frontier[lo + cols, cols >> 3] = 1 << (cols & 7)
        seen = frontier[:n].copy()
        level = 1
        while not (girth_only and best is not None and 2 * level - 1 >= best):
            once = np.zeros_like(seen)
            twice = np.zeros_like(seen) if girth_only else None
            for j in range(d):
                hit = frontier[table[:, j]]
                if girth_only:
                    twice |= once & hit
                once |= hit
            new = once & ~seen
            if girth_only:
                if (once & frontier[:n]).any():
                    best = 2 * level - 1
                elif (new & twice).any():
                    best = 2 * level
            reached = np.bitwise_or.reduce(new, axis=0)
            if not reached.any():
                break
            ecc[lo + cols[np.unpackbits(reached, bitorder="little")[: cols.size] > 0]] = level
            seen |= new
            frontier[:n] = new
            level += 1
    return best if girth_only else ecc


def eccentricities(graph: Graph):
    """Exact eccentricity of every vertex within its component."""
    return _sweep(graph, girth_only=False)


def diameter(graph: Graph) -> int:
    """Exact diameter: the maximum eccentricity over all vertices, taken per
    component for disconnected graphs."""
    return int(eccentricities(graph).max())


def girth(graph: Graph) -> int:
    """Exact girth: the shortest cycle closed by a BFS from any vertex."""
    best = _sweep(graph, girth_only=True)
    if best is None:
        raise Acyclic("graph contains no cycle")
    return best


# ---------------------------------------------------------------------------
# Common neighbors (Frobenius family).

def common_neighbor(graph: Graph, P: Point, P2: Point) -> Line | None:
    """The unique line adjacent to both points, if any.

    Two distinct points share a neighbor exactly when their difference has
    the shape (u, l u, l u^p, ..., l u^(p^(m-1))) with u nonzero; the line is
    then forced: l_1 = l and l_k = l_1 p_1^(p^(k-2)) - p_k."""
    spec = graph.spec
    if spec.family != "linearized":
        raise UnsupportedRegime("common-neighbor solving needs the Frobenius family")
    if P == P2:
        raise SamePoint("common_neighbor needs two distinct points")
    u = P.coords[0] - P2.coords[0]
    if not u:
        return None
    l = (P.coords[1] - P2.coords[1]) / u
    for k in range(2, spec.m + 2):
        if P.coords[k - 1] - P2.coords[k - 1] != l * u.frob(k - 2):
            return None
    line = line_through(spec, P, l)
    if not (adjacent(spec, P, line) and adjacent(spec, P2, line)):
        raise SolveFailed("constructed line fails adjacency; internal error")
    return line


# ---------------------------------------------------------------------------
# Diameter witnesses (Frobenius family, m <= e).

@dataclass(frozen=True)
class PathWitness:
    """A validated walk: consecutive vertices adjacent, sides alternating."""

    vertices: tuple
    step_weights: tuple[FieldElement, ...]
    anchors: tuple[FieldElement, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _validated_walk(spec, verts, start, end, step_weights=(), anchors=()) -> PathWitness:
    if verts[0] != start or verts[-1] != end:
        raise SolveFailed("walk endpoints do not match the request")
    for a, b in zip(verts, verts[1:]):
        if isinstance(a, Point) == isinstance(b, Point):
            raise SolveFailed("walk sides fail to alternate")
        pt, ln = (a, b) if isinstance(a, Point) else (b, a)
        if not adjacent(spec, pt, ln):
            raise SolveFailed("walk contains a non-edge")
    return PathWitness(tuple(verts), tuple(step_weights), tuple(anchors))


def _moore_solve(spec: FamilySpec, rhs) -> list[FieldElement]:
    """Solve B x = rhs for the Moore matrix B[k][i] = f_k(t^i),
    2 <= k <= m+1, 0 <= i < m.

    Every witness system reduces to B, because the Frobenius maps f_k are
    additive; the basis powers t^i are F_p-independent, so B is invertible."""
    F = spec.field
    B = [[spec.f_eval(k, F.basis[i]) for i in range(spec.m)] for k in range(2, spec.m + 2)]
    x = fq_solve(F, B, rhs)
    if x is None:
        raise SolveFailed("Moore system unsolvable; basis powers not independent?")
    return x


def _line_walk(spec: FamilySpec, start: Line, end: Line, x1: FieldElement):
    """Solve for line-side increments through m+1 anchor points.

    Anchors are x_1 and x_1 + t^i, so the system  sum_j t_j = d_1,
    sum_j f_k(x_j) t_j = d_k  (d = end - start) becomes, by additivity of
    f_k,  B (t_1, ..., t_m) = d_k - f_k(x_1) d_1  with the Moore matrix B of
    _moore_solve, and t_0 = d_1 - sum t_i.  Returns (anchors, increments,
    full uncompressed walk).
    """
    F = spec.field
    m = spec.m
    xs = [x1] + [x1 + F.basis[i] for i in range(m)]
    delta = [end.coords[j] - start.coords[j] for j in range(m + 1)]
    rhs = [delta[k - 1] - spec.f_eval(k, x1) * delta[0] for k in range(2, m + 2)]
    tail = _moore_solve(spec, rhs)
    ts = [delta[0] - sum(tail, F.zero)] + tail
    walk = [start]
    cur = start
    for x, t in zip(xs, ts):
        pt = point_through(spec, cur, x)
        cur = line_through(spec, pt, cur.coords[0] + t)
        walk.extend((pt, cur))
    if cur != end:
        raise SolveFailed("line walk failed to land on the target")
    return xs, ts, walk


def _compress_backtracks(walk):
    """Drop backtrack detours a-b-a; they arise from zero increments."""
    out = list(walk[:1])
    for v in walk[1:]:
        if len(out) >= 2 and out[-2] == v:
            out.pop()
        else:
            out.append(v)
    return out


def diameter_witness(graph: Graph, a, b) -> PathWitness:
    """A walk from a to b of length at most 2(m+1), built in closed form.

    Works for the Frobenius family with m <= e.  Same-side line pairs solve
    the anchor system directly; point pairs solve the transposed system with
    basis increments on the first coordinate; mixed pairs route the line-side
    walk through the requested point."""
    spec = graph.spec
    if spec.family != "linearized":
        raise UnsupportedRegime("witness construction needs the Frobenius family")
    if spec.m > spec.e:
        raise UnsupportedRegime(
            f"witness anchors need m <= e; m={spec.m}, e={spec.e}"
        )
    if a == b:
        return PathWitness((a,), (), ())
    F = spec.field
    if isinstance(a, Line) and isinstance(b, Line):
        xs, ts, walk = _line_walk(spec, a, b, F.zero)
        return _validated_walk(spec, _compress_backtracks(walk), a, b, ts, xs)
    if isinstance(a, Point) and isinstance(b, Point):
        return _point_walk(spec, a, b)
    if isinstance(a, Point) and isinstance(b, Line):
        return _mixed_walk(spec, a, b)
    if isinstance(a, Line) and isinstance(b, Point):
        w = _mixed_walk(spec, b, a)
        verts = tuple(reversed(w.vertices))
        return _validated_walk(spec, verts, a, b, w.step_weights, w.anchors)
    raise TypeError("witness endpoints must be Point or Line")


def _point_walk(spec: FamilySpec, a: Point, b: Point) -> PathWitness:
    F = spec.field
    m = spec.m
    us = [F.basis[i] for i in range(m)]
    us.append(b.coords[0] - a.coords[0] - sum(us, F.zero))
    delta = [b.coords[k - 1] - a.coords[k - 1] for k in range(2, m + 2)]
    l1s = _moore_solve(spec, delta) + [F.zero]
    walk = [a]
    cur = a
    for u, l1 in zip(us, l1s):
        ln = line_through(spec, cur, l1)
        cur = point_through(spec, ln, cur.coords[0] + u)
        walk.extend((ln, cur))
    if cur != b:
        raise SolveFailed("point walk failed to land on the target")
    return _validated_walk(
        spec, _compress_backtracks(walk), a, b, tuple(l1s), tuple(us)
    )


def _mixed_walk(spec: FamilySpec, a: Point, b: Line) -> PathWitness:
    """Point-to-line walk: start from a neighbor line of a, run the line-side
    walk anchored so its first intermediate point is a itself, then drop the
    leading line."""
    F = spec.field
    first = line_through(spec, a, F.zero)
    xs, ts, walk = _line_walk(spec, first, b, a.coords[0])
    trimmed = walk[1:]  # starts at the point with first coordinate a.p1 == a
    trimmed = _compress_backtracks(trimmed)
    return _validated_walk(spec, trimmed, a, b, ts, xs)


def path_witnesses(graph: Graph, sources, targets) -> list[list[int]]:
    """The walks of diameter_witness for whole arrays of vertex-id pairs, as
    lists of ids, on a materialized Frobenius-family graph with m <= e.

    The line, point and mixed constructions each run once over all pairs of
    their kind, on (pairs, m+1) arrays of coordinate indices: products and
    differences are gathers from the field's q x q index tables, f_k(x) is
    an (m, q) array, and every Moore system is a gathered mat-vec with the
    inverse of B, which takes m fq_solve calls (one per unit vector) per
    batch.  Backtracks are dropped by _compress_backtracks; a pair a == b
    gives [a].

    Every walk is checked before it is returned: its ends must be its pair,
    and each step (u, v) must have adjacency[u, v mod q] == v.  Rows list
    neighbours by first coordinate, so v mod q is v's column, and an entry
    equal to v proves v is in row u whatever the row order.  All steps of
    the batch are checked in one gather; any miss raises SolveFailed."""
    import numpy as np

    spec = graph.spec
    if spec.family != "linearized":
        raise UnsupportedRegime("witness construction needs the Frobenius family")
    if spec.m > spec.e:
        raise UnsupportedRegime(f"witness anchors need m <= e; m={spec.m}, e={spec.e}")
    if not graph.materialized:
        raise ValueError("batched path witnesses need a materialized graph")
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    dst = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, half = spec.n_vertices, spec.n_vertices // 2
    if src.shape != dst.shape:
        raise ValueError(f"{src.size} sources but {dst.size} targets")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise OutOfRange(f"vertex ids must lie in [0, {n})")

    F, q, m = spec.field, spec.q, spec.m
    mul, sub = F.index_tables()
    neg = sub[0]
    f = np.array([[spec.f_eval(k, F.from_index(x)).index for x in range(q)]
                  for k in range(2, m + 2)])
    units = [[F.one if i == j else F.zero for i in range(m)] for j in range(m)]
    cols = [_moore_solve(spec, u) for u in units]
    inv = np.array([[cols[j][i].index for j in range(m)] for i in range(m)])
    basis = [b.index for b in F.basis[:m]]
    basis_sum = sum(F.basis[:m], F.zero).index
    powers = q ** np.arange(m + 1)

    def add(a, b):
        return sub[a, neg[b]]

    def total(x):  # sum over the last axis
        acc = x[..., 0]
        for j in range(1, x.shape[-1]):
            acc = add(acc, x[..., j])
        return acc

    def moore(rhs):  # B^-1 applied to each row of a (pairs, m) array
        return total(mul[inv, rhs[:, None, :]])

    def through(own, x, own_is_point):  # line_through / point_through
        p1, l1 = (own[:, 0], x) if own_is_point else (x, own[:, 0])
        return np.column_stack([x, sub[mul[f[:, p1].T, l1[:, None]], own[:, 1:]]])

    def coords(ids):
        return ids[:, None] % half // powers % q

    def ids(c, side):
        return side * half + c @ powers

    def line_walk(S, E, x1):  # _line_walk after its start S
        d = sub[E, S]
        tail = moore(sub[d[:, 1:], mul[f[:, x1].T, d[:, :1]]])
        ts = np.column_stack([sub[d[:, 0], total(tail)], tail])
        xs = np.column_stack([x1] + [add(x1, b) for b in basis])
        walk, cur = [], S
        for j in range(m + 1):
            pt = through(cur, xs[:, j], own_is_point=False)
            cur = through(pt, add(cur[:, 0], ts[:, j]), own_is_point=True)
            walk += [ids(pt, 0), ids(cur, 1)]
        return walk

    def point_walk(A, B, zero):
        us = [zero + b for b in basis] + [sub[sub[B[:, 0], A[:, 0]], basis_sum]]
        l1s = np.column_stack([moore(sub[B[:, 1:], A[:, 1:]]), zero])
        walk, cur = [ids(A, 0)], A
        for j in range(m + 1):
            ln = through(cur, l1s[:, j], own_is_point=True)
            cur = through(ln, add(cur[:, 0], us[j]), own_is_point=False)
            walk += [ids(ln, 1), ids(cur, 0)]
        return walk

    walks: list = [[a] for a in src.tolist()]
    on_line = (src >= half, dst >= half)
    moved = src != dst
    groups = (
        (moved & on_line[0] & on_line[1], src, dst),
        (moved & ~on_line[0] & ~on_line[1], src, dst),
        (moved & (on_line[0] != on_line[1]), np.where(on_line[0], dst, src),
         np.where(on_line[0], src, dst)),
    )
    for kind, (mask, a, b) in enumerate(groups):
        if not mask.any():
            continue
        a, b = coords(a[mask]), coords(b[mask])
        zero = np.zeros(len(a), dtype=np.int64)
        if kind == 0:
            W = np.column_stack([ids(a, 1)] + line_walk(a, b, zero))
        elif kind == 1:
            W = np.column_stack(point_walk(a, b, zero))
        else:  # point a to line b: from line_through(a, 0), anchored at a's first coordinate
            W = np.column_stack(line_walk(through(a, zero, own_is_point=True), b, a[:, 0]))
        rows = [_compress_backtracks(row) for row in W.tolist()]
        if kind == 2:  # a line-to-point walk is the reversed point-to-line walk
            rows = [r[::-1] if flip else r for r, flip in zip(rows, on_line[0][mask].tolist())]
        for i, row in zip(np.flatnonzero(mask).tolist(), rows):
            walks[i] = row

    lengths = np.array([len(w) for w in walks], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(walks), np.int64, int(lengths.sum()))
    ends = np.cumsum(lengths)
    step = np.ones(max(flat.size - 1, 0), dtype=bool)
    step[ends[:-1] - 1] = False  # from the end of one walk to the start of the next
    u, v = flat[:-1][step], flat[1:][step]
    if not ((flat[ends - lengths] == src).all() and (flat[ends - 1] == dst).all()):
        raise SolveFailed("batched walk endpoints do not match the request")
    if not (graph.adjacency[u, v % q] == v).all():
        raise SolveFailed("batched walk contains a non-edge")
    return walks


# ---------------------------------------------------------------------------
# Cycle witnesses and the cycle coefficient system.

@dataclass(frozen=True)
class CycleWitness:
    """A candidate closed walk built from first-coordinate decrements u_i and
    line slopes c_i.  points/lines are the constructed vertices; closure is
    the point the construction returns to (equal to points[0] for a genuine
    cycle)."""

    spec: FamilySpec
    points: tuple[Point, ...]
    lines: tuple[Line, ...]
    us: tuple[FieldElement, ...]
    cs: tuple[FieldElement, ...]
    closure: Point

    @property
    def length(self) -> int:
        return 2 * len(self.points)

    def is_closed(self) -> bool:
        return self.closure == self.points[0]

    def vertices_distinct(self) -> bool:
        return len(set(self.points)) == len(self.points) and len(set(self.lines)) == len(
            self.lines
        )

    def edges_valid(self) -> bool:
        t = len(self.points)
        for i in range(t):
            if not adjacent(self.spec, self.points[i], self.lines[i]):
                return False
            nxt = self.points[(i + 1) % t] if i + 1 < t else self.closure
            if not adjacent(self.spec, nxt, self.lines[i]):
                return False
        return True

    def is_valid_cycle(self) -> bool:
        return self.is_closed() and self.vertices_distinct() and self.edges_valid()

    def vertex_sequence(self) -> tuple:
        out = []
        for pt, ln in zip(self.points, self.lines):
            out.extend((pt, ln))
        out.append(self.closure)
        return tuple(out)


def cycle_from_coefficients(spec: FamilySpec, us, cs, start: Point | None = None) -> CycleWitness:
    """Construct the closed walk determined by decrements u_i and slopes c_i:
    L_i is the neighbor of P_i with first coordinate c_i, and P_(i+1) is the
    neighbor of L_i with first coordinate p_1(P_i) - u_i."""
    if spec.family != "linearized":
        raise UnsupportedRegime("cycle construction needs the Frobenius family")
    if len(us) != len(cs) or len(us) < 2:
        raise ValueError("need matching u and c lists with at least two steps")
    F = spec.field
    us = tuple(u if isinstance(u, FieldElement) else F.from_int(u) for u in us)
    cs = tuple(c if isinstance(c, FieldElement) else F.from_int(c) for c in cs)
    if start is None:
        start = Point((F.zero,) * (spec.m + 1))
    points = [start]
    lines = []
    cur = start
    for i, (u, c) in enumerate(zip(us, cs)):
        ln = line_through(spec, cur, c)
        lines.append(ln)
        cur = point_through(spec, ln, cur.coords[0] - u)
        if i + 1 < len(us):
            points.append(cur)
    return CycleWitness(spec, tuple(points), tuple(lines), us, cs, cur)


def verify_cycle_system(witness: CycleWitness) -> bool:
    """The m+1 closure equations: sum u_i = 0 and, for each Frobenius power
    j < m, sum c_i u_i^(p^j) = 0.

    Necessary for a closed cycle with these coefficients but not sufficient:
    the constructed walk can still revisit a vertex."""
    spec = witness.spec
    F = spec.field
    if any(not u for u in witness.us):
        raise ValueError("cycle coefficients u_i must be nonzero")
    if sum(witness.us, F.zero):
        return False
    for j in range(spec.m):
        acc = F.zero
        for u, c in zip(witness.us, witness.cs):
            acc = acc + c * u.frob(j)
        if acc:
            return False
    return True


def _girth_regime(spec: FamilySpec) -> int | None:
    """The girth of the Frobenius family: 6 for odd p and for p = 2 with
    e >= 2 and m = 1, 8 for the other binary cases; None for other families."""
    if spec.family != "linearized":
        return None
    return 6 if spec.p % 2 or (spec.e >= 2 and spec.m == 1) else 8


def _first_zero_trace_pair(F):
    """Smallest (by canonical order) beta != 0 with tr(beta) = 0 and alpha != 0
    solving alpha^2 + alpha = beta."""
    for bi in range(1, F.q):
        beta = F.from_index(bi)
        if beta.trace():
            continue
        for ai in range(1, F.q):
            alpha = F.from_index(ai)
            if alpha * alpha + alpha == beta:
                return alpha, beta
    return None


def cycle_witness_6(spec: FamilySpec) -> CycleWitness:
    """An explicit 6-cycle for the Frobenius family.

    Odd characteristic admits the integer witness u = (1, 1, -2),
    c = (1, -1, 0) from the all-zero point.  For p = 2 a 6-cycle needs
    e >= 2 and m = 1; it comes from any beta != 0 of trace zero and an
    alpha with alpha^2 + alpha = beta."""
    if spec.family != "linearized":
        raise UnsupportedRegime("cycle construction needs the Frobenius family")
    if _girth_regime(spec) != 6:
        raise NoSixCycle(
            f"girth is 8 for p=2 with e={spec.e}, m={spec.m}; no 6-cycle exists"
        )
    F = spec.field
    if spec.p % 2:
        w = cycle_from_coefficients(spec, (1, 1, -2), (1, -1, 0))
    else:
        pair = _first_zero_trace_pair(F)
        if pair is None:
            raise SolveFailed("no trace-zero beta admits alpha^2 + alpha = beta")
        alpha, beta = pair
        us = (alpha * alpha, alpha, beta)
        cs = (F.zero, beta / alpha, F.one)
        w = cycle_from_coefficients(spec, us, cs)
    if not w.is_valid_cycle():
        raise SolveFailed("constructed 6-cycle failed validation")
    return w


def cycle_witness_8(spec: FamilySpec) -> CycleWitness:
    """An explicit 8-cycle in the girth-8 regimes: p = 2 with e = m = 1, or
    p = 2 with m >= 2.  Uses u = (1, 1, 1, 1), c = (0, 1, 0, 1)."""
    if spec.family != "linearized":
        raise UnsupportedRegime("cycle construction needs the Frobenius family")
    if _girth_regime(spec) != 8:
        raise UnsupportedRegime(
            f"8-cycle witness applies to p=2 with e=m=1 or m>=2; "
            f"got p={spec.p}, e={spec.e}, m={spec.m}"
        )
    w = cycle_from_coefficients(spec, (1, 1, 1, 1), (0, 1, 0, 1))
    if not w.is_valid_cycle():
        raise SolveFailed("constructed 8-cycle failed validation")
    return w


# ---------------------------------------------------------------------------
# Report assembly.

@dataclass(frozen=True)
class PredictedMetrics:
    components: int | None
    diameter: int | None
    girth: int | None


def predicted_metrics(spec: FamilySpec) -> PredictedMetrics:
    """Closed-form expectations where the theory provides them.

    Component counts follow from the function-rank formula for every family.
    Diameter 2(m+1) and the girth table apply to the Frobenius family only;
    outside their regimes the fields stay None."""
    comp = component_count_formula(spec)
    diam = None
    if spec.family == "linearized" and spec.m <= spec.e:
        diam = 2 * (spec.m + 1)
    return PredictedMetrics(comp, diam, _girth_regime(spec))


@dataclass(frozen=True)
class MetricsReport:
    spec: FamilySpec
    components: int
    sizes: list[int]
    diameter: int
    girth: int
    predicted: PredictedMetrics

    @property
    def matches(self) -> dict[str, bool | None]:
        pred = self.predicted
        return {
            "components": None if pred.components is None else pred.components == self.components,
            "diameter": None if pred.diameter is None else pred.diameter == self.diameter,
            "girth": None if pred.girth is None else pred.girth == self.girth,
        }

    @property
    def all_match(self) -> bool:
        return all(v is not False for v in self.matches.values())

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "components": self.components,
            "sizes": list(self.sizes),
            "diameter": self.diameter,
            "girth": self.girth,
            "predicted": {
                "components": self.predicted.components,
                "diameter": self.predicted.diameter,
                "girth": self.predicted.girth,
            },
            "match": self.matches,
        }


def metrics_report(graph: Graph) -> MetricsReport:
    count, sizes = components(graph)
    return MetricsReport(
        spec=graph.spec,
        components=count,
        sizes=sizes,
        diameter=diameter(graph),
        girth=girth(graph),
        predicted=predicted_metrics(graph.spec),
    )
