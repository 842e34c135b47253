"""BFS metrics (components, diameter, girth), walk traces and witnesses.

BFS results are exact and read only the (n, q) neighbour array
graph.adjacency: components by min-label propagation, and eccentricities and
girth from one batched level-synchronous sweep per graph (_sweep), cached on
the graph and capped at _SWEEP_BYTES of working set whatever the vertex
count.  The sweep relies on two properties certified on every graph's array:
the bipartite layout (points [0, n/2), lines [n/2, n), every edge across;
read from graphs.layout_certificate, NotBipartite otherwise), and the
shift automorphisms whose orbits it takes one source from (_orbits): 2
sources when every f_k is additive (every linearized graph, and a Wenger
graph with m = 1 or with p = 2 and m = 2), q + 1 on other Wenger graphs,
every vertex when none is certified.  walk_trace counts walks from the same
sources, weighted by orbit size.  The witness constructions do the opposite:
they exploit the Frobenius-family structure to produce short paths and
cycles in closed form, and every witness is re-validated edge by edge before
it is returned.

Only graphs.py knows the vertex layout (graphs._digits, Graph.decode,
graphs._vertex).  Every route here steps on element indices, never through
the object oracles line_through and point_through: the per-pair routes and
the cycle witnesses with graphs._neighbour, the rule lazy
Graph.neighbor_ids steps too, and the batch routes with gathers.

Path witnesses have two routes that build the same walks in the same shape:
one Moore solve gives m+1 pairs (x_j, y_j), and one stepping loop turns them
into a walk.  Every field and m have one Moore matrix, held as element
indices, and fq_solve checks and eliminates it once and applies the cached
row operations to each right-hand side, which stays on indices too.
diameter_witness takes one pair of Point and Line objects, reads their
index coordinates in the pass that checks them, and steps on those indices
with spec.arith, the field's q x q rows: lists up to ROW_LIMIT, views that
call IndexOps above it, so one body serves lazy graphs of any q.
path_witnesses takes whole arrays of vertex-id pairs on a materialized
graph, steps by gathers from graph.adjacency, and checks every step
against it.

Common neighbours have two routes with one rule: two distinct points share a
line exactly when their difference is (u, l u, l f_3(u), ..., l f_(m+1)(u))
with u nonzero, and the line is then forced.  common_neighbor solves one pair
of Point objects on indices with the same rows, so it serves lazy graphs of
any q.  common_neighbors takes whole arrays of point-id pairs on a materialized
graph, runs the rule as gathers from the field's q x q index tables, builds
each line with graphs._gather, the gather that fills the array, and checks
every line it returns against graph.adjacency.  On one pair the batch
is slower, so neither route is built on the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    Acyclic,
    NoSixCycle,
    NotBipartite,
    OutOfRange,
    SamePoint,
    SolveFailed,
    UnsupportedRegime,
)
from .fields import FieldElement, fq_solve
from .graphs import (
    FamilySpec,
    Graph,
    Line,
    Point,
    _certify_rows,
    _check_vertex,
    _digits,
    _f_table,
    _gather,
    _neighbour,
    _vertex,
    _walk_vertices,
    adjacent,
    layout_certificate,
)
from .spectrum import component_count_formula

# ---------------------------------------------------------------------------
# BFS oracles.

# Bytes of one sweep batch: about eight bit matrices of n/2 rows (one side)
# and one bit per source, so a batch runs _SWEEP_BYTES // (n/2) sources at
# any n.
_SWEEP_BYTES = 1 << 25


def _min_labels(n: int, relation):
    """Min-label propagation over ids [0, n): every id starts as its own
    label and, each round, takes the least label among itself and label[r]
    for each index array r that relation() yields, then the label of its
    label (a shortcut within what it reaches), until no label moves.  Each id
    then carries the least id it reaches through the arrays."""
    import numpy as np

    label = np.arange(n)
    while True:
        new = label.copy()
        for r in relation():
            np.minimum(new, label[r], out=new)
        new = new[new]
        if (new == label).all():
            return label
        label = new


def components(graph: Graph) -> tuple[int, list[int]]:
    """Number of connected components and their sizes, ordered by smallest
    contained vertex id.

    Min-label propagation on graph.adjacency, one column at a time (no
    (n, q) temporary): each vertex ends with the smallest id of its
    component, so the sorted distinct labels order the sizes."""
    import numpy as np

    adj = graph.adjacency
    label = _min_labels(len(adj), lambda: (adj[:, j] for j in range(adj.shape[1])))
    _, sizes = np.unique(label, return_counts=True)
    return len(sizes), sizes.tolist()


def _candidate_shifts(spec: FamilySpec, tables):
    """The candidate automorphisms of the point-line graphs, as pairs
    (point shifts, line shifts) of (m+1, q) index tables: a vertex with first
    coordinate x has shifts[j][x] added to its coordinate j.  With a, b, c
    over the F_p-basis of GF(q) and 2 <= k <= m+1:

        A(a):   P -> (p_1 + a, p_k),            L -> (l_1, l_k + f_k(a) l_1)
        B(b):   P -> (p_1, p_k + f_k(p_1) b),   L -> (l_1 + b, l_k)
        T_k(c): P -> (p_1, p_k + c),            L -> (l_1, l_k - c)

    B and T_k preserve l_k + p_k = f_k(p_1) l_1 for any maps f_k; A does so
    exactly when every f_k is additive.  Nothing here assumes either: each
    candidate is certified on the neighbour array before it is used.
    tables is the field's (mul, sub), Field.index_tables()."""
    import numpy as np

    F, q, m = spec.field, spec.q, spec.m
    mul, sub = tables
    f = _f_table(spec)
    x = np.arange(q)
    for b in (F.basis[i].index for i in range(spec.e)):
        a_shift = np.zeros((2, m + 1, q), dtype=np.int64)
        a_shift[0, 0] = b
        a_shift[1, 1:] = mul[f[:, b][:, None], x]
        b_shift = np.zeros_like(a_shift)
        b_shift[0, 1:] = mul[f, b]
        b_shift[1, 0] = b
        yield a_shift
        yield b_shift
        for k in range(1, m + 1):
            t_shift = np.zeros_like(a_shift)
            t_shift[0, k] = b
            t_shift[1, k] = sub[0, b]
            yield t_shift


def _permutation(shifts, digits, add):
    """The vertex-id map of a pair of shift tables; digits is _digits of
    every local id [0, n/2)."""
    import numpy as np

    half, q = len(digits[0]), add.shape[0]
    perm = np.empty(2 * half, dtype=digits[0].dtype)
    for side, shift in enumerate(shifts):
        out = perm[side * half : (side + 1) * half]
        out[:] = side * half
        for j, digit in enumerate(digits):
            out += add[digit, shift[j][digits[0]]] * q**j
    return perm


def _is_automorphism(table, perm) -> bool:
    """Does perm map the relation "v is listed in row u" of the (n, q)
    neighbour array onto itself?  perm must be a bijection of [0, n), and
    every entry v of every row u must have adjacency[perm u, perm v mod q]
    == perm v: an entry equal to perm v proves it is in row perm u whatever
    the row order, because a vertex id's first coordinate is id mod q.  A
    bijection that maps the relation into itself maps it onto itself.

    The rows are checked a block of graphs._certify_rows at a time, as flat
    gathers (no (n, q) temporary), and the first failing block ends the
    test."""
    import numpy as np

    n, q = table.shape
    if len(perm) != n or (np.bincount(perm, minlength=n) != 1).any():
        return False
    flat = table.reshape(-1)
    row_start, first = perm * q, perm % q
    rows = _certify_rows(table)
    for lo in range(0, n, rows):
        block = table[lo : lo + rows]
        at = np.take(first, block)
        at += row_start[lo : lo + rows, None]  # flat index of (perm u, perm v mod q)
        if not np.array_equal(np.take(flat, at), np.take(perm, block)):
            return False
    return True


def _orbits(graph):
    """The certified orbits of graph.adjacency, as (rep_of, automorphisms):
    rep_of[v] (read-only) is the least id in v's orbit, and automorphisms the
    number of generators certified.  Computed once per graph and cached as
    graph._orbits on a read-only array; the sweep and walk_trace read it.

    Candidates of _candidate_shifts are tried only when the layout
    certificate counts no fault, so rows hold q distinct ids and a map that
    keeps "v is listed in row u" keeps A, multiplicities included.  Each is
    kept if _is_automorphism certifies it, and the orbits are the min-label
    propagation over the kept maps and their inverses.  Otherwise (no spec,
    a fault, no map kept) every vertex is its own orbit."""
    record = getattr(graph, "_orbits", None)
    if record is not None:
        return record
    import numpy as np

    table = graph.adjacency
    n, q = table.shape
    spec = getattr(graph, "spec", None)
    kept = []  # a zero-argument builder per certified map
    if spec is not None and not any(layout_certificate(graph)):
        tables = _, sub = spec.field.index_tables()
        add = sub[:, sub[0]].astype(table.dtype)
        digits = _digits(np.arange(n // 2, dtype=table.dtype), q, spec.m + 1)
        for shifts in _candidate_shifts(spec, tables):
            build = functools.partial(_permutation, shifts, digits, add)
            if _is_automorphism(table, build()):
                kept.append(build)

    def maps():  # rebuilt each round: one map in memory at a time, not all of them
        for build in kept:
            perm = build()
            inverse = np.empty_like(perm)
            inverse[perm] = np.arange(n, dtype=perm.dtype)
            yield perm
            yield inverse

    rep_of = _min_labels(n, maps)
    rep_of.flags.writeable = False
    record = (rep_of, len(kept))
    if not table.flags.writeable:
        graph._orbits = record
    return record


@dataclass(frozen=True)
class _BfsRecord:
    """One graph's sweep: eccentricities (read-only), girth (None for a
    forest), BFS sources run and automorphisms certified."""

    ecc: object
    girth: int | None
    sources: int
    automorphisms: int


def _sweep(graph: Graph) -> _BfsRecord:
    """The BFS record of graph.adjacency, computed once per graph and cached
    as graph._bfs on a read-only array (as _orbits and the layout certificate
    are): a level-synchronous BFS from one source per certified automorphism
    orbit (_orbits), in batches.

    An automorphism maps every BFS to a BFS, so a vertex has the
    eccentricity of its orbit's representative, and the shortest cycle any
    source closes is one a representative closes.  With no certified
    automorphism every vertex is a representative: the all-source sweep.

    The array must be laid out as the package builds it: points are ids
    [0, n/2), lines [n/2, n), and every row lists only the other side: the
    graph's layout certificate must count no stray id and no own-side
    neighbour, in any row order, or NotBipartite.  So a batch takes its
    sources from one side, and each frontier lies on one side: a level
    gathers only the n/2 rows of the other side, through that side's half of
    the table.

    A batch holds one bit column per source in n/2-row bit matrices, with
    one `seen` matrix per side.  One level ORs each receiving vertex's
    neighbour rows into `once`, and `twice` keeps the bits reached from two
    frontier neighbours.  The graph is bipartite, so no edge joins two
    frontier vertices, and every non-tree edge of each BFS gives a new
    vertex reached twice: a cycle of 2 * level.  The shortest over the
    sources is the girth, so `twice` is kept only at levels that can still
    close a shorter cycle than the best found."""
    record = getattr(graph, "_bfs", None)
    if record is not None:
        return record
    import numpy as np

    table = graph.adjacency
    n, d = table.shape
    half = n // 2
    layout = layout_certificate(graph)
    if n % 2 or layout.stray or layout.own_side:
        raise NotBipartite("BFS needs points [0, n/2) and lines [n/2, n), adjacent across only")
    rep_of, automorphisms = _orbits(graph)
    reps = np.flatnonzero(rep_of == np.arange(n))
    width = max(1, _SWEEP_BYTES // half)
    ecc = np.zeros(n, dtype=np.int64)
    best = None
    for side, sources in enumerate((reps[reps < half], reps[reps >= half])):
        for lo in range(0, sources.size, width):
            batch = sources[lo : lo + width]
            cols = np.arange(batch.size)
            frontier = np.zeros((half, (cols.size + 7) // 8), dtype=np.uint8)
            frontier[batch - side * half, cols >> 3] = 1 << (cols & 7)
            seen = [np.zeros_like(frontier), np.zeros_like(frontier)]
            seen[side] |= frontier
            at, level = side, 1
            while True:
                cycles = best is None or 2 * level < best
                rows = table[(1 - at) * half : (2 - at) * half]
                once = frontier[rows[:, 0] - at * half]
                twice = np.zeros_like(once) if cycles else None
                for j in range(1, d):  # offset a column at a time: no (n/2, q) copy
                    hit = frontier[rows[:, j] - at * half]
                    if cycles:
                        twice |= once & hit
                    once |= hit
                at = 1 - at
                once &= ~seen[at]  # in place: now the vertices new at this level
                if cycles and (once & twice).any():
                    best = 2 * level
                reached = np.bitwise_or.reduce(once, axis=0)
                if not reached.any():
                    break
                ecc[batch[np.unpackbits(reached, bitorder="little")[: cols.size] > 0]] = level
                seen[at] |= once
                frontier = once
                level += 1
    ecc = ecc[rep_of]
    ecc.flags.writeable = False
    record = _BfsRecord(ecc, best, reps.size, automorphisms)
    if not table.flags.writeable:
        graph._bfs = record
    return record


def eccentricities(graph: Graph):
    """Exact eccentricity of every vertex within its component (read-only)."""
    return _sweep(graph).ecc


def diameter(graph: Graph) -> int:
    """Exact diameter: the maximum eccentricity over all vertices, taken per
    component for disconnected graphs."""
    return int(eccentricities(graph).max())


def girth(graph: Graph) -> int:
    """Exact girth: the shortest cycle closed by a BFS from any vertex."""
    best = _sweep(graph).girth
    if best is None:
        raise Acyclic("graph contains no cycle")
    return best


def walk_trace(graph: Graph, k: int) -> list[int]:
    """[trace(A^2), ..., trace(A^(2k))] as exact integers, for k >= 1 with
    q^(2k) < 2^63.

    A[u, v] counts the entries v of row u of graph.adjacency, so any (n, q)
    array serves; entry j - 1 is the sum of squared entries of A^j, the trace
    of A^(2j) when A is symmetric: sum_s |orbit(s)| ||A^j e_s||^2 over the
    sources s of _orbits (every vertex when no map is certified: O(n^2 q k)),
    since a certified automorphism P has P A P^T = A.  One walk of k steps
    y -> sum_j y[adjacency[:, j]] on one int64 vector per source gives every
    A^j e_s.  Entries of A^j are at most q^j, so the squares are summed
    exactly in row blocks below 2^63 (sized for q^(2k)), then in Python
    ints.  ValueError for k < 1 or q^(2k) >= 2^63, and, before any gather,
    for an id outside [0, n)."""
    import numpy as np

    adj = graph.adjacency
    n, q = adj.shape
    if k < 1 or q ** (2 * k) >= 2**63:
        raise ValueError(f"walk trace needs k >= 1 and q^(2k) < 2^63, got k={k}, q={q}")
    if layout_certificate(graph).stray:
        raise ValueError(f"walk trace needs every entry to be a vertex id in [0, {n})")
    rep_of, _ = _orbits(graph)
    sources = np.flatnonzero(rep_of == np.arange(n))
    rows = (2**63 - 1) // q ** (2 * k)  # rows whose squares sum below 2^63
    totals = [0] * k
    for s, size in zip(sources.tolist(), np.bincount(rep_of)[sources].tolist()):
        y = np.zeros(n, dtype=np.int64)
        y[s] = 1
        for step in range(k):
            new = y[adj[:, 0]]
            for j in range(1, q):
                new += y[adj[:, j]]
            y = new
            squares = (int(np.dot(y[i : i + rows], y[i : i + rows])) for i in range(0, n, rows))
            totals[step] += size * sum(squares)
    return totals


def _require_frobenius(spec: FamilySpec, what: str) -> None:
    """The module's one family check.  The constructions and predictions
    below need every f_k additive, as the Frobenius family's maps are."""
    if spec.family != "linearized":
        raise UnsupportedRegime(f"{what} needs the Frobenius family")


# ---------------------------------------------------------------------------
# Common neighbors (Frobenius family).

def common_neighbor(graph: Graph, P: Point, P2: Point) -> Line | None:
    """The unique line adjacent to both points, if any.

    Two distinct points share a neighbor exactly when their difference has
    the shape (u, l u, l f_3(u), ..., l f_(m+1)(u)) with u nonzero; the line
    is then forced: l_1 = l and l_k = f_k(p_1) l_1 - p_k.  The rule and the
    check of both incidences of the line run on element indices with
    spec.arith, the field's rows (lists up to ROW_LIMIT, views above), so
    they need no index tables at any q."""
    spec = graph.spec
    _require_frobenius(spec, "common-neighbor solving")
    if not (isinstance(P, Point) and isinstance(P2, Point)):
        raise TypeError("common_neighbor takes two Points")
    a, b = _check_vertex(spec, P), _check_vertex(spec, P2)
    if a == b:
        raise SamePoint("common_neighbor needs two distinct points")
    rows, f = spec.arith
    mul, sub = rows.mul, rows.sub
    u = sub[a[0]][b[0]]
    if not u:
        return None
    l = mul[sub[a[1]][b[1]]][spec.field.ops().inv(u)]
    for j in range(2, spec.m + 1):
        if sub[a[j]][b[j]] != mul[l][f[j - 1][u]]:
            return None
    line = _neighbour(rows, f, a, l, True)
    if not (_incident(rows, f, a, line) and _incident(rows, f, b, line)):
        raise SolveFailed("constructed line fails adjacency; internal error")
    return _vertex(spec.field, line, False)


def _id_pairs(graph: Graph, first, second, route: str):
    """The two id arrays of a batch route on a materialized graph, checked
    (integer dtype, bool excluded, unless empty; equal lengths; ids in
    [0, n)), as int64 vectors."""
    import numpy as np

    if not graph.materialized:
        raise ValueError(f"batched {route} need a materialized graph")
    a, b = (np.asarray(ids).reshape(-1) for ids in (first, second))
    if any(ids.size and not np.issubdtype(ids.dtype, np.integer) for ids in (a, b)):
        raise TypeError(f"vertex ids must be integers, not {a.dtype} and {b.dtype}")
    if a.size != b.size:
        raise ValueError(f"id arrays of unequal lengths {a.size} and {b.size}")
    n = graph.spec.n_vertices
    if a.size and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
        raise OutOfRange(f"vertex ids must lie in [0, {n})")
    return a.astype(np.int64), b.astype(np.int64)


def common_neighbors(graph: Graph, points, others):
    """The common_neighbor rule for whole arrays of point-id pairs on a
    materialized Frobenius-family graph: an int64 array holding the id of
    the line both points of each pair lie on, or -1 where they share none.

    Coordinates are decoded by graphs._digits, and the rule runs as gathers
    from the field's q x q index tables: with u = p_1 - p'_1 and
    l = (p_2 - p'_2) / u, a pair shares a line iff u != 0 and
    p_k - p'_k = l f_k(u) for k = 3..m+1, and the line is p's neighbour
    with first coordinate l, written by graphs._gather, materialize's own
    rule.  Every returned line L is checked before it is
    returned, in one gather: adjacency[i, l] == L and adjacency[j, l] == L,
    row i listing i's neighbours by first coordinate; any miss raises
    SolveFailed.  The errors are those of common_neighbor: TypeError for a
    line id, SamePoint for i == j, OutOfRange for an id outside [0, n)."""
    import numpy as np

    spec = graph.spec
    _require_frobenius(spec, "common-neighbor solving")
    a, b = _id_pairs(graph, points, others, "common neighbours")
    half = spec.n_vertices // 2
    if a.size and max(a.max(), b.max()) >= half:
        raise TypeError(f"common_neighbors takes point ids, in [0, {half})")
    if (a == b).any():
        raise SamePoint("common_neighbors needs two distinct points in each pair")

    F, q, m = spec.field, spec.q, spec.m
    tables = mul, sub = F.index_tables()
    inv = np.argmax(mul == F.one.index, axis=1)  # inv[0] = 0, never used
    f = _f_table(spec)
    P = _digits(a, q, m + 1)
    d = sub[P, _digits(b, q, m + 1)]
    u = d[0]
    l = mul[d[1], inv[u]]
    shared = u != 0
    for k in range(3, m + 2):
        shared &= d[k - 1] == mul[l, f[k - 2][u]]
    line = np.empty_like(l)
    _gather(line, tables, f, P, l, True)
    adj = graph.adjacency
    L, at = line[shared], l[shared]
    if not ((adj[a[shared], at] == L).all() and (adj[b[shared], at] == L).all()):
        raise SolveFailed("batched common neighbour fails adjacency; internal error")
    return np.where(shared, line, -1)


# ---------------------------------------------------------------------------
# Diameter witnesses (Frobenius family, m <= e).
#
# Both routes build a walk the same way.  A pair gives m+1 pairs (x_j, y_j)
# from one Moore solve; from the start vertex, step j goes to the neighbour
# whose first coordinate is x_j, then to that vertex's neighbour whose first
# coordinate is the current vertex's plus y_j.  With d = end - start:
#
# - line kind (line to line): anchors x_1 and x_1 + t^(j-2) for j >= 2, and
#   sum_j y_j = d_1, sum_j f_k(x_j) y_j = d_k.  f_k is additive, so this is
#   B (y_2, ..., y_(m+1)) = d_k - f_k(x_1) d_1 with the Moore matrix B of
#   _moore_solve, and y_1 = d_1 - (y_2 + ... + y_(m+1)).
# - point kind (point to point): y_j = t^(j-1) for j <= m and y_(m+1) closes
#   d_1; B (x_1, ..., x_m) = (d_2, ..., d_(m+1)) and x_(m+1) = 0.
# - a point-to-line pair is a line-kind walk from the point's neighbour with
#   first coordinate 0, anchored at x_1 = the point's first coordinate, so
#   its first step reaches the point and is cut off.
#
# Backtracks a-b-a (from zero increments) are then dropped, and a
# line-to-point walk is the reversed point-to-line walk.

@dataclass(frozen=True)
class PathWitness:
    """A validated walk: consecutive vertices adjacent, sides alternating."""

    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


# The per-pair routes (diameter_witness, common_neighbor) and the cycle
# witnesses work on vertices as tuples of canonical element indices with
# spec.arith, and make Point and Line objects (graphs._vertex) only for what
# they return.

def _incident(rows, f, P, L) -> bool:
    """l_k + p_k = f_k(p_1) l_1 for every k, on index coordinates; rows and
    f are spec.arith."""
    add, mul = rows.add, rows.mul
    p1, l1 = P[0], L[0]
    for k in range(1, len(P)):
        if add[L[k]][P[k]] != mul[f[k - 1][p1]][l1]:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _moore_matrix(f, p: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The Moore matrix B[k][i] = f_k(t^i), 2 <= k <= m+1, 0 <= i < m, as
    element indices (t^i has index p^i) of f = spec.f_index.  Keyed on f,
    which equal linearized specs share (their field's IndexOps.frob), so it
    is built once per field and m, and a fresh spec's lookup hashes no
    FamilySpec."""
    return tuple(tuple(f(p**i, j) for i in range(m)) for j in range(m))


def _moore_solve(spec: FamilySpec, rhs) -> list[int]:
    """Solve B x = rhs for the Moore matrix B, on element indices.

    Every witness system reduces to B, because the Frobenius maps f_k are
    additive; the basis powers t^i are F_p-independent, so B is invertible."""
    x = fq_solve(spec.field, _moore_matrix(spec.f_index, spec.p, spec.m), rhs)
    if x is None:
        raise SolveFailed("Moore system unsolvable; basis powers not independent?")
    return x


def _compress_backtracks(walk):
    """Drop backtrack detours a-b-a; they arise from zero increments."""
    out = list(walk[:1])
    for v in walk[1:]:
        if len(out) >= 2 and out[-2] == v:
            out.pop()
        else:
            out.append(v)
    return out


def _require_witness_regime(spec: FamilySpec) -> None:
    _require_frobenius(spec, "witness construction")
    if spec.m > spec.e:
        raise UnsupportedRegime(f"witness anchors need m <= e; m={spec.m}, e={spec.e}")


def _steps_on_rows(spec: FamilySpec, rows, f, start, end, x1: int, on_point: bool) -> list:
    """The walk of the construction above from start towards end, before
    backtracks are dropped: one Moore solve for the step pairs, then the
    whole walk in one loop on the field's rows (spec.arith), with no
    _neighbour call per vertex, which would cost more than its lookups.
    A step from a vertex with first coordinate c_1 to first coordinates x
    and then x' = c_1 + y crosses two edges whose first coordinates
    (p_1, l_1) are (c_1, x) and (x', x) in the point kind, (x, c_1) and
    (x, x') in the line kind."""
    add, sub, mul = rows.add, rows.sub, rows.mul
    ks = range(1, spec.m + 1)
    basis = [spec.p**i for i in range(spec.m)]
    d = [sub[y][x] for x, y in zip(start, end)]
    if on_point:  # point kind
        xs = _moore_solve(spec, d[1:]) + [0]
        ys = basis
    else:  # line kind
        xs = [x1] + [add[x1][t] for t in basis]
        ys = _moore_solve(spec, [sub[d[k]][mul[f[k - 1][x1]][d[0]]] for k in ks])
    rest = d[0]  # y_(m+1) of the point kind, y_1 of the line kind
    for y in ys:
        rest = sub[rest][y]
    ys = ys + [rest] if on_point else [rest] + ys
    walk, cur = [start], start
    for x, y in zip(xs, ys):
        c1 = cur[0]
        x2 = add[c1][y]
        mid, nxt = [x], [x2]
        if on_point:  # both edges have l_1 = x
            row = mul[x]
            for k in ks:
                fk = f[k - 1]
                mid.append(sub[row[fk[c1]]][cur[k]])
                nxt.append(sub[row[fk[x2]]][mid[k]])
        else:  # both edges have p_1 = x
            for k in ks:
                row = mul[f[k - 1][x]]
                mid.append(sub[row[c1]][cur[k]])
                nxt.append(sub[row[x2]][mid[k]])
        cur = tuple(nxt)
        walk += [tuple(mid), cur]
    return walk


def _edges_hold_on_rows(rows, f, walk, first_point: bool) -> bool:
    """Every edge of the walk is incident (_incident), checked on the
    field's rows in one loop with no _incident call per edge; vertex i is a
    point when i is even and first_point."""
    add, mul = rows.add, rows.mul
    ks = range(1, len(walk[0]))
    for i in range(len(walk) - 1):
        P, L = (walk[i], walk[i + 1]) if first_point == (i % 2 == 0) else (walk[i + 1], walk[i])
        p1, l1 = P[0], L[0]
        for k in ks:
            if add[L[k]][P[k]] != mul[f[k - 1][p1]][l1]:
                return False
    return True


def diameter_witness(graph: Graph, a, b) -> PathWitness:
    """A walk from a to b of length at most 2(m+1), built in closed form
    (see the construction above) and validated edge by edge.

    Works for the Frobenius family with m <= e, on Point and Line objects,
    so it needs no neighbour array.  Coordinates are element indices, and
    the walk is stepped and checked a whole walk at a time with spec.arith,
    the field's rows (_steps_on_rows, _edges_hold_on_rows): lists up to
    ROW_LIMIT, views that call IndexOps above it, so no q needs index
    tables.  The Moore matrix is built on indices once per field and m, and
    each walk makes one fq_solve call on it with its index right-hand side;
    the call checks and eliminates the matrix on the first walk over that
    field and m and then applies the cached row operations.  Before the walk is
    returned its ends must be a and b, and each edge must satisfy
    l_k + p_k = f_k(p_1) l_1 on indices; any miss raises SolveFailed.  The
    returned objects are built in one pass (graphs._walk_vertices)."""
    spec = graph.spec
    _require_witness_regime(spec)
    ai, bi = _check_vertex(spec, a), _check_vertex(spec, b)
    rows, f = spec.arith
    a_point, b_point = isinstance(a, Point), isinstance(b, Point)
    if a_point == b_point and ai == bi:
        walk = [ai]
    else:
        start, end, x1, on_point = ai, bi, 0, a_point
        mixed = a_point != b_point
        if mixed:
            pt, end = (ai, bi) if a_point else (bi, ai)
            start, x1, on_point = _neighbour(rows, f, pt, 0, True), pt[0], False
        walk = _steps_on_rows(spec, rows, f, start, end, x1, on_point)
        walk = _compress_backtracks(walk[1:] if mixed else walk)
        if not a_point and b_point:
            walk.reverse()
    # sides alternate from a's: vertex i is a point when i is even and a is one
    if walk[0] != ai or walk[-1] != bi or len(walk) % 2 != (a_point == b_point):
        raise SolveFailed("walk endpoints do not match the request")
    if not _edges_hold_on_rows(rows, f, walk, a_point):
        raise SolveFailed("walk contains a non-edge")
    return PathWitness(_walk_vertices(spec.field, walk, a_point))


def path_witnesses(graph: Graph, sources, targets) -> list[list[int]]:
    """The walks of diameter_witness for whole arrays of vertex-id pairs, as
    lists of ids, on a materialized Frobenius-family graph with m <= e.

    Each pair kind runs once over all its pairs.  Only the Moore right-hand
    sides decode coordinates: differences and products are gathers from the
    field's q x q index tables, and B^-1 is inverted once per batch (m
    fq_solve calls, one per unit vector, sharing one elimination of B); the
    basis t^i and its sum are indices too.
    Every step is a gather adjacency[v, x], because row v lists v's
    neighbours by first coordinate and a vertex id's first coordinate is
    id mod q.  A pair a == b gives [a].
    The walks stay in one (pairs, 2m+3) array: backtracks are dropped column
    by column (_compress_columns) and line-to-point walks reversed in place.

    Every walk is checked before it is returned: its ends must be its pair,
    and each step (u, v) must have adjacency[u, v mod q] == v, an entry equal
    to v proving v is in row u whatever the row order.  All steps of the
    batch are checked in one gather; any miss raises SolveFailed."""
    import numpy as np

    spec = graph.spec
    _require_witness_regime(spec)
    src, dst = _id_pairs(graph, sources, targets, "path witnesses")
    half = spec.n_vertices // 2

    F, q, m = spec.field, spec.q, spec.m
    adj = graph.adjacency
    mul, sub = F.index_tables()
    neg = sub[0]
    f = _f_table(spec)
    # row j is B^-1 e_j, so (B^-1 r)_i = sum_j cols[j, i] r_j
    cols = np.array([_moore_solve(spec, [int(i == j) for i in range(m)]) for j in range(m)])
    basis = [F.p**i for i in range(m)]  # the index of t^i

    def add(a, b):
        return sub[a, neg[b]]

    basis_sum = functools.reduce(add, basis)

    def total(x):  # sum over the first axis
        acc = x[0]
        for j in range(1, len(x)):
            acc = add(acc, x[j])
        return acc

    def moore(rhs):  # B^-1 applied to each column of an (m, pairs) array
        return total(mul[cols[:, :, None], rhs[:, None, :]])

    on_point = (src < half, dst < half)
    points = on_point[0] & on_point[1]
    mixed = on_point[0] != on_point[1]
    flip = mixed & on_point[1]  # line to point: the reversed point-to-line walk
    pt = np.where(on_point[0], src, dst)  # the point of a mixed pair
    start = np.where(mixed, adj[pt, 0], src)  # its neighbour with first coordinate 0
    end = np.where(flip, src, dst)
    anchor = np.where(mixed, pt % q, 0)
    # walk i is out[i, :size[i]]; a pair a == b keeps the walk [a]
    width = 2 * m + 3
    out = np.zeros((src.size, width), dtype=np.int64)
    out[:, 0] = src
    size = np.ones(src.size, dtype=np.int64)
    for mask, point_kind in ((points, True), (~points, False)):
        mask = mask & (src != dst)
        if not mask.any():
            continue
        S, x1 = start[mask], anchor[mask]
        d = sub[_digits(end[mask], q, m + 1), _digits(S, q, m + 1)]
        if point_kind:
            xs = [*moore(d[1:]), 0]
            ys = [*basis, sub[d[0], basis_sum]]
        else:
            tail = moore(sub[d[1:], mul[f[:, x1], d[:1]]])
            xs = [x1] + [add(x1, b) for b in basis]
            ys = [sub[d[0], total(tail)], *tail]
        walk, cur = [S], S
        for x, y in zip(xs, ys):
            mid = adj[cur, x]
            cur = adj[mid, add(cur % q, y)]
            walk += [mid, cur]
        out[mask], size[mask] = _compress_columns(np.column_stack(walk), mixed[mask])
    cols = np.arange(width)  # entries past a walk's end are never read
    reverse = np.where(flip[:, None], size[:, None] - 1 - cols, cols) % width
    out = np.take_along_axis(out, reverse, axis=1)

    if not ((out[:, 0] == src).all() and (out[np.arange(src.size), size - 1] == dst).all()):
        raise SolveFailed("batched walk endpoints do not match the request")
    step = cols[:-1] < size[:, None] - 1
    u, v = out[:, :-1][step], out[:, 1:][step]
    if not (adj[u, v % q] == v).all():
        raise SolveFailed("batched walk contains a non-edge")
    return [row[:s] for row, s in zip(out.tolist(), size.tolist())]


def _compress_columns(walks, drop):
    """_compress_backtracks on every row of a (pairs, length) id array, the
    first id of row i dropped where drop[i]: one exact stack per row, pushed
    or popped a column at a time.  Returns the compressed rows, left-aligned
    in an array of the same shape, and their lengths."""
    import numpy as np

    rows = np.arange(len(walks))
    first = drop.astype(np.int64)
    out = np.zeros_like(walks)
    out[:, 0] = walks[rows, first]
    size = np.ones(len(walks), dtype=np.int64)
    for c in range(1, walks.shape[1]):
        v = walks[:, c]
        live = c > first
        pop = live & (size >= 2) & (out[rows, size - 2] == v)
        push = live & ~pop
        out[rows[push], size[push]] = v[push]
        size += push
        size -= pop
    return out, size


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


def cycle_from_coefficients(spec: FamilySpec, us, cs) -> CycleWitness:
    """The closed walk from the all-zero point P_1 given by decrements u_i and
    slopes c_i: L_i is the neighbor of P_i with first coordinate c_i, and
    P_(i+1) is the neighbor of L_i with first coordinate p_1(P_i) - u_i.
    The walk steps by _neighbour on element indices; the witness's
    edges_valid checks it on objects with graphs.adjacent."""
    _require_frobenius(spec, "cycle construction")
    if len(us) != len(cs) or len(us) < 2:
        raise ValueError("need matching u and c lists with at least two steps")
    F = spec.field
    # each coefficient as an element of F: an integer through the prime
    # subfield, and FieldMismatch for an element of another field
    us, cs = (tuple([F.zero + v for v in vs]) for vs in (us, cs))
    rows, f = spec.arith
    sub = rows.sub
    points, lines = [(0,) * (spec.m + 1)], []
    for u, c in zip(us, cs):
        lines.append(_neighbour(rows, f, points[-1], c.index, True))
        points.append(_neighbour(rows, f, lines[-1], sub[points[-1][0]][u.index], False))
    closure = _vertex(F, points.pop(), True)
    points = tuple([_vertex(F, v, True) for v in points])
    return CycleWitness(spec, points, tuple([_vertex(F, v, False) for v in lines]), us, cs, closure)


def verify_cycle_system(witness: CycleWitness) -> bool:
    """The m+1 closure equations: sum u_i = 0 and, for each map f_k,
    sum c_i f_k(u_i) = 0.

    Necessary for a closed cycle with these coefficients but not sufficient:
    the constructed walk can still revisit a vertex."""
    spec = witness.spec
    F = spec.field
    if any(not u for u in witness.us):
        raise ValueError("cycle coefficients u_i must be nonzero")
    if sum(witness.us, F.zero):
        return False
    for k in range(2, spec.m + 2):
        acc = F.zero
        for u, c in zip(witness.us, witness.cs):
            acc = acc + c * spec.f_eval(k, u)
        if acc:
            return False
    return True


def _girth_regime(spec: FamilySpec) -> int:
    """The girth of the Frobenius family: 6 for odd p and for p = 2 with
    e >= 2 and m = 1, 8 for the other binary cases."""
    _require_frobenius(spec, "the girth table")
    return 6 if spec.p % 2 or (spec.e >= 2 and spec.m == 1) else 8


def cycle_witness_6(spec: FamilySpec) -> CycleWitness:
    """An explicit 6-cycle for the Frobenius family.

    Odd characteristic admits the integer witness u = (1, 1, -2),
    c = (1, -1, 0) from the all-zero point.  For p = 2 a 6-cycle needs
    e >= 2 and m = 1; it comes from any beta != 0 of trace zero and an
    alpha with alpha^2 + alpha = beta, in closed form alpha = t and
    beta = t^2 + t: t is neither 0 nor 1, so beta != 0, and
    tr(beta) = tr(t^2) + tr(t) = 2 tr(t) = 0."""
    if _girth_regime(spec) != 6:
        raise NoSixCycle(
            f"girth is 8 for p=2 with e={spec.e}, m={spec.m}; no 6-cycle exists"
        )
    F = spec.field
    if spec.p % 2:
        w = cycle_from_coefficients(spec, (1, 1, -2), (1, -1, 0))
    else:
        alpha = F.basis[1]
        beta = alpha * alpha + alpha
        us = (alpha * alpha, alpha, beta)
        cs = (F.zero, beta / alpha, F.one)
        w = cycle_from_coefficients(spec, us, cs)
    if not w.is_valid_cycle():
        raise SolveFailed("constructed 6-cycle failed validation")
    return w


def cycle_witness_8(spec: FamilySpec) -> CycleWitness:
    """An explicit 8-cycle in the girth-8 regimes: p = 2 with e = m = 1, or
    p = 2 with m >= 2.  Uses u = (1, 1, 1, 1), c = (0, 1, 0, 1)."""
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
    try:
        girth = _girth_regime(spec)
    except UnsupportedRegime:
        return PredictedMetrics(comp, None, None)
    diam = 2 * (spec.m + 1) if spec.m <= spec.e else None
    return PredictedMetrics(comp, diam, girth)


@dataclass(frozen=True)
class MetricsReport:
    spec: FamilySpec
    components: int
    sizes: list[int]
    diameter: int
    girth: int
    predicted: PredictedMetrics
    bfs_sources: int  # orbit representatives the BFS sweep ran from
    automorphisms: int  # generators certified on the neighbour array

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
            "bfs_sources": self.bfs_sources,
            "automorphisms": self.automorphisms,
        }


def metrics_report(graph: Graph) -> MetricsReport:
    count, sizes = components(graph)
    diam, best = diameter(graph), girth(graph)
    record = _sweep(graph)  # swept once, by diameter()
    return MetricsReport(
        spec=graph.spec,
        components=count,
        sizes=sizes,
        diameter=diam,
        girth=best,
        predicted=predicted_metrics(graph.spec),
        bfs_sources=record.sources,
        automorphisms=record.automorphisms,
    )
