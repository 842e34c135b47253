"""IndexOps.rows, the q x q rows every field gives the per-pair routes
(lists up to ROW_LIMIT, views that call IndexOps above it), and the routes
that read them: every list entry and sampled view entries against the
IndexOps call, the same answers from views forced on small fields, checks
that stay live on a corrupted row, and larger fields that answer through
the views."""

import random

import pytest

from linwenger import fields
from linwenger.errors import SolveFailed
from linwenger.fields import GF, ROW_LIMIT, Field, IndexOps, Rows
from linwenger.graphs import FamilySpec, Graph, Line, Point, adjacent, line_through, point_through
from linwenger.metrics import (
    common_neighbor,
    cycle_witness_6,
    cycle_witness_8,
    diameter_witness,
    metrics_report,
)
from linwenger.spectrum import closed_form_linearized, spectrum_enumerate


@pytest.mark.parametrize("p,e", [(2, 1), (2, 8), (3, 5), (5, 3), (251, 1)])
def test_every_entry_is_the_indexops_call(p, e):
    F = GF(p, e)
    ops, q = F.ops(), F.q
    rows = ops.rows()
    assert isinstance(rows, Rows) and rows is ops.rows()
    for name in ("add", "sub", "mul"):
        table, op = getattr(rows, name), getattr(ops, name)
        assert len(table) == q and all(len(row) == q for row in table)
        assert all(table[a][b] == op(a, b) for a in range(q) for b in range(q)), name
    assert len(rows.frob) == e
    assert all(rows.frob[k][x] == ops.frob(x, k) for k in range(e) for x in range(q))
    assert all(type(v) is int for row in rows.mul for v in row)
    assert (rows.add is rows.sub) == (p == 2)


@pytest.mark.parametrize("p,e", [(257, 1), (3, 6), (2, 17)])
def test_larger_fields_give_views_of_the_calls(p, e):
    F = GF(p, e)
    ops, q = F.ops(), F.q
    rows = ops.rows()
    assert q > ROW_LIMIT and isinstance(rows, Rows) and rows is ops.rows()
    assert (rows.add is rows.sub) == (p == 2) and len(rows.frob) == e
    rng = random.Random(f"views:{p}:{e}")
    sample = [0, 1, q - 1, *(rng.randrange(q) for _ in range(20))]
    for name in ("add", "sub", "mul"):
        table, op = getattr(rows, name), getattr(ops, name)
        assert all(table[a][b] == op(a, b) for a in sample for b in sample), name
    assert all(rows.frob[k][x] == ops.frob(x, k) for k in range(e) for x in sample)


def _pairs(g, rng, n):
    """n vertex-id pairs cycling through point-point, point-line,
    line-point and line-line."""
    out = []
    while len(out) < n:
        a_side, b_side = divmod(len(out) % 4, 2)
        out.append((a_side * g.half + rng.randrange(g.half), b_side * g.half + rng.randrange(g.half)))
    return out


def _point_pairs(g, rng, n):
    """n pairs of distinct point ids, every other pair two points of one line."""
    spec, F = g.spec, g.spec.field
    out = []
    while len(out) < n:
        P = g.decode(rng.randrange(g.half))
        if len(out) % 2:
            P2 = g.decode(rng.randrange(g.half))
        else:
            L = line_through(spec, P, F.from_index(rng.randrange(F.q)))
            P2 = point_through(spec, L, F.from_index(rng.randrange(F.q)))
        if P2 != P:
            out.append((g.encode(P), g.encode(P2)))
    return out


def _answers(key, paths, points):
    """Walks, common neighbours, lazy neighbour rows of L_m(q) and W_m(q),
    and a cycle, on fresh lazy graphs, so that their specs bind the
    arithmetic of the moment."""
    g, wenger = Graph(FamilySpec.linearized(*key)), Graph(FamilySpec.wenger(*key))
    walks = [
        [g.encode(v) for v in diameter_witness(g, g.decode(a), g.decode(b)).vertices]
        for a, b in paths
    ]
    lines = []
    for i, j in points:
        line = common_neighbor(g, g.decode(i), g.decode(j))
        lines.append(None if line is None else g.encode(line))
    rows = [h.neighbor_ids(v) for h in (g, wenger) for pair in paths for v in pair]
    witness = cycle_witness_6 if g.spec.p % 2 else cycle_witness_8
    cycle = [g.encode(v) for v in witness(g.spec).points + witness(g.spec).lines]
    return g.spec.arith[0], walks, lines, rows, cycle


@pytest.fixture
def call_views(monkeypatch):
    """force(F): from then on F's rows are the views of fields past
    ROW_LIMIT.  fields.ROW_LIMIT is lowered below every field and F's cached
    rows dropped; both are restored when the test ends."""

    def force(F):
        monkeypatch.setattr(fields, "ROW_LIMIT", 1)
        monkeypatch.setattr(F.ops(), "_rows", None)

    return force


@pytest.mark.parametrize("key", [(3, 2, 2), (3, 3, 3), (2, 6, 2)], ids=lambda k: "L_{2}({0}^{1})".format(*k))
def test_rows_switched_off_give_the_same_answers(key, call_views):
    """With the list rows switched off, the call views give the same walks,
    common lines, lazy neighbour rows and cycles."""
    rng = random.Random(f"rows:{key}")
    g = Graph(FamilySpec.linearized(*key))
    paths, points = _pairs(g, rng, 40), _point_pairs(g, rng, 40)
    rows, *listed = _answers(key, paths, points)
    assert type(rows.mul) is list
    call_views(g.spec.field)
    rows, *viewed = _answers(key, paths, points)
    assert type(rows.mul) is fields._Table and rows is g.spec.field.ops().rows()
    assert viewed == listed
    assert {line is None for line in listed[1]} == {True, False}


def test_a_corrupted_mul_entry_is_caught(monkeypatch):
    """One entry of a copy of the mul rows is wrong.  The walk's first step
    and the common line of two points are built from it: the walk then
    misses its far end, and the line fails the other point's incidence
    check, which reads other entries."""
    spec = FamilySpec.linearized(3, 2, 2)
    g, F, q = Graph(spec), spec.field, spec.q
    rows = F.ops().rows()
    a, b = g.decode(5), g.decode(700)  # two points: a point-kind walk
    walk = diameter_witness(g, a, b).vertices
    assert len(walk) == 2 * spec.m + 3
    P0, L0 = walk[0].coords[0].index, walk[1].coords[0].index
    assert P0 != L0
    # the first step builds walk[1] from mul[L0][P0], f_2 being the identity,
    # and every later vertex from walk[1]; a common line with first
    # coordinate P0 through a point with first coordinate L0 is built from
    # the same entry
    P = Point((F.from_index(L0),) + a.coords[1:])
    L = line_through(spec, P, F.from_index(P0))
    x = next(x for x in range(q) if x not in (L0, P0))
    P2 = point_through(spec, L, F.from_index(x))
    assert common_neighbor(g, P, P2) == L

    mul = [list(row) for row in rows.mul]
    mul[L0][P0] = (mul[L0][P0] + 1) % q
    bad = rows._replace(mul=mul)
    monkeypatch.setattr(IndexOps, "rows", lambda self: bad)
    g = Graph(FamilySpec.linearized(3, 2, 2))
    assert g.spec.arith[0] is bad
    with pytest.raises(SolveFailed):
        diameter_witness(g, a, b)
    with pytest.raises(SolveFailed):
        common_neighbor(g, P, P2)


@pytest.mark.parametrize("p,e,m", [(257, 1, 1), (3, 6, 2)])
def test_larger_fields_answer_through_indexops(p, e, m):
    spec = FamilySpec.linearized(p, e, m)
    g, F = Graph(spec), spec.field
    rows, f = spec.arith
    assert rows is F.ops().rows() and type(rows.mul) is fields._Table
    rng = random.Random(f"large:{p}:{e}")
    xs = [rng.randrange(F.q) for _ in range(20)]
    assert all(f[j][x] == spec.f_index(x, j) for j in range(m) for x in xs)
    for i, j in _pairs(g, rng, 8):
        a, b = g.decode(i), g.decode(j)
        verts = diameter_witness(g, a, b).vertices
        assert verts[0] == a and verts[-1] == b and len(verts) - 1 <= 2 * (m + 1)
        for u, v in zip(verts, verts[1:]):
            assert adjacent(spec, *((u, v) if isinstance(u, Point) else (v, u)))
    P = g.decode(rng.randrange(g.half))
    L = line_through(spec, P, F.from_index(rng.randrange(F.q)))
    P2 = point_through(spec, L, F.from_index((P.coords[0].index + 1) % F.q))
    assert common_neighbor(g, P, P2) == L
    vid = g.half + rng.randrange(g.half)
    V = g.decode(vid)
    assert isinstance(V, Line)
    assert g.neighbor_ids(vid) == [g.encode(point_through(spec, V, x)) for x in F.elements()]


def test_bfs_and_spectrum_never_read_the_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("table rows were read")

    monkeypatch.setattr(IndexOps, "rows", refuse)
    for spec in (FamilySpec.linearized(3, 2, 2), FamilySpec.wenger(3, 2, 2)):
        report = metrics_report(Graph(spec).materialize())
        assert report.all_match
        spectrum_enumerate(spec)
    closed_form_linearized(5, 2, 2)


def test_equal_fields_hash_alike():
    fresh = Field(3, 2, (5, 5, 1))  # the Conway modulus, written unreduced
    assert fresh == GF(3, 2) and fresh is not GF(3, 2)
    assert hash(fresh) == hash(GF(3, 2))
    assert {fresh: 1}[GF(3, 2)] == 1
    assert hash(Field(3, 2, (1, 0, 1))) != hash(fresh)  # another modulus, another field
