"""Graph construction: adjacency, ids, materialization, exports."""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linwenger import (
    BudgetExceeded,
    FamilySpec,
    Graph,
    Line,
    OutOfRange,
    Point,
    adjacent,
    build,
    components,
    export,
    line_through,
    point_through,
)
from linwenger.graphs import structure_faults


def ids(elts):
    return tuple(x.index for x in elts)


class TestFamilySpec:
    def test_sizes(self):
        spec = FamilySpec.linearized(2, 2, 3)
        assert spec.q == 4
        assert spec.n_vertices == 2 * 4**4
        assert spec.n_edges == 4**5

    def test_family_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(2, 1, 1, family="wegner")
        with pytest.raises(ValueError):
            FamilySpec(2, 1, 0)
        with pytest.raises(ValueError):
            FamilySpec.custom(2, 1, 2, f_indices=((0, 1),))  # needs m polys
        with pytest.raises(ValueError):
            FamilySpec(2, 1, 1, family="linearized", f_indices=((0, 1),))

    def test_f_eval_families(self):
        lin = FamilySpec.linearized(3, 2, 3)
        x = lin.field.basis[1]
        assert lin.f_eval(2, x) == x
        assert lin.f_eval(3, x) == x**3
        assert lin.f_eval(4, x) == x**9

        wen = FamilySpec.wenger(3, 2, 3)
        assert wen.f_eval(2, x) == x
        assert wen.f_eval(3, x) == x**2
        assert wen.f_eval(4, x) == x**3

        with pytest.raises(ValueError):
            lin.f_eval(1, x)
        with pytest.raises(ValueError):
            lin.f_eval(5, x)

    def test_custom_horner(self):
        # f_2 = 1 + 2x + x^2 over F_5
        spec = FamilySpec.custom(5, 1, 1, f_indices=((1, 2, 1),))
        F = spec.field
        for a in range(5):
            x = F.from_int(a)
            assert spec.f_eval(2, x) == F.from_int(1 + 2 * a + a * a)

    def test_theta_injective_flag(self):
        assert FamilySpec.linearized(2, 1, 1).theta_injective
        assert FamilySpec.wenger(3, 1, 2).theta_injective
        # constant map collapses everything
        assert not FamilySpec.custom(3, 1, 1, f_indices=((0,),)).theta_injective

    def test_weight_tuple_base_q(self):
        spec = FamilySpec.linearized(3, 1, 2)
        w = spec.weight_tuple(5)  # 5 = 2 + 1*3 base 3, low digit first
        assert ids(w) == (2, 1, 0)

    def test_json_dict(self):
        spec = FamilySpec.custom(2, 1, 1, f_indices=((0, 1),))
        d = spec.to_json_dict()
        assert d["family"] == "custom"
        assert d["f_list"] == [[0, 1]]
        assert d["modulus"] == [1, 1]  # x + 1, the degree-1 default over F_2


class TestIncidence:
    def test_through_functions_give_neighbors(self):
        spec = FamilySpec.linearized(3, 2, 2)
        F = spec.field
        P = Point((F.from_int(2), F.basis[1], F.one))
        L = Line((F.basis[1] + F.one, F.zero, F.from_int(2)))
        for x in F.elements():
            assert adjacent(spec, P, line_through(spec, P, x))
            assert adjacent(spec, point_through(spec, L, x), L)

    def test_unique_neighbor_per_first_coordinate(self):
        spec = FamilySpec.wenger(3, 1, 2)
        F = spec.field
        P = Point((F.one, F.from_int(2), F.zero))
        lines = [line_through(spec, P, x) for x in F.elements()]
        assert len({ids(L.coords) for L in lines}) == spec.q
        assert [L.coords[0] for L in lines] == list(F.elements())

    def test_adjacency_equations(self):
        spec = FamilySpec.linearized(2, 2, 1)
        F = spec.field
        t = F.basis[1]
        P = Point((t, F.one))
        l1 = t + F.one
        L = Line((l1, t * l1 - F.one))
        assert adjacent(spec, P, L)  # l_2 + p_2 = p_1 l_1
        assert not adjacent(spec, P, Line((l1, t * l1)))


class TestGraph:
    def test_counts_and_regularity(self, graph_cache):
        for p, e, m in [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)]:
            g = graph_cache(p, e, m)
            q = g.spec.q
            assert g.n == 2 * q ** (m + 1)
            assert g.n_edges == q ** (m + 2)
            assert g.adjacency.shape == (g.n, q)
            assert structure_faults(g.spec, g.adjacency) == []

    def test_wenger_counts(self):
        g = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        assert g.n == 18
        assert g.n_edges == 27
        assert g.adjacency.shape == (18, 3)
        assert structure_faults(g.spec, g.adjacency) == []

    def test_structure_faults_reports_injected_faults(self, graph_cache):
        g = graph_cache(3, 1, 1)
        half = g.n // 2
        stranger = next(u for u in range(half, g.n) if u not in g.adjacency[1])

        def faults_after(v, j, u):
            nbrs = g.adjacency.copy()
            nbrs[v, j] = u
            return [f.split(" ", 1)[1] for f in structure_faults(g.spec, nbrs)]

        transpose = "adjacency entries differ from the transpose"
        missing = "nonzeros missing from 2 q^(m+2) = 54"
        duplicate = faults_after(0, 1, g.adjacency[0, 0])
        assert duplicate == ["rows repeat a neighbour", transpose, missing]
        assert faults_after(1, 0, stranger) == [transpose]  # one-sided entry
        same_side = faults_after(half, 0, half + 1)
        assert same_side == ["vertices have a neighbour on their own side", transpose]
        assert structure_faults(g.spec, g.adjacency[:-1]) != []  # a row short

    def test_encode_layout(self):
        g = build(FamilySpec.linearized(2, 1, 1))
        F = g.spec.field
        assert g.encode(Point((F.zero, F.zero))) == 0
        assert g.encode(Point((F.one, F.zero))) == 1
        assert g.encode(Point((F.zero, F.one))) == 2
        assert g.encode(Line((F.zero, F.zero))) == 4
        assert g.encode(Line((F.one, F.one))) == 7

    @given(st.data())
    def test_encode_decode_roundtrip(self, data):
        spec = FamilySpec.linearized(3, 1, 2)
        g = build(spec)
        vid = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        v = g.decode(vid)
        assert g.encode(v) == vid
        assert isinstance(v, Line) == (vid >= g.n // 2)

    def test_decode_out_of_range(self):
        g = build(FamilySpec.linearized(2, 1, 1))
        with pytest.raises(OutOfRange):
            g.decode(-1)
        with pytest.raises(OutOfRange):
            g.decode(g.n)

    def test_neighbor_order_is_canonical(self):
        g = build(FamilySpec.linearized(3, 1, 1))
        F = g.spec.field
        P = Point((F.from_int(2), F.one))
        nbrs = g.neighbors_of_point(P)
        assert [L.coords[0].index for L in nbrs] == [0, 1, 2]
        L = Line((F.one, F.from_int(2)))
        assert [Q.coords[0].index for Q in g.neighbors_of_line(L)] == [0, 1, 2]

    def test_lazy_matches_materialized(self):
        for spec in (
            FamilySpec.linearized(2, 2, 2),
            FamilySpec.linearized(3, 1, 2),
            FamilySpec.wenger(3, 1, 2),
            FamilySpec.custom(3, 1, 2, f_indices=((1, 2, 1), (0, 0, 1))),
        ):
            lazy = build(spec)
            full = build(spec, mode="materialized")
            assert not lazy.materialized and full.materialized
            A = full.csr()  # wraps the array; must leave its row order alone
            assert np.shares_memory(A.indices, full.adjacency)
            components(full)
            for vid in range(full.n):
                row = full.adjacency[vid].tolist()
                assert row == lazy.neighbor_ids(vid)
                v = full.decode(vid)
                for w in map(full.decode, row):
                    assert adjacent(spec, *((v, w) if vid < full.half else (w, v)))

    def test_adjacency_is_symmetric_and_bipartite(self, graph_cache):
        g = graph_cache(3, 1, 1)
        half = g.n // 2
        for vid, row in enumerate(g.adjacency):
            for u in row:
                assert (vid < half) != (u < half)
                assert vid in g.adjacency[u]

    def test_csr_matches_edges(self, graph_cache):
        g = graph_cache(2, 2, 1)
        A = g.csr()
        assert A.shape == (g.n, g.n)
        assert A.nnz == 2 * g.n_edges
        assert (A != A.T).nnz == 0
        for u, v in g.edges():
            assert A[u, v] == 1

    def test_edges_sorted_and_complete(self, graph_cache):
        g = graph_cache(2, 1, 2)
        es = list(g.edges())
        assert es == sorted(es)
        assert len(es) == g.n_edges
        assert len(set(es)) == g.n_edges
        assert all(u < g.n // 2 <= v for u, v in es)

    def test_budget(self):
        spec = FamilySpec.linearized(2, 1, 1)  # 8 vertices
        with pytest.raises(BudgetExceeded):
            build(spec, mode="materialized", max_vertices=4)
        with pytest.raises(ValueError):
            build(spec, mode="eager")

    def test_lazy_graph_leaves_theta_unevaluated(self):
        # theta_injective sweeps the field; only meta_dict and the spectrum need it
        spec = FamilySpec.linearized(2, 16, 1)
        Graph(spec)
        assert "theta_injective" not in spec.__dict__

    def test_meta_dict(self, graph_cache):
        g = graph_cache(2, 1, 1)
        d = g.meta_dict()
        assert d["vertices"] == 8 and d["edges"] == 8
        assert d["regular"] == 2
        assert d["injective_theta"] is True
        assert d["family"] == "linearized"

    def test_custom_linear_poly_matches_wenger_m1(self):
        # x^(p^0) and x^1 coincide, so the m=1 graphs are identical
        lin = build(FamilySpec.custom(3, 1, 1, f_indices=((0, 1),)), mode="materialized")
        wen = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        assert list(lin.edges()) == list(wen.edges())


class TestExport:
    def test_edgelist_exact(self):
        g = build(FamilySpec.linearized(2, 1, 1), mode="materialized")
        buf = io.StringIO()
        export(g, "edgelist", buf)
        assert buf.getvalue() == "0 4\n0 5\n1 4\n1 7\n2 6\n2 7\n3 5\n3 6\n"

    def test_dimacs_header_and_edges(self):
        g = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        buf = io.StringIO()
        export(g, "dimacs", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p edge 18 27"
        assert len(lines) == 28
        assert all(ln.startswith("e ") for ln in lines[1:])
        u, v = lines[1].split()[1:]
        assert int(u) >= 1 and int(v) >= 1

    def test_json_meta(self):
        g = build(FamilySpec.linearized(2, 2, 1))
        buf = io.StringIO()
        export(g, "json_meta", buf)
        d = json.loads(buf.getvalue())
        assert d["p"] == 2 and d["e"] == 2 and d["m"] == 1
        assert d["vertices"] == 32 and d["edges"] == 64
        buf2 = io.StringIO()
        export(g, "json", buf2)  # CLI alias
        assert json.loads(buf2.getvalue()) == d

    def test_file_sink(self, tmp_path):
        g = build(FamilySpec.linearized(2, 1, 1), mode="materialized")
        path = tmp_path / "g.edges"
        export(g, "edgelist", path)
        assert path.read_text().count("\n") == 8

    def test_unknown_format(self):
        g = build(FamilySpec.linearized(2, 1, 1))
        with pytest.raises(ValueError):
            export(g, "gml", io.StringIO())

    def test_export_budget(self):
        g = build(FamilySpec.linearized(2, 1, 2), max_vertices=4)
        with pytest.raises(BudgetExceeded):
            export(g, "edgelist", io.StringIO())
