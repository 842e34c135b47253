"""Graph construction: adjacency, ids, materialization, exports."""

import gc
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linwenger import (
    BudgetExceeded,
    ConfigError,
    FamilySpec,
    FieldMismatch,
    Graph,
    Line,
    OutOfRange,
    Point,
    adjacent,
    export,
    line_through,
    point_through,
    walk_trace,
)
from linwenger import graphs, metrics
from linwenger.fields import TABLE_LIMIT
from linwenger.graphs import DEFAULT_BYTE_BUDGET, _certify_layout, graph_bytes
from linwenger.metrics import diameter_witness, metrics_report


def ids(elts):
    return tuple(x.index for x in elts)


def _refuse(*_args, **_kw):
    raise AssertionError("nothing may be allocated for an over-budget graph")


class TestFamilySpec:
    def test_sizes(self):
        spec = FamilySpec.linearized(2, 2, 3)
        assert spec.q == 4
        assert spec.n_vertices == 2 * 4**4
        assert spec.n_edges == 4**5

    def test_family_validation(self):
        with pytest.raises(ConfigError):
            FamilySpec(2, 1, 1, family="wegner")
        with pytest.raises(ConfigError):
            FamilySpec(2, 1, 0)
        with pytest.raises(ConfigError):
            FamilySpec(2, 1, 1.5)
        with pytest.raises(ConfigError):
            FamilySpec.custom(2, 1, 2, f_indices=((0, 1),))  # needs m polys
        with pytest.raises(ConfigError):
            FamilySpec(2, 1, 1, family="linearized", f_indices=((0, 1),))
        with pytest.raises(ConfigError):  # not truncated to the modulus (1, 1, 1)
            FamilySpec(2, 2, 1, modulus=(1.9, 1, 1))

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
        # every family answers only in its own field
        other = FamilySpec.linearized(3, 2, 3, modulus=(1, 0, 1)).field.basis[1]
        for spec in (lin, wen, FamilySpec.custom(3, 2, 1, ((0, 1),))):
            with pytest.raises(FieldMismatch):
                spec.f_eval(2, other)
            with pytest.raises(FieldMismatch):
                spec.f_eval(2, 1)

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

    @pytest.mark.parametrize("family", ["linearized", "wenger"])
    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 1), (2, 17)])
    def test_f_2_is_the_identity(self, family, p, e):
        """f_2(x) = x, on tabled fields and on the coefficient path
        (GF(2^17)), is what lets theta_injective skip the table."""
        spec = FamilySpec(p, e, 2, family)
        q = spec.q
        xs = range(q) if q <= TABLE_LIMIT else [*range(256), *range(q - 256, q), 12345, 2**16]
        assert all(spec.f_index(x, 0) == x for x in xs)

    def test_theta_injective_tabulates_custom_maps_only(self, monkeypatch):
        def tabulate(spec, dtype=None):
            raise AssertionError("the maps were tabulated")

        monkeypatch.setattr(graphs, "_f_table", tabulate)
        assert FamilySpec.linearized(3, 11, 2).theta_injective
        assert FamilySpec.wenger(2, 17, 3).theta_injective
        with pytest.raises(AssertionError, match="tabulated"):
            FamilySpec.custom(3, 1, 1, f_indices=((0, 1),)).theta_injective

    def test_custom_coefficients_are_element_indices(self):
        # index 10 would act as 10 mod 3 = 1 yet compare and serialize as 10
        with pytest.raises(ConfigError):
            FamilySpec.custom(3, 1, 1, ((0, 10),))
        with pytest.raises(ConfigError):
            FamilySpec.custom(3, 1, 1, ((-1, 1),))
        with pytest.raises(ConfigError):
            FamilySpec.custom(2, 2, 1, ((0, 4),))
        # entries are read through operator.index: never truncated, never parsed
        for f_indices in ([[1.7, 2.2]], [["a"]], [1], [None], None):
            with pytest.raises(ConfigError):
                FamilySpec.custom(3, 1, 1, f_indices)
        assert FamilySpec.custom(3, 1, 1, np.array([[1, 2]])).f_indices == ((1, 2),)
        assert FamilySpec.custom(2, 2, 1, ((0, 3),)).to_json_dict()["f_list"] == [[0, 3]]

    def test_json_dict(self):
        spec = FamilySpec.custom(2, 1, 1, f_indices=((0, 1),))
        d = spec.to_json_dict()
        assert d["family"] == "custom"
        assert d["f_list"] == [[0, 1]]
        assert d["modulus"] == [1, 1]  # x + 1, the degree-1 default over F_2


    def test_modulus_is_canonical(self):
        """A spec stores its field's reduced modulus, the default included, so
        one field gives one spec: equal, one hash, one cached Moore matrix."""
        specs = [FamilySpec.linearized(3, 2, 2, modulus=mod) for mod in (None, (2, 2, 1), (5, 5, 1))]
        assert all(spec.modulus == (2, 2, 1) for spec in specs)  # the Conway default
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(spec) for spec in specs}) == 1
        assert all(spec.to_json_dict()["modulus"] == [2, 2, 1] for spec in specs)
        metrics._moore_matrix.cache_clear()
        for spec in specs:
            g = Graph(spec)
            diameter_witness(g, g.decode(0), g.decode(g.half + 1))
        assert metrics._moore_matrix.cache_info().misses == 1


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
            assert _certify_layout(g.adjacency).faults() == []

    def test_wenger_counts(self):
        g = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
        assert g.n == 18
        assert g.n_edges == 27
        assert g.adjacency.shape == (18, 3)
        assert _certify_layout(g.adjacency).faults() == []

    def test_layout_faults_report_injected_faults(self, graph_cache):
        g = graph_cache(3, 1, 1)
        q, half = g.spec.q, g.n // 2
        # a line with first coordinate 0 that vertex 1 is not next to, so
        # writing it into column 0 keeps row 1 listed by first coordinate
        stranger = next(u for u in range(half, g.n, q) if u not in g.adjacency[1])

        def faults_after(v, cols, ids):
            nbrs = g.adjacency.copy()
            nbrs[v, cols] = ids
            return _certify_layout(nbrs).faults()

        order = "rows are not listed by first coordinate"
        back = "entries are not listed back by their neighbour"
        # row 0 lists its first neighbour twice; the displaced one still lists 0
        assert faults_after(0, 1, g.adjacency[0, 0]) == [f"1 {order}", f"1 {back}"]
        # row 1 lists a stranger, which does not list 1; the displaced line does
        assert faults_after(1, 0, stranger) == [f"2 {back}"]
        # a line lists another line (of the same first coordinate)
        assert faults_after(half, 0, half + q) == [
            "1 vertices have a neighbour on their own side", f"2 {back}"
        ]
        # two entries of a row swapped: the same neighbours in the wrong columns
        assert faults_after(0, [0, 1], g.adjacency[0, [1, 0]]) == [f"1 {order}", f"2 {back}"]
        # a row short: the last line's id is no longer a vertex id
        assert _certify_layout(g.adjacency[:-1]).faults() == [f"{q} entries are not vertex ids"]

    @pytest.mark.parametrize(
        "fault,expected",
        [
            pytest.param("unordered", (0, 1, 0, 2), id="unordered"),
            pytest.param("own-side", (0, 0, 1, 2), id="own-side"),
            pytest.param("unlisted", (0, 0, 0, 2), id="unlisted"),
            pytest.param("stray", (1, 0, 0, 0), id="stray"),
        ],
    )
    def test_fault_in_a_later_block_is_counted(self, fault, expected, graph_cache, monkeypatch):
        # the fault sits in the last row of L_2(3), a line: with blocks of 8
        # rows, in the seventh block of seven
        nbrs = graph_cache(3, 1, 2).adjacency.copy()
        n, q = nbrs.shape
        last = nbrs[n - 1]
        if fault == "unordered":  # two entries swapped
            last[[0, 1]] = last[[1, 0]]
        elif fault == "own-side":  # another line, of first coordinate 0
            last[0] = n // 2 + q
        elif fault == "unlisted":  # a point of first coordinate 0 not next to it
            last[0] = next(u for u in range(0, n // 2, q) if u not in last)
        else:
            last[0] = n
        whole = graphs._certify_layout(nbrs)
        monkeypatch.setattr(graphs, "_CERTIFY_BYTES", 8 * 8 * q)
        assert graphs._certify_rows(nbrs) == 8
        assert graphs._certify_layout(nbrs) == whole == graphs.Layout(*expected)

    def test_certificate_temporaries_stay_within_a_few_blocks(self, monkeypatch):
        # L_9(3): 118,098 rows of 3 ids in 44 blocks of 2730 rows, whose
        # gather indices take 64 KiB; the whole array takes 1.4 MB
        graph = Graph(FamilySpec.linearized(3, 1, 9)).materialize()
        monkeypatch.setattr(graphs, "_CERTIFY_BYTES", 64 << 10)
        assert graphs._certify_rows(graph.adjacency) == 2730
        gc.collect()
        tracemalloc.start()
        try:
            certificate = graphs._certify_layout(graph.adjacency)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certificate == graphs.Layout(0, 0, 0, 0)
        assert peak <= 4 * graphs._CERTIFY_BYTES, peak

    def test_encode_layout(self):
        g = Graph(FamilySpec.linearized(2, 1, 1))
        F = g.spec.field
        assert g.encode(Point((F.zero, F.zero))) == 0
        assert g.encode(Point((F.one, F.zero))) == 1
        assert g.encode(Point((F.zero, F.one))) == 2
        assert g.encode(Line((F.zero, F.zero))) == 4
        assert g.encode(Line((F.one, F.one))) == 7

    @given(st.data())
    def test_encode_decode_roundtrip(self, data):
        spec = FamilySpec.linearized(3, 1, 2)
        g = Graph(spec)
        vid = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        v = g.decode(vid)
        assert g.encode(v) == vid
        assert isinstance(v, Line) == (vid >= g.n // 2)

    def test_decoded_coordinates_below_and_above_the_table_limit(self):
        # with index tables the coordinates are the field's cached elements;
        # past TABLE_LIMIT each is a new element of the same index
        for spec, tabled in ((FamilySpec.linearized(3, 2, 2), True),
                             (FamilySpec.linearized(2, 17, 1), False)):
            assert (spec.q <= TABLE_LIMIT) == tabled
            g, F = Graph(spec), spec.field
            for vid in (0, 12345 % g.n, g.n // 2 + 7, g.n - 1):
                v = g.decode(vid)
                assert g.encode(v) == vid
                for c, cached in zip(v.coords, map(F.from_index, ids(v.coords))):
                    assert c.field is F and c == cached
                    assert (c is cached) == tabled

    def test_decode_out_of_range(self):
        g = Graph(FamilySpec.linearized(2, 1, 1))
        with pytest.raises(OutOfRange):
            g.decode(-1)
        with pytest.raises(OutOfRange):
            g.decode(g.n)

    def test_ids_must_be_integers(self):
        import numpy as np

        lazy = Graph(FamilySpec.linearized(3, 1, 1))
        full = Graph(FamilySpec.linearized(3, 1, 1)).materialize()
        for g in (lazy, full):
            for bad in (3.0, 1.5, np.float64(2), "3", None):
                with pytest.raises(TypeError):
                    g.decode(bad)
                with pytest.raises(TypeError):
                    g.neighbor_ids(bad)
            assert g.decode(np.int64(3)) == g.decode(3)

    def test_bool_ids_rejected(self):
        # a bool is an int to Python, but not a vertex id, as in the batch routes
        for g in (Graph(FamilySpec.linearized(3, 1, 1)),
                  Graph(FamilySpec.linearized(3, 1, 1)).materialize()):
            for bad in (True, False, np.True_):
                with pytest.raises(TypeError):
                    g.decode(bad)
                with pytest.raises(TypeError):
                    g.neighbor_ids(bad)

    def test_neighbor_ids_out_of_range(self):
        # a materialized graph must not wrap -1 around to row n - 1
        lazy = Graph(FamilySpec.linearized(2, 1, 1))
        full = Graph(FamilySpec.linearized(2, 1, 1)).materialize()
        for g in (lazy, full):
            for vid in (-1, g.n):
                with pytest.raises(OutOfRange):
                    g.neighbor_ids(vid)

    def test_neighbor_order_is_canonical(self):
        g = Graph(FamilySpec.linearized(3, 1, 1))
        F = g.spec.field
        P = Point((F.from_int(2), F.one))
        lines = [g.decode(v) for v in g.neighbor_ids(g.encode(P))]
        assert [L.coords[0].index for L in lines] == [0, 1, 2]
        assert all(isinstance(L, Line) and adjacent(g.spec, P, L) for L in lines)
        L = Line((F.one, F.from_int(2)))
        points = [g.decode(v) for v in g.neighbor_ids(g.encode(L))]
        assert [Q.coords[0].index for Q in points] == [0, 1, 2]
        assert all(isinstance(Q, Point) and adjacent(g.spec, Q, L) for Q in points)

    def test_lazy_matches_materialized(self):
        for spec in (
            FamilySpec.linearized(2, 2, 2),
            FamilySpec.linearized(3, 1, 2),
            FamilySpec.wenger(3, 1, 2),
            FamilySpec.custom(3, 1, 2, f_indices=((1, 2, 1), (0, 0, 1))),
        ):
            lazy = Graph(spec)
            full = Graph(spec).materialize()
            assert not lazy.materialized and full.materialized
            A = full.csr()  # wraps the array; must leave its row order alone
            assert np.shares_memory(A.indices, full.adjacency)
            walk_trace(full, 2)
            assert _certify_layout(full.adjacency).faults() == []
            for vid in range(full.n):
                row = full.adjacency[vid].tolist()
                assert row == lazy.neighbor_ids(vid)
                v = full.decode(vid)
                through = line_through if vid < full.half else point_through
                assert row == [full.encode(through(spec, v, x)) for x in spec.field.elements()]
                for w in map(full.decode, row):
                    assert adjacent(spec, *((v, w) if vid < full.half else (w, v)))

    def test_lazy_neighbours_step_on_indices(self, monkeypatch):
        """The lazy route equals the object route, on both sides, at q = 256
        where no array is built, and calls neither object oracle."""
        spec = FamilySpec.linearized(2, 8, 3)
        g, F = Graph(spec), spec.field
        rng = np.random.default_rng(31)
        vids = [0, g.half - 1, g.half, g.n - 1, *rng.integers(0, g.n, 6).tolist()]
        expected = []
        for vid in vids:
            v = g.decode(vid)
            through = line_through if vid < g.half else point_through
            expected.append([g.encode(through(spec, v, x)) for x in F.elements()])
        def refuse(*args):
            raise AssertionError("an object oracle was called")

        monkeypatch.setattr(graphs, "line_through", refuse)
        monkeypatch.setattr(graphs, "point_through", refuse)
        assert [g.neighbor_ids(vid) for vid in vids] == expected
        assert not g.materialized

    def test_blocked_materialize_matches_one_block(self, monkeypatch):
        specs = (
            FamilySpec.linearized(2, 2, 2),
            FamilySpec.linearized(3, 1, 3),
            FamilySpec.wenger(3, 1, 2),
            FamilySpec.custom(3, 1, 2, f_indices=((1, 2, 1), (0, 0, 1))),
        )
        whole = [Graph(spec).materialize().adjacency for spec in specs]
        monkeypatch.setattr(graphs, "_GATHER_BYTES", 1)  # one row per block
        for spec, expected in zip(specs, whole):
            assert np.array_equal(Graph(spec).materialize().adjacency, expected)

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

    def test_budget(self, monkeypatch):
        spec = FamilySpec.linearized(2, 2, 2)
        need = graph_bytes(spec)
        monkeypatch.setattr(np, "empty", _refuse)
        with pytest.raises(BudgetExceeded, match=f"needs {need} bytes"):
            Graph(spec, byte_budget=need - 1).materialize()
        monkeypatch.undo()
        assert Graph(spec, byte_budget=need).materialize().adjacency.shape == (128, 4)

    def test_array_byte_budget(self, monkeypatch):
        # arithmetic only: L_4(16) and L_3(32), 2,097,152 vertices each, fit
        # the default; L_3(64) (an 8.6 GB array) does not
        assert graph_bytes(FamilySpec.linearized(2, 4, 4)) <= DEFAULT_BYTE_BUDGET
        assert graph_bytes(FamilySpec.linearized(2, 5, 3)) <= DEFAULT_BYTE_BUDGET
        assert DEFAULT_BYTE_BUDGET < graph_bytes(FamilySpec.linearized(2, 6, 3))
        # L_1(q): 509 is the largest prime power that fits, 512 and 521 do not
        assert graph_bytes(FamilySpec.linearized(491, 1, 1)) <= DEFAULT_BYTE_BUDGET
        assert graph_bytes(FamilySpec.linearized(509, 1, 1)) <= DEFAULT_BYTE_BUDGET
        assert DEFAULT_BYTE_BUDGET < graph_bytes(FamilySpec.linearized(2, 9, 1))
        assert DEFAULT_BYTE_BUDGET < graph_bytes(FamilySpec.linearized(521, 1, 1))
        monkeypatch.setattr(np, "empty", _refuse)
        with pytest.raises(BudgetExceeded, match="over the byte budget"):
            Graph(FamilySpec.linearized(521, 1, 1)).materialize()
        # past any budget, 2^31 entries would overflow the int32 ids
        with pytest.raises(BudgetExceeded, match="2\\^31 entries"):
            Graph(FamilySpec.linearized(2, 6, 3), byte_budget=1 << 40).materialize()

    # Every family, q = 2 with many digits up to q = 16 with few.  Each peak
    # is tracemalloc's, with the graph's own array counted.
    PEAK_SPECS = (
        FamilySpec.linearized(2, 1, 14),
        FamilySpec.linearized(3, 1, 9),
        FamilySpec.linearized(7, 1, 4),
        FamilySpec.linearized(2, 3, 3),
        FamilySpec.linearized(2, 4, 2),
        FamilySpec.wenger(5, 1, 3),
        FamilySpec.custom(5, 1, 3, f_indices=((1, 2, 1), (0, 0, 1), (3, 0, 0, 1))),
    )

    @pytest.mark.parametrize("spec", PEAK_SPECS, ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}")
    def test_graph_bytes_bounds_the_peak(self, spec):
        gc.collect()
        tracemalloc.start()
        try:
            graph = Graph(spec, byte_budget=graph_bytes(spec)).materialize()
            peaks = {"materialize": tracemalloc.get_traced_memory()[1]}
            for name, step in (
                ("layout", lambda: _certify_layout(graph.adjacency)),
                ("metrics_report", lambda: metrics_report(graph)),
            ):
                tracemalloc.reset_peak()
                step()
                peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = graph_bytes(spec)
        assert max(peaks.values()) <= need, (peaks, need)
        # materialize makes no certificate blocks, which the fixed 4 MiB is
        # for: its per-vertex term alone bounds it
        assert peaks["materialize"] <= need - (4 << 20) + (128 << 10), (peaks, need)
        # the layout certificate needs no per-vertex term: the array, the
        # index tables and its blocks within the fixed 4 MiB
        q = spec.q
        assert peaks["layout"] <= graph.adjacency.nbytes + 32 * q * q + (4 << 20)
        if spec.n_vertices > 30_000:  # past the fixed 4 MiB, the count stays close
            assert max(peaks.values()) > need // 2, (peaks, need)

    def test_sweep_bytes_per_vertex(self, monkeypatch):
        # with the certificate blocks shrunk, the sweep's per-vertex term,
        # 2(m + 1) + 40, bounds metrics_report on a graph where it dominates
        spec = FamilySpec.linearized(3, 1, 9)
        graph = Graph(spec).materialize()
        monkeypatch.setattr(graphs, "_CERTIFY_BYTES", 16 << 10)
        gc.collect()
        tracemalloc.start()
        try:
            metrics_report(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, q, m = spec.n_vertices, spec.q, spec.m
        assert 2 * (m + 1) + 40 > 4 * (q + m + 1)
        assert peak <= graph_bytes(spec) - (4 << 20) - 4 * n * q + (128 << 10)

    def test_walk_trace_bytes_per_vertex(self, monkeypatch):
        # with the certificate blocks shrunk, walk_trace on a fresh graph, its
        # orbits included, stays within the same per-vertex term; a second
        # call reads the cached orbits
        spec = FamilySpec.linearized(3, 1, 9)
        graph = Graph(spec).materialize()
        monkeypatch.setattr(graphs, "_CERTIFY_BYTES", 16 << 10)
        gc.collect()
        tracemalloc.start()
        try:
            peaks = []
            for _ in range(2):
                tracemalloc.reset_peak()
                walk_trace(graph, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        n, q = spec.n_vertices, spec.q
        assert max(peaks) <= graph_bytes(spec) - (4 << 20) - 4 * n * q + (128 << 10)
        assert peaks[1] < peaks[0]

    def test_materialize_temporaries_stay_within_gather_bytes(self, monkeypatch):
        # q = 2 and m = 13: the 14 coordinate digits of a block outweigh its
        # (rows, 2) gathers, so the block must be sized by m + 1 as well
        spec = FamilySpec.linearized(2, 1, 13)
        spec.field.index_tables()
        monkeypatch.setattr(graphs, "_GATHER_BYTES", 64 << 10)
        gc.collect()
        tracemalloc.start()
        try:
            graph = Graph(spec).materialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the digits, their quotient or two gathers, and small tables
        assert peak - graph.adjacency.nbytes <= 4 * graphs._GATHER_BYTES

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
        lin = Graph(FamilySpec.custom(3, 1, 1, f_indices=((0, 1),))).materialize()
        wen = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
        assert list(lin.edges()) == list(wen.edges())


class TestExport:
    def test_edgelist_exact(self):
        g = Graph(FamilySpec.linearized(2, 1, 1)).materialize()
        buf = io.StringIO()
        export(g, "edgelist", buf)
        assert buf.getvalue() == "0 4\n0 5\n1 4\n1 7\n2 6\n2 7\n3 5\n3 6\n"

    def test_dimacs_header_and_edges(self):
        g = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
        buf = io.StringIO()
        export(g, "dimacs", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p edge 18 27"
        assert len(lines) == 28
        assert all(ln.startswith("e ") for ln in lines[1:])
        u, v = lines[1].split()[1:]
        assert int(u) >= 1 and int(v) >= 1

    def test_json_meta(self):
        g = Graph(FamilySpec.linearized(2, 2, 1))
        buf = io.StringIO()
        export(g, "json", buf)
        d = json.loads(buf.getvalue())
        assert d["p"] == 2 and d["e"] == 2 and d["m"] == 1
        assert d["vertices"] == 32 and d["edges"] == 64
        with pytest.raises(ValueError):
            export(g, "json_meta", io.StringIO())

    def test_file_sink(self, tmp_path):
        g = Graph(FamilySpec.linearized(2, 1, 1)).materialize()
        path = tmp_path / "g.edges"
        export(g, "edgelist", path)
        assert path.read_text().count("\n") == 8

    def test_unknown_format(self):
        g = Graph(FamilySpec.linearized(2, 1, 1))
        with pytest.raises(ValueError):
            export(g, "gml", io.StringIO())

    def test_export_budget(self, tmp_path):
        # the edge formats stream graph.adjacency, so materialize's check
        # refuses them, before a path is opened; the JSON summary builds no
        # array
        spec = FamilySpec.linearized(2, 1, 2)
        g = Graph(spec, byte_budget=graph_bytes(spec) - 1)
        path = tmp_path / "graph.txt"
        for fmt in ("edgelist", "dimacs"):
            for sink in (io.StringIO(), path):
                with pytest.raises(BudgetExceeded):
                    export(g, fmt, sink)
            assert not path.exists()
        export(g, "json", io.StringIO())
        assert not g.materialized
