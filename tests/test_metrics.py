"""Distances, girth, common neighbors, and explicit witnesses."""

import random
from collections import deque
from itertools import combinations, product
from types import SimpleNamespace

import networkx as nx
import pytest
from scipy import sparse

from linwenger import fields
from linwenger import metrics as metrics_mod
from linwenger import (
    Acyclic,
    FamilySpec,
    Line,
    NoSixCycle,
    Point,
    SamePoint,
    SolveFailed,
    UnsupportedRegime,
    build,
    common_neighbor,
    components,
    cycle_from_coefficients,
    cycle_witness_6,
    cycle_witness_8,
    diameter,
    diameter_witness,
    eccentricities,
    girth,
    metrics_report,
    path_witnesses,
    predicted_metrics,
    verify_cycle_system,
)


def bfs_dist(adj, src):
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def naive_girth(adj, n):
    """Independent oracle: min over edges of 1 + shortest path avoiding that edge."""
    best = None
    for u in range(n):
        for v in adj[u]:
            if v < u:
                continue
            dist = {u: 0}
            dq = deque([u])
            while dq:
                a = dq.popleft()
                for b in adj[a]:
                    if (a, b) == (u, v) or (b, a) == (u, v) or b in dist:
                        continue
                    dist[b] = dist[a] + 1
                    dq.append(b)
            if v in dist and (best is None or dist[v] + 1 < best):
                best = dist[v] + 1
    return best


class TestComponents:
    def test_connected(self, graph_cache):
        assert components(graph_cache(2, 1, 1)) == (1, [8])
        assert components(graph_cache(3, 1, 1)) == (1, [18])

    def test_disconnected(self, graph_cache):
        count, sizes = components(graph_cache(2, 1, 2))
        assert count == 2 and sizes == [8, 8]
        count, sizes = components(graph_cache(2, 1, 3))
        assert count == 4 and sizes == [8, 8, 8, 8]

    def test_sizes_sum(self, graph_cache):
        g = graph_cache(3, 1, 2)
        count, sizes = components(g)
        assert count == 3 and sum(sizes) == g.n


class TestDistances:
    def test_eccentricities_match_bfs(self, graph_cache):
        g = graph_cache(3, 1, 1)
        ecc = eccentricities(g)
        for v in range(g.n):
            assert ecc[v] == max(bfs_dist(g.adjacency, v).values())

    @pytest.mark.parametrize("p,e,m,expected", [(2, 1, 1, 4), (3, 1, 1, 4), (2, 2, 1, 4), (2, 2, 2, 6)])
    def test_diameter(self, p, e, m, expected, graph_cache):
        assert diameter(graph_cache(p, e, m)) == expected

    def test_diameter_of_disconnected_graph(self, graph_cache):
        # per-component maxima, not infinity
        assert diameter(graph_cache(2, 1, 2)) == 4


class TestGirth:
    @pytest.mark.parametrize(
        "p,e,m,expected",
        [(3, 1, 1, 6), (5, 1, 1, 6), (2, 2, 1, 6), (3, 1, 2, 6), (2, 1, 1, 8), (2, 1, 2, 8), (2, 2, 2, 8)],
    )
    def test_values(self, p, e, m, expected, graph_cache):
        assert girth(graph_cache(p, e, m)) == expected

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_against_naive_oracle(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        assert girth(g) == naive_girth(g.adjacency, g.n)

    def test_wenger_girth(self):
        g = build(FamilySpec.wenger(3, 1, 2), mode="materialized")
        assert girth(g) == naive_girth(g.adjacency, g.n)

    def test_acyclic(self):
        # a 4-vertex path: rows of unequal length exercise the sweep's padding
        A = sparse.csr_matrix(([1] * 6, ([0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2])), shape=(4, 4))
        path = SimpleNamespace(n=4, csr=lambda: A)
        with pytest.raises(Acyclic):
            girth(path)
        assert eccentricities(path).tolist() == [3, 2, 2, 3]

    def test_odd_cycles_match_networkx(self):
        # the point-line graphs are bipartite; these exercise the odd-cycle rule
        tailed = nx.cycle_graph(5)
        tailed.add_edges_from([(0, 5), (1, 5)])  # a triangle on the 5-cycle
        for G in (nx.cycle_graph(5), nx.cycle_graph(7), nx.petersen_graph(), tailed):
            fake = SimpleNamespace(n=len(G), csr=lambda G=G: nx.to_scipy_sparse_array(G))
            assert girth(fake) == nx.girth(G)
            assert eccentricities(fake).tolist() == [nx.eccentricity(G)[v] for v in G]


ORACLE_SPECS = [
    FamilySpec.linearized(3, 1, 1),
    FamilySpec.linearized(2, 2, 2),
    FamilySpec.linearized(2, 1, 2),  # 2 components
    FamilySpec.linearized(3, 1, 2),  # 3 components
    FamilySpec.wenger(3, 1, 2),
    FamilySpec.wenger(2, 1, 2),  # 2 components
    FamilySpec.custom(3, 1, 2, ((1, 2, 1), (0, 0, 1))),
    FamilySpec.custom(3, 1, 1, ((0,),)),  # f_2 = 0: 3 components, 4-cycles
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}")
def test_bfs_metrics_match_networkx(spec):
    g = build(spec, mode="materialized")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    parts = sorted(nx.connected_components(G), key=min)
    assert components(g) == (len(parts), [len(c) for c in parts])
    ecc = eccentricities(g)
    for part in parts:
        for v, value in nx.eccentricity(G.subgraph(part)).items():
            assert ecc[v] == value
    assert diameter(g) == max(nx.diameter(G.subgraph(part)) for part in parts)
    assert girth(g) == nx.girth(G)


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 1), (2, 2, 2)])
def test_one_source_batches_agree(p, e, m, graph_cache, monkeypatch):
    g = graph_cache(p, e, m)
    ecc, best = eccentricities(g).tolist(), girth(g)
    monkeypatch.setattr(metrics_mod, "_SWEEP_BYTES", 1)  # one source per batch
    assert eccentricities(g).tolist() == ecc
    assert girth(g) == best


class TestCommonNeighbor:
    def brute(self, g, P, P2):
        return set(g.neighbor_ids(g.encode(P))) & set(g.neighbor_ids(g.encode(P2)))

    def agrees(self, g, P, P2):
        shared = self.brute(g, P, P2)
        predicted = common_neighbor(g, P, P2)
        if predicted is None:
            return not shared
        return shared == {g.encode(predicted)}

    def test_same_point_rejected(self, graph_cache):
        g = graph_cache(3, 1, 1)
        P = Point((g.spec.field.zero, g.spec.field.one))
        with pytest.raises(SamePoint):
            common_neighbor(g, P, P)

    def test_same_first_coordinate_gives_none(self, graph_cache):
        g = graph_cache(3, 1, 1)
        F = g.spec.field
        assert common_neighbor(g, Point((F.one, F.zero)), Point((F.one, F.one))) is None

    def test_family_restriction(self):
        g = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        F = g.spec.field
        with pytest.raises(UnsupportedRegime):
            common_neighbor(g, Point((F.zero, F.zero)), Point((F.one, F.zero)))

    @pytest.mark.parametrize("p,e,m", [(2, 3, 1), (3, 2, 1), (2, 2, 2)])
    def test_exhaustive_against_brute_force(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        points = [g.decode(v) for v in range(g.n // 2)]
        for P, P2 in combinations(points, 2):
            assert self.agrees(g, P, P2)

    def test_known_pair(self, graph_cache):
        g = graph_cache(11, 1, 1)
        F = g.spec.field
        P = Point((F.zero, F.zero))
        P2 = Point((F.from_int(-1), F.from_int(-1)))
        L = common_neighbor(g, P, P2)
        assert L is not None
        assert tuple(c.index for c in L.coords) == (1, 0)


class TestDiameterWitness:
    def side_parity(self, g, a, b):
        return (g.encode(a) >= g.n // 2) != (g.encode(b) >= g.n // 2)

    def test_exhaustive_small_field(self, graph_cache):
        g = graph_cache(2, 2, 1)
        bound = 2 * (g.spec.m + 1)
        dists = [bfs_dist(g.adjacency, v) for v in range(g.n)]
        seen_max = 0
        for va in range(g.n):
            a = g.decode(va)
            for vb in range(g.n):
                b = g.decode(vb)
                w = diameter_witness(g, a, b)
                assert w.vertices[0] == a and w.vertices[-1] == b
                assert w.length <= bound
                assert w.length >= dists[va][vb]
                assert w.length % 2 == (1 if self.side_parity(g, a, b) else 0)
                seen_max = max(seen_max, w.length)
        assert seen_max == bound == diameter(g)

    def test_trivial_pair(self, graph_cache):
        g = graph_cache(2, 2, 1)
        a = g.decode(5)
        w = diameter_witness(g, a, a)
        assert w.length == 0 and w.vertices == (a,)

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 2, 2)])
    def test_lower_bound_pair_is_tight(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        F = g.spec.field
        a = Line((F.zero,) * (m + 1))
        b = Line((F.zero,) * m + (F.one,))
        w = diameter_witness(g, a, b)
        assert w.length == 2 * (m + 1)
        assert bfs_dist(g.adjacency, g.encode(a))[g.encode(b)] == 2 * (m + 1)

    def test_regime_restrictions(self, graph_cache):
        g = graph_cache(2, 1, 2)  # m > e
        a, b = g.decode(0), g.decode(1)
        with pytest.raises(UnsupportedRegime):
            diameter_witness(g, a, b)
        wg = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        with pytest.raises(UnsupportedRegime):
            diameter_witness(wg, wg.decode(0), wg.decode(1))

    def test_bad_endpoint_type(self, graph_cache):
        g = graph_cache(2, 1, 1)
        with pytest.raises(TypeError):
            diameter_witness(g, g.decode(0), 5)

    @pytest.mark.parametrize("p,e,m", [(3, 2, 2), (2, 3, 3), (5, 2, 1)])
    def test_moore_reduction_matches_direct_solves(self, p, e, m, monkeypatch):
        """Every walk's weights equal the solution of its own full Moore
        system, and each witness runs fq_solve once, on the m x m matrix."""
        spec = FamilySpec.linearized(p, e, m)
        g = build(spec)
        F = spec.field
        calls = []
        monkeypatch.setattr(
            metrics_mod, "fq_solve", lambda *a: calls.append(a) or fields.fq_solve(*a)
        )
        rng = random.Random(7)
        n_walks = 0
        for _ in range(24):
            a, b = g.decode(rng.randrange(g.n)), g.decode(rng.randrange(g.n))
            w = diameter_witness(g, a, b)
            n_walks += a != b
            if a == b or isinstance(a, Point) != isinstance(b, Point):
                continue
            d = [y - x for x, y in zip(a.coords, b.coords)]
            if isinstance(a, Line):  # anchors x_j, weights t_j: sum t_j = d_1, ...
                rows = [[F.one] * (m + 1)] + [
                    [x.frob(k) for x in w.anchors] for k in range(m)
                ]
                assert list(w.step_weights) == fields.fq_solve(F, rows, d)
            else:  # steps u_i = t^i, weights l_i with the last one zero
                rows = [[u.frob(k) for u in w.anchors[:m]] for k in range(m)]
                assert list(w.step_weights) == fields.fq_solve(F, rows, d[1:]) + [F.zero]
        assert len(calls) == n_walks
        assert all(len(rows) == m == len(rows[0]) for _, rows, _ in calls)


def _walk_ids(g, a, b):
    return [g.encode(v) for v in diameter_witness(g, g.decode(a), g.decode(b)).vertices]


class TestPathWitnesses:
    @pytest.mark.parametrize("p,e", [(2, 2), (3, 1)])
    def test_every_pair_matches_diameter_witness(self, p, e, graph_cache):
        g = graph_cache(p, e, 1)
        pairs = list(product(range(g.n), repeat=2))
        walks = path_witnesses(g, [a for a, _ in pairs], [b for _, b in pairs])
        assert walks == [_walk_ids(g, a, b) for a, b in pairs]

    @pytest.mark.parametrize("p,e,m", [(3, 2, 2), (2, 3, 3), (5, 2, 1)])
    def test_sampled_pairs_match_diameter_witness(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        rng = random.Random(f"batch:{p}:{e}:{m}")
        sources = [rng.randrange(g.n) for _ in range(300)]
        targets = [rng.randrange(g.n) for _ in range(300)]
        sides = {(a >= g.half, b >= g.half) for a, b in zip(sources, targets)}
        assert len(sides) == 4
        walks = path_witnesses(g, sources, targets)
        assert walks == [_walk_ids(g, a, b) for a, b in zip(sources, targets)]
        assert max(len(w) for w in walks) - 1 <= 2 * (m + 1)

    def test_trivial_pairs(self, graph_cache):
        g = graph_cache(3, 2, 2)
        assert path_witnesses(g, [5, g.half + 7], [5, g.half + 7]) == [[5], [g.half + 7]]
        assert path_witnesses(g, [], []) == []

    def test_regime_and_layout_restrictions(self, graph_cache):
        g = graph_cache(2, 1, 2)  # m > e
        with pytest.raises(UnsupportedRegime):
            path_witnesses(g, [0], [1])
        wg = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        with pytest.raises(UnsupportedRegime):
            path_witnesses(wg, [0], [1])
        with pytest.raises(ValueError):
            path_witnesses(build(FamilySpec.linearized(3, 1, 1)), [0], [1])

    def test_corrupted_adjacency_is_caught(self, graph_cache):
        g = graph_cache(3, 2, 2)
        sources, targets = [0, 3, g.half + 1], [g.half + 40, 700, 11]
        walks = path_witnesses(g, sources, targets)
        u, v = walks[1][2:4]
        nbrs = g.adjacency.copy()
        fake = SimpleNamespace(spec=g.spec, materialized=True, adjacency=nbrs)
        assert path_witnesses(fake, sources, targets) == walks
        nbrs[u, v % g.spec.q] = nbrs[u, (v + 1) % g.spec.q]
        with pytest.raises(SolveFailed):
            path_witnesses(fake, sources, targets)


class TestCycleWitnesses:
    def test_odd_characteristic_six_cycle(self):
        spec = FamilySpec.linearized(3, 1, 1)
        w = cycle_witness_6(spec)
        F = spec.field
        pt = lambda a, b: Point((F.from_int(a), F.from_int(b)))
        ln = lambda a, b: Line((F.from_int(a), F.from_int(b)))
        assert w.points == (pt(0, 0), pt(-1, -1), pt(-2, 0))
        assert w.lines == (ln(1, 0), ln(-1, 2), ln(0, 0))
        assert w.length == 6
        assert w.is_valid_cycle()
        assert verify_cycle_system(w)

    def test_even_characteristic_six_cycle(self):
        spec = FamilySpec.linearized(2, 2, 1)
        w = cycle_witness_6(spec)
        F = spec.field
        t = F.basis[1]
        assert w.us == (t * t, t, F.one)
        assert w.cs == (F.zero, t + F.one, F.one)
        assert w.is_valid_cycle()
        assert verify_cycle_system(w)

    @pytest.mark.parametrize("p,e,m", [(5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 1, 2), (2, 3, 1)])
    def test_six_cycle_regimes(self, p, e, m):
        w = cycle_witness_6(FamilySpec.linearized(p, e, m))
        assert w.length == 6 and w.is_valid_cycle()

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 2)])
    def test_no_six_cycle(self, p, e, m):
        with pytest.raises(NoSixCycle):
            cycle_witness_6(FamilySpec.linearized(p, e, m))

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_eight_cycle_regimes(self, p, e, m):
        w = cycle_witness_8(FamilySpec.linearized(p, e, m))
        assert w.length == 8 and w.is_valid_cycle()
        assert verify_cycle_system(w)

    def test_eight_cycle_rejections(self):
        with pytest.raises(UnsupportedRegime):
            cycle_witness_8(FamilySpec.linearized(3, 1, 1))
        with pytest.raises(UnsupportedRegime):
            cycle_witness_8(FamilySpec.linearized(2, 2, 1))
        with pytest.raises(UnsupportedRegime):
            cycle_witness_8(FamilySpec.wenger(2, 1, 2))

    def test_coefficient_validation(self):
        spec = FamilySpec.linearized(3, 1, 1)
        with pytest.raises(ValueError):
            cycle_from_coefficients(spec, (1, 1), (1,))
        with pytest.raises(ValueError):
            cycle_from_coefficients(spec, (1,), (1,))
        with pytest.raises(UnsupportedRegime):
            cycle_from_coefficients(FamilySpec.wenger(3, 1, 1), (1, 1), (1, 1))

    def test_system_checker(self):
        spec = FamilySpec.linearized(3, 1, 1)
        w = cycle_from_coefficients(spec, (1, 2), (0, 0))  # u sums to zero
        assert verify_cycle_system(w)
        assert not verify_cycle_system(cycle_from_coefficients(spec, (1, 1), (0, 0)))
        assert not verify_cycle_system(cycle_from_coefficients(spec, (1, 2), (1, 0)))
        with pytest.raises(ValueError):
            verify_cycle_system(cycle_from_coefficients(spec, (1, 0), (0, 0)))

    @pytest.mark.parametrize("p", [2, 3])
    def test_no_valid_four_cycle_exists(self, p):
        # sweeping every 2-step coefficient choice never closes a 4-cycle
        spec = FamilySpec.linearized(p, 1, 1)
        F = spec.field
        for u1, u2, c1, c2 in product(F.elements(), repeat=4):
            if not u1 or not u2:
                continue
            w = cycle_from_coefficients(spec, (u1, u2), (c1, c2))
            assert not w.is_valid_cycle()

    def test_custom_start_point(self):
        spec = FamilySpec.linearized(3, 1, 1)
        F = spec.field
        start = Point((F.one, F.from_int(2)))
        w = cycle_from_coefficients(spec, (1, 1, -2), (1, -1, 0), start=start)
        assert w.points[0] == start
        assert w.is_closed() and w.is_valid_cycle()

    def test_vertex_sequence_shape(self):
        w = cycle_witness_6(FamilySpec.linearized(3, 1, 1))
        seq = w.vertex_sequence()
        assert len(seq) == 7 and seq[0] == seq[-1]
        assert all(isinstance(v, Point) == (i % 2 == 0) for i, v in enumerate(seq))


class TestPredictions:
    def test_table(self):
        # (components, diameter, girth): components q^(m-e) for m > e and 1
        # otherwise, diameter 2(m+1) for m <= e, girth 6 for odd p and for
        # p = 2, e >= 2, m = 1, and 8 for the other binary cases.
        cases = {
            (2, 1, 1): (1, 4, 8),
            (2, 1, 2): (2, None, 8),
            (2, 1, 3): (4, None, 8),
            (2, 2, 1): (1, 4, 6),
            (2, 2, 2): (1, 6, 8),
            (2, 2, 3): (4, None, 8),
            (2, 3, 1): (1, 4, 6),
            (2, 3, 3): (1, 8, 8),
            (3, 1, 1): (1, 4, 6),
            (3, 1, 2): (3, None, 6),
            (3, 2, 1): (1, 4, 6),
            (3, 2, 2): (1, 6, 6),
            (5, 1, 1): (1, 4, 6),
        }
        for (p, e, m), (comp, diam, g) in cases.items():
            pred = predicted_metrics(FamilySpec.linearized(p, e, m))
            assert (pred.components, pred.diameter, pred.girth) == (comp, diam, g)

    def test_wenger_has_component_prediction_only(self):
        pred = predicted_metrics(FamilySpec.wenger(3, 1, 2))
        assert pred.components == 1  # x and x^2 span rank 3 with the constants
        assert pred.diameter is None and pred.girth is None
        # two power maps collapse over F_2, so the rank drops
        assert predicted_metrics(FamilySpec.wenger(2, 1, 2)).components == 2


class TestMetricsReport:
    def test_matching_report(self, graph_cache):
        rep = metrics_report(graph_cache(2, 2, 1))
        assert rep.components == 1
        assert rep.diameter == 4
        assert rep.girth == 6
        assert rep.matches == {"components": True, "diameter": True, "girth": True}
        assert rep.all_match

    def test_wenger_report_tolerates_missing_predictions(self):
        g = build(FamilySpec.wenger(3, 1, 1), mode="materialized")
        rep = metrics_report(g)
        assert rep.matches["diameter"] is None
        assert rep.all_match

    def test_json_shape(self, graph_cache):
        d = metrics_report(graph_cache(2, 1, 2)).to_json_dict()
        assert d["components"] == 2 and d["sizes"] == [8, 8]
        assert d["girth"] == 8
        assert d["predicted"]["components"] == 2
        assert d["match"]["components"] is True
        assert d["spec"]["family"] == "linearized"
