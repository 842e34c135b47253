"""Distances, girth, common neighbors, and explicit witnesses."""

import json
import random
from collections import deque
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from linwenger import fields
from linwenger import graphs as graphs_mod
from linwenger import metrics as metrics_mod
from linwenger import (
    GF,
    Acyclic,
    FamilySpec,
    FieldMismatch,
    Graph,
    Line,
    NoSixCycle,
    OutOfRange,
    Point,
    SamePoint,
    SolveFailed,
    UnsupportedRegime,
    adjacent,
    common_neighbor,
    common_neighbors,
    components,
    cycle_from_coefficients,
    cycle_witness_6,
    cycle_witness_8,
    diameter,
    diameter_witness,
    eccentricities,
    girth,
    line_through,
    metrics_report,
    path_witnesses,
    point_through,
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
        g = Graph(FamilySpec.wenger(3, 1, 2)).materialize()
        assert girth(g) == naive_girth(g.adjacency, g.n)

    def test_acyclic(self):
        # a perfect matching on 4 vertices, points 0, 1 and lines 2, 3
        matching = SimpleNamespace(adjacency=np.array([[2], [3], [0], [1]]))
        with pytest.raises(Acyclic):
            girth(matching)
        assert eccentricities(matching).tolist() == [1, 1, 1, 1]

    def test_bipartite_fakes_match_networkx(self):
        # relabelled so that one colour class is [0, n/2), as the sweep requires
        for G in (
            nx.cycle_graph(6),
            nx.cycle_graph(8),
            nx.convert_node_labels_to_integers(nx.hypercube_graph(3)),
            nx.heawood_graph(),
            nx.complete_bipartite_graph(3, 3),
        ):
            top, bottom = nx.bipartite.sets(G)
            assert len(top) == len(bottom)
            H = nx.relabel_nodes(G, {v: i for i, v in enumerate(sorted(top) + sorted(bottom))})
            fake = SimpleNamespace(adjacency=np.array([sorted(H[v]) for v in range(len(H))]))
            assert girth(fake) == nx.girth(H)
            assert eccentricities(fake).tolist() == [nx.eccentricity(H)[v] for v in range(len(H))]

    def test_non_bipartite_layouts_rejected(self, graph_cache):
        fakes = [
            np.array([sorted(G[v]) for v in G])
            for G in (nx.cycle_graph(5), nx.complete_graph(4), nx.petersen_graph())
        ]
        nbrs = graph_cache(3, 1, 1).adjacency.copy()
        nbrs[0, 0] = 1  # one point lists a point
        for adjacency in fakes + [nbrs]:
            fake = SimpleNamespace(adjacency=adjacency)
            with pytest.raises(ValueError):
                eccentricities(fake)
            with pytest.raises(ValueError):
                girth(fake)


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
    g = Graph(spec).materialize()
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


@pytest.mark.parametrize(
    "spec",
    ORACLE_SPECS + [FamilySpec.linearized(7, 1, 3)],  # 49 components
    ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}",
)
def test_components_match_scipy(spec):
    g = Graph(spec).materialize()
    count, labels = connected_components(g.csr(), directed=False)
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    assert components(g) == (count, sizes[np.argsort(first)].tolist())


def test_bfs_reads_only_the_neighbour_array(monkeypatch):
    def refuse(self):
        raise AssertionError("BFS metrics must not build a CSR matrix")

    monkeypatch.setattr(Graph, "csr", refuse)
    for spec in (FamilySpec.linearized(2, 2, 2), FamilySpec.wenger(3, 1, 2)):
        assert metrics_report(Graph(spec).materialize()).all_match


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 1), (2, 2, 2)])
def test_one_source_batches_agree(p, e, m, graph_cache, monkeypatch):
    g = graph_cache(p, e, m)
    ecc, best = eccentricities(g).tolist(), girth(g)
    # one source per batch; then five, which divides no side here, so that an
    # all-source batch ends inside a side
    for sweep_bytes in (1, 5 * g.half):
        monkeypatch.setattr(metrics_mod, "_SWEEP_BYTES", sweep_bytes)
        # fresh graphs, each swept once at this batch size; without a spec no
        # automorphism is certified, so every vertex is a source
        fresh = SimpleNamespace(spec=g.spec, adjacency=g.adjacency)
        everyone = SimpleNamespace(adjacency=g.adjacency)
        for graph in (fresh, everyone):
            assert eccentricities(graph).tolist() == ecc
            assert girth(graph) == best


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 1), (2, 2, 2)])
def test_girth_before_diameter_matches_after(p, e, m, graph_cache, monkeypatch):
    """The sweep gives every eccentricity and the girth whichever is asked
    for first, including when each batch holds one source, so that the
    girth found by an early batch gates the cycle test of the later ones."""
    spec = graph_cache(p, e, m).spec
    for sweep_bytes in (metrics_mod._SWEEP_BYTES, 1):
        monkeypatch.setattr(metrics_mod, "_SWEEP_BYTES", sweep_bytes)
        first, second = Graph(spec).materialize(), Graph(spec).materialize()
        best = girth(first)
        diam = diameter(second)
        assert (diameter(first), girth(second)) == (diam, best)
        assert eccentricities(first).tolist() == eccentricities(second).tolist()


def test_report_checks_certifies_and_sweeps_once(monkeypatch):
    """One metrics_report runs one layout check, one certification and one
    BFS per graph: diameter and girth read one cached record."""
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(graphs_mod, "_certify_layout")
    counted(metrics_mod, "_orbits")
    g = Graph(FamilySpec.linearized(3, 1, 2)).materialize()
    report = metrics_report(g)
    assert sorted(calls) == ["_certify_layout", "_orbits"]
    assert (report.bfs_sources, report.automorphisms) == (g._bfs.sources, g._bfs.automorphisms)
    assert (diameter(g), girth(g)) == (report.diameter, report.girth)
    assert len(calls) == 2


def test_orbits_build_the_index_tables_once(monkeypatch):
    """_orbits builds the field's index tables once and hands them to
    _candidate_shifts, for every candidate it certifies."""
    g = Graph(FamilySpec.linearized(3, 2, 2)).materialize()
    builds, real = [], type(g.spec.field).index_tables
    monkeypatch.setattr(type(g.spec.field), "index_tables", lambda F: builds.append(1) or real(F))
    assert metrics_mod._orbits(g)[1] > 0
    assert len(builds) == 1


def test_cached_eccentricities_are_read_only(graph_cache):
    g = graph_cache(3, 1, 1)
    ecc = eccentricities(g)
    assert ecc is eccentricities(g)
    with pytest.raises(ValueError):
        ecc[0] = 0


def _nx_graph(nbrs):
    G = nx.Graph()
    G.add_edges_from((u, int(v)) for u in range(len(nbrs)) for v in nbrs[u])
    return G


def _nx_eccentricity(G, v):
    return max(nx.single_source_shortest_path_length(G, v).values())


LIN_2_3_3 = FamilySpec.linearized(2, 3, 3)


@pytest.mark.parametrize(
    "spec",
    ORACLE_SPECS + [FamilySpec.linearized(7, 1, 3), LIN_2_3_3],  # L_3(7): 49 components
    ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}",
)
def test_orbit_sweep_matches_all_sources_and_networkx(spec):
    g = Graph(spec).materialize()
    everyone = SimpleNamespace(adjacency=g.adjacency)  # no spec: the all-source sweep
    rep_of, automorphisms = metrics_mod._orbits(g)
    reps = np.flatnonzero(rep_of == np.arange(g.n))
    assert (metrics_mod._orbits(everyone)[0] == np.arange(g.n)).all()
    assert len(reps) <= spec.q + 1 and automorphisms >= 1
    ecc = eccentricities(g)
    assert (g._bfs.sources, g._bfs.automorphisms) == (len(reps), automorphisms)
    assert ecc.tolist() == eccentricities(everyone).tolist()
    assert everyone._bfs.sources == g.n
    assert girth(g) == girth(everyone)
    G = _nx_graph(g.adjacency)
    sample = sorted(set(range(0, g.n, -(-g.n // 64))) | set(reps.tolist()))
    assert [ecc[v] for v in sample] == [_nx_eccentricity(G, v) for v in sample]
    if spec != LIN_2_3_3:  # networkx's girth takes 15 s there
        assert girth(g) == nx.girth(G)


def _swap_lines(nbrs, u1, u2, col):
    """Swap, in place, the column-col lines of points u1 and u2 (which share a
    first coordinate) and list each point back in its new line's row."""
    q = nbrs.shape[1]
    v1, v2 = nbrs[u1, col], nbrs[u2, col]
    nbrs[u1, col], nbrs[u2, col] = v2, v1
    nbrs[v1, u1 % q], nbrs[v2, u2 % q] = u2, u1


@pytest.mark.parametrize("p,e,m,point,col", [(7, 1, 1, 18, 1), (2, 1, 3, 7, 1)])
def test_rewired_edge_pair_certifies_no_automorphism(
    p, e, m, point, col, graph_cache, monkeypatch
):
    """Swap the column-`col` lines of two points with the same first
    coordinate, in a copy of the array: it stays q-regular, bipartite and
    ordered by first coordinate, but gains a 4-cycle away from ids 0 and n/2.
    No candidate automorphism survives, so the sweep runs from every vertex
    and finds the 4-cycle; the sound graph's orbits, used uncertified, miss
    it."""
    g = graph_cache(p, e, m)
    nbrs = g.adjacency.copy()
    _swap_lines(nbrs, point, point + g.spec.q, col)
    G = _nx_graph(nbrs)
    assert nx.girth(G) == 4

    rewired = SimpleNamespace(spec=g.spec, adjacency=nbrs)
    assert metrics_mod._orbits(rewired)[1] == 0
    assert girth(rewired) == 4
    assert eccentricities(rewired).tolist() == [_nx_eccentricity(G, v) for v in range(g.n)]
    sound = metrics_mod._orbits(g)
    monkeypatch.setattr(metrics_mod, "_orbits", lambda graph: sound)
    assert girth(SimpleNamespace(adjacency=nbrs)) in (6, 8)


def test_sweep_keeps_no_record_of_a_writeable_array(graph_cache):
    """The BFS record, like the orbits and the layout certificate, is cached
    only on a read-only array: a graph over a writeable array that is then
    rewired in place is swept again and finds the 4-cycle."""
    g = graph_cache(7, 1, 1)
    nbrs = g.adjacency.copy()
    writeable = SimpleNamespace(spec=g.spec, adjacency=nbrs)
    assert girth(writeable) == 6
    _swap_lines(nbrs, 18, 18 + g.spec.q, 1)
    assert girth(SimpleNamespace(spec=g.spec, adjacency=nbrs)) == 4
    assert girth(writeable) == 4
    assert not hasattr(writeable, "_bfs")


@pytest.mark.parametrize(
    "spec,sources",
    [
        (LIN_2_3_3, 2),
        (FamilySpec.linearized(7, 1, 3), 2),
        (FamilySpec.linearized(3, 1, 2), 2),
        (FamilySpec.wenger(3, 1, 2), 4),  # q + 1: A(a) fails, f_3 = x^2 is not additive
        (FamilySpec.wenger(3, 1, 1), 2),  # f_2 = x is additive, so A(a) holds
        (FamilySpec.wenger(2, 2, 2), 2),  # f_3 = x^2 is additive in characteristic 2
        (FamilySpec.wenger(2, 2, 3), 5),  # q + 1: f_4 = x^3 is not additive
    ],
    ids=lambda x: f"{x.family}-{x.p}-{x.e}-{x.m}" if isinstance(x, FamilySpec) else str(x),
)
def test_bfs_sources_per_family(spec, sources):
    """A codec or generator change that silently falls back to the
    all-source sweep shows here, without any timing."""
    assert metrics_report(Graph(spec).materialize()).bfs_sources == sources


def test_foreign_vertices_rejected():
    """encode, common_neighbor and diameter_witness take only vertices of the
    graph: m+1 coordinates over its field."""
    g = Graph(FamilySpec.linearized(3, 1, 1))
    F, G5 = g.spec.field, fields.GF(5)
    good = Point((F.zero, F.zero))
    long = Point((F.one,) * 3)  # its digits spell 13, a line's id
    foreign = Point((G5.from_int(4), G5.from_int(4)))  # its digits spell 16, a line's id
    for bad in (long, foreign, Line(long.coords), Line(foreign.coords)):
        with pytest.raises(ValueError):
            g.encode(bad)
        with pytest.raises(ValueError):
            diameter_witness(g, good, bad)
        with pytest.raises(ValueError):
            diameter_witness(g, bad, bad)
    for bad in (long, foreign):
        with pytest.raises(ValueError):
            common_neighbor(g, good, bad)
        with pytest.raises(ValueError):
            common_neighbor(g, bad, good)


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

    def test_non_point_rejected(self, graph_cache):
        g = graph_cache(3, 1, 1)
        F = g.spec.field
        with pytest.raises(TypeError):
            common_neighbor(g, Line((F.zero, F.zero)), Point((F.one, F.zero)))
        with pytest.raises(TypeError):
            common_neighbor(g, Point((F.one, F.zero)), Line((F.zero, F.zero)))

    def test_family_restriction(self):
        g = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
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


def _per_pair_ids(g, points, others):
    """common_neighbor on each pair, as line ids with -1 for none."""
    out = []
    for i, j in zip(points, others):
        line = common_neighbor(g, g.decode(i), g.decode(j))
        out.append(-1 if line is None else g.encode(line))
    return out


def _row_intersection_ids(g, points, others):
    """The shared line of each pair from the neighbour rows alone, -1 for none."""
    out = []
    for i, j in zip(points, others):
        shared = set(g.adjacency[i].tolist()) & set(g.adjacency[j].tolist())
        assert len(shared) <= 1
        out.append(shared.pop() if shared else -1)
    return out


class TestCommonNeighbors:
    @pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (2, 2)])
    def test_every_pair_matches_both_oracles(self, p, e, graph_cache):
        g = graph_cache(p, e, 1)
        pairs = [(i, j) for i, j in product(range(g.half), repeat=2) if i != j]
        points, others = [i for i, _ in pairs], [j for _, j in pairs]
        got = common_neighbors(g, points, others)
        assert got.dtype == np.int64
        assert got.tolist() == _per_pair_ids(g, points, others)
        assert got.tolist() == _row_intersection_ids(g, points, others)

    @pytest.mark.parametrize("p,e,m", [(3, 2, 2), (2, 3, 3)])
    def test_sampled_pairs_match_both_oracles(self, p, e, m, graph_cache):
        """2000 seeded pairs, the first half built to share a line, so the
        conditions on coordinates 3..m+1 decide both ways."""
        g = graph_cache(p, e, m)
        spec, F = g.spec, g.spec.field
        rng = random.Random(f"common:{p}:{e}:{m}")
        points, others = [], []
        for _ in range(1000):
            P = g.decode(rng.randrange(g.half))
            L = line_through(spec, P, F.from_index(rng.randrange(F.q)))
            x = F.from_index(rng.choice([i for i in range(F.q) if i != P.coords[0].index]))
            points.append(g.encode(P))
            others.append(g.encode(point_through(spec, L, x)))
        while len(points) < 2000:
            i, j = rng.randrange(g.half), rng.randrange(g.half)
            if i != j:
                points.append(i)
                others.append(j)
        got = common_neighbors(g, points, others)
        assert (got[:1000] >= 0).all() and (got[1000:] >= 0).any() and (got[1000:] < 0).any()
        assert got.tolist() == _per_pair_ids(g, points, others)
        assert got.tolist() == _row_intersection_ids(g, points, others)

    def test_empty_batch(self, graph_cache):
        got = common_neighbors(graph_cache(3, 1, 1), [], [])
        assert got.dtype == np.int64 and got.size == 0

    def test_errors_match_the_per_pair_route(self, graph_cache):
        g = graph_cache(3, 1, 1)
        line = g.half + 4
        with pytest.raises(TypeError):
            common_neighbor(g, g.decode(line), g.decode(1))
        for bad in ([line], [1]), ([1], [line]):
            with pytest.raises(TypeError):
                common_neighbors(g, *bad)
        with pytest.raises(SamePoint):
            common_neighbor(g, g.decode(2), g.decode(2))
        with pytest.raises(SamePoint):
            common_neighbors(g, [1, 2], [3, 2])
        for vid in (-1, g.n):
            with pytest.raises(OutOfRange):
                common_neighbor(g, g.decode(vid), g.decode(1))
            with pytest.raises(OutOfRange):
                common_neighbors(g, [vid], [1])
            with pytest.raises(OutOfRange):
                common_neighbors(g, [1], [vid])
        for spec in (FamilySpec.wenger(3, 1, 1), FamilySpec.custom(3, 1, 1, [[0, 2]])):
            other = Graph(spec).materialize()
            with pytest.raises(UnsupportedRegime):
                common_neighbor(other, other.decode(0), other.decode(1))
            with pytest.raises(UnsupportedRegime):
                common_neighbors(other, [0], [1])
        with pytest.raises(ValueError):
            common_neighbors(Graph(g.spec), [0], [1])  # lazy
        with pytest.raises(ValueError):
            common_neighbors(g, [0, 1], [2])

    def test_ids_must_be_integers(self, graph_cache):
        # no cast to ids: 1.7 is not id 1, and a bool mask is not ids 0 and 1
        g = graph_cache(3, 1, 1)
        for bad in (([1.7], [2.2]), ([1], [2.0]), ([True], [False]), (np.arange(2), [3.0, 4.0])):
            with pytest.raises(TypeError):
                common_neighbors(g, *bad)
        assert common_neighbors(g, np.array([1], dtype=np.uint8), [2]).tolist() == (
            common_neighbors(g, [1], [2]).tolist()
        )
        assert common_neighbors(g, np.array([], dtype=float), []).size == 0

    @pytest.mark.parametrize("side", [0, 1])
    def test_rewired_point_row_is_caught(self, side, graph_cache):
        """A Graph whose private copy of the array lists another line in the
        shared line's slot of one point row: the batch raises SolveFailed."""
        g = graph_cache(3, 2, 2)
        rng = random.Random("rewired")
        points = [rng.randrange(g.half) for _ in range(50)]
        others = [(i + 1) % g.half for i in points]
        sound = common_neighbors(g, points, others)
        k = int(np.flatnonzero(sound >= 0)[0])
        pair, q = (points[k], others[k]), g.spec.q
        fake = Graph(g.spec)
        fake._nbrs = g.adjacency.copy()
        assert common_neighbors(fake, points, others).tolist() == sound.tolist()
        slot = sound[k] % q
        fake._nbrs[pair[side], slot] = fake._nbrs[pair[side], (slot + 1) % q]
        with pytest.raises(SolveFailed):
            common_neighbors(fake, points, others)


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
        wg = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
        with pytest.raises(UnsupportedRegime):
            diameter_witness(wg, wg.decode(0), wg.decode(1))

    def test_bad_endpoint_type(self, graph_cache):
        g = graph_cache(2, 1, 1)
        with pytest.raises(TypeError):
            diameter_witness(g, g.decode(0), 5)

    @pytest.mark.parametrize("p,e,m", [(3, 2, 2), (2, 3, 3), (5, 2, 1)])
    def test_one_moore_solve_per_witness(self, p, e, m, monkeypatch):
        """Every witness with a != b runs fq_solve once, on the m x m Moore
        matrix, whatever the sides of its ends, and hands it element indices
        alone: ints in [0, q), no element objects."""
        g = Graph(FamilySpec.linearized(p, e, m))
        calls = []
        monkeypatch.setattr(
            metrics_mod, "fq_solve", lambda *a: calls.append(a) or fields.fq_solve(*a)
        )
        rng = random.Random(7)
        n_walks, sides = 0, set()
        for _ in range(24):
            a, b = g.decode(rng.randrange(g.n)), g.decode(rng.randrange(g.n))
            diameter_witness(g, a, b)
            n_walks += a != b
            sides.add((type(a), type(b)))
        assert len(sides) == 4
        assert len(calls) == n_walks
        assert all(len(rows) == m == len(rows[0]) for _, rows, _ in calls)
        q = g.spec.q
        for _, rows, rhs in calls:
            entries = [*rhs, *(v for row in rows for v in row)]
            assert all(type(v) is int and 0 <= v < q for v in entries)


def test_lazy_witnesses_above_the_table_limit():
    """The scalar route is the only one for q > 2^16, where no index tables
    exist: every pair kind on L_2(2^17), checked against the incidence
    equations by plain powering."""
    spec = FamilySpec.linearized(2, 17, 2)
    g, F = Graph(spec), spec.field
    assert F.q > fields.TABLE_LIMIT and F.ops().elts is None

    def incident(P, L):
        return all(
            L.coords[k] + P.coords[k] == P.coords[0] ** (2 ** (k - 1)) * L.coords[0]
            for k in range(1, spec.m + 1)
        )

    rng = random.Random("L_2(2^17)")
    for a_side, b_side in product((0, 1), repeat=2):
        a = g.decode(a_side * g.half + rng.randrange(g.half))
        b = g.decode(b_side * g.half + rng.randrange(g.half))
        verts = diameter_witness(g, a, b).vertices
        assert verts[0] == a and verts[-1] == b
        assert len(verts) - 1 <= 2 * (spec.m + 1)
        for u, v in zip(verts, verts[1:]):
            assert isinstance(u, Point) != isinstance(v, Point)
            assert incident(*((u, v) if isinstance(u, Point) else (v, u)))

    P = g.decode(rng.randrange(g.half))
    L = line_through(spec, P, F.from_index(rng.randrange(F.q)))
    P2 = point_through(spec, L, F.from_index(rng.randrange(F.q)))
    assert P2 != P and common_neighbor(g, P, P2) == L
    assert common_neighbor(g, P, g.decode(rng.randrange(g.half))) is None


def _incident_by_coefficients(spec, P, L):
    """l_k + p_k = p_1^(p^(k-1)) l_1 by coordinate sums and plain powering
    with the coefficient product, which reads no table."""
    F, p = spec.field, spec.p

    def power(coeffs, n):
        acc = F.one.coeffs
        for bit in bin(n)[2:]:
            acc = F._mul(acc, acc)
            if bit == "1":
                acc = F._mul(acc, coeffs)
        return acc

    p1, l1 = P.coords[0].coeffs, L.coords[0].coeffs
    return all(
        tuple((x + y) % p for x, y in zip(L.coords[k].coeffs, P.coords[k].coeffs))
        == F._mul(power(p1, p**(k - 1)), l1)
        for k in range(1, spec.m + 1)
    )


@pytest.mark.parametrize("p,e", [(2, 12), (3, 7)])
def test_lazy_witnesses_between_the_table_limits(p, e):
    """Fields past the byte cap of the q x q index tables but within
    TABLE_LIMIT, where the per-pair routes read the log tables: every pair
    kind on L_2(q), and common neighbours, checked edge by edge against the
    coefficient arithmetic."""
    spec = FamilySpec.linearized(p, e, 2)
    g, F = Graph(spec), spec.field
    assert 2048 < F.q <= fields.TABLE_LIMIT and F.ops().elts is not None
    with pytest.raises(fields.BudgetExceeded):
        F.index_tables()

    rng = random.Random(f"L_2({p}^{e})")
    for a_side, b_side in product((0, 1), repeat=2):
        for _ in range(3):
            a = g.decode(a_side * g.half + rng.randrange(g.half))
            b = g.decode(b_side * g.half + rng.randrange(g.half))
            verts = diameter_witness(g, a, b).vertices
            assert verts[0] == a and verts[-1] == b
            assert len(verts) - 1 <= 2 * (spec.m + 1)
            for u, v in zip(verts, verts[1:]):
                assert isinstance(u, Point) != isinstance(v, Point)
                pt, ln = (u, v) if isinstance(u, Point) else (v, u)
                assert _incident_by_coefficients(spec, pt, ln)

    for _ in range(5):
        P = g.decode(rng.randrange(g.half))
        L = line_through(spec, P, F.from_index(rng.randrange(F.q)))
        other = (P.coords[0].index + 1 + rng.randrange(F.q - 1)) % F.q
        P2 = point_through(spec, L, F.from_index(other))
        assert common_neighbor(g, P, P2) == L
        assert _incident_by_coefficients(spec, P, L) and _incident_by_coefficients(spec, P2, L)
        assert common_neighbor(g, P, g.decode(rng.randrange(g.half))) is None


GOLDEN = Path(__file__).parent / "data" / "witness_golden.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda c: f"L_{c['m']}({c['p']}^{c['e']})"
)
def test_lazy_witnesses_match_the_recorded_sample(case):
    """Walks and lines on lazy L_3(2^8) and L_2(2^17), past the reach of the
    batch routes, id for id as recorded when every walk eliminated its Moore
    system from scratch.  The pairs were drawn by
    random.Random(f"golden:{p}:{e}:{m}"): path pairs cycle through
    point-point, point-line, line-point and line-line, and every other
    common-neighbour pair is two points of one line."""
    g = Graph(FamilySpec.linearized(case["p"], case["e"], case["m"]))
    for a, b, walk in case["paths"]:
        assert [g.encode(v) for v in diameter_witness(g, g.decode(a), g.decode(b)).vertices] == walk
    for i, j, line in case["common"]:
        got = common_neighbor(g, g.decode(i), g.decode(j))
        assert (None if got is None else g.encode(got)) == line
    assert {len(walk) % 2 for _, _, walk in case["paths"]} == {0, 1}
    assert {line is None for _, _, line in case["common"]} == {True, False}


# the custom maps are f_2 = 1 + t x and f_3 = (1 + t) + x^2 over GF(4), and
# f_2 = 1 + x and f_3 = 2x + x^2 over GF(3): coefficients off the prime field
# and constant terms both reach the Horner loop
@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.linearized(2, 2, 2),
        FamilySpec.linearized(3, 1, 2),
        FamilySpec.wenger(3, 1, 2),
        FamilySpec.wenger(2, 2, 2),
        FamilySpec.custom(2, 2, 2, ((1, 2), (3, 0, 1))),
        FamilySpec.custom(3, 1, 2, ((1, 1), (0, 2, 1))),
    ],
    ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}",
)
def test_per_pair_rule_helpers_match_the_object_oracles(spec):
    """_neighbour and _incident, given spec.f_index as the per-pair routes
    bind it, agree with line_through/point_through and adjacent, which
    evaluate the maps through f_eval on objects, for every vertex, first
    coordinate and point-line pair; and _f_table is the f_eval table."""
    g = Graph(spec)
    F, ops, f = spec.field, spec.field.ops(), spec.f_index

    def ids(coords):
        return tuple(c.index for c in coords)

    vertices = [g.decode(vid) for vid in range(g.n)]
    for v in vertices:
        own, point = ids(v.coords), isinstance(v, Point)
        through = line_through if point else point_through
        for x in F.elements():
            assert metrics_mod._neighbour(ops, f, own, x.index, point) == ids(
                through(spec, v, x).coords
            )
    points, lines = vertices[: g.half], vertices[g.half :]
    edges = 0
    for P in points:
        for L in lines:
            rule = metrics_mod._incident(ops, f, ids(P.coords), ids(L.coords))
            assert rule == adjacent(spec, P, L)
            edges += rule
    assert edges == spec.n_edges
    table = [[spec.f_eval(k, x).index for x in F.elements()] for k in range(2, spec.m + 2)]
    assert graphs_mod._f_table(spec).tolist() == table


class TestPerPairChecks:
    """The checks diameter_witness and common_neighbor run before returning
    are live: a corrupted step or line raises SolveFailed."""

    def test_corrupted_operation_is_caught(self, monkeypatch):
        g = Graph(FamilySpec.linearized(3, 2, 2))
        ops, q = g.spec.field.ops(), g.spec.q
        a, b = g.decode(5), g.decode(g.half + 17)
        sound = diameter_witness(g, a, b)
        sub = ops.sub
        # the Moore matrix is eliminated again, under the corrupted sub
        fields._reduction.cache_clear()
        monkeypatch.setattr(ops, "sub", lambda x, y: (sub(x, y) + 1) % q)
        with pytest.raises(SolveFailed):
            diameter_witness(g, a, b)
        # that reduction is never read back once sub is restored
        monkeypatch.undo()
        assert diameter_witness(g, a, b) == sound

    # point-point, point-line, line-point and line-line on L_2(9): 729 points
    @pytest.mark.parametrize("a,b", [(5, 700), (3, 769), (730, 11), (731, 738)])
    def test_corrupted_interior_vertex_is_caught(self, a, b, monkeypatch):
        """The ends stay right, so only the edge-by-edge check can see it."""
        g = Graph(FamilySpec.linearized(3, 2, 2))
        walk = diameter_witness(g, g.decode(a), g.decode(b)).vertices
        assert len(walk) >= 3
        compress = metrics_mod._compress_backtracks

        def corrupt(steps):
            out = compress(steps)
            out[1] = out[1][:-1] + ((out[1][-1] + 1) % g.spec.q,)
            return out

        monkeypatch.setattr(metrics_mod, "_compress_backtracks", corrupt)
        with pytest.raises(SolveFailed, match="non-edge"):
            diameter_witness(g, g.decode(a), g.decode(b))
        # cut short by two vertices: every edge holds, the far end is wrong
        monkeypatch.setattr(metrics_mod, "_compress_backtracks", lambda steps: compress(steps)[:-2])
        with pytest.raises(SolveFailed, match="endpoints"):
            diameter_witness(g, g.decode(a), g.decode(b))

    def test_corrupted_line_is_caught(self, monkeypatch):
        g = Graph(FamilySpec.linearized(3, 2, 2))
        spec, F = g.spec, g.spec.field
        P = g.decode(7)
        L = line_through(spec, P, F.from_index(4))
        P2 = point_through(spec, L, F.from_index(2))
        assert common_neighbor(g, P, P2) == L
        neighbour = metrics_mod._neighbour

        def corrupt(ops, f, own, x, point):
            out = neighbour(ops, f, own, x, point)
            return out[:-1] + ((out[-1] + 1) % spec.q,)

        monkeypatch.setattr(metrics_mod, "_neighbour", corrupt)
        with pytest.raises(SolveFailed):
            common_neighbor(g, P, P2)


def _walk_ids(g, a, b):
    return [g.encode(v) for v in diameter_witness(g, g.decode(a), g.decode(b)).vertices]


class TestPathWitnesses:
    @pytest.mark.parametrize("p,e", [(2, 2), (3, 1)])
    def test_every_pair_matches_diameter_witness(self, p, e, graph_cache):
        g = graph_cache(p, e, 1)
        pairs = list(product(range(g.n), repeat=2))
        walks = path_witnesses(g, [a for a, _ in pairs], [b for _, b in pairs])
        assert walks == [_walk_ids(g, a, b) for a, b in pairs]

    def test_every_pair_of_l2_4_matches_diameter_witness(self, graph_cache):
        # m = 2: walks of up to seven vertices, where dropping one backtrack
        # can bring the next one together
        g = graph_cache(2, 2, 2)
        sources, targets = np.divmod(np.arange(g.n * g.n), g.n)
        walks = path_witnesses(g, sources, targets)
        assert walks == [_walk_ids(g, a, b) for a, b in zip(sources.tolist(), targets.tolist())]
        assert max(len(w) for w in walks) - 1 == 6

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
        assert path_witnesses(g, np.zeros(0, dtype=bool), np.array([])) == []

    def test_ids_must_be_integers(self, graph_cache):
        g = graph_cache(3, 2, 2)
        for bad in (([1.7], [2.2]), ([5], [700.0]), ([True], [False])):
            with pytest.raises(TypeError):
                path_witnesses(g, *bad)

    def test_regime_and_layout_restrictions(self, graph_cache):
        g = graph_cache(2, 1, 2)  # m > e
        with pytest.raises(UnsupportedRegime):
            path_witnesses(g, [0], [1])
        wg = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
        with pytest.raises(UnsupportedRegime):
            path_witnesses(wg, [0], [1])
        with pytest.raises(ValueError):
            path_witnesses(Graph(FamilySpec.linearized(3, 1, 1)), [0], [1])

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

    def test_corrupted_reverse_step_is_caught(self, graph_cache):
        # a line-to-point walk is stepped from the point, so the rows its
        # steps (u, v) are checked in were not read while building it
        g = graph_cache(3, 2, 2)
        sources, targets = [g.half + 1], [11]
        (walk,) = path_witnesses(g, sources, targets)
        nbrs = g.adjacency.copy()
        fake = SimpleNamespace(spec=g.spec, materialized=True, adjacency=nbrs)
        for u, v in zip(walk, walk[1:]):
            nbrs[u, v % g.spec.q] = nbrs[u, (v + 1) % g.spec.q]
            with pytest.raises(SolveFailed):
                path_witnesses(fake, sources, targets)
            nbrs[u, v % g.spec.q] = v


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

    @pytest.mark.parametrize(
        "p,e,m", [(5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 1, 2)] + [(2, e, 1) for e in range(3, 9)]
    )
    def test_six_cycle_regimes(self, p, e, m):
        w = cycle_witness_6(FamilySpec.linearized(p, e, m))
        assert w.length == 6 and w.is_valid_cycle()
        assert verify_cycle_system(w)

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
        # the walk steps on indices, but a coefficient is still read as an element
        with pytest.raises(FieldMismatch):
            cycle_from_coefficients(spec, (1, 2), (0, GF(3, 2).one))
        with pytest.raises(TypeError):
            cycle_from_coefficients(spec, (1.5, 2), (0, 0))

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
        g = Graph(FamilySpec.wenger(3, 1, 1)).materialize()
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
        # one point and one line orbit under A, B and T_2, T_3 over GF(2)
        assert d["bfs_sources"] == 2 and d["automorphisms"] == 4
