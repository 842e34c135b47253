"""Spectrum closed form, enumeration, traces, and the expansion bound."""

from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from linwenger import (
    BudgetExceeded,
    ConfigError,
    DegreeMismatch,
    FamilySpec,
    Graph,
    NonPrime,
    SpectrumEntry,
    SpectrumReport,
    ThetaNotInjective,
    closed_form_linearized,
    component_count_formula,
    components,
    expansion_bound,
    spectrum_enumerate,
    walk_trace,
)
from linwenger import metrics as metrics_mod
from linwenger.graphs import Layout, layout_certificate
from linwenger.linearized import count_roots
from linwenger.verify import SPECTRUM_CASES


def brute_force_histogram(spec: FamilySpec) -> dict[int, int]:
    """{N: weight vectors with N roots}, one count_roots call per vector."""
    weights = product(spec.field.elements(), repeat=spec.m + 1)
    return dict(Counter(count_roots(spec, w) for w in weights))


def trace_from_report(rep: SpectrumReport, k: int) -> int:
    # eigenvalues are sign*sqrt(radicand), so lambda^(2k) = radicand^k
    return sum(en.multiplicity * en.radicand**k for en in rep.entries)


class TestClosedForm:
    def test_q2_m1(self):
        t = closed_form_linearized(2, 1, 1)
        assert t.histogram() == {1: 2, 2: 1, 0: 1}

    def test_q2_m2_scales(self):
        t = closed_form_linearized(2, 1, 2)
        assert t.histogram() == {1: 4, 2: 2, 0: 2}

    def test_q4_m2(self):
        t = closed_form_linearized(2, 2, 2)
        assert t.histogram() == {1: 24, 2: 18, 4: 1, 0: 21}

    @pytest.mark.parametrize("p,e,m", [(2, 1, 3), (3, 1, 2), (2, 2, 4)])
    def test_total_is_weight_count(self, p, e, m):
        t = closed_form_linearized(p, e, m)
        q = p**e
        assert sum(t.histogram().values()) == q ** (m + 1)
        assert all(n % q ** (m - e) == 0 for n in t.histogram().values())

    def test_below_exponent_regime(self):
        # m < e: the linear parts form a Gabidulin code, not all e x e matrices
        assert closed_form_linearized(2, 2, 1).histogram() == {4: 1, 1: 12, 0: 3}
        assert closed_form_linearized(3, 3, 2).histogram() == {
            27: 1, 3: 3042, 1: 10530, 0: 6110
        }

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="prime"):
            closed_form_linearized(4, 1, 1)
        with pytest.raises(ValueError, match="degree"):
            closed_form_linearized(2, 0, 1)
        with pytest.raises(ConfigError, match="m >= 1"):
            closed_form_linearized(2, 2, 0)

    @pytest.mark.parametrize(
        "p,e,m",
        [
            (2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2), (3, 1, 2), (2, 2, 3),  # m >= e
            (2, 2, 1), (2, 3, 1), (3, 2, 1),  # m < e
            (2, 4, 2), (3, 3, 2), (5, 2, 1), (2, 5, 2),
        ],
    )
    def test_matches_enumeration(self, p, e, m):
        spec = FamilySpec.linearized(p, e, m)
        closed = closed_form_linearized(p, e, m).to_report(spec)
        enum = spectrum_enumerate(spec)
        assert closed.same_spectrum(enum)


class TestReport:
    def test_canonical_entry_order(self):
        rep = spectrum_enumerate(FamilySpec.linearized(2, 1, 1))
        assert rep.entries == (
            SpectrumEntry(1, 4, 1),
            SpectrumEntry(-1, 4, 1),
            SpectrumEntry(1, 2, 2),
            SpectrumEntry(-1, 2, 2),
            SpectrumEntry(0, 0, 2),
        )
        assert rep.total_multiplicity == 8
        assert rep.provenance == "enumerated"

    def test_eigenvalue_strings(self):
        assert SpectrumEntry(1, 4, 1).eigenvalue_str() == "+2"
        assert SpectrumEntry(-1, 2, 2).eigenvalue_str() == "-sqrt(2)"
        assert SpectrumEntry(0, 0, 2).eigenvalue_str() == "0"
        assert SpectrumEntry(-1, 9, 1).eigenvalue_str() == "-3"

    def test_histogram_roundtrip(self):
        spec = FamilySpec.linearized(2, 2, 2)
        table = closed_form_linearized(2, 2, 2)
        assert table.to_report(spec).histogram() == table.histogram()

    def test_second_largest_radicand(self):
        rep = spectrum_enumerate(FamilySpec.linearized(2, 1, 1))
        assert rep.second_largest_radicand() == 2
        rep9 = spectrum_enumerate(FamilySpec.linearized(3, 2, 2))
        assert rep9.second_largest_radicand() == 9 * 3  # q * p^(e-1)

    # L_1(3): +-3 once, +-sqrt(3) q(q - 1) = 6 times, 0 2(q - 1) = 4 times
    ENTRIES_Q3 = [
        {"sign": 1, "radicand": "9", "multiplicity": "1"},
        {"sign": -1, "radicand": "9", "multiplicity": "1"},
        {"sign": 1, "radicand": "3", "multiplicity": "6"},
        {"sign": -1, "radicand": "3", "multiplicity": "6"},
        {"sign": 0, "radicand": "0", "multiplicity": "4"},
    ]

    def test_json_roundtrip(self):
        rep = spectrum_enumerate(FamilySpec.linearized(3, 1, 1))
        assert rep.to_json_dict() == {
            "spec": {"p": 3, "e": 1, "m": 1, "family": "linearized", "modulus": [1, 1]},
            "entries": self.ENTRIES_Q3,
            "total": "18",
            "provenance": "enumerated",
        }

    def test_json_roundtrip_custom(self):
        spec = FamilySpec.custom(3, 1, 1, f_indices=((0, 1),))
        assert spectrum_enumerate(spec).to_json_dict() == {
            "spec": {"p": 3, "e": 1, "m": 1, "family": "custom", "modulus": [1, 1],
                     "f_list": [[0, 1]]},
            "entries": self.ENTRIES_Q3,
            "total": "18",
            "provenance": "enumerated",
        }


class TestEnumerate:
    def test_noninjective_rejected(self):
        with pytest.raises(ThetaNotInjective):
            spectrum_enumerate(FamilySpec.custom(3, 1, 1, f_indices=((0,),)))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            spectrum_enumerate(FamilySpec.linearized(2, 2, 2), max_evals=10)

    def test_budget_comes_before_injectivity(self):
        spec = FamilySpec.custom(3, 1, 1, f_indices=((0,),))
        with pytest.raises(BudgetExceeded):
            spectrum_enumerate(spec, max_evals=8)
        assert "theta_injective" not in spec.__dict__

    def test_wenger_total_and_energy(self):
        spec = FamilySpec.wenger(3, 1, 2)
        rep = spectrum_enumerate(spec)
        assert rep.total_multiplicity == 2 * 27
        assert trace_from_report(rep, 1) == 2 * spec.n_edges

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.linearized(2, 3, 1),  # m < e
            FamilySpec.linearized(3, 2, 1),  # m < e
            FamilySpec.linearized(2, 2, 2),  # m = e
            FamilySpec.linearized(3, 1, 2),  # m > e
            FamilySpec.wenger(2, 3, 2),
            FamilySpec.custom(3, 2, 2, f_indices=((0, 1), (2, 1, 1))),
        ],
        ids=["lin-2-3-1", "lin-3-2-1", "lin-2-2-2", "lin-3-1-2", "wen-2-3-2", "cus-3-2-2"],
    )
    def test_sweep_matches_root_count_per_weight(self, spec):
        assert spectrum_enumerate(spec).histogram() == brute_force_histogram(spec)

    def test_sweep_matches_rank_route_below_exponent(self):
        # the closed form counts roots through the rank distribution
        spec = FamilySpec.linearized(2, 3, 2)
        closed = closed_form_linearized(2, 3, 2).histogram()
        assert spectrum_enumerate(spec).histogram() == closed

    def test_below_exponent_regime_enumerates(self):
        spec = FamilySpec.linearized(2, 2, 1)  # m < e
        rep = spectrum_enumerate(spec)
        assert rep.total_multiplicity == 2 * 16
        assert trace_from_report(rep, 1) == 2 * spec.n_edges


def csr_squared_entries(adj, k: int, rows: int | None = None) -> int:
    """The sum of squared entries of A^k (of its first rows rows, if given)
    by scipy sparse products, where A is the CSR matrix of the (n, q) array
    adj; a repeated id in a row adds up to an entry of 2."""
    n, q = adj.shape
    ones = np.ones(adj.size, dtype=np.int64)
    A = sparse.csr_matrix((ones, (np.repeat(np.arange(n), q), adj.ravel())), shape=(n, n))
    M = A
    for _ in range(k - 1):
        M = M @ A
    return sum(int(v) ** 2 for v in M[:rows].data)


def rewired(adj, v, j, u, spec=None):
    """A copy of adj with entry (v, j) set to u, behind a graph with no spec
    unless one is given."""
    out = adj.copy()
    out[v, j] = u
    return SimpleNamespace(adjacency=out) if spec is None else SimpleNamespace(spec=spec, adjacency=out)


ORACLE_GRAPH_SPECS = [FamilySpec.linearized(*case) for case in SPECTRUM_CASES] + [
    FamilySpec.wenger(3, 1, 2),
    FamilySpec.wenger(2, 2, 1),
    FamilySpec.custom(3, 1, 2, f_indices=((1, 2, 1), (0, 0, 1))),
]
# Up to this many vertices the array is also traced without its spec, from
# every vertex (O(n^2 q k)), and the oracle reaches k = 4: A^4 of L_3(8) by
# sparse products takes about 300 MB.
SPECLESS_VERTICES = 1500


class TestWalkTrace:
    @pytest.mark.parametrize(
        "spec", ORACLE_GRAPH_SPECS, ids=lambda s: f"{s.family}-{s.p}-{s.e}-{s.m}"
    )
    def test_matches_csr_oracle(self, spec):
        graph = Graph(spec).materialize()  # sources: the certified orbits
        adj = graph.adjacency
        small = graph.n <= SPECLESS_VERTICES
        expected = [csr_squared_entries(adj, k) for k in range(1, 5 if small else 4)]
        assert walk_trace(graph, 4)[: len(expected)] == expected
        if small:
            everyone = SimpleNamespace(adjacency=adj)  # the array alone: every vertex
            assert walk_trace(everyone, 4) == expected

    def test_rewired_arrays_match_csr_oracle(self, graph_cache):
        adj = graph_cache(3, 1, 2).adjacency
        half = len(adj) // 2
        stranger = next(u for u in range(half, len(adj)) if u not in adj[1])
        graphs = (
            rewired(adj, 0, 1, adj[0, 0]),  # a repeated entry: A holds a 2
            rewired(adj, 1, 0, stranger),  # a one-sided entry: A is not symmetric
        )
        for g in graphs:
            expected = [csr_squared_entries(g.adjacency, k) for k in (1, 2, 3, 4)]
            assert walk_trace(g, 4) == expected

    def test_repeated_entry_certifies_no_automorphism(self, graph_cache):
        # every point row lists its column-2 line again in column 1, and
        # point 0 its column-0 line: the shifts that keep each line's first
        # coordinate still keep "v is listed in row u", but not how often,
        # and their orbits would give 384 at k = 2.  With the spec, the layout
        # certificate counts the rows, so no map is certified and every
        # vertex is a source.
        sound = graph_cache(3, 1, 1)
        adj = sound.adjacency.copy()
        half = len(adj) // 2
        adj[:half, 1] = adj[:half, 2]
        adj[0, 1] = adj[0, 0]
        g = SimpleNamespace(spec=sound.spec, adjacency=adj)
        assert layout_certificate(g).unordered == half
        assert metrics_mod._orbits(g)[1] == 0 < metrics_mod._orbits(sound)[1]
        expected = [csr_squared_entries(adj, k) for k in (1, 2, 3, 4)]
        assert expected[1] == 392
        assert walk_trace(g, 4) == expected

    def test_asymmetric_array_in_layout_gets_every_row(self, graph_cache):
        # rows stay listed by first coordinate and points next to lines only,
        # so only the symmetry test fails: no map is certified even with the
        # spec, and the trace is the full sum, not twice the point rows'
        sound = graph_cache(3, 1, 1)
        adj = sound.adjacency
        n, q = adj.shape
        half, j = n // 2, 1
        other = next(u for u in range(half, n) if u % q == j and u != adj[0, j])
        g = rewired(adj, 0, j, other, spec=sound.spec)
        assert layout_certificate(g) == Layout(stray=0, unordered=0, own_side=0, unlisted=2)
        assert metrics_mod._orbits(g)[1] == 0
        full = [csr_squared_entries(g.adjacency, k) for k in (1, 2, 3, 4)]
        halved = [2 * csr_squared_entries(g.adjacency, k, rows=half) for k in (1, 2, 3, 4)]
        assert halved != full
        assert walk_trace(g, 4) == full

    @pytest.mark.parametrize("p,e,m", [(3, 1, 1), (2, 2, 2)])
    def test_exponents_past_four(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        expected = [csr_squared_entries(g.adjacency, k) for k in range(1, 7)]
        assert walk_trace(g, 6) == expected

    @pytest.mark.parametrize("entry", [-1, 18], ids=["negative", "n"])
    def test_ids_outside_the_array_are_refused(self, entry, graph_cache, monkeypatch):
        g = rewired(graph_cache(3, 1, 1).adjacency, 0, 0, entry)
        reached = []
        monkeypatch.setattr(metrics_mod, "_orbits", reached.append)
        with pytest.raises(ValueError, match=r"vertex id in \[0, 18\)"):
            walk_trace(g, 2)
        assert reached == []  # refused before the orbits and every gather

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_matches_spectrum(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        rep = spectrum_enumerate(g.spec)
        assert walk_trace(g, 3) == [trace_from_report(rep, k) for k in (1, 2, 3)]

    def test_first_power_counts_edges(self, graph_cache):
        g = graph_cache(3, 1, 1)
        assert walk_trace(g, 1) == [2 * g.n_edges] == [54]

    def test_exponent_range(self, graph_cache):
        # L_1(2) is an 8-cycle: k = 31 is the last k with q^(2k) < 2^63, and
        # its trace 2 * 4^31 + 4 * 2^31 is past int64, summed exactly all the same
        g = graph_cache(2, 1, 1)
        rep = spectrum_enumerate(g.spec)
        traces = walk_trace(g, 31)
        assert traces == [trace_from_report(rep, k) for k in range(1, 32)]
        assert traces[-1] == 2 * 4**31 + 4 * 2**31
        for k in (0, 32):
            with pytest.raises(ValueError):
                walk_trace(g, k)

    def test_a_column_past_int64_is_summed_exactly(self):
        # every row lists vertex 0 twice: column 0 of A^31 holds 2^31 in each
        # of its 4 rows, so its squared norm, 2^64, is past int64
        g = SimpleNamespace(adjacency=np.zeros((4, 2), dtype=np.int32))
        assert walk_trace(g, 31)[-1] == 4 * 2**62

    def test_pure_python_route_agrees(self, graph_cache):
        g = graph_cache(2, 1, 1)
        # count the walks in dicts and compare with the gather route
        total = 0
        for v in range(g.n):
            weights = {v: 1}
            for _ in range(2):
                nxt = {}
                for u, c in weights.items():
                    for nb in g.adjacency[u]:
                        nxt[nb] = nxt.get(nb, 0) + c
                weights = nxt
            total += sum(c * c for c in weights.values())
        assert total == walk_trace(g, 2)[-1]


class TestComponents:
    @pytest.mark.parametrize(
        "p,e,m,expected",
        [(2, 1, 1, 1), (2, 1, 2, 2), (2, 1, 3, 4), (3, 1, 2, 3), (2, 2, 2, 1), (3, 2, 2, 1)],
    )
    def test_linearized_formula(self, p, e, m, expected):
        assert component_count_formula(FamilySpec.linearized(p, e, m)) == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (FamilySpec.wenger(2, 1, 2), 2),
            (FamilySpec.wenger(3, 1, 1), 1),
            (FamilySpec.custom(2, 2, 2, [[0, 1], [0, 1]]), 4),
            (FamilySpec.custom(2, 2, 2, [[2], [0, 3]]), 4),
            (FamilySpec.custom(3, 1, 2, [[1, 1], [0, 2, 1]]), 1),
            (FamilySpec.linearized(3, 2, 2, modulus=(1, 0, 1)), 1),
        ],
        ids=["wen-2-1-2", "wen-3-1-1", "cus-4-a", "cus-4-b", "cus-3-1-2", "lin-9-modulus"],
    )
    def test_formula_matches_bfs_on_every_family(self, spec, expected):
        count, _ = components(Graph(spec).materialize())
        assert count == component_count_formula(spec) == expected


class TestExpansionBound:
    def test_exact_fields(self):
        b = expansion_bound(2, 2, 2)
        assert b.q == 4 and b.radicand == 8
        assert expansion_bound(2, 3, 1).radicand == 8  # m < e: q * p^(m-1)

    def test_prime_field(self):
        b = expansion_bound(5, 1, 1)
        assert b.q == 5 and b.radicand == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(NonPrime):
            expansion_bound(4, 1, 1)
        with pytest.raises(DegreeMismatch):
            expansion_bound(2, 0, 1)  # would give the float radicand 0.5
        with pytest.raises(ConfigError):
            expansion_bound(3, 1, 0)

    def test_radicand_is_second_largest(self):
        for p, e, m in ((2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)):
            rep = spectrum_enumerate(FamilySpec.linearized(p, e, m))
            assert expansion_bound(p, e, m).radicand == rep.second_largest_radicand()
