"""Spectrum closed form, enumeration, traces, and the expansion bound."""

from collections import Counter

import pytest

from linwenger import (
    BudgetExceeded,
    FamilySpec,
    SpectrumEntry,
    SpectrumReport,
    ThetaNotInjective,
    build,
    closed_form_linearized,
    component_count_formula,
    components,
    expansion_bound,
    spectrum_enumerate,
    walk_trace,
)
from linwenger.linearized import count_roots


def brute_force_histogram(spec: FamilySpec) -> dict[int, int]:
    """{N: weight vectors with N roots}, one count_roots call per vector."""
    return dict(
        Counter(count_roots(spec, spec.weight_tuple(i)) for i in range(spec.q ** (spec.m + 1)))
    )


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
        with pytest.raises(ValueError, match="m >= 1"):
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

    def test_multiplicity_of(self):
        rep = spectrum_enumerate(FamilySpec.linearized(2, 1, 1))
        assert rep.multiplicity_of(1, 4) == 1
        assert rep.multiplicity_of(-1, 2) == 2
        assert rep.multiplicity_of(0, 0) == 2
        assert rep.multiplicity_of(1, 999) == 0

    def test_second_largest_radicand(self):
        rep = spectrum_enumerate(FamilySpec.linearized(2, 1, 1))
        assert rep.second_largest_radicand() == 2
        rep9 = spectrum_enumerate(FamilySpec.linearized(3, 2, 2))
        assert rep9.second_largest_radicand() == 9 * 3  # q * p^(e-1)

    def test_json_roundtrip(self):
        rep = spectrum_enumerate(FamilySpec.linearized(3, 1, 1))
        back = SpectrumReport.from_json_dict(rep.to_json_dict())
        assert back.same_spectrum(rep)
        assert back.spec.field == rep.spec.field
        assert back.provenance == rep.provenance

    def test_json_roundtrip_custom(self):
        spec = FamilySpec.custom(3, 1, 1, f_indices=((0, 1),))
        rep = spectrum_enumerate(spec)
        back = SpectrumReport.from_json_dict(rep.to_json_dict())
        assert back.same_spectrum(rep)
        assert back.spec.f_indices == ((0, 1),)


class TestEnumerate:
    def test_noninjective_rejected(self):
        with pytest.raises(ThetaNotInjective):
            spectrum_enumerate(FamilySpec.custom(3, 1, 1, f_indices=((0,),)))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            spectrum_enumerate(FamilySpec.linearized(2, 2, 2), max_evals=10)

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


class TestWalkTrace:
    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_matches_spectrum(self, p, e, m, graph_cache):
        g = graph_cache(p, e, m)
        rep = spectrum_enumerate(g.spec)
        for k in (1, 2, 3):
            assert walk_trace(g, k) == trace_from_report(rep, k)

    def test_first_power_counts_edges(self, graph_cache):
        g = graph_cache(3, 1, 1)
        assert walk_trace(g, 1) == 2 * g.n_edges == 54

    def test_exponent_range(self, graph_cache):
        g = graph_cache(2, 1, 1)
        with pytest.raises(ValueError):
            walk_trace(g, 0)
        with pytest.raises(ValueError):
            walk_trace(g, 5)

    def test_pure_python_route_agrees(self, graph_cache):
        from linwenger import spectrum as spectrum_mod

        g = graph_cache(2, 1, 1)
        # force the dict-based accumulation and compare with the sparse route
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
        assert total == walk_trace(g, 2)
        assert spectrum_mod is not None


class TestComponents:
    @pytest.mark.parametrize(
        "p,e,m,expected",
        [(2, 1, 1, 1), (2, 1, 2, 2), (2, 1, 3, 4), (3, 1, 2, 3), (2, 2, 2, 1), (3, 2, 2, 1)],
    )
    def test_linearized_formula(self, p, e, m, expected):
        assert component_count_formula(FamilySpec.linearized(p, e, m)) == expected

    def test_formula_matches_bfs_on_wenger(self):
        for spec in (FamilySpec.wenger(2, 1, 2), FamilySpec.wenger(3, 1, 1)):
            g = build(spec, mode="materialized")
            count, _ = components(g)
            assert count == component_count_formula(spec)


class TestExpansionBound:
    def test_exact_fields(self):
        b = expansion_bound(2, 2, 2)
        assert b.q == 4 and b.radicand == 8
        assert 0.5 < b.approx < 0.6
        assert expansion_bound(2, 3, 1).radicand == 8  # m < e: q * p^(m-1)

    def test_prime_field(self):
        b = expansion_bound(5, 1, 1)
        assert b.radicand == 5
        assert b.approx == (5 - 5**0.5) / 2

    def test_radicand_is_second_largest(self):
        for p, e, m in ((2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)):
            rep = spectrum_enumerate(FamilySpec.linearized(p, e, m))
            assert expansion_bound(p, e, m).radicand == rep.second_largest_radicand()
