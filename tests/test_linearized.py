"""Affine family polynomials: evaluation, kernels, root counts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwenger.errors import InvalidRank, UnsupportedRegime
from linwenger.fields import GF
from linwenger.graphs import FamilySpec
from linwenger.linearized import count_roots, kernel_dim, rank_count


def frob_poly(F, *ints):
    spec = FamilySpec.linearized(F.p, F.e, len(ints) - 1)
    return spec.lin_poly([F.from_int(c) for c in ints])


def weights_from_indices(F, idxs):
    spec = FamilySpec.linearized(F.p, F.e, len(idxs) - 1)
    return spec.lin_poly([F.from_index(i) for i in idxs])


class TestEval:
    def test_zero_weights_is_zero_map(self):
        F = GF(3, 2)
        P = frob_poly(F, 0, 0, 0)
        assert all(not P.eval(x) for x in F.elements())

    def test_identity_map(self):
        F = GF(2, 2)
        P = frob_poly(F, 0, 1)
        t = F.basis[1]
        assert P.eval(t) == t

    def test_gf4_sum_of_frobenius_layers(self):
        # w = (0, 1, 1): x + x^2 sends t to t + (t + 1) = 1 under t^2 = t + 1
        F = GF(2, 2)
        P = frob_poly(F, 0, 1, 1)
        t = F.basis[1]
        assert P.eval(t) == F.one

    def test_constant_offset(self):
        F = GF(5)
        P = frob_poly(F, 2, 1)
        assert P.eval(F.from_int(3)) == F.zero

    def test_monomial_kind(self):
        spec = FamilySpec.wenger(3, 1, 2)
        F = spec.field
        P = spec.lin_poly([F.zero, F.zero, F.one])  # x^2
        assert P.eval(F.from_int(2)) == F.one

    def test_weight_validation(self):
        spec = FamilySpec.linearized(2, 2, 1)
        F = spec.field
        with pytest.raises(ValueError):
            spec.lin_poly([F.one])
        with pytest.raises(ValueError):
            spec.lin_poly([F.one, F.one, F.one])
        with pytest.raises(ValueError):
            spec.lin_poly([F.one, GF(2).one])

    def test_linear_matrix_needs_frobenius_kind(self):
        for spec in (FamilySpec.wenger(2, 2, 1), FamilySpec.custom(2, 2, 1, ((0, 1),))):
            F = spec.field
            with pytest.raises(UnsupportedRegime):
                spec.lin_poly([F.zero, F.one]).linear_matrix()


class TestKernel:
    def test_zero_map_has_full_kernel(self):
        F = GF(2, 3)
        assert kernel_dim(frob_poly(F, 0, 0, 0, 0)) == 3

    def test_identity_has_trivial_kernel(self):
        F = GF(2, 3)
        assert kernel_dim(frob_poly(F, 0, 1)) == 0

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
    def test_artin_schreier_kernel_is_prime_field(self, p, e):
        # x^p - x vanishes exactly on F_p
        F = GF(p, e)
        P = frob_poly(F, 0, -1, 1)
        assert kernel_dim(P) == 1
        roots = [x for x in F.elements() if not P.eval(x)]
        assert sorted(x.index for x in roots) == sorted(
            F.from_int(c).index for c in range(p)
        )

    def test_kernel_dim_matches_exhaustive_root_count(self):
        F = GF(2, 2)
        for idxs in itertools.product(range(4), repeat=2):
            P = weights_from_indices(F, (0,) + idxs)
            n_roots = sum(1 for x in F.elements() if not P.eval(x))
            assert n_roots == 2 ** kernel_dim(P)


class TestCountRoots:
    def test_zero_vector_counts_whole_field(self):
        for p, e in ((2, 1), (2, 2), (3, 2)):
            F = GF(p, e)
            P = frob_poly(F, *([0] * (e + 1)))
            assert count_roots(P) == F.q

    def test_gf4_affine_example(self):
        # 1 + x + x^2 has exactly the two non-subfield roots
        F = GF(2, 2)
        P = frob_poly(F, 1, 1, 1)
        assert count_roots(P, "exhaustive") == 2
        assert count_roots(P, "structured") == 2

    def test_gf2_no_roots_when_constant_misses_image(self):
        # over F_2 with m = 2 the linear part x + x^p is the zero map
        F = GF(2)
        P = frob_poly(F, 1, 1, 1)
        assert count_roots(P) == 0

    def test_unknown_method_rejected(self):
        F = GF(2)
        with pytest.raises(ValueError):
            count_roots(frob_poly(F, 0, 1), "guess")

    @pytest.mark.parametrize(
        "p,e,m",
        [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1), (2, 3, 3), (3, 2, 2)],
    )
    def test_strategies_agree(self, p, e, m):
        F = GF(p, e)
        for widx in range(F.q ** (m + 1)):
            idxs = []
            rem = widx
            for _ in range(m + 1):
                idxs.append(rem % F.q)
                rem //= F.q
            P = weights_from_indices(F, idxs)
            assert count_roots(P, "exhaustive") == count_roots(P, "structured")

    def test_structured_counts_are_prime_powers(self):
        F = GF(3, 2)
        for widx in range(F.q**3):
            idxs = [widx % 9, (widx // 9) % 9, (widx // 81) % 9]
            n = count_roots(weights_from_indices(F, idxs), "structured")
            assert n in (0, 1, 3, 9)


class TestRankCount:
    def test_two_by_two_binary(self):
        assert rank_count(2, 2, 0, 2) == 1
        assert rank_count(2, 2, 1, 2) == 9
        assert rank_count(2, 2, 2, 2) == 6

    def test_rank_zero_always_one(self):
        for l, n, q in ((1, 1, 2), (3, 2, 5), (4, 4, 9)):
            assert rank_count(l, n, 0, q) == 1

    def test_brute_force_2x3_ternary(self):
        # independent route: rank = log_3 of the row-span size
        tallies = [0, 0, 0]
        for entries in itertools.product(range(3), repeat=6):
            r0, r1 = entries[:3], entries[3:]
            span = {
                tuple((a * x + b * y) % 3 for x, y in zip(r0, r1))
                for a in range(3)
                for b in range(3)
            }
            tallies[{1: 0, 3: 1, 9: 2}[len(span)]] += 1
        assert tallies == [rank_count(2, 3, k, 3) for k in range(3)]

    def test_prime_power_q(self):
        # the formula needs no primality: GF(4) counts follow the same product
        assert rank_count(1, 1, 1, 4) == 3
        assert sum(rank_count(2, 2, k, 4) for k in range(3)) == 4**4

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            rank_count(2, 2, 3, 2)
        with pytest.raises(InvalidRank):
            rank_count(2, 2, -1, 2)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            rank_count(2, 2, 1, 1)

    @settings(max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 3, 4, 5, 7, 8]))
    def test_sum_rule(self, l, n, q):
        assert sum(rank_count(l, n, k, q) for k in range(min(l, n) + 1)) == q ** (l * n)

    def test_symmetry(self):
        for l, n, k, q in ((2, 3, 1, 2), (3, 4, 2, 3), (2, 4, 2, 5)):
            assert rank_count(l, n, k, q) == rank_count(n, l, k, q)
