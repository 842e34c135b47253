"""Weight polynomials: exhaustive root counts, and the rank distribution of
the linear parts of the linearized family."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwenger.fields import GF, fp_rank_kernel
from linwenger.graphs import FamilySpec
from linwenger.linearized import count_roots
from linwenger.spectrum import closed_form_linearized, rank_distribution


def frob_roots(F, *ints):
    """Root count of w_1 + sum_k w_k x^(p^(k-2)) for integer weights."""
    spec = FamilySpec.linearized(F.p, F.e, len(ints) - 1)
    return count_roots(spec, [F.from_int(c) for c in ints])


def roots_from_indices(F, idxs):
    spec = FamilySpec.linearized(F.p, F.e, len(idxs) - 1)
    return count_roots(spec, [F.from_index(i) for i in idxs])


class TestEval:
    def test_zero_weights_is_zero_map(self):
        F = GF(3, 2)
        assert frob_roots(F, 0, 0, 0) == F.q

    def test_identity_map(self):
        # x - t vanishes at t alone
        spec = FamilySpec.linearized(2, 2, 1)
        F = spec.field
        t = F.basis[1]
        assert count_roots(spec, [-t, F.one]) == 1

    def test_gf4_sum_of_frobenius_layers(self):
        # x + x^2 is the trace onto F_2: it vanishes on F_2 and never hits t
        spec = FamilySpec.linearized(2, 2, 2)
        F = spec.field
        assert count_roots(spec, [F.zero, F.one, F.one]) == 2
        assert count_roots(spec, [F.basis[1], F.one, F.one]) == 0

    def test_constant_offset(self):
        F = GF(5)
        assert frob_roots(F, 2, 1) == 1  # 2 + x at x = 3

    def test_monomial_kind(self):
        spec = FamilySpec.wenger(3, 1, 2)
        F = spec.field
        assert count_roots(spec, [-F.one, F.zero, F.one]) == 2  # x^2 - 1 at +-1

    def test_weight_validation(self):
        spec = FamilySpec.linearized(2, 2, 1)
        F = spec.field
        with pytest.raises(ValueError):
            count_roots(spec, [F.one])
        with pytest.raises(ValueError):
            count_roots(spec, [F.one, F.one, F.one])
        with pytest.raises(ValueError):
            count_roots(spec, [F.one, GF(2).one])


class TestKernel:
    """Roots of a weight vector with w_1 = 0 form the kernel of its linear part."""

    def test_zero_map_has_full_kernel(self):
        F = GF(2, 3)
        assert frob_roots(F, 0, 0, 0, 0) == 8

    def test_identity_has_trivial_kernel(self):
        F = GF(2, 3)
        assert frob_roots(F, 0, 1) == 1

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
    def test_artin_schreier_kernel_is_prime_field(self, p, e):
        # x^p - x vanishes exactly on F_p
        assert frob_roots(GF(p, e), 0, -1, 1) == p

    def test_kernel_dim_matches_exhaustive_root_count(self):
        # kernel dimension = e - (F_p rank of the matrix of the linear part)
        spec = FamilySpec.linearized(2, 3, 2)
        F = spec.field
        for linear in itertools.product(F.elements(), repeat=spec.m):
            images = []
            for b in F.basis:
                acc = F.zero
                for k, w in enumerate(linear, start=2):
                    acc = acc + w * spec.f_eval(k, b)
                images.append(acc.coeffs)
            rank, _ = fp_rank_kernel(F.p, images)
            assert count_roots(spec, [F.zero, *linear]) == F.p ** (F.e - rank)


class TestCountRoots:
    def test_zero_vector_counts_whole_field(self):
        for p, e in ((2, 1), (2, 2), (3, 2)):
            F = GF(p, e)
            assert frob_roots(F, *([0] * (e + 1))) == F.q

    def test_gf4_affine_example(self):
        # 1 + x + x^2 has exactly the two non-subfield roots
        assert frob_roots(GF(2, 2), 1, 1, 1) == 2

    def test_gf2_no_roots_when_constant_misses_image(self):
        # over F_2 with m = 2 the linear part x + x^p is the zero map
        assert frob_roots(GF(2), 1, 1, 1) == 0

    @pytest.mark.parametrize(
        "p,e,m",
        [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1), (2, 3, 3), (3, 2, 2)],
    )
    def test_strategies_agree(self, p, e, m):
        # the closed form against one exhaustive root count per weight vector
        spec = FamilySpec.linearized(p, e, m)
        weights = itertools.product(spec.field.elements(), repeat=m + 1)
        counts = Counter(count_roots(spec, w) for w in weights)
        assert dict(counts) == closed_form_linearized(p, e, m).histogram()

    def test_linearized_counts_are_prime_powers(self):
        F = GF(3, 2)
        for widx in range(F.q**3):
            idxs = [widx % 9, (widx // 9) % 9, (widx // 81) % 9]
            assert roots_from_indices(F, idxs) in (0, 1, 3, 9)


class TestRankCount:
    def test_two_by_two_binary(self):
        # at m = e the linear parts are all 2 x 2 matrices over F_2
        assert rank_distribution(2, 2, 2) == {0: 1, 1: 9, 2: 6}

    def test_rank_zero_always_one(self):
        for p, e, m in ((2, 1, 1), (3, 2, 1), (2, 4, 2), (5, 3, 3)):
            assert rank_distribution(p, e, m)[0] == 1

    def test_invalid_rank(self):
        # no nonzero linear part has rank below d = e - min(m, e) + 1
        for p, e, m in ((2, 3, 1), (2, 4, 2), (3, 3, 2), (2, 5, 3)):
            d = e - min(m, e) + 1
            assert sorted(rank_distribution(p, e, m)) == [0, *range(d, e + 1)]

    def test_bad_shape(self):
        for p, e, m in ((2, 0, 1), (2, 2, 0), (4, 1, 1)):
            with pytest.raises(ValueError):
                rank_distribution(p, e, m)

    @settings(max_examples=150)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 8))
    def test_sum_rule(self, p, e, m):
        q = p**e
        assert sum(rank_distribution(p, e, m).values()) == q ** min(m, e)
        hist = closed_form_linearized(p, e, m).histogram()
        assert sum(hist.values()) == q ** (m + 1)
        assert sum(n * count for n, count in hist.items()) == q ** (m + 1)
