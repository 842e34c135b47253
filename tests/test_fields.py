"""Field construction, arithmetic, Frobenius and traces."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwenger import fields
from linwenger.errors import (
    BudgetExceeded,
    ConfigError,
    DegreeMismatch,
    FieldMismatch,
    NonPrime,
    ReducibleModulus,
    SolveFailed,
)
from linwenger.fields import (
    CONWAY_TABLE,
    GF,
    TABLE_LIMIT,
    Field,
    FieldElement,
    _pinvmod,
    _ppowmod,
    default_modulus,
    fp_rank_kernel,
    fp_solve,
    fq_rank,
    fq_solve,
    is_irreducible,
    is_prime,
)
from linwenger.graphs import FamilySpec
from linwenger.spectrum import expansion_bound, rank_distribution


class TestConstruction:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(NonPrime):
            GF(4)
        with pytest.raises(NonPrime):
            GF(1)

    def test_bad_degree_rejected(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 0)

    def test_characteristic_bound(self):
        with pytest.raises(NonPrime):
            GF(32771)  # first prime past 2^15

    def test_field_size_bound(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 25)  # 2^25 > 2^24

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            GF(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2

    def test_modulus_degree_must_match(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 2, modulus=(1, 1, 0, 1))

    def test_modulus_must_be_monic(self):
        with pytest.raises(DegreeMismatch):
            GF(3, 2, modulus=(1, 1, 2))

    def test_modulus_entries_must_be_integers(self):
        # read through operator.index, so (1.9, 1, 1) is not truncated to x^2 + x + 1
        for bad in ((1.9, 1, 1), ("1", "1", "1"), 7):
            with pytest.raises(ConfigError):
                GF(2, 2, modulus=bad)
            with pytest.raises(ConfigError):
                Field(2, 2, modulus=bad)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "build", [GF, FamilySpec.linearized, rank_distribution, expansion_bound]
    )
    def test_bool_parameters_rejected(self, build, flag):
        # a bool is an int, so True would otherwise pass for 1
        args = (2, 1) if build is GF else (2, 1, 1)
        for pos, error in enumerate((NonPrime, DegreeMismatch, ConfigError)[: len(args)]):
            with pytest.raises(error):
                build(*args[:pos], flag, *args[pos + 1:])

    def test_same_parameters_same_field_object(self):
        assert GF(3, 2) is GF(3, 2)
        assert GF(3, 2) == GF(3, 2, modulus=(2, 2, 1))


class TestPrimeHelpers:
    def test_is_prime_small(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_irreducibility_examples(self):
        assert is_irreducible((1, 1, 1), 2)  # x^2 + x + 1
        assert not is_irreducible((1, 0, 1), 2)  # (x + 1)^2
        assert is_irreducible((1, 1, 0, 1), 2)
        assert not is_irreducible((1, 1, 1, 1), 2)  # (x + 1)(x^2 + 1)
        assert is_irreducible((2, 2, 1), 3)
        # degree 4, where having no root does not prove irreducibility
        assert is_irreducible((1, 1, 0, 0, 1), 2)
        assert not is_irreducible((1, 0, 0, 0, 1), 2)  # (x + 1)^4
        assert is_irreducible((2, 10, 8, 0, 1), 11)

    @pytest.mark.parametrize(
        "p,degrees", [(2, range(1, 5)), (3, range(1, 5)), (5, range(1, 5)), (7, range(2, 4))]
    )
    def test_irreducibility_matches_trial_division(self, p, degrees):
        # every monic polynomial of these degrees, against division by every
        # monic polynomial of degree <= n/2
        for n in degrees:
            divisors = [
                (*tail, 1) for d in range(1, n // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)
            ]
            for tail in itertools.product(range(p), repeat=n):
                f = (*tail, 1)
                expected = not any(_divides(g, f, p) for g in divisors)
                assert is_irreducible(f, p) == expected, f


def _divides(g, f, p) -> bool:
    """Whether the monic g divides f over F_p, by schoolbook long division
    (coefficients low-degree-first)."""
    r = list(f)
    for i in range(len(f) - len(g), -1, -1):
        c = r[i + len(g) - 1]
        for j, gj in enumerate(g):
            r[i + j] = (r[i + j] - c * gj) % p
    return not any(r)


class TestGF4:
    def test_multiplication(self):
        F = GF(2, 2)
        t = F.basis[1]
        assert t * t == t + F.one
        assert t * (t + F.one) == F.one  # t * t^2 = t^3 = 1

    def test_traces(self):
        F = GF(2, 2)
        assert _trace(F.one) == 0
        assert _trace(F.basis[1]) == 1
        assert _trace(F.basis[1] + F.one) == 1
        assert _trace(F.zero) == 0


def _frob(x, k):
    """The k-fold Frobenius x^(p^k) of an element, by IndexOps.frob."""
    F = x.field
    return F._elt_at(F.ops().frob(x.index, k))


def _trace(x) -> int:
    """The absolute trace x + x^p + ... + x^(p^(e-1)) from frob and +, as an
    integer of [0, p); it must lie in the prime subfield."""
    acc = x
    for k in range(1, x.field.e):
        acc = acc + _frob(x, k)
    assert acc.index < x.field.p, f"trace of {x!r} is outside F_p"
    return acc.index


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2)])
def test_trace_maps_onto_prime_field_evenly(p, e):
    F = GF(p, e)
    hits = {}
    for x in F.elements():
        hits[_trace(x)] = hits.get(_trace(x), 0) + 1
    assert hits == {c: p ** (e - 1) for c in range(p)}


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (7, 1)])
def test_frobenius_matches_powering(p, e):
    F = GF(p, e)
    for x in F.elements():
        assert _frob(x, 1) == x**p
        assert _frob(x, 2) == x ** (p**2)


def test_frobenius_fixed_field_is_prime_subfield():
    F = GF(2, 3)
    fixed = [x for x in F.elements() if _frob(x, 1) == x]
    assert sorted(x.index for x in fixed) == [0, 1]


@settings(max_examples=200)
@given(st.integers(0, 26), st.integers(0, 26))
def test_frobenius_additive_gf27(i, j):
    F = GF(3, 3)
    x, y = F.from_index(i), F.from_index(j)
    assert _frob(x + y, 1) == _frob(x, 1) + _frob(y, 1)


@settings(max_examples=200)
@given(st.integers(1, 24))
def test_unit_group_order_gf25(i):
    F = GF(5, 2)
    x = F.from_index(i)
    assert x ** (F.q - 1) == F.one
    assert x**-1 * x == F.one


@settings(max_examples=200)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_ring_axioms_gf49(i, j, k):
    F = GF(7, 2)
    x, y, z = F.from_index(i), F.from_index(j), F.from_index(k)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == F.zero


def test_index_roundtrip():
    for F in (GF(2, 3), GF(3, 2)):
        for i in range(F.q):
            assert F.from_index(i).index == i


def test_integer_coercion():
    F = GF(5)
    x = F.from_int(3)
    assert x + 4 == F.from_int(2)
    assert 2 * x == F.from_int(6)
    assert 1 / x == F.from_int(2)  # 3 * 2 = 6 = 1 mod 5
    assert F.from_int(-1) == F.from_int(4)


def test_division_by_zero():
    F = GF(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_field_mismatch():
    a = GF(2, 3).one  # Conway modulus x^3 + x + 1
    b = GF(2, 3, modulus=(1, 0, 1, 1)).one  # x^3 + x^2 + 1
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        GF(3).one * GF(5).one


def _coeff_pow(F, coeffs, k):
    """x^k by repeated coefficient multiplication."""
    acc = F.one.coeffs
    for _ in range(k):
        acc = F._mul(acc, coeffs)
    return acc


def _order(F, x):
    acc, k = x, 1
    while acc != F.one:
        acc, k = acc * x, k + 1
    return k


# Conway moduli, then two moduli whose root t is not primitive.
TABLE_FIELDS = [(2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None),
                (3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1))]


class TestIndexTables:
    """The table arithmetic against the coefficient routines, which are what
    fields above TABLE_LIMIT compute with."""

    @pytest.mark.parametrize("p,e,modulus", TABLE_FIELDS)
    def test_tables_match_coefficient_arithmetic(self, p, e, modulus):
        F = GF(p, e, modulus)
        els = list(F.elements())
        for a in els:
            for b in els:
                assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
                assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
                assert (a * b).coeffs == F._mul(a.coeffs, b.coeffs)
            assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
            for k in range(-e, 2 * e + 1):
                assert _frob(a, k).coeffs == _coeff_pow(F, a.coeffs, p ** (k % e))
            for k in range(2 * F.q):
                assert (a**k).coeffs == _coeff_pow(F, a.coeffs, k)
            if a:
                inv = F.from_index(fields._index(_pinvmod(list(a.coeffs), list(F.modulus), p), p))
                assert (F.one / a).coeffs == inv.coeffs
                assert (a**-3).coeffs == _coeff_pow(F, inv.coeffs, 3)

    @pytest.mark.parametrize("p,e,modulus,order", [(3, 2, (1, 0, 1), 4),
                                                   (2, 4, (1, 1, 1, 1, 1), 5)])
    def test_non_primitive_root(self, p, e, modulus, order):
        F = GF(p, e, modulus)
        assert _order(F, F.basis[1]) == order < F.q - 1
        assert _order(F, F.from_index(F.ops().exp[1])) == F.q - 1

    def test_index_tables_for_materialize(self):
        import numpy as np

        for F in (GF(3, 2), GF(2, 4, (1, 1, 1, 1, 1)), GF(7)):
            els = list(F.elements())
            mul, sub = F.index_tables()
            assert (mul == np.array([[(a * b).index for b in els] for a in els])).all()
            assert (sub == np.array([[(a - b).index for b in els] for a in els])).all()

    def test_index_tables_refuse_over_the_byte_cap(self, monkeypatch):
        # a table cap just under one 7 x 7 int64 table: refused before any
        # table, or the field's log tables, are built
        F = Field(7)
        monkeypatch.setattr(fields, "_TABLE_BYTES", 8 * 7 * 7 - 1)
        with pytest.raises(BudgetExceeded):
            F.index_tables()
        assert F._ops is None
        monkeypatch.setattr(fields, "_TABLE_BYTES", 8 * 7 * 7)
        assert F.index_tables()[0].shape == (7, 7)

    def test_results_are_the_cached_elements(self):
        F = GF(5, 2)
        x, y = F.from_index(7), F.from_index(11)
        for z in (x + y, x - y, -x, x * y, F.one / x, _frob(x, 1), x**5, F.from_int(3)):
            assert z is F.from_index(z.index)

    def test_build_certifies_itself(self, monkeypatch):
        # with no prime divisors to test, t (of order 4 here) passes as primitive
        monkeypatch.setattr(fields, "prime_divisors", lambda n: [])
        F = Field(3, 2, (1, 0, 1))
        with pytest.raises(SolveFailed):
            F.from_index(1)

    def test_coefficient_arithmetic_above_the_limit(self):
        F = GF(2, 17, modulus=(1, 0, 0, 1) + (0,) * 13 + (1,))  # x^17 + x^3 + 1
        assert F.q > TABLE_LIMIT and F.ops().elts is None
        x = F.from_index(0b10110011100011101)
        assert x * (F.one / x) == F.one
        assert _frob(x, F.e) == x
        y = x
        for _ in range(F.e):
            y = _frob(y, 1)
        assert y == x and _frob(x, 1) == x * x
        assert x.index == 0b10110011100011101 and F.from_index(5).index == 5
        assert not x - x and (x + F.one).index == x.index ^ 1
        with pytest.raises(AttributeError):
            x.coords

        assert _trace(F.one) == F.e % F.p
        # the trace of the root t is minus the modulus coefficient of t^(e-1)
        assert _trace(F.basis[1]) == -F.modulus[-2] % F.p
        ys = [x] + [F.from_index(i) for i in (2, 3, 0b1011, 1 << 16, 0x1FFFF)]
        assert {_trace(y) for y in ys} == {0, 1}
        assert all(_trace(y) == _trace(_frob(y, 1)) for y in ys)
        for a, b in itertools.combinations(ys, 2):
            assert _trace(a + b) == (_trace(a) + _trace(b)) % F.p

    def test_coefficient_powers_square_from_the_top_bit(self, monkeypatch):
        F = GF(2, 17, modulus=(1, 0, 0, 1) + (0,) * 13 + (1,))
        x = F.from_index(0b10110011100011101)
        square, fifth = x * x, x * x * x * x * x
        calls = []
        mul = Field._mul
        monkeypatch.setattr(Field, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))

        def counted(fn):
            calls.clear()
            return fn(), len(calls)

        assert counted(lambda: _frob(x, 1)) == (square, 1)
        assert counted(lambda: x**5) == (fifth, 3)
        assert counted(lambda: x**1) == (x, 0)
        assert counted(lambda: x**0) == (F.one, 0)


def _coeff_frob(F, coeffs, k):
    """x^(p^k) as k p-th powers, each by repeated coefficient multiplication."""
    for _ in range(k % F.e):
        coeffs = _coeff_pow(F, coeffs, F.p)
    return coeffs


# Beyond TABLE_FIELDS: log tables but q x q index tables over their byte cap
# (q = 4096 and 2187), then no tables at all (q = 2^17 and 3^11).
CAPPED_FIELDS = [(2, 12), (3, 7)]
UNTABLED_FIELDS = [(2, 17), (3, 11)]


class TestIndexOps:
    """Field.ops(), the scalar operations on canonical indices, against the
    coefficient routines, with no FieldElement operator in the oracle."""

    @staticmethod
    def agree(F, a, b, ks, powers=()):
        ops, p = F.ops(), F.p
        x, y = F._elt_at(a).coeffs, F._elt_at(b).coeffs

        def index(coeffs):
            return F.from_index(fields._index(coeffs, p)).index

        assert ops.add(a, b) == index([(u + v) % p for u, v in zip(x, y)])
        assert ops.sub(a, b) == index([(u - v) % p for u, v in zip(x, y)])
        assert ops.mul(a, b) == index(F._mul(x, y))
        if a:
            assert ops.inv(a) == index(_pinvmod(list(x), list(F.modulus), p))
        else:
            with pytest.raises(ZeroDivisionError):
                ops.inv(a)
        for k in ks:
            assert ops.frob(a, k) == index(_coeff_frob(F, x, k))
        for k in powers:
            if k < 0 and not a:
                with pytest.raises(ZeroDivisionError):
                    ops.pow(a, k)
                continue
            base = _pinvmod(list(x), list(F.modulus), p) if k < 0 else list(x)
            assert ops.pow(a, k) == index(_ppowmod(base, abs(k), list(F.modulus), p))

    @staticmethod
    def powers(F):
        """Exponents below 0, 0, and at and past the group order q - 1."""
        return (-F.q, -2, -1, 0, 1, 2, F.p, F.q - 2, F.q - 1, F.q, 3 * F.q + 5)

    @pytest.mark.parametrize("p,e,modulus", TABLE_FIELDS)
    def test_every_pair_of_table_fields(self, p, e, modulus):
        F = GF(p, e, modulus)
        for a, b in itertools.product(range(F.q), repeat=2):
            if b:
                self.agree(F, a, b, ())
            else:
                self.agree(F, a, b, range(-e, 2 * e + 1), self.powers(F))

    @pytest.mark.parametrize("p,e", CAPPED_FIELDS + UNTABLED_FIELDS)
    def test_sampled_pairs_of_large_fields(self, p, e):
        F = GF(p, e)
        if (p, e) in CAPPED_FIELDS:
            assert F.ops().elts is not None
            with pytest.raises(BudgetExceeded):
                F.index_tables()
        else:
            assert F.ops().elts is None
        rng = random.Random(f"ops:{p}:{e}")
        picks = [0, 1, p - 1, p, F.q - 1] + [rng.randrange(F.q) for _ in range(40)]
        for a in picks:
            for b in rng.sample(picks, 6):
                self.agree(F, a, b, ())
            self.agree(F, a, a, (-1, 1, 2, e - 1, e + 1), self.powers(F))

    def test_zero_powers(self):
        for F in (GF(5, 2), GF(3, 11)):
            assert F.ops().pow(0, 0) == 1 and F.ops().pow(0, 3) == 0
            assert F.zero**0 == F.one
            with pytest.raises(ZeroDivisionError):
                F.ops().pow(0, -1)
            with pytest.raises(ZeroDivisionError):
                F.zero**-1

    def test_no_field_element_operator_above_the_limit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("IndexOps called a FieldElement operator")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
            monkeypatch.setattr(FieldElement, name, refuse)
        for p, e in UNTABLED_FIELDS:
            F = Field(p, e)
            for a, b in ((0, 1), (1, F.q - 1), (p + 3, 12345), (F.q - 1, F.q - 1)):
                self.agree(F, a, b, (1, e - 1), (-1, 0, 5))

    def test_built_on_first_use_and_shared(self):
        F = Field(7)
        assert F._ops is None
        assert F.ops() is F.ops()
        assert F.ops().frob(5, 1) == 5  # the Frobenius fixes the prime field


class TestConwayTable:
    def test_frozen_spot_values(self):
        assert CONWAY_TABLE[(2, 2)] == (1, 1, 1)
        assert CONWAY_TABLE[(2, 6)] == (1, 1, 0, 1, 1, 0, 1)
        assert CONWAY_TABLE[(3, 2)] == (2, 2, 1)
        assert CONWAY_TABLE[(5, 3)] == (3, 3, 0, 1)
        assert CONWAY_TABLE[(7, 4)] == (3, 4, 5, 0, 1)
        assert CONWAY_TABLE[(11, 6)] == (2, 7, 6, 4, 3, 0, 1)

    def test_all_entries_monic_irreducible(self):
        for (p, n), coeffs in CONWAY_TABLE.items():
            assert len(coeffs) == n + 1 and coeffs[-1] == 1
            assert is_irreducible(coeffs, p)

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_basis_root_is_primitive(self, p, e):
        # the defining root of a Conway polynomial generates the unit group
        F = GF(p, e)
        t = F.basis[1]
        n = F.q - 1
        acc = F.one
        seen = set()
        for _ in range(n):
            acc = acc * t
            seen.add(acc.index)
        assert len(seen) == n

    def test_untabulated_default_is_lex_smallest_irreducible(self):
        assert (13, 2) not in CONWAY_TABLE
        assert default_modulus(13, 2) == (1, 3, 1)  # x^2 + 3x + 1
        F = GF(13, 2)
        assert F.q == 169


@st.composite
def _fp_systems(draw):
    """A matrix of at most 3 x 4 over F_2, F_3 or F_5 and a right-hand side."""
    p = draw(st.sampled_from((2, 3, 5)))
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    row = st.tuples(*[entry] * n_cols)
    rows = draw(st.tuples(*[row] * n_rows))
    return p, rows, draw(st.tuples(*[entry] * n_rows))


class TestFpLinearAlgebra:
    @settings(max_examples=300)
    @given(_fp_systems())
    def test_against_brute_force(self, system):
        p, rows, b = system
        n_cols = len(rows[0])

        def image(v):
            return tuple(sum(c * x for c, x in zip(r, v)) % p for r in rows)

        images = {image(v) for v in itertools.product(range(p), repeat=n_cols)}
        rank, kernel = fp_rank_kernel(p, rows)
        assert p**rank == len(images)
        assert all(image(v) == (0,) * len(rows) for v in kernel)
        assert rank + len(kernel) == n_cols
        x = fp_solve(p, rows, b)
        if b in images:
            assert x is not None and image(x) == b
        else:
            assert x is None

    def test_rank_kernel(self):
        rank, kernel = fp_rank_kernel(3, ((1, 2), (2, 4)))
        assert rank == 1
        assert len(kernel) == 1
        x, y = kernel[0]
        assert (x + 2 * y) % 3 == 0

    def test_solve_consistent(self):
        sol = fp_solve(5, ((1, 1), (0, 1)), (3, 2))
        assert sol == (1, 2)

    def test_solve_inconsistent_returns_none(self):
        assert fp_solve(2, ((1, 1), (1, 1)), (0, 1)) is None

    def test_entries_normalized(self):
        """Integer entries are reduced into [0, p): the rows below are
        ((2, 1), (1, 0)) over F_3, and so is the right-hand side."""
        rows = ((-1, 4), (7, -6))
        assert fp_rank_kernel(3, rows) == fp_rank_kernel(3, ((2, 1), (1, 0)))
        assert fp_solve(3, rows, (-1, 4)) == fp_solve(3, ((2, 1), (1, 0)), (2, 1)) == (1, 0)

    @pytest.mark.parametrize("bad", [1.5, "1", None])
    def test_non_integer_entries_refused(self, bad):
        """Entries are read as integers, never truncated: both entry points
        refuse a non-integer with ConfigError, in the matrix and in the
        right-hand side alike."""
        with pytest.raises(ConfigError):
            fp_rank_kernel(3, ((bad, 2), (0, 1)))
        with pytest.raises(ConfigError):
            fp_solve(3, ((bad, 2), (0, 1)), (1, 1))
        with pytest.raises(ConfigError):
            fp_solve(3, ((1, 2), (0, 1)), (1, bad))


@st.composite
def _fq_systems(draw):
    """A field among GF(4), GF(27) and GF(2^17), a matrix A of at most 4 x 4
    over it with many small entries (so that ranks vary), and x0."""
    F = GF(*draw(st.sampled_from([(2, 2), (3, 3), (2, 17)])))
    entry = st.one_of(st.sampled_from([0, 0, 1, F.p - 1]), st.integers(0, F.q - 1))
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[F.from_index(draw(entry)) for _ in range(n_cols)] for _ in range(n_rows)]
    x0 = [F.from_index(draw(entry)) for _ in range(n_cols)]
    return F, rows, x0


def _times(F, rows, x):
    """A x with FieldElement arithmetic."""
    return [sum((a * v for a, v in zip(row, x)), F.zero) for row in rows]


def _indices(rows):
    return [[v.index for v in row] for row in rows]


class TestFqLinearAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(_fq_systems(), st.data())
    def test_solve_and_rank(self, system, data):
        """FieldElement arithmetic is the oracle; fq_solve and fq_rank see
        the same matrices as element indices."""
        F, rows, x0 = system
        b = _times(F, rows, x0)
        x = fq_solve(F, _indices(rows), [v.index for v in b])
        assert x is not None and _times(F, rows, [F.from_index(i) for i in x]) == b

        # a row combining the others, with a right-hand side that breaks it
        cs = [F.from_index(data.draw(st.integers(0, F.q - 1))) for _ in rows]
        combo = [sum((c * row[j] for c, row in zip(cs, rows)), F.zero) for j in range(len(x0))]
        delta = F.from_index(data.draw(st.integers(1, F.q - 1)))
        broken = sum((c * v for c, v in zip(cs, b)), F.zero) + delta
        assert fq_solve(F, _indices(rows + [combo]), [v.index for v in b + [broken]]) is None

        rank = fq_rank(F, _indices(rows))
        assert rank <= min(len(rows), len(x0))
        assert fq_rank(F, _indices(zip(*rows))) == rank
        assert fq_rank(F, _indices(rows + [combo])) == rank

    def test_mismatched_shapes_rejected(self):
        F = GF(5)
        rows3x2 = [[1, 0], [0, 1], [1, 1]]
        for rhs in ([1, 2], [1, 2, 0, 1]):
            with pytest.raises(ValueError, match="right-hand side length mismatch"):
                fq_solve(F, rows3x2, rhs)
        ragged = [[1, 2], [1], [2, 1]]
        with pytest.raises(ValueError, match="ragged rows"):
            fq_rank(F, ragged)
        with pytest.raises(ValueError, match="ragged rows"):
            fq_solve(F, ragged, [1, 2, 1])
        # the third equation x + y = 0 contradicts x = 1, y = 2
        assert fq_solve(F, rows3x2, [1, 2, 0]) is None

    @pytest.mark.parametrize("bad", [-1, 9, 1.5, GF(3, 2).one])
    def test_entries_outside_the_field_rejected(self, bad):
        """Entries must be ints in [0, q): in the matrix, on every call (a bad
        matrix is never cached), and in the right-hand side."""
        F = GF(3, 2)
        rows = [[1, 0], [0, 1]]
        assert fq_rank(F, rows) == 2 and fq_solve(F, rows, [4, 8]) == [4, 8]
        for _ in range(2):
            with pytest.raises(ValueError, match="element indices"):
                fq_solve(F, [[1, bad], [0, 1]], [1, 1])
        with pytest.raises(ValueError, match="element indices"):
            fq_rank(F, [[1, 0], [bad, 1]])
        with pytest.raises(ValueError, match="element indices"):
            fq_solve(F, rows, [1, bad])

    def test_a_non_integer_entry_is_refused_cold_and_warm(self):
        """The reduction cache compares matrices by value, and 1.0 == 1:
        [[1.0]] is refused both before and after [[1]] has been reduced."""
        F = GF(3)
        fields._reduction.cache_clear()
        with pytest.raises(ValueError, match="element indices"):
            fq_solve(F, [[1.0]], [1])  # cold
        assert fq_solve(F, [[1]], [1]) == [1]
        with pytest.raises(ValueError, match="element indices"):
            fq_solve(F, [[1.0]], [1])  # warm

    def test_a_good_matrix_is_checked_once(self, monkeypatch):
        F = GF(2, 3)
        checks = []
        real = fields._index_matrix
        monkeypatch.setattr(fields, "_index_matrix", lambda *a: checks.append(1) or real(*a))
        fields._reduction.cache_clear()
        rows = [[1, 2, 4], [0, 1, 3], [0, 0, 5]]  # invertible: upper triangular
        for i in range(8):
            assert fq_solve(F, rows, [i, 7 - i, 0]) is not None
        assert len(checks) == 1


def _fresh_solve(ops, rows, rhs):
    """One elimination of [A | b] from scratch, free variables zero: the
    answer a solve gave before reductions were reused."""
    nc = len(rows[0])
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    pivots = fields._fq_rref(ops, aug, nc)
    if any(row[nc] for row in aug[len(pivots):]):
        return None
    x = [0] * nc
    for ri, pc in enumerate(pivots):
        x[pc] = aug[ri][nc]
    return x


def _shaped_systems(q, rng):
    """(name, A, right-hand sides) on indices of a field of size q: square,
    wide, tall and singular matrices, each with consistent right-hand sides
    and, where the rank is short of the row count, inconsistent ones."""
    square = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
    singular = square[:2] + [square[0][:]]  # row 3 repeats row 1: rank 2
    zero_col = [[0, rng.randrange(1, q), rng.randrange(q)] for _ in range(3)]
    shapes = {
        "square": square,
        "wide": [[rng.randrange(q) for _ in range(4)] for _ in range(2)],
        "tall": [[rng.randrange(q) for _ in range(2)] for _ in range(4)],
        "singular": singular,
        "zero column": zero_col,
    }
    for name, A in shapes.items():
        rhs = [[rng.randrange(q) for _ in A] for _ in range(4)]
        yield name, A, rhs + [[0] * len(A)]


class TestSolveReuse:
    """A solve eliminates each coefficient matrix once and applies the
    recorded row operations to every right-hand side; each answer must be
    the one a fresh elimination of [A | b] gives."""

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 17)])
    def test_matches_a_fresh_elimination(self, p, e):
        F = GF(p, e)
        ops = F.ops()
        rng = random.Random(f"reuse:{p}:{e}")
        kinds = {"solved": 0, "inconsistent": 0}
        for name, A, rhs_list in _shaped_systems(F.q, rng):
            for rhs in rhs_list:
                want = _fresh_solve(ops, A, rhs)
                for _ in range(2):  # the second call reads the cached reduction
                    assert fq_solve(F, A, rhs) == want, name
                kinds["solved" if want is not None else "inconsistent"] += 1
        assert all(kinds.values())

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_fp_solve_matches_a_fresh_elimination(self, p):
        ops = GF(p).ops()
        rng = random.Random(f"reuse:{p}")
        kinds = set()
        for name, A, rhs_list in _shaped_systems(p, rng):
            for rhs in rhs_list:
                want = _fresh_solve(ops, A, rhs)
                got = fp_solve(p, A, rhs)
                assert (None if got is None else list(got)) == want, name
                kinds.add(want is None)
        assert kinds == {True, False}

    def test_a_repeated_matrix_is_eliminated_once(self, monkeypatch):
        F = GF(3, 2)
        calls = []
        real = fields._fq_rref
        monkeypatch.setattr(fields, "_fq_rref", lambda *a: calls.append(1) or real(*a))
        fields._reduction.cache_clear()
        rows = [[1, 4], [7, 2]]
        for i in range(6):
            assert fq_solve(F, rows, [i, 8 - i]) is not None
        assert len(calls) == 1
        fq_solve(F, rows[::-1], [1, 1])
        fp_solve(3, ((1, 2), (0, 1)), (1, 1))
        fp_solve(3, ((1, 2), (0, 1)), (2, 0))
        assert len(calls) == 3

    def test_callers_rows_are_unchanged(self):
        F = GF(2, 2)
        fields._reduction.cache_clear()
        rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
        rhs = [1, 0, 3]
        for _ in range(2):  # the first call eliminates, the second reads the cache
            fq_solve(F, rows, rhs)
            fq_rank(F, rows)
            assert (rows, rhs) == ([[1, 2, 3], [2, 3, 1], [3, 1, 2]], [1, 0, 3])
