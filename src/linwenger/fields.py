"""Exact arithmetic in GF(p^e) and the small exact linear algebra built on it.

Elements are coordinate vectors over F_p in the polynomial basis
(1, t, ..., t^(e-1)) for a fixed monic irreducible modulus, each numbered by
a canonical index.  The field's one scalar arithmetic is IndexOps
(Field.ops()): add, sub, mul, inv, pow and frob on indices.  Fields with at
most TABLE_LIMIT elements do it by lookups in log/antilog and Zech tables,
built on first use in O(q) memory; larger fields compute on coordinate
vectors with the F_p polynomial helpers modulo the modulus, and that
coefficient arithmetic is the oracle the tables are tested against.  The
per-pair routes read that arithmetic in one form, q x q rows
(IndexOps.rows): lists built from the same lists on fields with at most
ROW_LIMIT elements, views that call the operations above.  FieldElement's
operators are shells over IndexOps.  Linear algebra is one
Gaussian elimination over GF(p^e), with F_p entry points that run it over
GF(p).  Its matrices, right-hand sides and answers are element indices, and
no FieldElement enters it: fq_solve checks each coefficient matrix and
eliminates it once, then reuses the recorded row operations for every
right-hand side.  Everything
here is integer-exact; fields and elements are immutable and safe to share
between threads once constructed.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    ConfigError,
    DegreeMismatch,
    FieldMismatch,
    NonPrime,
    ReducibleModulus,
    SolveFailed,
)

P_LIMIT = 1 << 15  # characteristic stays comfortably inside machine words
Q_LIMIT = 1 << 24  # enumeration-scale ceiling on the field size
TABLE_LIMIT = 1 << 16  # fields this small cache every element and use index tables
# Fields this small get their q x q rows (IndexOps.rows) as lists: 8 bytes
# an entry, 0.5 MB a table at q = 256, where every entry is one of CPython's
# cached small ints.  Larger fields get views that call the operations.
ROW_LIMIT = 256
# Bytes of one q x q int64 table of Field.index_tables: q = 2048 is the
# largest within it, well above the q <= 509 of any graph that
# graphs.graph_bytes fits in the default 2 GiB budget.
_TABLE_BYTES = 1 << 25


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3):
        if n % d == 0:
            return n == d
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _is_int(n) -> bool:
    """n is an int and not a bool: True would otherwise pass for 1."""
    return isinstance(n, int) and not isinstance(n, bool)


def _check_field_params(p, e, m=None) -> None:
    """Reject a characteristic or degree outside what GF(p^e) supports, and
    m < 1 when a number of maps m is given.  A bool is refused everywhere."""
    if not _is_int(p) or not is_prime(p):
        raise NonPrime(f"characteristic must be prime, got {p}")
    if p > P_LIMIT:
        raise NonPrime(f"characteristic {p} exceeds the supported bound {P_LIMIT}")
    if not _is_int(e) or e < 1:
        raise DegreeMismatch(f"extension degree must be a positive integer, got {e}")
    if p**e > Q_LIMIT:
        raise DegreeMismatch(f"field size {p}^{e} exceeds the supported bound {Q_LIMIT}")
    if m is not None and (not _is_int(m) or m < 1):
        raise ConfigError(f"need an integer m >= 1, got {m}")


def _modulus(p, e, modulus) -> tuple[int, ...]:
    """The modulus of GF(p^e), for GF and Field alike: p and e checked by
    _check_field_params, then default_modulus(p, e) when modulus is None,
    else its coefficients read by _integers and reduced mod p."""
    _check_field_params(p, e)
    if modulus is None:
        return default_modulus(p, e)
    return tuple(c % p for c in _integers(modulus, "a modulus"))


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints read through operator.index, so that 1.9
    or "1" is refused rather than truncated or parsed: ConfigError for
    anything else, a non-iterable included."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ConfigError(f"{what} must be a sequence of integers, got {values!r}") from None


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_p.  Coefficient lists are low-degree-first
# and trimmed (no trailing zeros except for the zero polynomial [0]).

def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _pmul(a, b, p):
    if a == [0] or b == [0]:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a, b, p):
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [0], a
    inv = pow(b[-1], p - 2, p)
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _trim(q), _trim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b != [0]:
        a, b = b, _pmod(a, b, p)
    if a != [0] and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a, k, f, p):
    result = [1]
    base = _pmod(a, f, p)
    while k:
        if k & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        k >>= 1
    return result


def _pinvmod(a, f, p):
    """Inverse of a modulo f; requires gcd(a, f) = 1."""
    r0, s0 = _trim([c % p for c in f]), [0]
    r1, s1 = _trim([c % p for c in a]), [1]
    if r1 == [0]:
        raise ZeroDivisionError("division by zero in GF(p^e)")
    while r1 != [0]:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], p - 2, p)
    return _pmod([(x * c) % p for x in s0], f, p)


def is_irreducible(coeffs, p) -> bool:
    """Exact irreducibility over F_p for a monic polynomial of degree >= 1.

    Rabin's criterion at every degree n: x^(p^n) = x mod f together with
    gcd(x^(p^(n/r)) - x, f) = 1 for every prime r dividing n.
    """
    f = _trim([c % p for c in coeffs])
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if n == 1:
        return True
    if f[0] == 0:
        return False
    frob = {}
    g = [0, 1]
    for d in range(1, n + 1):
        g = _ppowmod(g, p, f, p)
        frob[d] = g
    if _psub(frob[n], [0, 1], p) != [0]:
        return False
    for r in prime_divisors(n):
        h = _psub(frob[n // r], [0, 1], p)
        if len(_pgcd(h, f, p)) > 1:
            return False
    return True


# Conway polynomials, low-degree-first including the leading 1.  Regenerate
# with scripts/gen_conway_table.py; entries are checked for irreducibility at
# field construction and for primitivity in the test suite.
CONWAY_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (5, 5): (3, 4, 0, 0, 0, 1),
    (5, 6): (2, 0, 1, 4, 1, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
    (7, 5): (4, 1, 0, 0, 0, 1),
    (7, 6): (3, 6, 4, 5, 1, 0, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (11, 3): (9, 2, 0, 1),
    (11, 4): (2, 10, 8, 0, 1),
    (11, 5): (9, 0, 10, 0, 0, 1),
    (11, 6): (2, 7, 6, 4, 3, 0, 1),
}


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """The Conway polynomial when tabulated, else the lexicographically
    smallest monic irreducible of degree e (coefficients low-degree-first),
    searched once per (p, e): GF() looks it up on every call."""
    hit = CONWAY_TABLE.get((p, e))
    if hit is not None:
        return hit
    for tail in itertools.product(range(p), repeat=e):
        cand = (*tail, 1)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found; unreachable")


def _coords(i: int, p: int, e: int) -> list[int]:
    """The coordinate vector of the element of index i: its base-p digits."""
    out = []
    for _ in range(e):
        i, c = divmod(i, p)
        out.append(c)
    return out


def _index(coeffs, p: int) -> int:
    """The canonical index of a coordinate vector, trailing zeros optional."""
    i = 0
    for c in reversed(coeffs):
        i = i * p + c
    return i


def _binary(name: str, swap: bool = False):
    """A FieldElement operator: IndexOps.<name> on the two indices, swapped
    for a reflected operator; NotImplemented for an operand _coerce refuses."""
    get = operator.attrgetter(name)

    def apply(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        F = self.field
        op = get(F._ops or F.ops())
        return F._elt_at(op(b, self.index) if swap else op(self.index, b))

    return apply


class FieldElement:
    """An element of GF(p^e), held as its canonical index: the coordinate
    vector over F_p read as a base-p integer with the low basis coordinate
    least significant.  coeffs derives the coordinate tuple on read.

    The operators are shells over the field's IndexOps: each coerces its
    operand to an index, computes on the two indices and returns the element
    at the result, one of the field's cached elements when q <= TABLE_LIMIT.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        F = self.field
        return tuple(_coords(self.index, F.p, F.e))

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return self.index != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.index == other.index and (
            self.field is other.field or self.field == other.field
        )

    def __hash__(self):
        return hash(self.index)

    def __repr__(self) -> str:
        return _fmt_poly(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> int | None:
        """The index of other in this element's field: an element of the
        field, or an integer through the prime subfield; None otherwise."""
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other.index
            raise FieldMismatch(
                f"cannot mix elements of {self.field!r} and {other.field!r}"
            )
        if isinstance(other, int):
            return other % self.field.p  # n * 1 has index n mod p
        return None

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __rsub__ = _binary("sub", swap=True)
    __mul__ = __rmul__ = _binary("mul")
    __truediv__ = _binary("div")
    __rtruediv__ = _binary("div", swap=True)

    def __neg__(self):
        F = self.field
        return F._elt_at((F._ops or F.ops()).sub(0, self.index))

    def __pow__(self, k: int):
        F = self.field
        return F._elt_at((F._ops or F.ops()).pow(self.index, k))


def _fmt_poly(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
    return " + ".join(terms) if terms else "0"


class Field:
    """GF(p^e) with a fixed monic irreducible modulus.

    Its arithmetic, with the index tables and cached elements when q <=
    TABLE_LIMIT, is one IndexOps built on first use (ops()).
    """

    __slots__ = ("p", "e", "q", "modulus", "basis", "zero", "one", "_ops", "_hash")

    def __init__(self, p: int, e: int = 1, modulus=None):
        modulus = _modulus(p, e, modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise DegreeMismatch(f"modulus must be monic of degree {e}, got coefficients {modulus}")
        if not is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {modulus} factors over F_{p}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._hash = hash((p, e, modulus))
        self._ops = None
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.basis = tuple(FieldElement(self, p**i) for i in range(e))

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of a * b: the polynomial product modulo the modulus."""
        prod = _pmulmod(a, b, self.modulus, self.p)
        return tuple(prod) + (0,) * (self.e - len(prod))

    # -- constructors --------------------------------------------------------

    def from_int(self, n: int) -> FieldElement:
        """Embed an integer through the prime subfield: n -> (n mod p) * 1."""
        return self.from_index(n % self.p)

    def from_index(self, i: int) -> FieldElement:
        if not 0 <= i < self.q:
            raise ValueError(f"element index {i} outside [0, {self.q})")
        return self._elt_at(i)

    def _elt_at(self, i: int) -> FieldElement:
        """The element of index i in [0, q): the cached one when q <=
        TABLE_LIMIT, else a new one."""
        elts = (self._ops or self.ops()).elts
        return FieldElement(self, i) if elts is None else elts[i]

    def ops(self) -> "IndexOps":
        """The field's scalar operations on canonical indices, built on first
        use."""
        if self._ops is None:
            self._ops = IndexOps(self)
        return self._ops

    def index_tables(self):
        """(mul, sub): q x q int64 arrays of canonical indices, mul[a, b] the
        index of a * b and sub[a, b] that of a - b, as _mul_sub builds them
        from the log and antilog lists.  BudgetExceeded, before
        anything is built, when one table would pass _TABLE_BYTES (so q is
        always within TABLE_LIMIT)."""
        import numpy as np

        if 8 * self.q**2 > _TABLE_BYTES:
            raise BudgetExceeded(f"a {self.q} x {self.q} index table exceeds {_TABLE_BYTES} bytes")
        ops = self._ops or self.ops()
        return tuple(t.astype(np.int64) for t in _mul_sub(self.p, self.e, ops.exp, ops.log))

    def elements(self):
        """All field elements in canonical index order."""
        for i in range(self.q):
            yield self.from_index(i)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class IndexOps:
    """The scalar arithmetic of one field, on canonical element indices:
    add(a, b), sub(a, b), mul(a, b), div(a, b), inv(a), pow(a, k) and
    frob(a, k) = a^(p^k), each taking and returning ints in [0, q).  It is
    the field's one arithmetic: FieldElement's operators, the elimination
    and the per-pair routes all run on it.

    With q <= TABLE_LIMIT the operations read log, antilog and Zech lists,
    O(q) memory, built with the object (_tabled), which also keeps exp, log
    and the field's cached elements elts.  Above it those three are None and
    the operations decode the indices to coordinate vectors, run the
    coefficient arithmetic (Field._mul, _pinvmod) and encode the result.
    That coefficient arithmetic is the oracle the tables are tested against.
    In characteristic 2 an index is the coordinate vector as a bit mask, so
    add and sub are XOR in any field.

    The per-pair routes read the same operations as q x q rows (rows()),
    built on first use: lists when q <= ROW_LIMIT, views that call these
    operations above it."""

    __slots__ = (
        "add", "sub", "mul", "div", "inv", "pow", "frob", "exp", "log", "elts", "field", "_rows"
    )

    def __init__(self, F: Field):
        self.exp = self.log = self.elts = self._rows = None
        self.field = F
        if F.q > TABLE_LIMIT:
            self._coefficient(F)
        else:
            self._tabled(F)
        if F.p == 2:
            self.add = self.sub = operator.xor
        mul, inv = self.mul, self.inv
        self.div = lambda a, b: mul(a, inv(b))

    def _tabled(self, F: Field) -> None:
        """The lists, built once.  g is the first primitive element in the
        order t, 1, 2, ..., q - 1.  The powers of g come from the coordinates
        of g^0 = 1 by repeated doubling: the block g^k..g^(2k-1) is the block
        g^0..g^(k-1) times the matrix of multiplication by g^k, whose square
        gives the next one.  The build then certifies itself: those powers
        must hit every nonzero index exactly once.

        exp[i] = g^i over two periods, log[a] = log_g of the element of index
        a != 0, zech[d] = log_g(1 + g^d) (None where that is zero) over two
        periods, and neg = log_g(-1).  So a * b = g^(la + lb), a + b = g^la
        (1 + g^(lb - la)) and -b = g^(lb + neg); every sum or difference of
        logs below indexes a list directly, negative or not."""
        import numpy as np

        p, e, q = F.p, F.e, F.q
        order = q - 1
        self.elts = list(map(FieldElement, itertools.repeat(F), range(q)))

        g = next(
            c for c in ([F.basis[1]] if e > 1 else []) + self.elts[1:]
            if all(_ppowmod(list(c.coeffs), order // r, list(F.modulus), p) != [1]
                   for r in prime_divisors(order))
        )
        step = np.array([F._mul(g.coeffs, b.coeffs) for b in F.basis]).T
        place = p ** np.arange(e)
        powers = np.zeros((order, e), dtype=np.int64)  # row i: coordinates of g^i
        powers[0, 0] = 1
        k = 1
        while k < order:
            n = min(k, order - k)
            powers[k : k + n] = powers[:n] @ step.T % p
            step = step @ step % p
            k *= 2
        exp = powers @ place
        if not (np.bincount(exp, minlength=q) == np.arange(q).clip(max=1)).all():
            raise SolveFailed(f"powers of {g!r} miss nonzero elements of {F!r}")
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(order)
        # the index of 1 + x is x's index with the low digit stepped mod p
        zech = log[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)].tolist()

        self.exp = exp = exp.tolist() * 2
        self.log = log = log.tolist()
        neg = log[p - 1]  # index p - 1 is the element -1
        zech[neg] = None  # 1 + g^d = 0 exactly when g^d = -1
        zech *= 2
        frob = tuple(pow(p, k, order) for k in range(e))

        def add(a, b):
            if not (a and b):
                return a or b
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else exp[la + z]

        def sub(a, b):
            if not b:
                return a
            lb = log[b] + neg
            if not a:
                return exp[lb]
            la = log[a]
            z = zech[lb - la]
            return 0 if z is None else exp[la + z]

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            if not a:
                raise ZeroDivisionError("division by zero in " + repr(F))
            return exp[order - log[a]]

        def power(a, k):
            if a:
                return exp[log[a] * k % order]
            if k < 0:
                raise ZeroDivisionError("division by zero in " + repr(F))
            return 0 if k else 1

        def frob_k(a, k):
            return exp[log[a] * frob[k % e] % order] if a else 0

        self.add, self.sub, self.mul, self.inv, self.pow, self.frob = (
            add, sub, mul, inv, power, frob_k
        )

    def rows(self) -> "Rows":
        """The field's operations as Rows, built on the first call and kept.
        When q <= ROW_LIMIT, mul and sub are the _mul_sub arrays as lists and
        add[a][b] = sub[a][0 - b]; above it the three are _Table views of the
        calls.  frob is _map_rows of frob either way."""
        if self._rows is None:
            F = self.field
            if F.q <= ROW_LIMIT:
                mul, sub = _mul_sub(F.p, F.e, self.exp, self.log)
                add = None if F.p == 2 else sub[:, sub[0]].tolist()
                mul, sub = mul.tolist(), sub.tolist()
            else:
                mul, sub, add = _Table(self.mul), _Table(self.sub), _Table(self.add)
            self._rows = Rows(sub if F.p == 2 else add, sub, mul, _map_rows(F.q, self.frob, F.e))
        return self._rows

    def _coefficient(self, F: Field) -> None:
        p, e, modulus = F.p, F.e, list(F.modulus)

        def add(a, b):
            return _index([(x + y) % p for x, y in zip(_coords(a, p, e), _coords(b, p, e))], p)

        def sub(a, b):
            return _index([(x - y) % p for x, y in zip(_coords(a, p, e), _coords(b, p, e))], p)

        def mul(a, b):
            return _index(F._mul(_coords(a, p, e), _coords(b, p, e)), p)

        def inv(a):
            if not a:
                raise ZeroDivisionError("division by zero in " + repr(F))
            return _index(_pinvmod(_coords(a, p, e), modulus, p), p)

        def power(a, k):
            if k < 0:
                a, k = inv(a), -k
            if not k:
                return 1
            # left to right from the top bit: one squaring per lower bit
            x = a
            for bit in bin(k)[3:]:
                x = mul(x, x)
                if bit == "1":
                    x = mul(x, a)
            return x

        def frob_k(a, k):
            return power(a, p ** (k % e))

        self.add, self.sub, self.mul, self.inv, self.pow, self.frob = (
            add, sub, mul, inv, power, frob_k
        )


class Rows(NamedTuple):
    """The operations of a field as q x q rows of canonical indices:
    add[a][b], sub[a][b] and mul[a][b] index a + b, a - b and a * b, and
    frob[k][x] indexes x^(p^k) for 0 <= k < e; in characteristic 2, add is
    sub.  Nested lists when q <= ROW_LIMIT, where every entry is a cached
    small int and a q x q table holds 8 bytes an entry; views that call
    IndexOps above it."""

    add: list
    sub: list
    mul: list
    frob: list


class _Row:
    """row[b] = op(a, b): row a of a _Table."""

    __slots__ = ("op", "a")

    def __init__(self, op, a: int):
        self.op, self.a = op, a

    def __getitem__(self, b: int) -> int:
        return self.op(self.a, b)


class _MapRow(_Row):
    """row[x] = op(x, a): the map x -> op(x, a) with its second argument
    held, as IndexOps.frob and FamilySpec.f_index take their map number."""

    __slots__ = ()

    def __getitem__(self, x: int) -> int:
        return self.op(x, self.a)


class _Table:
    """table[a][b] = op(a, b): a q x q operation table as a view, for
    fields past ROW_LIMIT."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __getitem__(self, a: int) -> _Row:
        return _Row(self.op, a)


def _map_rows(q: int, op, count: int) -> list:
    """rows[k][x] = op(x, k) for 0 <= k < count and x in [0, q): lists when
    q <= ROW_LIMIT, _MapRow views above it."""
    if q > ROW_LIMIT:
        return [_MapRow(op, k) for k in range(count)]
    return [[op(x, k) for x in range(q)] for k in range(count)]


def _mul_sub(p: int, e: int, exp, log):
    """The q x q arrays (mul, sub) of GF(p^e) from the antilog list exp (two
    periods) and the log list: mul[a, b] = exp[log[a] + log[b]], 0 in row
    and column 0, and sub[a, b] the index of a - b, summed digit by digit
    over the base-p digits of the indices.  Both are built in uint8/uint16
    and int16 arrays, which hold every index and log sum up to q = 2048
    (the index tables' bound): no q x q int64 temporary."""
    import numpy as np

    q = p**e
    exp, log = np.array(exp, dtype=np.min_scalar_type(q - 1)), np.array(log, dtype=np.int16)
    mul = exp[log[:, None] + log]
    mul[0] = mul[:, 0] = 0
    digits = np.arange(q, dtype=np.int16) // p ** np.arange(e, dtype=np.int16)[:, None] % p
    return mul, sum((d[:, None] - d) % p * p**j for j, d in enumerate(digits))


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, e: int, modulus: tuple[int, ...]) -> Field:
    return Field(p, e, modulus)


def GF(p: int, e: int = 1, modulus=None) -> Field:
    """Construct (and cache) GF(p^e).

    The modulus defaults to the Conway polynomial where tabulated and to the
    lexicographically smallest monic irreducible otherwise, so repeated calls
    return the identical object.
    """
    return _cached_field(p, e, _modulus(p, e, modulus))


# ---------------------------------------------------------------------------
# Exact linear algebra over F_p, by the elimination below run over GF(p).

def _mod_p(p: int, values) -> list[int]:
    """Integers read by _integers (ConfigError for 1.5), reduced into
    [0, p): an entry of [0, p) is its own GF(p) element index."""
    return [c % p for c in _integers(values, "an F_p matrix row or right-hand side")]


def fp_rank_kernel(p: int, rows) -> tuple[int, list[tuple[int, ...]]]:
    """Rank and a deterministic kernel basis of the linear map v -> M v, for
    the matrix M over F_p with these integer rows."""
    F = GF(p)
    work = _index_matrix(F, [_mod_p(p, r) for r in rows])
    nc = len(work[0]) if work else 0
    pivots = _fq_rref(F.ops(), work, nc)
    kernel = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [0] * nc
        v[free] = 1
        for row, pc in zip(work, pivots):
            v[pc] = -row[free] % p
        kernel.append(tuple(v))
    return len(pivots), kernel


def fp_solve(p: int, rows, b) -> tuple[int, ...] | None:
    """One solution of M x = b over F_p, for integer rows and right-hand
    side, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    x = fq_solve(GF(p), [_mod_p(p, r) for r in rows], _mod_p(p, b))
    return None if x is None else tuple(x)


# ---------------------------------------------------------------------------
# Exact Gaussian elimination over an arbitrary GF(p^e) (used for Moore-type
# systems, for function-rank computations and, over GF(p), for F_p matrices),
# on canonical element indices with the field's IndexOps.  A solve checks and
# eliminates each coefficient matrix once (_reduction) and applies the
# recorded row operations to each right-hand side.

# Reductions kept by _reduction: the package solves one matrix per field and
# m (the Moore matrix of metrics._moore_solve), as many as _moore_matrix
# caches.
_REDUCTIONS = 64


def _fq_rref(ops: IndexOps, rows: list[list[int]], nc: int) -> list[int]:
    """In-place reduced row echelon form, on the first nc columns, of rows of
    element indices; row operations span whole rows.  Returns the pivot
    column list."""
    mul, sub = ops.mul, ops.sub
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ops.inv(rows[r][c])
        rows[r] = [mul(v, inv) for v in rows[r]]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub(vi, mul(f, vr)) for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def _index_matrix(field: Field, rows) -> list[list[int]]:
    """A copy of rows as lists, ValueError unless the rows have one length
    and every entry is an element index of field: an int in [0, q)."""
    out = [list(r) for r in rows]
    if any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    q = field.q
    if not all(isinstance(v, int) and 0 <= v < q for r in out for v in r):
        raise ValueError(f"matrix entries must be element indices in [0, {q})")
    return out


@functools.lru_cache(maxsize=_REDUCTIONS)
def _reduction(field: Field, arith, rows: tuple[tuple[int, ...], ...]):
    """(pivots, E) for the matrix A of index rows, checked by _index_matrix:
    _fq_rref of [A | I], whose identity block ends as E, the product of the
    row operations, so that E A is the reduced form.  Those operations
    depend on A alone, so E b is the column _fq_rref of [A | b] ends with.
    Cached per field and matrix, so a matrix is checked once, and one that
    fails raises on every call; the key holds arith = (mul, sub, inv), the
    operations the elimination reads, so a reduction made while one of them
    is replaced is never read back."""
    aug = _index_matrix(field, rows)
    nr, nc = len(aug), len(aug[0]) if aug else 0
    for i, row in enumerate(aug):
        row += [int(i == j) for j in range(nr)]
    pivots = _fq_rref(field.ops(), aug, nc)
    return tuple(pivots), tuple(tuple(row[nc:]) for row in aug)


def fq_solve(field: Field, rows, rhs) -> list[int] | None:
    """One solution of A x = rhs over the field, free variables zero, or
    None if inconsistent, all on element indices: ValueError for a matrix
    _index_matrix refuses, or unless rhs has one index in [0, q) per row.

    y = E rhs for the cached reduction (pivots, E) of A, read from the
    field's rows (IndexOps.rows): a nonzero y past the rank makes
    the system inconsistent, and y gives the pivot variables.  The cache
    compares matrices by value, and 1.0 == 1, so the entries' type is
    checked on every call and their range once."""
    q = field.q
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length mismatch")
    for b in rhs:
        if not (isinstance(b, int) and 0 <= b < q):
            raise ValueError(f"right-hand side entries must be element indices in [0, {q})")
    key = tuple(map(tuple, rows))
    for row in key:
        for v in row:
            if not isinstance(v, int):
                raise ValueError(f"matrix entries must be element indices in [0, {q})")
    ops = field.ops()
    pivots, E = _reduction(field, (ops.mul, ops.sub, ops.inv), key)
    tables = ops.rows()
    add, mul = tables.add, tables.mul
    y = []
    for row in E:
        acc = 0
        for c, b in zip(row, rhs):
            acc = add[acc][mul[c][b]]
        y.append(acc)
    if any(y[len(pivots):]):
        return None
    x = [0] * (len(rows[0]) if rows else 0)
    for pc, v in zip(pivots, y):
        x[pc] = v
    return x


def fq_rank(field: Field, rows) -> int:
    """Rank over the field of a matrix of element indices (_index_matrix)."""
    work = _index_matrix(field, rows)
    return len(_fq_rref(field.ops(), work, len(work[0]) if work else 0))
