"""Bipartite point-line graphs over GF(p^e).

A point P = (p_1, ..., p_(m+1)) and a line L = [l_1, ..., l_(m+1)] are
adjacent when

    l_k + p_k = f_k(p_1) * l_1   for k = 2, ..., m+1,

so each side is q-regular: fixing P, every choice of l_1 determines the rest
of L, and symmetrically for lines.  The family maps f_k select the graph:
"linearized" uses Frobenius monomials x^(p^(k-2)), "wenger" uses plain powers
x^(k-1), and "custom" takes explicit coefficient vectors over the field.
"""

from __future__ import annotations

import functools
import json
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import BudgetExceeded, ConfigError, FieldMismatch, OutOfRange
from .fields import GF, Field, FieldElement, _check_field_params, _coords, _index, _integers

FAMILIES = ("linearized", "wenger", "custom")
DEFAULT_BYTE_BUDGET = 2 << 30  # the graph_bytes(spec) a Graph may reach by default
# Graph.materialize gathers this many bytes of rows at a time, which bounds
# each of its temporaries at any n.
_GATHER_BYTES = 32 << 20
# The layout and automorphism certificates read rows in blocks whose gather
# indices take this many bytes: cache-sized, within graph_bytes' fixed 4 MiB.
_CERTIFY_BYTES = 1 << 20


@dataclass(frozen=True)
class FamilySpec:
    """Parameters that pin down one graph: field, number of coordinates, and
    the family of maps f_2, ..., f_(m+1).

    For the custom family, f_indices holds one coefficient vector per map,
    each coefficient recorded by its canonical element index so the spec stays
    hashable and serializable.
    """

    p: int
    e: int
    m: int
    family: str = "linearized"
    modulus: tuple[int, ...] | None = None
    f_indices: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        _check_field_params(self.p, self.e, self.m)
        # built eagerly so bad parameters fail here; its reduced modulus, the
        # default included, makes the specs of one field equal
        object.__setattr__(self, "modulus", self.field.modulus)
        q = self.field.q
        if self.family == "custom":
            polys = self.f_indices if isinstance(self.f_indices, Iterable) else ()
            f_indices = tuple(_integers(poly, "a custom coefficient vector") for poly in polys)
            if len(f_indices) != self.m:
                raise ConfigError("custom family needs one coefficient vector per map")
            if any(not 0 <= c < q for poly in f_indices for c in poly):
                raise ConfigError(f"custom coefficients must be element indices in [0, {q})")
            object.__setattr__(self, "f_indices", f_indices)
        elif self.f_indices is not None:
            raise ConfigError("f_indices is only meaningful for the custom family")

    @functools.cached_property
    def field(self) -> Field:
        return GF(self.p, self.e, self.modulus)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_vertices(self) -> int:
        return 2 * self.q ** (self.m + 1)

    @property
    def n_edges(self) -> int:
        return self.q ** (self.m + 2)

    @functools.cached_property
    def f_index(self):
        """The maps' one definition: f_index(x, j) is the index of f_(j+2)(x)
        for indices x in [0, q) and 0 <= j < m.  IndexOps.frob itself for the
        linearized family, x^(j+1) for Wenger, Horner's rule for custom."""
        ops = self.field.ops()
        if self.family == "linearized":
            return ops.frob
        if self.family == "wenger":
            return lambda x, j: ops.pow(x, j + 1)
        add, mul, polys = ops.add, ops.mul, self.f_indices

        def horner(x, j):
            acc = 0
            for c in reversed(polys[j]):
                acc = add(mul(acc, x), c)
            return acc

        return horner

    def f_eval(self, k: int, x: FieldElement) -> FieldElement:
        """f_k(x) by f_index, for 2 <= k <= m+1 and x in spec.field."""
        if not 2 <= k <= self.m + 1:
            raise ValueError(f"family index {k} outside [2, {self.m + 1}]")
        F = self.field
        if not (isinstance(x, FieldElement) and (x.field is F or x.field == F)):
            raise FieldMismatch(f"f_eval takes an element of {F!r}, got {x!r}")
        return F._elt_at(self.f_index(x.index, k - 2))

    def f_values(self, x: FieldElement) -> tuple[FieldElement, ...]:
        return tuple(self.f_eval(k, x) for k in range(2, self.m + 2))

    @functools.cached_property
    def theta_injective(self) -> bool:
        return len(set(zip(*_f_table(self).tolist()))) == self.q

    # -- construction helpers -------------------------------------------------

    @classmethod
    def linearized(cls, p: int, e: int, m: int, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "linearized", modulus)

    @classmethod
    def wenger(cls, p: int, e: int, m: int, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "wenger", modulus)

    @classmethod
    def custom(cls, p: int, e: int, m: int, f_indices, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "custom", modulus, f_indices)

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "e": self.e,
            "m": self.m,
            "family": self.family,
            "modulus": list(self.field.modulus),
        }
        if self.family == "custom":
            out["f_list"] = [list(poly) for poly in self.f_indices]
        return out


@dataclass(frozen=True)
class Point:
    coords: tuple[FieldElement, ...]

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class Line:
    coords: tuple[FieldElement, ...]

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coords) + "]"


def _check_vertex(spec: FamilySpec, v) -> tuple[int, ...]:
    """The index coordinates of v, read in the same pass that checks it:
    TypeError unless v is a Point or Line, ValueError unless it has m+1
    coordinates, all elements of spec.field."""
    if not isinstance(v, (Point, Line)):
        raise TypeError(f"expected a Point or Line, got {type(v).__name__}")
    F = spec.field
    coords = v.coords
    out = tuple([
        c.index for c in coords if isinstance(c, FieldElement) and (c.field is F or c.field == F)
    ])
    if len(out) != spec.m + 1 or len(coords) != len(out):
        raise ValueError(f"{v!r} is not a vertex over {F!r} with {spec.m + 1} coordinates")
    return out


def _vertex(F: Field, coords, point: bool) -> Point | Line:
    """The Point or Line with these index coordinates: the one place the
    package turns indices into vertices.  Field._elts_at reads them
    unchecked, as digits already in [0, q)."""
    return (Point if point else Line)(tuple(F._elts_at(coords)))


def adjacent(spec: FamilySpec, P: Point, L: Line) -> bool:
    """The m defining equations l_k + p_k = f_k(p_1) l_1."""
    p1, l1 = P.coords[0], L.coords[0]
    for k in range(2, spec.m + 2):
        if L.coords[k - 1] + P.coords[k - 1] != spec.f_eval(k, p1) * l1:
            return False
    return True


def point_through(spec: FamilySpec, L: Line, p1: FieldElement) -> Point:
    """The unique neighbor of L with first coordinate p1."""
    l1 = L.coords[0]
    coords = [p1]
    for k in range(2, spec.m + 2):
        coords.append(spec.f_eval(k, p1) * l1 - L.coords[k - 1])
    return Point(tuple(coords))


def line_through(spec: FamilySpec, P: Point, l1: FieldElement) -> Line:
    """The unique neighbor of P with first coordinate l1."""
    p1 = P.coords[0]
    coords = [l1]
    for k in range(2, spec.m + 2):
        coords.append(spec.f_eval(k, p1) * l1 - P.coords[k - 1])
    return Line(tuple(coords))


def graph_bytes(spec: FamilySpec) -> int:
    """Peak bytes (tracemalloc, pinned by the tests) held for spec's graph:
    its (n, q) int32 array, the most per vertex that materialize or the BFS
    sweep adds, index tables and 4 MiB of certificate blocks."""
    n, q, m = spec.n_vertices, spec.q, spec.m
    extra = max(4 * (q + m + 1), 2 * (m + 1) + 40)
    return n * (4 * q + extra) + 32 * q * q + (4 << 20)


def _f_table(spec: FamilySpec, dtype=None):
    """(m, q) array whose row j holds f_index(x, j), the index of
    f_(j+2)(x), for every element index x."""
    import numpy as np

    f = spec.f_index
    return np.array([[f(x, j) for x in range(spec.q)] for j in range(spec.m)], dtype=dtype)


def _digits(ids, q: int, width: int):
    """The one array decode of vertex ids: a (width, len(ids)) array in ids'
    dtype, row j holding ids // q^j % q, coordinate j of each id; a line id
    decodes to its own coordinates, its side digit being past width."""
    import numpy as np

    return ids // q ** np.arange(width, dtype=ids.dtype)[:, None] % q


def _gather(out, tables, f, own, x, point: bool) -> None:
    """The rule as gathers, written in place into out: the ids of the
    neighbours with first coordinate x of the vertices with coordinates own
    (_digits), points if point; own[j] and x broadcast to out's shape.
    Coordinate k is f_k(p_1) l_1 - own_k, (p_1, l_1) being (own_1, x) for a
    point and (x, own_1) for a line, gathered from tables = (mul, sub), the
    field's index tables, and f = _f_table; each term is gathered from sub
    scaled by q^k, so every temporary has out's shape or is q x q."""
    mul, sub = tables
    q, width = len(mul), len(own)
    p1, l1 = (own[0], x) if point else (x, own[0])
    out[:] = x + q**width if point else x
    for k in range(1, width):
        out += (sub * q**k)[mul[f[k - 1][p1], l1], own[k]]


class Graph:
    """One constructed graph.  Vertices are addressable either as
    Point/Line objects or as integer ids:

        id = side * q^(m+1) + sum_j index(v_(j+1)) * q^j,   point side = 0.

    Lazy graphs answer neighbor queries by solving the adjacency equations.
    materialize() stores the one materialized form, an (n, q) array of
    neighbour ids whose row v is neighbor_ids(v).  Every reader in the
    package, the walk trace, the layout certificate and the BFS metrics
    included, reads that array and nothing else.
    """

    def __init__(self, spec: FamilySpec, byte_budget: int = DEFAULT_BYTE_BUDGET):
        self.spec = spec
        self.byte_budget = byte_budget
        self._nbrs = None
        self._layout = None  # the array's layout certificate (layout_certificate)
        self._orbits = None  # the array's certified orbits (metrics._orbits)
        self._bfs = None  # the metrics' BFS record (metrics._sweep)

    # -- size ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n_vertices

    @property
    def n_edges(self) -> int:
        return self.spec.n_edges

    @functools.cached_property
    def half(self) -> int:
        """Vertices per side, cached for the codec."""
        return self.spec.q ** (self.spec.m + 1)

    # -- id codec -------------------------------------------------------------

    def encode(self, v: Point | Line) -> int:
        own = _check_vertex(self.spec, v)
        return _index(own, self.spec.q) + (self.half if isinstance(v, Line) else 0)

    def _check_id(self, vid: int) -> None:
        if isinstance(vid, bool):
            raise TypeError("a vertex id must be an integer, not a bool")
        if not 0 <= operator.index(vid) < 2 * self.half:  # TypeError unless an integer
            raise OutOfRange(f"vertex id {vid} outside [0, {self.n})")

    def decode(self, vid: int) -> Point | Line:
        self._check_id(vid)
        side, local = divmod(vid, self.half)
        F = self.spec.field
        return _vertex(F, _coords(local, F.q, self.spec.m + 1), not side)

    # -- neighbors ------------------------------------------------------------

    def neighbor_ids(self, vid: int) -> list[int]:
        """All q neighbours of vertex vid, ordered by the canonical index of
        their first coordinate."""
        self._check_id(vid)
        if self._nbrs is not None:
            return self._nbrs[vid].tolist()
        v = self.decode(vid)
        through = line_through if isinstance(v, Point) else point_through
        return [self.encode(through(self.spec, v, x)) for x in self.spec.field.elements()]

    # -- materialization --------------------------------------------------------

    @property
    def materialized(self) -> bool:
        return self._nbrs is not None

    def materialize(self) -> "Graph":
        """Fill the (n, q) neighbour array, each row in neighbor_ids order.

        Both sides share one formula, _gather of the block's coordinates
        (_digits) with x = every first coordinate.  The rows are gathered a
        block at a time, and each block's (rows, q) gathers and (m + 1, rows)
        coordinate digits stay within _GATHER_BYTES.

        BudgetExceeded, before anything is allocated, past the byte budget
        (graph_bytes) or at 2^31 array entries (int32 ids and flat indices)."""
        if self._nbrs is not None:
            return self
        spec = self.spec
        q, m, half = spec.q, spec.m, self.half
        need = graph_bytes(spec)
        if need > self.byte_budget:
            raise BudgetExceeded(f"graph needs {need} bytes, over the byte budget {self.byte_budget}")
        if self.n * q >= 2**31:
            raise BudgetExceeded(f"the ({self.n}, {q}) array has 2^31 entries or more, past int32")
        import numpy as np

        dtype = np.int32
        tables = tuple(t.astype(dtype) for t in spec.field.index_tables())
        f = _f_table(spec, dtype)
        x = np.arange(q, dtype=dtype)
        nbrs = np.empty((self.n, q), dtype=dtype)
        rows = max(1, _GATHER_BYTES // (max(q, m + 1) * nbrs.itemsize))
        for start in range(0, half, rows):
            stop = min(start + rows, half)
            own = _digits(np.arange(start, stop, dtype=dtype), q, m + 1)[:, :, None]
            for side in (0, 1):
                _gather(nbrs[side * half + start : side * half + stop], tables, f, own, x, not side)
        nbrs.flags.writeable = False  # so the records cached on the graph stay true
        self._nbrs = nbrs
        return self

    @property
    def adjacency(self):
        """The (n, q) neighbour array (read-only); materializes on first use."""
        self.materialize()
        return self._nbrs

    def csr(self):
        """The neighbour array as a scipy CSR matrix with int32 entries 0/1.

        No package code calls it: it stays only as a wrap point of the
        benchmark's tracer and as an oracle for the tests.  Its column
        indices are the array itself, not a copy, so building it is cheap;
        they keep the first-coordinate order of each row and are not
        sorted."""
        import numpy as np
        from scipy import sparse

        nbrs = self.adjacency
        indptr = np.arange(0, nbrs.size + 1, self.spec.q, dtype=nbrs.dtype)
        data = np.ones(nbrs.size, dtype=np.int32)
        return sparse.csr_matrix((data, nbrs.reshape(-1), indptr), shape=(self.n, self.n))

    # -- edge streaming -----------------------------------------------------------

    def edges(self):
        """All edges as (point id, line id) pairs, sorted, from graph.adjacency."""
        for pid, row in enumerate(self.adjacency[: self.half]):
            yield from ((pid, lid) for lid in sorted(row.tolist()))

    def meta_dict(self) -> dict:
        base = self.spec.to_json_dict()
        base.update(
            vertices=self.n,
            edges=self.n_edges,
            regular=self.spec.q,
            injective_theta=self.spec.theta_injective,
        )
        return base

    def __repr__(self):
        s = self.spec
        return f"Graph({s.family} p={s.p} e={s.e} m={s.m}, {self.n} vertices)"


_FAULTS = (
    "entries are not vertex ids",
    "rows are not listed by first coordinate",
    "vertices have a neighbour on their own side",
    "entries are not listed back by their neighbour",
)


class Layout(NamedTuple):
    """The counts of _certify_layout, all 0 on the arrays materialize builds."""

    stray: int  # entries outside [0, n)
    unordered: int  # rows not listed by first coordinate
    own_side: int  # vertices with a neighbour on their own side
    unlisted: int  # entries u of a row v whose own row does not list v

    def faults(self) -> list[str]:
        return [f"{count} {what}" for what, count in zip(_FAULTS, self) if count]


def _certify_rows(nbrs) -> int:
    """Rows per certificate block: their 8-byte gather indices fill _CERTIFY_BYTES."""
    return max(1, _CERTIFY_BYTES // (8 * nbrs.shape[1]))


def _certify_layout(nbrs) -> Layout:
    """The package's one layout test, on an (n, q) array of any n and q:
    ids in [0, n), then rows listed by first coordinate, no neighbour on the
    vertex's own side (points are ids [0, n/2)), and every entry listed
    back.  An id is congruent to its first coordinate mod q, so a row listed
    by first coordinate holds q distinct ids, and row u then lists v at
    column v mod q: one flat gather per block of _certify_rows, so no
    temporary outgrows a block.  The gathers need every id in range."""
    import numpy as np

    n, q = nbrs.shape
    counts = np.zeros(4, dtype=np.int64)
    ranged = nbrs.min() >= 0 and nbrs.max() < n
    flat, columns, rows = nbrs.reshape(-1), np.arange(q, dtype=nbrs.dtype), _certify_rows(nbrs)
    for lo in range(0, n, rows):
        block = nbrs[lo : lo + rows]
        if not ranged:
            counts[0] += np.count_nonzero((block < 0) | (block >= n))
            continue
        ids = np.arange(lo, lo + len(block), dtype=nbrs.dtype)[:, None]
        at = block.astype(np.intp)
        at *= q
        at += ids % q  # flat index of (u, v mod q) for each entry u of row v
        counts[1:] += (
            np.count_nonzero((block % q != columns).any(axis=1)),
            np.count_nonzero(((block >= n // 2) == (ids >= n // 2)).any(axis=1)),
            np.count_nonzero(np.take(flat, at) != ids),
        )
    return Layout(*counts.tolist())


def layout_certificate(graph) -> Layout:
    """_certify_layout of graph.adjacency, run once per graph and cached as
    graph._layout when the array is read-only, as a materialized one is."""
    cert = getattr(graph, "_layout", None)
    if cert is None:
        cert = _certify_layout(graph.adjacency)
        if not graph.adjacency.flags.writeable:
            graph._layout = cert
    return cert


def export(graph: Graph, fmt: str, sink) -> None:
    """Write the graph to a path or text file object.

    edgelist: one "u v" per line with u < v, lexicographically sorted,
    newline-terminated.  dimacs: "p edge N M" header then 1-indexed "e u v"
    lines.  json: the parameter/size summary as a JSON object, the one format
    that does not materialize the graph (under its byte budget).
    """
    if fmt not in ("edgelist", "dimacs", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt != "json":
        graph.materialize()  # before a path is opened, so a refusal leaves no file
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            export(graph, fmt, fh)
        return
    if fmt == "edgelist":
        for u, v in graph.edges():
            sink.write(f"{u} {v}\n")
    elif fmt == "dimacs":
        sink.write(f"p edge {graph.n} {graph.n_edges}\n")
        for u, v in graph.edges():
            sink.write(f"e {u + 1} {v + 1}\n")
    else:
        json.dump(graph.meta_dict(), sink, indent=2)
        sink.write("\n")
