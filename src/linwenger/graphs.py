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
from dataclasses import dataclass
from pathlib import Path

from .errors import BudgetExceeded, OutOfRange
from .fields import GF, Field, FieldElement

FAMILIES = ("linearized", "wenger", "custom")
DEFAULT_VERTEX_BUDGET = 2_000_000
# Graph.materialize gathers this many bytes of rows at a time, which bounds
# each of its temporaries at any n.
_GATHER_BYTES = 32 << 20
# The largest (n, q) neighbour array Graph.materialize allocates, whatever
# the vertex budget: the budgets bound bytes, the resource that runs out.
_ARRAY_BYTES = 2 << 30


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
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if self.modulus is not None:
            object.__setattr__(self, "modulus", tuple(int(c) for c in self.modulus))
        q = self.field.q  # construct eagerly so bad parameters fail here
        if self.family == "custom":
            if self.f_indices is None or len(self.f_indices) != self.m:
                raise ValueError("custom family needs one coefficient vector per map")
            f_indices = tuple(tuple(int(c) for c in poly) for poly in self.f_indices)
            if any(not 0 <= c < q for poly in f_indices for c in poly):
                raise ValueError(f"custom coefficients must be element indices in [0, {q})")
            object.__setattr__(self, "f_indices", f_indices)
        elif self.f_indices is not None:
            raise ValueError("f_indices is only meaningful for the custom family")

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
    def _f_elements(self) -> tuple[tuple[FieldElement, ...], ...] | None:
        if self.family != "custom":
            return None
        F = self.field
        return tuple(
            tuple(F.from_index(c) for c in poly) for poly in self.f_indices
        )

    def f_eval(self, k: int, x: FieldElement) -> FieldElement:
        """f_k(x) for 2 <= k <= m+1."""
        if not 2 <= k <= self.m + 1:
            raise ValueError(f"family index {k} outside [2, {self.m + 1}]")
        if self.family == "linearized":
            return x.frob(k - 2)
        if self.family == "wenger":
            return x ** (k - 1)
        acc = self.field.zero
        for c in reversed(self._f_elements[k - 2]):
            acc = acc * x + c
        return acc

    def f_values(self, x: FieldElement) -> tuple[FieldElement, ...]:
        return tuple(self.f_eval(k, x) for k in range(2, self.m + 2))

    @functools.cached_property
    def theta_injective(self) -> bool:
        seen = set()
        for u in self.field.elements():
            img = tuple(x.index for x in self.f_values(u))
            if img in seen:
                return False
            seen.add(img)
        return True

    # -- construction helpers -------------------------------------------------

    @classmethod
    def linearized(cls, p: int, e: int, m: int, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "linearized", modulus)

    @classmethod
    def wenger(cls, p: int, e: int, m: int, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "wenger", modulus)

    @classmethod
    def custom(cls, p: int, e: int, m: int, f_indices, modulus=None) -> "FamilySpec":
        return cls(p, e, m, "custom", modulus, tuple(tuple(x) for x in f_indices))

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

    side = "point"

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class Line:
    coords: tuple[FieldElement, ...]

    side = "line"

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coords) + "]"


def _check_vertex(spec: FamilySpec, v) -> None:
    """Raise unless v is a Point or Line of spec: m+1 coordinates, all
    elements of spec.field."""
    if not isinstance(v, (Point, Line)):
        raise TypeError(f"expected a Point or Line, got {type(v).__name__}")
    F = spec.field
    if len(v.coords) != spec.m + 1 or not all(
        isinstance(c, FieldElement) and (c.field is F or c.field == F) for c in v.coords
    ):
        raise ValueError(f"{v!r} is not a vertex over {F!r} with {spec.m + 1} coordinates")


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


def _f_table(spec: FamilySpec, dtype=None):
    """(m, q) array whose row k - 2 holds the index of f_k(x) for every
    element x, in index order."""
    import numpy as np

    elts = list(spec.field.elements())
    return np.array(
        [[spec.f_eval(k, x).index for x in elts] for k in range(2, spec.m + 2)], dtype=dtype
    )


class Graph:
    """One constructed graph.  Vertices are addressable either as
    Point/Line objects or as integer ids:

        id = side * q^(m+1) + sum_j index(v_(j+1)) * q^j,   point side = 0.

    Lazy graphs answer neighbor queries by solving the adjacency equations.
    materialize() stores the one materialized form, an (n, q) array of
    neighbour ids whose row v is neighbor_ids(v).  Every reader in the
    package, the walk trace, the structure check and the BFS metrics
    included, reads that array and nothing else.
    """

    def __init__(self, spec: FamilySpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET):
        self.spec = spec
        self.vertex_budget = vertex_budget
        self._nbrs = None
        self._bfs = None  # the metrics' BFS record (metrics._sweep)

    # -- size ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n_vertices

    @property
    def n_edges(self) -> int:
        return self.spec.n_edges

    @property
    def half(self) -> int:
        """Vertices per side."""
        return self.spec.q ** (self.spec.m + 1)

    # -- id codec -------------------------------------------------------------

    def encode(self, v: Point | Line) -> int:
        _check_vertex(self.spec, v)
        return self._id(v)

    def _id(self, v: Point | Line) -> int:
        """encode without the vertex check, for vertices the package built."""
        q = self.spec.q
        acc = 0
        for c in reversed(v.coords):
            acc = acc * q + c.index
        if isinstance(v, Line):
            acc += self.half
        return acc

    def _check_id(self, vid: int) -> None:
        if not 0 <= operator.index(vid) < self.n:  # TypeError unless an integer
            raise OutOfRange(f"vertex id {vid} outside [0, {self.n})")

    def decode(self, vid: int) -> Point | Line:
        self._check_id(vid)
        side, local = divmod(vid, self.half)
        F = self.spec.field
        coords = []
        for _ in range(self.spec.m + 1):
            coords.append(F.from_index(local % F.q))
            local //= F.q
        return Line(tuple(coords)) if side else Point(tuple(coords))

    # -- neighbors ------------------------------------------------------------

    def neighbor_ids(self, vid: int) -> list[int]:
        """All q neighbours of vertex vid, ordered by the canonical index of
        their first coordinate."""
        self._check_id(vid)
        if self._nbrs is not None:
            return self._nbrs[vid].tolist()
        v = self.decode(vid)
        through = line_through if isinstance(v, Point) else point_through
        return [self._id(through(self.spec, v, x)) for x in self.spec.field.elements()]

    # -- materialization --------------------------------------------------------

    @property
    def materialized(self) -> bool:
        return self._nbrs is not None

    def materialize(self) -> "Graph":
        """Fill the (n, q) neighbour array, each row in neighbor_ids order.

        Both sides share one formula: the neighbour with first coordinate x
        has k-th coordinate f_k(p_1) l_1 - (own k-th coordinate), where
        (p_1, l_1) is (own first, x) for a point and (x, own first) for a
        line.  Products and differences are gathered from the field's q x q
        index tables, and the f_k values come from _f_table.  The rows
        are gathered a block of at most _GATHER_BYTES at a time.

        BudgetExceeded, before anything is allocated, when n exceeds the
        vertex budget or the array would exceed _ARRAY_BYTES."""
        if self._nbrs is not None:
            return self
        if self.n > self.vertex_budget:
            raise BudgetExceeded(
                f"{self.n} vertices exceed the materialization budget {self.vertex_budget}"
            )
        q = self.spec.q
        if self.n * q * 4 > _ARRAY_BYTES:
            raise BudgetExceeded(
                f"the ({self.n}, {q}) int32 neighbour array needs {self.n * q * 4} bytes, "
                f"over the {_ARRAY_BYTES}-byte array budget"
            )
        import numpy as np

        spec = self.spec
        m, half = spec.m, self.half
        # the array budget keeps every id (< n) and index (< q) within int32,
        # so the gathers and their (block, q) temporaries use it too
        dtype = np.int32
        mul, sub = (t.astype(dtype) for t in spec.field.index_tables())
        f = _f_table(spec, dtype)
        x = np.arange(q, dtype=dtype)
        nbrs = np.empty((self.n, q), dtype=dtype)
        rows = max(1, _GATHER_BYTES // (q * nbrs.itemsize))
        for start in range(0, half, rows):
            stop = min(start + rows, half)
            own = (  # coordinate indices
                np.arange(start, stop, dtype=dtype)[:, None]
                // q ** np.arange(m + 1, dtype=dtype) % q
            )
            for side, (p1, l1) in enumerate(((own[:, :1], x), (x, own[:, :1]))):
                ids = nbrs[side * half + start : side * half + stop]
                ids[:] = x + (half if side == 0 else 0)
                for k in range(2, m + 2):
                    ids += (sub * q ** (k - 1))[mul[f[k - 2][p1], l1], own[:, k - 1 : k]]
        nbrs.flags.writeable = False  # csr() shares this memory
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
        """All edges as (point id, line id) pairs, sorted lexicographically."""
        for pid in range(self.half):
            yield from ((pid, lid) for lid in sorted(self.neighbor_ids(pid)))

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


def _own_side_rows(nbrs):
    """Boolean per row of an (n, q) neighbour array: does the vertex list a
    neighbour on its own side?  Points are ids [0, n/2) and lines [n/2, n).

    A point row is sound when its least entry is a line, a line row when its
    greatest is a point, so the test is one row reduction per side and makes
    no (n, q) temporary."""
    import numpy as np

    half = len(nbrs) // 2
    return np.concatenate(
        [nbrs[:half].min(axis=1, initial=half) < half, nbrs[half:].max(axis=1, initial=-1) >= half]
    )


def structure_faults(spec: FamilySpec, nbrs) -> list[str]:
    """What is wrong with an (n, q) neighbour array for spec; [] when sound:
    a row not listed by first coordinate, a neighbour on the vertex's own
    side, or an entry u of row v whose own row does not list v.

    Ids are congruent to their first coordinate mod q, so a row listed by
    first coordinate (entry j = j mod q) holds q distinct ids, and the
    array has 2 q^(m+2) nonzeros.  Row u then lists v at column v mod q,
    so the symmetry test is one gather, as in path_witnesses."""
    import numpy as np

    n, q = spec.n_vertices, spec.q
    if nbrs.shape != (n, q) or nbrs.min() < 0 or nbrs.max() >= n:
        return [f"array of shape {nbrs.shape} is not {n} rows of {q} ids in [0, {n})"]
    ids = np.arange(n)[:, None]
    counts = {
        "rows are not listed by first coordinate": (nbrs % q != np.arange(q)).any(axis=1).sum(),
        "vertices have a neighbour on their own side": _own_side_rows(nbrs).sum(),
        "entries are not listed back by their neighbour": (nbrs[nbrs, ids % q] != ids).sum(),
    }
    return [f"{count} {what}" for what, count in counts.items() if count]


def export(graph: Graph, fmt: str, sink) -> None:
    """Write the graph to a path or text file object.

    edgelist: one "u v" per line with u < v, lexicographically sorted,
    newline-terminated.  dimacs: "p edge N M" header then 1-indexed "e u v"
    lines.  json: the parameter/size summary as a JSON object.
    """
    if fmt not in ("edgelist", "dimacs", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt in ("edgelist", "dimacs") and graph.n > graph.vertex_budget:
        raise BudgetExceeded(
            f"{graph.n} vertices exceed the export budget {graph.vertex_budget}"
        )
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
