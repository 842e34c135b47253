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
from dataclasses import dataclass
from pathlib import Path

from .errors import BudgetExceeded, OutOfRange
from .fields import GF, Field, FieldElement
from .linearized import LinPoly

FAMILIES = ("linearized", "wenger", "custom")
DEFAULT_VERTEX_BUDGET = 2_000_000


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
        if self.family == "custom":
            if self.f_indices is None or len(self.f_indices) != self.m:
                raise ValueError("custom family needs one coefficient vector per map")
            object.__setattr__(
                self, "f_indices", tuple(tuple(int(c) for c in poly) for poly in self.f_indices)
            )
        elif self.f_indices is not None:
            raise ValueError("f_indices is only meaningful for the custom family")
        if self.modulus is not None:
            object.__setattr__(self, "modulus", tuple(int(c) for c in self.modulus))
        self.field  # construct eagerly so bad parameters fail here

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
            tuple(F.from_index(c % F.q) for c in poly) for poly in self.f_indices
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

    def weight_tuple(self, index: int) -> tuple[FieldElement, ...]:
        """Weight vector number `index`, digits base q, w_1 least significant."""
        F = self.field
        out = []
        for _ in range(self.m + 1):
            out.append(F.from_index(index % F.q))
            index //= F.q
        return tuple(out)

    def lin_poly(self, weights) -> LinPoly:
        """The affine map w_1 + sum_k w_k f_k(x) of this family."""
        return LinPoly(self, weights)

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


class Graph:
    """One constructed graph.  Vertices are addressable either as
    Point/Line objects or as integer ids:

        id = side * q^(m+1) + sum_j index(v_(j+1)) * q^j,   point side = 0.

    Lazy graphs answer neighbor queries by solving the adjacency equations.
    materialize() stores the one materialized form, an (n, q) array of
    neighbour ids whose row v is neighbor_ids(v); csr() wraps that array.
    """

    def __init__(self, spec: FamilySpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET):
        self.spec = spec
        self.vertex_budget = vertex_budget
        self._nbrs = None
        self._csr = None

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
        q = self.spec.q
        acc = 0
        for c in reversed(v.coords):
            acc = acc * q + c.index
        if isinstance(v, Line):
            acc += self.half
        return acc

    def decode(self, vid: int) -> Point | Line:
        if not 0 <= vid < self.n:
            raise OutOfRange(f"vertex id {vid} outside [0, {self.n})")
        side, local = divmod(vid, self.half)
        F = self.spec.field
        coords = []
        for _ in range(self.spec.m + 1):
            coords.append(F.from_index(local % F.q))
            local //= F.q
        return Line(tuple(coords)) if side else Point(tuple(coords))

    # -- neighbors ------------------------------------------------------------

    def neighbors_of_point(self, P: Point) -> list[Line]:
        """All q neighbors, ordered by the canonical index of l_1."""
        return [line_through(self.spec, P, l1) for l1 in self.spec.field.elements()]

    def neighbors_of_line(self, L: Line) -> list[Point]:
        """All q neighbors, ordered by the canonical index of p_1."""
        return [point_through(self.spec, L, p1) for p1 in self.spec.field.elements()]

    def neighbor_ids(self, vid: int) -> list[int]:
        if self._nbrs is not None:
            return self._nbrs[vid].tolist()
        v = self.decode(vid)
        nbrs = (
            self.neighbors_of_point(v) if isinstance(v, Point) else self.neighbors_of_line(v)
        )
        return [self.encode(u) for u in nbrs]

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
        index tables, and the f_k values come from spec.f_eval."""
        if self._nbrs is not None:
            return self
        if self.n > self.vertex_budget:
            raise BudgetExceeded(
                f"{self.n} vertices exceed the materialization budget {self.vertex_budget}"
            )
        import numpy as np

        spec = self.spec
        q, m, half = spec.q, spec.m, self.half
        # every index (< q) and id (< n) fits the result's dtype, so the
        # gathers and their (n/2, q) temporaries use it too
        dtype = np.int32 if self.n * q < 2**31 else np.int64
        mul, sub = (t.astype(dtype) for t in spec.field.index_tables())
        elts = list(spec.field.elements())
        f = np.array(
            [[spec.f_eval(k, x).index for x in elts] for k in range(2, m + 2)], dtype=dtype
        )
        own = (  # coordinate indices
            np.arange(half, dtype=dtype)[:, None] // q ** np.arange(m + 1, dtype=dtype) % q
        )
        x = np.arange(q, dtype=dtype)
        nbrs = np.empty((self.n, q), dtype=dtype)
        for side, (p1, l1) in enumerate(((own[:, :1], x), (x, own[:, :1]))):
            ids = nbrs[side * half : (side + 1) * half]
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

        Its column indices are the array itself, not a copy, so they keep
        the first-coordinate order of each row and are not sorted."""
        if self._csr is None:
            import numpy as np
            from scipy import sparse

            nbrs = self.adjacency
            indptr = np.arange(0, nbrs.size + 1, self.spec.q, dtype=nbrs.dtype)
            data = np.ones(nbrs.size, dtype=np.int32)
            self._csr = sparse.csr_matrix(
                (data, nbrs.reshape(-1), indptr), shape=(self.n, self.n)
            )
        return self._csr

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


def build(
    spec: FamilySpec,
    mode: str = "lazy",
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> Graph:
    """Construct the graph for a spec; materialized mode also stores adjacency."""
    if mode not in ("lazy", "materialized"):
        raise ValueError(f"mode must be 'lazy' or 'materialized', got {mode!r}")
    g = Graph(spec, vertex_budget=max_vertices)
    if mode == "materialized":
        g.materialize()
    return g


def structure_faults(spec: FamilySpec, nbrs) -> list[str]:
    """What is wrong with an (n, q) neighbour array for spec; [] when sound:
    a repeated id in a row, a neighbour on the vertex's own side, an
    asymmetric adjacency matrix, or a nonzero count other than 2 q^(m+2)."""
    import numpy as np
    from scipy import sparse

    n, q, half, nnz = spec.n_vertices, spec.q, spec.n_vertices // 2, 2 * spec.n_edges
    if nbrs.shape != (n, q) or nbrs.min() < 0 or nbrs.max() >= n:
        return [f"array of shape {nbrs.shape} is not {n} rows of {q} ids in [0, {n})"]
    rows = np.sort(nbrs, axis=1)
    own_side = (nbrs >= half) == (np.arange(n) >= half)[:, None]
    ones = np.ones(nbrs.size, dtype=np.int32)
    A = sparse.csr_matrix((ones, (np.repeat(np.arange(n), q), nbrs.ravel())), shape=(n, n))
    counts = {
        "rows repeat a neighbour": (rows[:, 1:] == rows[:, :-1]).any(axis=1).sum(),
        "vertices have a neighbour on their own side": own_side.any(axis=1).sum(),
        "adjacency entries differ from the transpose": (A != A.T).nnz,
        f"nonzeros missing from 2 q^(m+2) = {nnz}": nnz - A.nnz,
    }
    return [f"{count} {what}" for what, count in counts.items() if count]


def export(graph: Graph, fmt: str, sink) -> None:
    """Write the graph to a path or text file object.

    edgelist: one "u v" per line with u < v, lexicographically sorted,
    newline-terminated.  dimacs: "p edge N M" header then 1-indexed "e u v"
    lines.  json_meta: the parameter/size summary as a JSON object.
    """
    if fmt == "json":
        fmt = "json_meta"
    if fmt not in ("edgelist", "dimacs", "json_meta"):
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
