"""Exact spectra of the point-line graphs.

Every eigenvalue is +/- sqrt(q * N) where N is the number of roots of one
weight polynomial, so the whole spectrum is carried as (sign, radicand)
pairs with exact integer radicands and multiplicities.  No floats enter:
the expander bound is the exact pair (q, radicand) as well.

Two routes give the spectrum: an exhaustive value sweep over every linear
part for every family, and for the linearized family one closed form at
every m, built from the rank distribution of the linear parts.  They share
no machinery.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, ThetaNotInjective
from .fields import _check_field_params, fq_rank
from .graphs import FamilySpec, Graph
# count_roots is not called here; it stays bound because perfbench/spans.py
# wraps linwenger.spectrum.count_roots (its linearized.count_roots_* metrics
# then read 0).
from .linearized import count_roots, rank_distribution  # noqa: F401

DEFAULT_EVAL_BUDGET = 10**8
# walk_trace gathers this many bytes of walk ends at a time, which bounds
# each of its temporaries at any n.
_WALK_BYTES = 1 << 19


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue class: sign * sqrt(radicand) with its multiplicity.

    sign is +1, -1, or 0 (the zero eigenvalue carries sign 0, radicand 0)."""

    sign: int
    radicand: int
    multiplicity: int

    def eigenvalue_str(self) -> str:
        if self.sign == 0:
            return "0"
        mark = "+" if self.sign > 0 else "-"
        r = self.radicand
        root = _isqrt_exact(r)
        return f"{mark}{root}" if root is not None else f"{mark}sqrt({r})"


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of one graph, entries in canonical order: radicand
    descending, + before -, the zero class last.  Multiplicities over both
    sides sum to 2 q^(m+1); the zero entry counts both halves."""

    spec: FamilySpec
    entries: tuple[SpectrumEntry, ...]
    provenance: str

    @property
    def total_multiplicity(self) -> int:
        return sum(en.multiplicity for en in self.entries)

    def histogram(self) -> dict[int, int]:
        """Root-count histogram {N: number of weight vectors with N roots}."""
        q = self.spec.q
        hist: dict[int, int] = {}
        for en in self.entries:
            if en.sign == 1:
                hist[en.radicand // q] = en.multiplicity
            elif en.sign == 0:
                hist[0] = en.multiplicity // 2
        return hist

    def second_largest_radicand(self) -> int | None:
        radicands = sorted({en.radicand for en in self.entries}, reverse=True)
        return radicands[1] if len(radicands) > 1 else None

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "entries": [
                {
                    "sign": en.sign,
                    "radicand": str(en.radicand),
                    "multiplicity": str(en.multiplicity),
                }
                for en in self.entries
            ],
            "total": str(self.total_multiplicity),
            "provenance": self.provenance,
        }

    def same_spectrum(self, other: "SpectrumReport") -> bool:
        mine = {(en.sign, en.radicand): en.multiplicity for en in self.entries}
        them = {(en.sign, en.radicand): en.multiplicity for en in other.entries}
        return mine == them


def _report_from_histogram(spec: FamilySpec, hist: dict[int, int], provenance: str) -> SpectrumReport:
    q = spec.q
    entries = []
    for n_roots in sorted((k for k in hist if k > 0), reverse=True):
        count = hist[n_roots]
        entries.append(SpectrumEntry(1, q * n_roots, count))
        entries.append(SpectrumEntry(-1, q * n_roots, count))
    zero = hist.get(0, 0)
    if zero:
        entries.append(SpectrumEntry(0, 0, 2 * zero))
    return SpectrumReport(spec, tuple(entries), provenance)


def spectrum_enumerate(spec: FamilySpec, max_evals: int = DEFAULT_EVAL_BUDGET) -> SpectrumReport:
    """Spectrum by an exhaustive value sweep, one code path for every family.

    For each linear part w' = (w_2, ..., w_(m+1)) the sweep evaluates
    sum_k w_k f_k(x) at every x and counts how often each value v is hit.
    The constant w_1 only shifts that sum, so the weight vector (-v, w') has
    exactly as many roots as v has hits, and each of the q - (#values hit)
    other constants gives no root.  That is q^m * q evaluations; max_evals
    is still checked against q^(m+1) * q, one field sweep per weight vector,
    so the budgets callers pass keep their meaning.  Nothing here uses the
    rank structure of the linearized family, so the sweep is an independent
    oracle for closed_form_linearized.
    """
    if not spec.theta_injective:
        raise ThetaNotInjective(
            "spectrum bookkeeping assumes distinct generator tuples; "
            "this custom family repeats one"
        )
    q = spec.q
    total_w = q ** (spec.m + 1)
    if total_w * q > max_evals:
        raise BudgetExceeded(
            f"{total_w * q} evaluations exceed the budget {max_evals}"
        )
    F = spec.field
    f_rows = [spec.f_values(x) for x in F.elements()]
    hist: Counter[int] = Counter()
    for linear in itertools.product(F.elements(), repeat=spec.m):
        hits: Counter[int] = Counter()
        for fx in f_rows:
            acc = F.zero
            for w, f in zip(linear, fx):
                acc = acc + w * f
            hits[acc.index] += 1
        hist.update(hits.values())
        hist[0] += q - len(hits)
    return _report_from_histogram(spec, hist, "enumerated")


@dataclass(frozen=True)
class MultiplicityTable:
    """Closed-form root-count multiplicities of the linearized family
    L_m(p^e).  root_mults[i] counts weight vectors with p^i roots and
    zero_mult those with none; a root count that no weight vector has gets
    no key."""

    p: int
    e: int
    m: int
    root_mults: dict[int, int]
    zero_mult: int

    def histogram(self) -> dict[int, int]:
        hist = {self.p**i: n for i, n in self.root_mults.items()}
        if self.zero_mult:
            hist[0] = self.zero_mult
        return hist

    def to_report(self, spec: FamilySpec) -> SpectrumReport:
        return _report_from_histogram(spec, self.histogram(), "closed_form")


def closed_form_linearized(p: int, e: int, m: int) -> MultiplicityTable:
    """Multiplicity table of the linearized family for any m >= 1.

    The constant w_1 only shifts the linear part, so a linear part of F_p-rank
    r gives p^r constants (its image) with p^(e-r) roots each and q - p^r
    constants with none.  rank_distribution counts the linear parts of each
    rank among the first min(m, e) coordinates; for m > e the remaining
    coordinates multiply every count by q^(m-e).  Bad p, e or m raise
    ValueError."""
    ranks = rank_distribution(p, e, m)
    q = p**e
    scale = q ** (m - min(m, e))
    root_mults = {}
    zero = 0
    for r, count in ranks.items():
        root_mults[e - r] = p**r * count * scale
        zero += (q - p**r) * count * scale
    return MultiplicityTable(p, e, m, root_mults, zero)


def component_count_formula(spec: FamilySpec) -> int:
    """q^(m+1-r) where r is the rank over the field of the functions
    (1, f_2, ..., f_(m+1)) on their q evaluation points."""
    F = spec.field
    rows = [[F.one] * F.q]
    for k in range(2, spec.m + 2):
        rows.append([spec.f_eval(k, u) for u in F.elements()])
    r = fq_rank(F, rows)
    return F.q ** (spec.m + 1 - r)


def walk_trace(graph: Graph, k: int) -> int:
    """trace(A^(2k)) as an exact integer, 1 <= k <= 4.

    It reads graph.adjacency and nothing else, so any (n, q) neighbour
    array serves, a rewired one with no spec included, and it returns the
    sum of squared entries of A^k: trace(A^(2k)) when A is symmetric.  Row
    v of A^k is the multiset of the ends of the q^k walks that follow the
    rows from v.
    For a block of rows the ends come from k - 1 gathers through the array;
    each row is sorted, and the length of each run of equal ends is one
    nonzero entry of A^k.  A block holds at most E = _WALK_BYTES / itemsize
    ends, so the sum of its squared run lengths is at most E^2 and exact in
    int64; the blocks are summed in Python ints, exact at any size.

    BudgetExceeded, before anything is allocated, when the q^k ends of one
    vertex alone exceed _WALK_BYTES."""
    if not 1 <= k <= 4:
        raise ValueError(f"walk exponent k must be in [1, 4], got {k}")
    import numpy as np

    adj = graph.adjacency
    n, q = adj.shape
    rows = _WALK_BYTES // (q**k * adj.itemsize)
    if rows == 0:
        raise BudgetExceeded(
            f"the {q**k} walk ends of one vertex need {q**k * adj.itemsize} bytes, "
            f"over the {_WALK_BYTES}-byte walk budget"
        )
    total = 0
    for start in range(0, n, rows):
        ends = adj[start : start + rows]
        for _ in range(k - 1):
            ends = np.take(adj, ends, axis=0).reshape(len(ends), -1)
        ends = np.sort(ends, axis=1)
        new = np.empty(ends.shape, dtype=bool)  # where a run starts
        new[:, 0] = True
        np.not_equal(ends[:, 1:], ends[:, :-1], out=new[:, 1:])
        runs = np.diff(np.flatnonzero(new), append=ends.size)
        total += int(np.dot(runs, runs))
    return total


@dataclass(frozen=True)
class ExpansionBound:
    """Edge-expansion lower bound (q - sqrt(radicand)) / 2, kept as an
    exact radicand pair; radicand is also the second-largest squared
    eigenvalue q * p^(m-1) of the connected linearized graphs, m <= e."""

    q: int
    radicand: int


def expansion_bound(p: int, e: int, m: int) -> ExpansionBound:
    _check_field_params(p, e)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = p**e
    return ExpansionBound(q=q, radicand=q * p ** (min(m, e) - 1))
