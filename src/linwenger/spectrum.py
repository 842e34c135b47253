"""Exact spectra of the point-line graphs.

Every eigenvalue is +/- sqrt(q * N) where N is the number of roots of one
weight polynomial, so the whole spectrum is carried as (sign, radicand)
pairs with exact integer radicands and multiplicities.  No floats enter:
the expander bound is the exact pair (q, radicand) as well.

Two routes give the spectrum: an exhaustive value sweep over every linear
part for every family, and for the linearized family one closed form at
every m, built from the rank distribution of the linear parts.  They share
no machinery.  The walk counts on a graph's array are metrics.walk_trace.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, ThetaNotInjective
from .fields import _check_field_params, fq_rank
from .graphs import FamilySpec, _f_table
# count_roots is not called here; it stays bound because perfbench/spans.py
# wraps linwenger.spectrum.count_roots (its linearized.count_roots_* metrics
# then read 0).
from .linearized import count_roots, rank_distribution  # noqa: F401

DEFAULT_EVAL_BUDGET = 10**8


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
    so the budgets callers pass keep their meaning; it is checked first, so
    a refusal tabulates no map.  The sums run on element indices with the
    field's IndexOps.  Nothing here uses the rank structure of the
    linearized family, so the sweep is an independent oracle for
    closed_form_linearized.
    """
    q = spec.q
    total_w = q ** (spec.m + 1)
    if total_w * q > max_evals:
        raise BudgetExceeded(
            f"{total_w * q} evaluations exceed the budget {max_evals}"
        )
    if not spec.theta_injective:
        raise ThetaNotInjective(
            "spectrum bookkeeping assumes distinct generator tuples; "
            "this custom family repeats one"
        )
    add, mul = spec.field.ops().add, spec.field.ops().mul
    f_rows = _f_table(spec).T.tolist()  # row x: the indices of f_2(x), ..., f_(m+1)(x)
    hist: Counter[int] = Counter()
    for linear in itertools.product(range(q), repeat=spec.m):
        hits: Counter[int] = Counter()
        for fx in f_rows:
            acc = 0
            for w, f in zip(linear, fx):
                acc = add(acc, mul(w, f))
            hits[acc] += 1
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
    ConfigError."""
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
    q = spec.q
    r = fq_rank(spec.field, [[1] * q, *_f_table(spec).tolist()])
    return q ** (spec.m + 1 - r)


@dataclass(frozen=True)
class ExpansionBound:
    """Edge-expansion lower bound (q - sqrt(radicand)) / 2, kept as an
    exact radicand pair; radicand is also the second-largest squared
    eigenvalue q * p^(m-1) of the connected linearized graphs, m <= e."""

    q: int
    radicand: int


def expansion_bound(p: int, e: int, m: int) -> ExpansionBound:
    _check_field_params(p, e, m)
    q = p**e
    return ExpansionBound(q=q, radicand=q * p ** (min(m, e) - 1))
