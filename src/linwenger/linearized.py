"""Exhaustive root counts of the weight polynomials of a family.

The weight polynomial of a weight vector w over the field is

    w_1 + w_2 f_2(x) + ... + w_(m+1) f_(m+1)(x).

The rank distribution that gives these counts in closed form for the
linearized family is spectrum.rank_distribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Not called here: perfbench/spans.py wraps these two names in this module.
from .fields import fp_rank_kernel, fp_solve  # noqa: F401

if TYPE_CHECKING:
    from .graphs import FamilySpec


def count_roots(spec: "FamilySpec", weights) -> int:
    """Number of x in the field with w_1 + sum_k w_k f_k(x) = 0, found by
    sweeping the whole field; works for every family."""
    w1, *linear = weights
    if len(linear) != spec.m:
        raise ValueError(f"need {spec.m + 1} weights, one constant and one per map")
    count = 0
    for x in spec.field.elements():
        acc = w1
        for k, w in enumerate(linear, start=2):
            acc = acc + w * spec.f_eval(k, x)
        count += not acc
    return count
