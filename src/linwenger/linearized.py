"""The weight polynomials of a family: exhaustive root counts, and the rank
distribution of the linear parts of the linearized family.

The weight polynomial of a weight vector w over the field is

    w_1 + w_2 f_2(x) + ... + w_(m+1) f_(m+1)(x).

When the family maps are the Frobenius monomials f_k(x) = x^(p^(k-2)) its
linear part is an F_p-linear map of the field, and the root count follows
from that map's rank and whether -w_1 lies in its image.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fields import _check_field_params
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
        for w, f in zip(linear, spec.f_values(x)):
            acc = acc + w * f
        count += not acc
    return count


def _gauss_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def rank_distribution(p: int, e: int, m: int) -> dict[int, int]:
    """{r: A_r}: how many of the F_p-linear maps x -> sum_k w_k x^(p^(k-2)),
    k = 2..m'+1 with m' = min(m, e), have rank r.  Only ranks that occur
    are listed.

    These p^(e m') maps of GF(p^e) form the Gabidulin code of e x e matrices
    over F_p, a maximum rank distance code with minimum rank d = e - m' + 1.
    Delsarte (1978, "Bilinear forms over a finite field") gives its rank
    distribution: A_0 = 1 and, for d <= r <= e,

        A_r = [e r]_p sum_{j=0}^{r-d} (-1)^j p^C(j,2) [r j]_p (p^(e(r-d-j+1)) - 1).

    For m > e each map is the linear part of q^(m-e) of the q^m tuples
    (w_2, ..., w_(m+1)).
    """
    _check_field_params(p, e, m)
    d = e - min(m, e) + 1
    dist = {0: 1}
    for r in range(d, e + 1):
        dist[r] = _gauss_binomial(e, r, p) * sum(
            (-1) ** j * p ** (j * (j - 1) // 2) * _gauss_binomial(r, j, p)
            * (p ** (e * (r - d - j + 1)) - 1)
            for j in range(r - d + 1)
        )
    return dist
