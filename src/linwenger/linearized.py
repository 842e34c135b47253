"""Weighted polynomial families over GF(p^e): evaluation, kernels, root counts.

The central object is the affine map

    w_1 + w_2 f_2(x) + ... + w_(m+1) f_(m+1)(x)

for a weight vector w over the field.  When the family maps are the Frobenius
monomials f_k(x) = x^(p^(k-2)) the linear part is F_p-linear, and root counts
follow from kernel dimension and image membership instead of a field sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidRank, UnsupportedRegime
from .fields import FieldElement, FpMatrix, fp_rank_kernel, fp_solve

if TYPE_CHECKING:
    from .graphs import FamilySpec


class LinPoly:
    """An affine family polynomial with a fixed weight vector.

    Built by FamilySpec.lin_poly; the family maps f_k evaluate through that
    spec.
    """

    __slots__ = ("spec", "field", "weights", "_matrix")

    def __init__(self, spec: "FamilySpec", weights):
        weights = tuple(weights)
        if len(weights) != spec.m + 1:
            raise ValueError(f"need {spec.m + 1} weights, one constant and one per map")
        field = spec.field
        if any(w.field != field for w in weights):
            raise ValueError("weights must live in the stated field")
        self.spec = spec
        self.field = field
        self.weights = weights
        self._matrix = None

    def eval(self, x: FieldElement) -> FieldElement:
        return self._combine(self.weights[0], x)

    def _combine(self, acc: FieldElement, x: FieldElement) -> FieldElement:
        """acc plus the weight-combination of the family maps at x."""
        f_eval = self.spec.f_eval
        for k, w in enumerate(self.weights[1:], 2):
            if w:
                acc = acc + w * f_eval(k, x)
        return acc

    def linear_matrix(self) -> FpMatrix:
        """Matrix of the linear part acting on coordinate columns over F_p.

        Only defined for the linearized family, where the linear part is a
        p-linear map of the field.
        """
        if self.spec.family != "linearized":
            raise UnsupportedRegime(
                "kernel structure is defined only for the Frobenius family"
            )
        if self._matrix is None:
            F = self.field
            images = [self._combine(F.zero, b).coeffs for b in F.basis]
            rows = tuple(
                tuple(images[j][i] for j in range(F.e)) for i in range(F.e)
            )
            self._matrix = FpMatrix(F.p, rows)
        return self._matrix


def kernel_dim(P: LinPoly) -> int:
    """Dimension over F_p of the kernel of the linear part."""
    rank, _ = fp_rank_kernel(P.linear_matrix())
    return P.field.e - rank


def count_roots(P: LinPoly, method: str = "auto") -> int:
    """Number of x in the field with P(x) = 0.

    "exhaustive" sweeps the whole field and works for every family.
    "structured" uses the kernel dimension of the linear part plus an image
    membership test, valid for the linearized family; the count is then
    either 0 or a power of p.  "auto" picks structured when available.
    """
    if method == "auto":
        method = "structured" if P.spec.family == "linearized" else "exhaustive"
    if method == "exhaustive":
        return sum(1 for x in P.field.elements() if not P.eval(x))
    if method != "structured":
        raise ValueError(f"unknown method {method!r}")
    M = P.linear_matrix()
    F = P.field
    target = (-P.weights[0]).coeffs
    if fp_solve(M, target) is None:
        return 0
    rank, _ = fp_rank_kernel(M)
    return F.p ** (F.e - rank)


def rank_count(l: int, n: int, k: int, q: int) -> int:
    """Number of l x n matrices over GF(q) of rank exactly k, as an exact
    integer:  prod_{i<k} (q^l - q^i)(q^n - q^i) / prod_{i<k} (q^k - q^i)."""
    if l < 0 or n < 0 or q < 2:
        raise ValueError("need l, n >= 0 and q >= 2")
    if k < 0 or k > min(l, n):
        raise InvalidRank(f"rank {k} impossible for a {l} x {n} matrix")
    num = 1
    den = 1
    for i in range(k):
        num *= (q**l - q**i) * (q**n - q**i)
        den *= q**k - q**i
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("rank count was not an integer; formula misuse")
    return count
