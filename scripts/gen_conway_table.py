"""Regenerate the Conway polynomial table embedded in linwenger.fields.

Conway polynomials (Parker's convention, as tabulated by Luebeck) are the
canonical compatible system of primitive polynomials: C_{p,n} is the first
monic degree-n polynomial, in a specific word ordering, that is primitive
over F_p and satisfies the norm-compatibility condition

    C_{p,m}(x^((p^n-1)/(p^m-1))) = 0  (mod C_{p,n})

for every proper divisor m of n.  The word of f = x^n + a_{n-1} x^{n-1} +
... + a_0 is (c_{n-1}, ..., c_0) with c_i = (-1)^(n-i) a_i mod p, compared
lexicographically.  Compatibility with m = 1 forces c_0 to equal the
smallest primitive root mod p, which prunes the search by a factor of p.

Usage: python3 scripts/gen_conway_table.py [--max-p 11] [--max-n 6]
Prints the CONWAY_TABLE dict literal to stdout.
"""

from __future__ import annotations

import argparse
import itertools
import sys

sys.path.insert(0, "src")

from linwenger.fields import (  # noqa: E402
    _pmod,
    _pmulmod,
    _ppowmod,
    _psub,
    is_irreducible,
    is_prime,
    prime_divisors,
)


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    order_factors = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def is_primitive(f: tuple[int, ...], p: int, order_factors: list[int]) -> bool:
    """f irreducible of degree n; primitive iff x has full order p^n - 1."""
    n = len(f) - 1
    group = p**n - 1
    x = [0, 1]
    return all(_ppowmod(x, group // r, list(f), p) != [1] for r in order_factors)


def compatible(f: tuple[int, ...], p: int, table: dict) -> bool:
    n = len(f) - 1
    fl = list(f)
    for m in range(2, n):
        if n % m:
            continue
        u = _ppowmod([0, 1], (p**n - 1) // (p**m - 1), fl, p)
        lower = table[(p, m)]
        acc = [0]
        for b in reversed(lower):  # Horner: acc <- acc*u + b mod f
            acc = _pmod(_psub(_pmulmod(acc, u, fl, p), [-b % p], p), fl, p)
        if acc != [0]:
            return False
    return True


def conway(p: int, n: int, table: dict) -> tuple[int, ...]:
    g = smallest_primitive_root(p)
    if n == 1:
        return ((-g) % p, 1)
    order_factors = prime_divisors(p**n - 1)
    sign = [(-1) ** (n - i) % p for i in range(n)]
    for word in itertools.product(range(p), repeat=n - 1):
        # word = (c_{n-1}, ..., c_1); c_0 = g forced by norm compatibility
        cs = (*word, g)
        coeffs = tuple((sign[i] * cs[n - 1 - i]) % p for i in range(n)) + (1,)
        if not is_irreducible(coeffs, p):
            continue
        if not is_primitive(coeffs, p, order_factors):
            continue
        if not compatible(coeffs, p, table):
            continue
        return coeffs
    raise AssertionError(f"no Conway polynomial found for p={p}, n={n}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-p", type=int, default=11)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    for p in range(2, args.max_p + 1):
        if not is_prime(p):
            continue
        for n in range(1, args.max_n + 1):
            table[(p, n)] = conway(p, n, table)
    print("CONWAY_TABLE: dict[tuple[int, int], tuple[int, ...]] = {")
    for (p, n), coeffs in table.items():
        print(f"    ({p}, {n}): {coeffs},")
    print("}")


if __name__ == "__main__":
    main()
