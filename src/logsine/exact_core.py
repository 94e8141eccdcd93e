"""Exact rational arithmetic: Bernoulli numbers and the combinatorial
identities built from them.

Everything in this module is exact.  Rationals are ``fractions.Fraction``
(arbitrary-precision, always in lowest terms, positive denominator), so no
rounding can occur anywhere; equality checks below are true identities, not
approximate comparisons.

The Bernoulli numbers are generated from the tangent numbers T_k
(Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers", 2011) with integer arithmetic alone:

    B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)),

with B_0 = 1, B_1 = -1/2 and every later odd-index value zero.  The
binomial-weighted sum rule

    sum_{k=0}^{n-1} C(n,k) * B_k = 0        (n >= 2)

plays no part in generating the table; ``verify_recurrence`` checks it
against the table, so the check is independent of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import _require_int

__all__ = [
    "BernoulliTable",
    "bernoulli_table",
    "verify_recurrence",
    "verify_binomial_identity",
]


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0 .. B_max_index as exact rationals."""

    max_index: int
    values: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.max_index:
            raise IndexError(f"B_{k} not in table (max index {self.max_index})")
        return self.values[k]

    def __len__(self) -> int:
        return self.max_index + 1


def _tangent_numbers(count: int) -> list[int]:
    """Tangent numbers T_1 .. T_count (1, 2, 16, 272, ...), where
    tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    Brent and Harvey's in-place recurrence: O(count^2) integer
    operations, no division.
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


@lru_cache(maxsize=None)
def bernoulli_table(max_index: int) -> BernoulliTable:
    """Generate B_0 .. B_max_index from the tangent numbers.

    Deterministic and pure: equal arguments always produce equal tables.
    """
    _require_int(max_index, 0, "max_index must be a nonnegative integer")
    values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
    for k, t_k in enumerate(_tangent_numbers(max_index // 2), start=1):
        four_k = 4**k
        values += [Fraction((-1) ** (k - 1) * 2 * k * t_k, four_k * (four_k - 1)), Fraction(0)]
    return BernoulliTable(max_index=max_index, values=tuple(values[: max_index + 1]))


def verify_recurrence(n: int, table: BernoulliTable) -> bool:
    """Exact check of sum_{k=0}^{n-1} C(n,k) B_k = 0 for a given n >= 2."""
    _require_int(n, 2, "the binomial-weighted sum rule holds only for n >= 2")
    if table.max_index < n - 1:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{n - 1}")
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n, k) * table[k]
    return acc == 0


def verify_binomial_identity(n: int, k: int) -> bool:
    """Exact check of the index-shift identity used to collapse the
    even-index Bernoulli sum:

        C(n,2k) / ((k+1)(2k+1)) = C(n+2,2k+2) * 2 / ((n+1)(n+2))

    Admissible only for n >= 1, k >= 0 with 2k <= n.
    """
    _require_int(n, 1, "require n >= 1 and k >= 0")
    _require_int(k, 0, "require n >= 1 and k >= 0")
    if 2 * k > n:
        raise ValueError("require 2k <= n")
    lhs = Fraction(math.comb(n, 2 * k), (k + 1) * (2 * k + 1))
    rhs = Fraction(2 * math.comb(n + 2, 2 * k + 2), (n + 1) * (n + 2))
    return lhs == rhs
