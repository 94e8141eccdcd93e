"""Closed-form evaluation of I_n = int_0^pi x^n log(sin x) dx.

Every I_n is an exact rational combination of pi^(n+1) log 2 and the odd
zeta values:

    I_n = -(pi^(n+1)/(n+1)) log 2
          + (n!/2^(n+1)) sum_{k=1}^{floor(n/2)} (-1)^k (2 pi)^(n-2k+1)
                                                 / (n-2k+1)!  *  zeta(2k+1)

The decomposition is carried exactly (SymbolicLogSine); floating-point
enters only in the final substitution of pi, log 2 and zeta(2k+1), which
keeps the numeric error budget auditable.  The n = 0 and n = 1 cases have
empty zeta sums and reduce to -pi log 2 and -(pi^2/2) log 2.

The numeric form sums its terms exactly on integers: each term and its
bound come from zeta_engine's kernel in units of 2^-(prec + 16), counting
its floor division and the units of pi^m, log 2 and zeta(2k+1), and the
sum is rounded to double once.  The log-2 term, the zeta terms and their
sum depend on n and the working precision alone, so each is kept in a
table keyed by the two; the contour legs read the real parts of H and R
from the first two, and rounding and the target check run on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any

from ._precision import RealApprox, certify, kept
from .errors import _require_int
from .zeta_engine import _fixed_term, _log2_fixed, _term_prec, _zeta_fixed

__all__ = [
    "SymbolicLogSine",
    "logsine_symbolic",
    "logsine_numeric",
    "symbolic_to_json",
]


@dataclass(frozen=True)
class SymbolicLogSine:
    """Exact coefficients of I_n over {pi^(n+1) log 2, pi^(n-2k+1) zeta(2k+1)}.

    ``zeta_terms`` maps each odd argument 2k+1 (k = 1..floor(n/2), in
    increasing order) to the exact coefficient of pi^(n-2k+1) zeta(2k+1).
    """

    n: int
    log2_coefficient: Fraction
    zeta_terms: tuple[tuple[int, Fraction], ...]

    def pi_power(self, zeta_argument: int) -> int:
        """Power of pi multiplying the given zeta(2k+1) term."""
        return self.n - zeta_argument + 2


# typed, so that True is no cached 1 and still raises
@lru_cache(maxsize=None, typed=True)
def logsine_symbolic(n: int) -> SymbolicLogSine:
    """Exact decomposition of I_n (empty zeta sum for n in {0, 1}),
    memoized: the result is frozen, so callers may share it."""
    _require_int(n, 0, "n must be a nonnegative integer")
    terms = []
    for k in range(1, n // 2 + 1):
        coeff = Fraction(
            (-1) ** k * math.factorial(n) * 2 ** (n - 2 * k + 1),
            2 ** (n + 1) * math.factorial(n - 2 * k + 1),
        )
        terms.append((2 * k + 1, coeff))
    return SymbolicLogSine(
        n=n, log2_coefficient=Fraction(-1, n + 1), zeta_terms=tuple(terms)
    )


# (n, precision in bits) -> the closed form's log-2 term, -pi^(n+1) log(2)
# / (n+1), as (value, bound) in units of 2^-(prec + 16); leg H reads it too
_LOG2_TERM: dict[tuple[int, int], tuple[int, int]] = {}


@kept(_LOG2_TERM)
def _log2_term(n: int, prec: int) -> tuple[int, int]:
    """The closed form's log-2 term at ``prec`` bits, built once per key."""
    c0 = logsine_symbolic(n).log2_coefficient
    return _fixed_term(c0.numerator, c0.denominator, n + 1, _log2_fixed(prec), prec)


# (n, precision in bits) -> the closed form's zeta(2k+1) terms for
# k = 1..floor(n/2), each (value, bound) in units of 2^-(prec + 16); leg R
# reads them too
_ZETA_TERMS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}


@kept(_ZETA_TERMS)
def _zeta_terms(n: int, prec: int) -> tuple[tuple[int, int], ...]:
    """The closed form's floor(n/2) zeta terms at ``prec`` bits, built once per key."""
    sym = logsine_symbolic(n)
    return tuple(
        _fixed_term(c.numerator, c.denominator, sym.pi_power(s), _zeta_fixed(s, prec), prec)
        for s, c in sym.zeta_terms
    )


# (n, precision in bits) -> the closed form's (total, bound) in units of
# 2^-(prec + 16)
_CLOSED_FORM: dict[tuple[int, int], tuple[int, int]] = {}


@kept(_CLOSED_FORM)
def _closed_form_fixed(n: int, prec: int) -> tuple[int, int]:
    """The floor(n/2)+1 summands of I_n and their bounds, summed exactly at
    ``prec`` bits: (total, bound) in units of 2^-(prec + 16)."""
    return tuple(map(sum, zip(_log2_term(n, prec), *_zeta_terms(n, prec))))


def logsine_numeric(n: int, target_abs_error: float) -> RealApprox:
    """Evaluate the closed form of I_n with a certified absolute bound.

    The summed total, rounded to double once, must fit the target, else
    CertificationError; the check runs on every call.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _term_prec(target_abs_error)
    return certify(*_closed_form_fixed(n, prec), prec, target=target_abs_error, what=f"I_{n}")


def symbolic_to_json(sym: SymbolicLogSine) -> dict[str, Any]:
    """JSON form with rationals as exact decimal-free "p/q" strings."""
    return {
        "n": sym.n,
        "log2_coeff": str(sym.log2_coefficient),
        "pi_power_log2": sym.n + 1,
        "zeta_terms": [
            {
                "arg": arg,
                "coeff": str(coeff),
                "pi_power": sym.pi_power(arg),
            }
            for arg, coeff in sym.zeta_terms
        ],
    }
