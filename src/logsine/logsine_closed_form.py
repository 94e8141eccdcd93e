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
sum is rounded to double once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ._precision import _float_units, _units_below, prec_for
from .errors import CertificationError, _require_int
from .zeta_engine import RealApprox, _fixed_term, _log2_fixed, _zeta_fixed

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


def logsine_symbolic(n: int) -> SymbolicLogSine:
    """Exact decomposition of I_n (empty zeta sum for n in {0, 1})."""
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


def logsine_numeric(n: int, target_abs_error: float) -> RealApprox:
    """Evaluate the closed form of I_n with a certified absolute bound.

    The budget is split evenly across the floor(n/2)+1 summands; each
    zeta(2k+1) substitution must fit its share, and the final rounding to
    double must fit the total, else CertificationError.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = prec_for(target_abs_error, extra_digits=25, min_dps=30)
    sym = logsine_symbolic(n)
    share = target_abs_error / (n // 2 + 1)
    share_units = _units_below(share, prec)
    c0 = sym.log2_coefficient
    total, internal = _fixed_term(c0.numerator, c0.denominator, n + 1, _log2_fixed(prec), prec)
    if internal > share_units:
        raise CertificationError("log-2 term exceeds its error share")
    for arg, coeff in sym.zeta_terms:
        term, term_err = _fixed_term(
            coeff.numerator, coeff.denominator, sym.pi_power(arg), _zeta_fixed(arg, prec), prec
        )
        if term_err > share_units:
            raise CertificationError(
                f"zeta({arg}) term exceeds its error share {share:.3e}"
            )
        total += term
        internal += term_err
    value, bound = _float_units(total, internal, prec)
    if bound > target_abs_error:
        raise CertificationError(
            f"I_{n} certified to {bound:.3e}, target {target_abs_error:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)


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
