"""Internal helpers for extended-precision evaluation with honest float bounds.

Numeric results are produced by computing in mpmath at a working precision
far beyond double, then rounding once to float.  The reported bound must
then cover (a) the analytic truncation error of whatever series/rule was
used, (b) mpmath rounding at the working precision, and (c) the single
final rounding to double, which is at most half an ulp of the result.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, workdps
from mpmath.ctx_mp import MPContext

# precision in bits -> the private context fixed at it
_PRIVATE_CONTEXTS: dict[int, MPContext] = {}


def private_context(prec: int) -> MPContext:
    """An mpmath context fixed at ``prec`` bits, for filling memo tables.

    Each precision gets one context, created on first use; its precision is
    never changed afterwards.  A value computed in it is therefore exactly
    what the same operations give in the global context at ``prec`` bits,
    whatever another thread does to the global ``mp.prec`` meanwhile.
    """
    ctx = _PRIVATE_CONTEXTS.get(prec)
    if ctx is None:
        ctx = MPContext()
        ctx.prec = prec
        # two threads may both build one; setdefault keeps the first for all
        ctx = _PRIVATE_CONTEXTS.setdefault(prec, ctx)
    return ctx


def dps_for(target_abs_error: float, extra_digits: int = 15) -> int:
    """Working decimal precision comfortably below a target absolute error."""
    if target_abs_error <= 0 or not math.isfinite(target_abs_error):
        raise ValueError("target absolute error must be positive and finite")
    digits = -math.log10(target_abs_error) if target_abs_error < 1 else 0.0
    return max(25, int(math.ceil(digits)) + extra_digits)


def mp_round_slack(scale: mpf, dps: int) -> mpf:
    """Bound on accumulated mpmath rounding for an O(100)-operation
    computation whose intermediates are at most ``scale`` in magnitude."""
    return abs(scale) * mpf(10) ** (-dps + 4)


def float_with_bound(value_mp: mpf, internal_bound_mp: mpf) -> tuple[float, float]:
    """Round an mp value to double and return (value, certified abs bound).

    The bound adds half an ulp for the final rounding and is itself rounded
    upward so the certificate never understates.
    """
    value = float(value_mp)
    bound = float(internal_bound_mp) + 0.5 * math.ulp(abs(value) if value else 1e-300)
    return value, math.nextafter(bound, math.inf)


__all__ = [
    "dps_for",
    "mp_round_slack",
    "float_with_bound",
    "private_context",
    "mp",
    "mpf",
    "workdps",
]
