"""Internal helpers for extended-precision evaluation with honest float bounds.

Numeric results are produced by computing in mpmath at a working precision
far beyond double, then rounding once to float.  The reported bound must
then cover (a) the analytic truncation error of whatever series/rule was
used, (b) mpmath rounding at the working precision, and (c) the single
final rounding to double, which is at most half an ulp of the result.

Every computation runs in a private mpmath context fixed at its working
precision (``context_for``); nothing reads or sets the global ``mp``
precision, so calls in different threads cannot change each other's
arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mpf
from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, mpf_abs, mpf_mul, round_nearest

# precision in bits -> the private context fixed at it
_PRIVATE_CONTEXTS: dict[int, MPContext] = {}


def private_context(prec: int) -> MPContext:
    """An mpmath context fixed at ``prec`` bits.

    Each precision gets one context, created on first use; its precision is
    never changed afterwards, so it may be shared by every caller and
    thread.  Code that computes in it must not call mpmath functions that
    raise the context's precision while they run (``expm1``, ``log1p`` and
    the other wrapped special functions).
    """
    ctx = _PRIVATE_CONTEXTS.get(prec)
    if ctx is None:
        ctx = MPContext()
        ctx.prec = prec
        # two threads may both build one; setdefault keeps the first for all
        ctx = _PRIVATE_CONTEXTS.setdefault(prec, ctx)
    return ctx


def context_for(target_abs_error: float, extra_digits: int, min_dps: int) -> MPContext:
    """The private context for a target absolute error: ``extra_digits``
    decimal digits below the target, and never fewer than ``min_dps``."""
    if target_abs_error <= 0 or not math.isfinite(target_abs_error):
        raise ValueError("target absolute error must be positive and finite")
    digits = -math.log10(target_abs_error) if target_abs_error < 1 else 0.0
    dps = max(min_dps, int(math.ceil(digits)) + extra_digits)
    return private_context(dps_to_prec(dps))


@lru_cache(maxsize=None)
def _slack_unit(prec: int) -> mpf:
    ctx = private_context(prec)
    return ctx.mpf(10) ** (4 - ctx.dps)


def slack_raw(x: tuple, prec: int) -> tuple:
    """``round_slack`` of a raw tuple at ``prec`` bits, as a raw tuple."""
    # abs(x) * _slack_unit(prec)
    rnd = round_nearest
    return mpf_mul(mpf_abs(x, prec, rnd), _slack_unit(prec)._mpf_, prec, rnd)


def round_slack(x: mpf, ctx: MPContext) -> mpf:
    """Bound on accumulated rounding in ``ctx`` for an O(100)-operation
    computation whose intermediates are at most ``|x|`` in magnitude;
    ``x`` is a value of ``ctx``."""
    return ctx.make_mpf(slack_raw(x._mpf_, ctx.prec))


def float_with_bound(value_mp: mpf, internal_bound_mp: mpf) -> tuple[float, float]:
    """Round an mp value to double and return (value, certified abs bound).

    The bound adds half an ulp for the final rounding and is itself rounded
    upward so the certificate never understates.
    """
    value = float(value_mp)
    bound = float(internal_bound_mp) + 0.5 * math.ulp(abs(value) if value else 1e-300)
    return value, math.nextafter(bound, math.inf)


__all__ = [
    "context_for",
    "float_with_bound",
    "private_context",
    "round_slack",
    "slack_raw",
]
