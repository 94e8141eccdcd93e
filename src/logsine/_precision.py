"""Internal helpers for extended-precision evaluation with honest float bounds.

Numeric results are produced by computing in mpmath at a working precision
far beyond double, then rounding once to float.  The reported bound must
then cover (a) the analytic truncation error of whatever series/rule was
used, (b) mpmath rounding at the working precision, and (c) the single
final rounding to double, which is at most half an ulp of the result.

This module owns the one fixed-point unit, 2^-(prec + _GUARD) at prec
bits, that the zeta series, the legs, the closed form and the tanh-sinh
engine sum integers in, and the conversions into and out of it.

The working precision is a plain number of bits, chosen from the target
by ``prec_for`` and passed to every ``libmp`` call.  No mpmath context
holds it and nothing reads or sets the global ``mp`` precision, so calls
in different threads cannot change each other's arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    from_man_exp,
    mpf_abs,
    mpf_mul,
    mpf_pow_int,
    prec_to_dps,
    round_nearest,
    to_fixed,
    to_float,
)

from .errors import CertificationError

_GUARD = 16  # fractional bits of the fixed-point integers beyond the working precision


def prec_for(target_abs_error: float, extra_digits: int, min_dps: int) -> int:
    """The working precision in bits for a target absolute error:
    ``extra_digits`` decimal digits below the target, and never fewer than
    ``min_dps``."""
    if target_abs_error <= 0 or not math.isfinite(target_abs_error):
        raise ValueError("target absolute error must be positive and finite")
    digits = -math.log10(target_abs_error) if target_abs_error < 1 else 0.0
    dps = max(min_dps, int(math.ceil(digits)) + extra_digits)
    return dps_to_prec(dps)


@lru_cache(maxsize=None)
def _slack_unit(prec: int) -> tuple:
    # mpf(10) ** (4 - dps) at prec bits
    return mpf_pow_int(from_int(10), 4 - prec_to_dps(prec), prec, round_nearest)


def round_slack(x: tuple, prec: int) -> tuple:
    """Bound on accumulated rounding at ``prec`` bits for an O(100)-operation
    computation whose intermediates are at most ``|x|`` in magnitude:
    ``|x| * 10^(4 - dps)`` as a raw tuple, for a raw tuple ``x``."""
    rnd = round_nearest
    return mpf_mul(mpf_abs(x, prec, rnd), _slack_unit(prec), prec, rnd)


def float_with_bound(value: tuple, internal_bound: tuple) -> tuple[float, float]:
    """Round a raw value to double and return (value, certified abs bound).

    Both tuples round to the nearest double, as ``float`` of an ``mpf``
    does (``to_float`` alone rounds down).  The bound adds half an ulp for
    the final rounding and is itself rounded upward so the certificate
    never understates.  Raises CertificationError when the value or the
    bound does not fit a double.
    """
    value = to_float(value, rnd=round_nearest)
    bound = to_float(internal_bound, rnd=round_nearest)
    bound += 0.5 * math.ulp(abs(value) if value else 1e-300)
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise CertificationError(f"value {value!r} or bound {bound!r} exceeds the double range")
    return value, math.nextafter(bound, math.inf)


def _from_units(x: int, prec: int) -> tuple:
    """An integer in units of 2^-(prec + _GUARD) as an exact raw tuple."""
    return from_man_exp(x, -(prec + _GUARD))


def _float_units(value: int, bound: int, prec: int) -> tuple[float, float]:
    """``float_with_bound`` of a value and a bound in units."""
    fbits = prec + _GUARD
    return float_with_bound(from_man_exp(value, -fbits), from_man_exp(bound, -fbits))


def _units_below(x: float, prec: int) -> int:
    """A double in units of 2^-(prec + _GUARD), rounded down."""
    return to_fixed(from_float(x), prec + _GUARD)


__all__ = [
    "float_with_bound",
    "prec_for",
    "round_slack",
]
