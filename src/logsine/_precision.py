"""Internal helpers for extended-precision evaluation with honest float bounds.

Numeric results are produced by summing integers at a working precision
far beyond double, then rounding once to float.  The reported bound must
then cover (a) the analytic truncation error of whatever series/rule was
used, (b) the counted units of every rounding at the working precision,
and (c) the single final rounding to double, which is at most half an
ulp of the result.

This module owns the one fixed-point unit, 2^-(prec + _GUARD) at prec
bits, that the zeta series, the legs, the closed form and the tanh-sinh
engine sum integers in, and the conversions into and out of it.

The working precision is a plain number of bits, chosen from the target
by ``prec_for`` and passed to every routine.  Nothing process-wide holds
it, so calls in different threads cannot change each other's arithmetic.
"""

from __future__ import annotations

import math

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
    return max(1, round((dps + 1) * 3.3219280948873626))  # log2(10) bits per digit


def _double(x: int, fbits: int) -> float:
    """x 2^-fbits rounded to the nearest double, ties to even; +-inf past
    the double range."""
    try:
        return x / (1 << fbits)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def float_with_bound(value: int, bound: int, fbits: int) -> tuple[float, float]:
    """Round a value and a bound in units of 2^-fbits to doubles: (value,
    certified abs bound).

    The bound adds half an ulp for the final rounding and is itself rounded
    upward so the certificate never understates.  Raises
    CertificationError when the value or the bound does not fit a double.
    """
    value, bound = _double(value, fbits), _double(bound, fbits)
    bound += 0.5 * math.ulp(abs(value) if value else 1e-300)
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise CertificationError(f"value {value!r} or bound {bound!r} exceeds the double range")
    return value, math.nextafter(bound, math.inf)


def _float_units(value: int, bound: int, prec: int) -> tuple[float, float]:
    """``float_with_bound`` of a value and a bound in units of
    2^-(prec + _GUARD)."""
    return float_with_bound(value, bound, prec + _GUARD)


def fixed_below(x: float, fbits: int) -> int:
    """A double in units of 2^-fbits, rounded down; exact when 2^-fbits
    divides it."""
    num, den = x.as_integer_ratio()
    return (num << fbits) // den


def _units_below(x: float, prec: int) -> int:
    """A double in units of 2^-(prec + _GUARD), rounded down."""
    return fixed_below(x, prec + _GUARD)


__all__ = ["fixed_below", "float_with_bound", "prec_for"]
