"""Internal helpers for extended-precision evaluation with honest float bounds.

Numeric results are produced by summing integers at a working precision
far beyond double, then rounding once to float.  The reported bound must
then cover (a) the analytic truncation error of whatever series/rule was
used, (b) the counted units of every rounding at the working precision,
and (c) the single final rounding to double, which is at most half an
ulp of the result.

This module owns ``RealApprox`` and the one fixed-point unit, 2^-(prec +
_GUARD) at prec bits, that the zeta series, the legs, the closed form and
the tanh-sinh engine sum integers in: the conversion of a double into it,
and the one exit out of it, ``certify``, which rounds a value and a bound
in the unit to a ``RealApprox`` and checks it against its target.
``_round_up`` writes (c) once, for ``certify`` and ``_sum_components``.

The working precision is a plain number of bits, chosen from the target
by ``prec_for`` and passed to every routine.  Nothing process-wide holds
it, so calls in different threads cannot change each other's arithmetic;
``prec_for`` keeps each precision in a table keyed by its arguments, the
target as its checked double, and an entry depends on its key alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CertificationError, _require_positive

_GUARD = 16  # fractional bits of the fixed-point integers beyond the working precision


# (target as the largest double at most it, extra digits, least digits) ->
# precision in bits; equal targets such as 1 and 1.0 share a key
_PREC_FOR: dict[tuple[float, int, int], int] = {}


def prec_for(target_abs_error: float, extra_digits: int, min_dps: int) -> int:
    """The working precision in bits for a target absolute error:
    ``extra_digits`` decimal digits below the target, and never fewer than
    ``min_dps``; memoized by the checked target's double."""
    target = _require_positive(target_abs_error, "target absolute error")
    key = (target, extra_digits, min_dps)
    prec = _PREC_FOR.get(key)
    if prec is None:
        digits = -math.log10(target) if target < 1 else 0.0
        dps = max(min_dps, int(math.ceil(digits)) + extra_digits)
        prec = max(1, round((dps + 1) * 3.3219280948873626))  # log2(10) bits per digit
        prec = _PREC_FOR.setdefault(key, prec)
    return prec


@dataclass(frozen=True)
class RealApprox:
    """A double plus a certified absolute error bound.

    The represented true quantity lies in [value - abs_error, value + abs_error].
    """

    value: float
    abs_error: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error) or self.abs_error < 0:
            raise ValueError("abs_error must be finite and nonnegative")


def _double(x: int, fbits: int) -> float:
    """x 2^-fbits rounded to the nearest double, ties to even; +-inf past
    the double range."""
    try:
        return x / (1 << fbits)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _round_up(value: float, bound: float) -> float:
    """``bound`` plus half an ulp of ``value``, the rounding of the value
    to double, rounded upward so the certificate never understates."""
    return math.nextafter(bound + 0.5 * math.ulp(abs(value) or 1e-300), math.inf)


def float_with_bound(value: int, bound: int, fbits: int) -> tuple[float, float]:
    """Round a value and a bound in units of 2^-fbits to doubles: (value,
    certified abs bound), the bound through ``_round_up``.  Raises
    CertificationError when the value or the bound does not fit a double.
    """
    value = _double(value, fbits)
    bound = _round_up(value, _double(bound, fbits))
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise CertificationError(f"value {value!r} or bound {bound!r} exceeds the double range")
    return value, bound


def fixed_below(x: float, fbits: int) -> int:
    """A double in units of 2^-fbits, rounded down; exact when 2^-fbits
    divides it."""
    num, den = x.as_integer_ratio()
    return (num << fbits) // den


def _units_below(x: float, prec: int) -> int:
    """A double in units of 2^-(prec + _GUARD), rounded down."""
    return fixed_below(x, prec + _GUARD)


def certify(
    value: int, bound: int, prec: int, *,
    plus: RealApprox | None = None, target: float = math.inf, what: str = "",
) -> RealApprox:
    """The certified double of a value within ``bound`` units of 2^-F,
    F = prec + _GUARD, rounded once through ``float_with_bound``.

    ``plus``, a certified double, is added first, value to value and bound
    to bound, exactly: at max(F, the fractional bits of its two doubles).
    Raises CertificationError when the bound exceeds ``target``, naming
    ``what`` was certified.
    """
    unit = fbits = prec + _GUARD
    if plus is not None:
        doubles = (plus.value, plus.abs_error)
        fbits = max(unit, *(x.as_integer_ratio()[1].bit_length() - 1 for x in doubles))
        value = (value << fbits - unit) + fixed_below(doubles[0], fbits)
        bound = (bound << fbits - unit) + fixed_below(doubles[1], fbits)
    value, bound = float_with_bound(value, bound, fbits)
    if bound > target:
        raise CertificationError(f"{what} certified to {bound:.3e}, target {float(target):.3e}")
    return RealApprox(value, bound)


def _sum_components(parts: list[RealApprox]) -> RealApprox:
    """The certified sum of certified doubles: their values summed with
    one rounding (``math.fsum``), and their bounds likewise, with
    ``_round_up``."""
    value = math.fsum(p.value for p in parts)
    return RealApprox(value, _round_up(value, math.fsum(p.abs_error for p in parts)))


__all__ = ["RealApprox", "certify", "fixed_below", "float_with_bound", "prec_for"]
