"""Failure types and the argument checks shared across the numeric modules."""

import math
import numbers
import sys


def _require_int(value: int, least: int, message: str) -> None:
    """Raise ValueError(message) unless ``value`` is an int, not a bool,
    and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(message)


def _require_positive(value: float, what: str) -> float:
    """Raise ValueError unless ``value``, named ``what``, is a finite real
    (a ``numbers.Real``), not a bool, and at least 5e-324, the least double.

    Returns the largest double at most ``value``, and the largest double
    for a value past it: a double bound exceeds that double exactly when it
    exceeds ``value``, so every caller works with a plain float."""
    if type(value) is float and 5e-324 <= value < math.inf:
        return value
    real = isinstance(value, (float, int, numbers.Real))  # float and int skip the slow ABC check
    if isinstance(value, bool) or not (real and 5e-324 <= value < math.inf):
        raise ValueError(f"{what} must be positive and finite")
    double = float(min(value, sys.float_info.max))
    return math.nextafter(double, 0.0) if double > value else double


class CertificationError(Exception):
    """A requested absolute-error tolerance cannot be certified.

    Raised when the achievable certified bound (including the final
    double-rounding floor) exceeds the caller's target.
    """


class RefinementExhausted(CertificationError):
    """Quadrature refinement hit max depth before certifying the tolerance."""
