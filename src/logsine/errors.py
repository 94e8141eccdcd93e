"""Failure types and the integer-argument check shared across the numeric modules."""


def _require_int(value: int, least: int, message: str) -> None:
    """Raise ValueError(message) unless ``value`` is an int, not a bool,
    and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(message)


class CertificationError(Exception):
    """A requested absolute-error tolerance cannot be certified.

    Raised when the achievable certified bound (including the final
    double-rounding floor) exceeds the caller's target.
    """


class RefinementExhausted(CertificationError):
    """Quadrature refinement hit max depth before certifying the tolerance."""
