"""Fourier-series route to the same integrals: partial sums of the
log-sine series, the orthogonality shortcut to
int_0^{pi/2} (log(2 sin x))^2 dx, and an independent derivation of the
log-sine closed form by repeated integration by parts.

Restricting the power series of log(1 - z) to the unit circle and
splitting real from imaginary parts gives, for theta in (0, 2pi):

    log(2 |sin(theta/2)|) = -sum_{l>=1} cos(l theta)/l
    (theta - pi)/2        = -sum_{l>=1} sin(l theta)/l

The first series squares and integrates, via cosine orthogonality, to
(pi/4) sum 1/l^2 = pi^3/24.  Multiplied by theta^n and integrated by
parts it instead descends in cos -> sin -> cos couplets, the power of
theta falling by two per couplet with endpoint contributions only on the
second beat; unrolling that cadence reproduces the closed-form
coefficients of I_n by a wholly different route.

``_parseval_fixed`` encloses the partial sum (pi/4) sum_{l<=N} 1/l^2 in
closed form, as (pi/4)(zeta(2) - T_N): zeta(2) from Borwein's series,
and the tail T_N = sum_{l>N} 1/l^2 from Euler-Maclaurin,

    A - 1/(30 N^5) <= T_N <= A,   A = 1/N - 1/(2N^2) + 1/(6N^3).

The summand 1/x^2 is completely monotone (its derivatives alternate in
sign), so the remainder after any Euler-Maclaurin term has the sign of
the first omitted term, here -1/(30 N^5), and is no larger than it.
``parseval_logsquared`` sums the same partial sum in doubles, with no
bound.

The log-sine series diverges on the lattice theta = 0 mod 2pi; angles
within 1e-9 of it are rejected, and so is a bool or any angle that is
not a real number.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from ._precision import _GUARD
from .errors import _require_int
from .logsine_closed_form import SymbolicLogSine
from .zeta_engine import _fixed_term, _zeta_fixed

__all__ = [
    "logsin_series_partial",
    "parseval_logsquared",
    "logsine_via_fourier",
]

_LATTICE_RADIUS = 1e-9


def _validate_theta(theta: float) -> None:
    real = isinstance(theta, numbers.Real)
    if isinstance(theta, bool) or not (real and 0.0 < theta < 2.0 * math.pi):
        raise ValueError("theta must be a number strictly inside (0, 2*pi), not a bool")
    if theta <= _LATTICE_RADIUS or theta >= 2.0 * math.pi - _LATTICE_RADIUS:
        raise ValueError("theta too close to the divergent lattice 0 mod 2*pi")


def logsin_series_partial(theta: float, terms: int) -> float:
    """-sum_{l=1}^{terms} cos(l*theta)/l, the log(2|sin(theta/2)|) series."""
    _validate_theta(theta)
    _require_int(terms, 1, "terms must be a positive integer")
    return -math.fsum(math.cos(l * theta) / l for l in range(1, terms + 1))


def parseval_logsquared(terms: int) -> float:
    """(pi/4) sum_{l=1}^{terms} 1/l^2: the orthogonality route to
    int_0^{pi/2} (log(2 sin x))^2 dx.

    Strictly increasing in ``terms`` with limit pi^3/24; the tail after N
    terms is below (pi/4)/N.
    """
    _require_int(terms, 1, "terms must be a positive integer")
    return math.pi / 4 * math.fsum(1.0 / (l * l) for l in range(1, terms + 1))


def _parseval_fixed(terms: int, prec: int) -> tuple[int, int]:
    """(pi/4) sum_{l=1}^{terms} 1/l^2 in units of 2^-(prec + 16): (value,
    bound), as (pi/4)(zeta(2) - T_N), N = terms, with the tail T_N
    enclosed between the integers lo and hi by the Euler-Maclaurin bounds
    above: zeta(2) - T_N lies within u + hi - lo units of z - hi."""
    unit = 1 << prec + _GUARD
    a = Fraction(1, terms) - Fraction(1, 2 * terms ** 2) + Fraction(1, 6 * terms ** 3)
    lo = math.floor((a - Fraction(1, 30 * terms ** 5)) * unit)
    hi = math.ceil(a * unit)
    z, u = _zeta_fixed(2, prec)
    return _fixed_term(1, 4, 1, (z - hi, u + hi - lo), prec)


def _theta_cosine_moments(n: int) -> dict[int, Fraction]:
    """Coefficients c_k with int_0^pi theta^p cos(2l theta) dtheta
    = sum_k c_k pi^(p-2k+1) / l^(2k), unrolled from the two-step descent

        M_p = (p/4) pi^(p-1) u - (p(p-1)/4) u M_{p-2},   u = 1/l^2,

    whose terminal moments M_0 and M_1 both vanish (the plain and
    theta-weighted cosine moments over a whole number of periods).
    """
    table: list[dict[int, Fraction]] = [{}, {}]
    for p in range(2, n + 1):
        step: dict[int, Fraction] = {1: Fraction(p, 4)}
        for k, c in table[p - 2].items():
            step[k + 1] = step.get(k + 1, Fraction(0)) - Fraction(p * (p - 1), 4) * c
        table.append({k: c for k, c in step.items() if c != 0})
    return table[n]


def logsine_via_fourier(n: int) -> SymbolicLogSine:
    """Closed-form coefficients of I_n rebuilt from the integration-by-parts
    cadence instead of the direct formula.

    Writing log(sin theta) = -log 2 - sum_l cos(2l theta)/l and unrolling
    the theta^n moments termwise turns sum_l 1/l^(2k+1) into zeta(2k+1);
    the result must agree with logsine_symbolic(n) field by field.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    moments = _theta_cosine_moments(n) if n >= 2 else {}
    terms = tuple((2 * k + 1, -c) for k, c in sorted(moments.items()))
    return SymbolicLogSine(
        n=n, log2_coefficient=Fraction(-1, n + 1), zeta_terms=terms
    )
