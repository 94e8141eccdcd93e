"""Riemann zeta values: exact rational-times-pi-power form at even integer
arguments, and certified numeric evaluation at any integer argument >= 2.

Even arguments come from the Bernoulli bridge

    zeta(2k) = (-1)^(k+1) (2 pi)^(2k) B_{2k} / (2 (2k)!)

whose pi-free coefficient is carried exactly.  Numeric evaluation at every
s uses P. Borwein's alternating series ("An efficient algorithm for the
Riemann zeta function", CMS Conf. Proc. 27, 2000), summed on Python
integers in ``_precision``'s unit 2^-(prec + 16) at a working precision of
prec bits, so no rounding enters before the final one to double, which
every certified bound here includes.  Its bound has two parts, and both
are proved:

- the a-priori remainder 6 / (3 + sqrt 8)^n of Borwein's theorem for real
  s >= 2, where n, the number of terms, is the smallest that brings it
  under 2^-(prec + 4);
- the counted units of the integers' floor divisions, fewer than 2.

Borwein's coefficients d_0..d_n are exact integers that depend on the
precision alone (through n).  They come from one table, keyed by the
precision in bits, that also holds the bound in units; n is about
(prec + 7) / 2.54, so an entry holds some 40 to 110 integers of up to
prec + 9 bits each.

Every numeric zeta value passes through one table, keyed by (s, working
precision in bits), that holds the series' value and bound in units; they
stay integers until ``certify`` rounds them to doubles.  The contour
legs, the closed form and zeta_numeric ask for the same zeta(k+2) for
every n, so each pair is summed once per process.  The table grows by one
entry (about two hundred bytes with its key) per pair asked for; the
precisions are the handful the callers' tolerances map to, and s is at
most n + 2, so a sweep over n <= 12 at one tolerance adds about 55
entries.  What either table stores depends on its key alone.

The contour legs and the closed form sum terms num/den * pi^m * x, x a
zeta value, log 2 or 1, in the series' units 2^-(prec + 16) with one
integer kernel, ``_fixed_term``, at the one working precision
``_term_prec`` gives.  A term is one floor division; its bound
counts that unit and carries the units of pi^m and of x through the
product.  pi^m comes from an integer table keyed by (precision in bits,
m), and log 2 straight from its routine, both seeded by the counted
routines of ``_elementary``, so their stated units are proved.  The
callers ask for m <= n + 2, so a sweep over n <= 12 adds 14 entries per
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _elementary
from ._precision import _GUARD, RealApprox, certify, kept, prec_for
from .errors import _require_int
from .exact_core import BernoulliTable

__all__ = [
    "ZetaEvenValue",
    "zeta_even_exact",
    "zeta_numeric",
]


@dataclass(frozen=True)
class ZetaEvenValue:
    """zeta(2k) = coefficient * pi^(2k) with an exact positive coefficient."""

    k: int
    pi_power: int
    coefficient: Fraction


def zeta_even_exact(k: int, table: BernoulliTable) -> ZetaEvenValue:
    """Exact zeta(2k)/pi^(2k) via the Bernoulli bridge; requires B_{2k}."""
    _require_int(k, 1, "k must be a positive integer")
    table._require(2 * k)
    coeff = (
        Fraction((-1) ** (k + 1) * 2 ** (2 * k), 2 * math.factorial(2 * k))
        * table[2 * k]
    )
    return ZetaEvenValue(k=k, pi_power=2 * k, coefficient=coeff)


# precision in bits -> (d_0..d_n, the bound in units of 2^-(prec + 16))
_BORWEIN_D: dict[int, tuple[tuple[int, ...], int]] = {}


def _borwein_table(prec: int) -> tuple[tuple[int, ...], int]:
    """Borwein's d_0..d_n for ``prec`` bits, and the bound of every series
    summed with them, in units of 2^-(prec + 16).

    n is the smallest with 6 / (3 + sqrt 8)^n <= 2^-(prec + 4).  With
    a_n = (3 + sqrt 8)^n + (3 - sqrt 8)^n, an integer, (3 + sqrt 8)^n lies
    in (a_n - 1, a_n), so the test and the remainder 6 / (a_n - 1) are
    exact integer work.  d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!);
    each summand is the one before times 4 (n+i-1)(n-i+1) / ((2i-1) 2i),
    an exact integer division.
    """
    entry = _BORWEIN_D.get(prec)  # not ``kept``: repr_dump.py labels the bare precision
    if entry is None:
        goal = 6 << (prec + 4)
        n, a_prev, a_n = 1, 2, 6
        while a_n - 1 < goal:
            n, a_prev, a_n = n + 1, a_n, 6 * a_n - a_prev
        d = [1]
        term = 1
        for i in range(1, n + 1):
            term = term * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * 2 * i)
            d.append(d[-1] + term)
        # ceil(6 / (a_n - 1) in units) + 2 counted units
        units = -((-6 << (prec + _GUARD)) // (a_n - 1)) + 2
        entry = _BORWEIN_D.setdefault(prec, (tuple(d), units))
    return entry


def _euler_maclaurin(s: int, prec: int) -> tuple[int, int]:
    """zeta(s) for integer s >= 2 by Borwein's alternating series, summed
    on integers with F = prec + 16 fractional bits.  Returns (value,
    bound) in units of 2^-F.  The name is older than the algorithm; it
    stays because the benchmark's tracer wraps the series by this name.

    zeta(s) = 2^(s-1) / (d_n (2^(s-1) - 1)) sum_{k<n} (-1)^k (d_n - d_k)
    / (k+1)^s + gamma_n, with |gamma_n| <= 3 / ((3 + sqrt 8)^n
    |1 - 2^(1-s)|) <= 6 / (3 + sqrt 8)^n for real s >= 2 (P. Borwein, "An
    efficient algorithm for the Riemann zeta function", 2000).  Each term
    is one floor division, off by less than a unit; the n of them, scaled
    by at most 2 / d_n, and the final floor division come to under 2
    units.  The value is z units, and the bound is the remainder
    6 / (a_n - 1), rounded up to a unit, plus those 2 units.
    """
    d, units = _borwein_table(prec)
    fbits = prec + _GUARD
    d_n = d[-1]
    total = 0
    for k in range(len(d) - 1):
        term = ((d_n - d[k]) << fbits) // (k + 1) ** s
        total += -term if k & 1 else term
    return (total << (s - 1)) // (d_n * ((1 << (s - 1)) - 1)), units


# (s, precision in bits) -> (value, bound) in units of 2^-(prec + 16)
_ZETA_TABLE: dict[tuple[int, int], tuple[int, int]] = {}


@kept(_ZETA_TABLE)
def _zeta_fixed(s: int, prec: int) -> tuple[int, int]:
    """zeta(s) at ``prec`` bits in units of 2^-(prec + 16): (value, bound)."""
    return _euler_maclaurin(s, prec)  # by its global name, which the benchmark tracer rebinds


# (precision in bits, m >= 1) -> (P_m, e_m), pi^m as ``_pi_fixed`` gives it
_PI_FIXED: dict[tuple[int, int], tuple[int, int]] = {}


def _pi_fixed(m: int, prec: int) -> tuple[int, int]:
    """pi^m in units of 2^-F, F = prec + 16, as (P_m, e_m): pi^m lies
    within e_m units of P_m.

    P_1 is ``_elementary.pi`` at F bits, within a units of pi, where a is
    that routine's count but at least 2, the allowance every leg and
    closed-form bound is pinned to.  P_m is P_(m-1) P_1 2^-F rounded
    down, and e_m the ceiling of ((P_(m-1) + e_(m-1)) a + P_1 e_(m-1))
    2^-F plus the floor's unit.
    """
    fbits = prec + _GUARD
    entry = (1 << fbits, 0) if m == 0 else _PI_FIXED.get((prec, m))  # not ``kept``: fills 1..m
    if entry is None:
        pi, units = _elementary.pi(fbits)
        allowance, power, err = max(units, 2), 1 << fbits, 0
        for j in range(1, m + 1):
            entry = _PI_FIXED.get((prec, j))
            if entry is None:
                spread = -(-((power + err) * allowance + pi * err) >> fbits) + 1
                entry = _PI_FIXED.setdefault((prec, j), ((power * pi) >> fbits, spread))
            power, err = entry
    return entry


def _log2_fixed(prec: int) -> tuple[int, int]:
    """log 2 in units of 2^-(prec + 16) as (L, a): ``_elementary.log2``
    and its count, but at least 2, as for pi."""
    log2, units = _elementary.log2(prec + _GUARD)
    return log2, max(units, 2)


def _term_prec(tol: float) -> int:
    """The working precision of the legs' and the closed form's term sums."""
    return prec_for(tol, extra_digits=25, min_dps=30)


def _fixed_term(
    num: int, den: int, m: int, factor: tuple[int, int] | None, prec: int
) -> tuple[int, int]:
    """num/den * pi^m * x in units of 2^-F, F = prec + 16, for x within u
    units of z, (z, u) = ``factor`` (x = 1 when None): (value, bound).

    The value is one floor division, under a unit off unless exact.  With
    pi^m within e units of P, the bound is the ceiling of
    |num| ((P + e) u + (z + u) e) / (den 2^F), plus that unit.
    """
    fbits = prec + _GUARD
    power, err = _pi_fixed(m, prec)
    z, u = factor or (1 << fbits, 0)
    den <<= fbits
    value, rest = divmod(num * power * z, den)
    return value, -(-abs(num) * ((power + err) * u + (z + u) * err) // den) + (rest != 0)


def zeta_numeric(s: int, target_abs_error: float) -> RealApprox:
    """Certified zeta(s) for integer s >= 2.

    Raises CertificationError when the target undercuts what a double can
    carry (about half an ulp of the result).
    """
    _require_int(s, 2, "require integer s >= 2")
    prec = prec_for(target_abs_error, extra_digits=15, min_dps=25)
    return certify(*_zeta_fixed(s, prec), prec, target=target_abs_error, what=f"zeta({s})")
