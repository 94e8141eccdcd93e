"""Riemann zeta values: exact rational-times-pi-power form at even integer
arguments, and certified numeric evaluation at any integer argument >= 2.

Even arguments come from the Bernoulli bridge

    zeta(2k) = (-1)^(k+1) (2 pi)^(2k) B_{2k} / (2 (2k)!)

whose pi-free coefficient is carried exactly.  Numeric evaluation at every
s uses P. Borwein's alternating series ("An efficient algorithm for the
Riemann zeta function", CMS Conf. Proc. 27, 2000), summed on Python
integers with prec + 16 fractional bits at a working precision of prec
bits.  Its bound has two parts, and both are proved:

- the a-priori remainder 6 / (3 + sqrt 8)^n of Borwein's theorem for real
  s >= 2, where n, the number of terms, is the smallest that brings it
  under 2^-(prec + 4);
- the counted units of the integers' floor divisions, fewer than 2.

The value is the integer sum times 2^-(prec + 16), exact as a raw mpmath
tuple, so no rounding term enters; the double-precision constants used
downstream (math.pi, math.log) are good to >= 15 significant digits, and
certified bounds here always include the final rounding to double.  The
series function keeps its old name, ``_euler_maclaurin``, because the
benchmark's tracer wraps and counts it by that name.

Borwein's coefficients d_0..d_n are exact integers that depend on the
precision alone (through n).  They come from one table, keyed by the
precision in bits, that also holds the bound in units; n is about
(prec + 7) / 2.54, so an entry holds some 40 to 110 integers of up to
prec + 9 bits each.

Every numeric zeta value passes through one table, keyed by (s, working
precision in bits), that holds the series value and its bound as raw
mpmath tuples.  The contour legs, the closed form and zeta_numeric ask
for the same zeta(k+2) for every n, so each pair is summed once per
process.  The table grows by one entry (a few hundred bytes) per distinct
pair asked for; the precisions are the handful of integer digit counts that
the callers' tolerances map to, and s is at most n + 2, so a sweep over
n <= 12 at one tolerance adds about 55 entries.  What either table stores
depends on its key alone.  The value and its bound stay raw tuples until
``float_with_bound`` rounds them to doubles.

The contour legs and the closed form compute each of their terms
coeff * pi^m * zeta(s) with one raw-tuple kernel, ``_zeta_term``, which
also returns the term's bound |coeff * pi^m| * (zeta's bound)
+ round_slack.  pi^m comes from a table keyed by (precision in bits, m);
the callers ask for m <= n + 1, so a sweep over n <= 12 adds 13 entries
per precision.  The kernel makes the calls the ``mpf`` expressions of the
callers made, so every bit is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    round_nearest,
)

from ._precision import context_for, float_with_bound, round_slack
from .errors import CertificationError, _require_int
from .exact_core import BernoulliTable

__all__ = [
    "RealApprox",
    "ZetaEvenValue",
    "zeta_even_exact",
    "zeta_series_partial",
    "zeta_numeric",
]


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


@dataclass(frozen=True)
class ZetaEvenValue:
    """zeta(2k) = coefficient * pi^(2k) with an exact positive coefficient."""

    k: int
    pi_power: int
    coefficient: Fraction

    def float_value(self) -> float:
        """Double-precision zeta(2k) from the exact coefficient."""
        return float(self.coefficient) * math.pi ** self.pi_power


def zeta_even_exact(k: int, table: BernoulliTable) -> ZetaEvenValue:
    """Exact zeta(2k)/pi^(2k) via the Bernoulli bridge; requires B_{2k}."""
    _require_int(k, 1, "k must be a positive integer")
    if table.max_index < 2 * k:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * k}")
    coeff = (
        Fraction((-1) ** (k + 1) * 2 ** (2 * k), 2 * math.factorial(2 * k))
        * table[2 * k]
    )
    return ZetaEvenValue(k=k, pi_power=2 * k, coefficient=coeff)


def zeta_series_partial(s: float, terms: int) -> float:
    """Partial sum sum_{l=1}^{terms} l^(-s) of the defining series (s > 1).

    Exactly-rounded summation, so the result is nondecreasing in ``terms``
    and always approaches the limit from below.
    """
    if not s > 1:
        raise ValueError("the series converges only for s > 1")
    _require_int(terms, 1, "terms must be a positive integer")
    return math.fsum(l ** (-s) for l in range(1, terms + 1))


_GUARD = 16  # fractional bits of the series' integers beyond the working precision

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
    entry = _BORWEIN_D.get(prec)
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


def _euler_maclaurin(s: int, ctx: MPContext) -> tuple[tuple, tuple]:
    """zeta(s) for integer s >= 2 by Borwein's alternating series, summed
    on integers with F = ctx.prec + 16 fractional bits.  Returns (value,
    bound) as raw tuples.  The name is older than the algorithm; it stays
    because the benchmark's tracer wraps the series by this name.

    zeta(s) = 2^(s-1) / (d_n (2^(s-1) - 1)) sum_{k<n} (-1)^k (d_n - d_k)
    / (k+1)^s + gamma_n, with |gamma_n| <= 3 / ((3 + sqrt 8)^n
    |1 - 2^(1-s)|) <= 6 / (3 + sqrt 8)^n for real s >= 2 (P. Borwein, "An
    efficient algorithm for the Riemann zeta function", 2000).  Each term
    is one floor division, off by less than a unit; the n of them, scaled
    by at most 2 / d_n, and the final floor division come to under 2
    units.  The value z 2^-F is exact, and the bound is the remainder
    6 / (a_n - 1), rounded up to a unit, plus those 2 units.
    """
    d, units = _borwein_table(ctx.prec)
    fbits = ctx.prec + _GUARD
    d_n = d[-1]
    total = 0
    for k in range(len(d) - 1):
        term = ((d_n - d[k]) << fbits) // (k + 1) ** s
        total += -term if k & 1 else term
    z = (total << (s - 1)) // (d_n * ((1 << (s - 1)) - 1))
    return from_man_exp(z, -fbits), from_man_exp(units, -fbits)


# (s, precision in bits) -> raw mpmath tuples of (value, bound)
_ZETA_TABLE: dict[tuple[int, int], tuple[tuple, tuple]] = {}


def _zeta_raw(s: int, ctx: MPContext) -> tuple[tuple, tuple]:
    """zeta(s) at the precision of ``ctx`` as raw tuples: (value, bound)."""
    key = (s, ctx.prec)
    entry = _ZETA_TABLE.get(key)
    if entry is None:
        entry = _ZETA_TABLE.setdefault(key, _euler_maclaurin(s, ctx))
    return entry


# (precision in bits, m) -> raw pi^m
_PI_POWERS: dict[tuple[int, int], tuple] = {}


def _scale(coeff: Fraction, pi_power: int, prec: int) -> tuple:
    """Raw ``mpf(p) / q * pi ** m`` at ``prec`` bits for coeff = p/q.  At
    m = 0 the product with pi^0 = 1 would round nothing, so it is left out."""
    rnd = round_nearest
    scale = mpf_pos(from_int(coeff.numerator), prec, rnd)
    scale = mpf_div(scale, from_int(coeff.denominator), prec, rnd)
    if pi_power:
        key = (prec, pi_power)
        power = _PI_POWERS.get(key)
        if power is None:
            # (+ctx.pi) ** m
            pi = mpf_pos(mpf_pi(prec, rnd), prec, rnd)
            power = _PI_POWERS.setdefault(key, mpf_pow_int(pi, pi_power, prec, rnd))
        scale = mpf_mul(scale, power, prec, rnd)
    return scale


def _zeta_term(s: int, coeff: Fraction, pi_power: int, ctx: MPContext) -> tuple[tuple, tuple]:
    """One certified term coeff * pi^m * zeta(s) at the precision of
    ``ctx``, as raw tuples (value, bound): with scale = coeff * pi^m,
    value = scale * zeta(s) and
    bound = |scale| * (zeta's bound) + round_slack(value)."""
    prec, rnd = ctx.prec, round_nearest
    zeta, zeta_bound = _zeta_raw(s, ctx)
    scale = _scale(coeff, pi_power, prec)
    value = mpf_mul(scale, zeta, prec, rnd)
    bound = mpf_add(
        mpf_mul(mpf_abs(scale, prec, rnd), zeta_bound, prec, rnd),
        round_slack(value, prec),
        prec,
        rnd,
    )
    return value, bound


def zeta_numeric(s: int, target_abs_error: float) -> RealApprox:
    """Certified zeta(s) for integer s >= 2.

    Raises CertificationError when the target undercuts what a double can
    carry (about half an ulp of the result).
    """
    _require_int(s, 2, "require integer s >= 2")
    ctx = context_for(target_abs_error, extra_digits=15, min_dps=25)
    value, bound = float_with_bound(*_zeta_raw(s, ctx))
    if bound > target_abs_error:
        raise CertificationError(
            f"zeta({s}) certified to {bound:.3e}, target {target_abs_error:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)
