"""Riemann zeta values: exact rational-times-pi-power form at even integer
arguments, and certified numeric evaluation at any integer argument >= 2.

Even arguments come from the Bernoulli bridge

    zeta(2k) = (-1)^(k+1) (2 pi)^(2k) B_{2k} / (2 (2k)!)

whose pi-free coefficient is carried exactly.  Numeric evaluation sums the
defining series sum_{l>=1} l^(-s) to a cutoff N and replaces the tail by
the integral estimate N^(1-s)/(s-1) plus endpoint corrections (the usual
Euler-Maclaurin ladder, with exact Bernoulli coefficients); the remainder
after m correction pairs is bounded by the first omitted correction term,
which fixes N and m for any requested tolerance.  The double-precision
constants used downstream (math.pi, math.log) are good to >= 15 significant
digits; certified bounds here always include the final rounding to double.

Every numeric zeta value passes through one table, keyed by (s, working
precision in bits), that holds the series value and its remainder bound as
raw mpmath tuples.  The contour legs, the closed form and zeta_numeric ask
for the same zeta(k+2) for every n, so each pair is summed once per
process.  The table grows by one entry (a few hundred bytes) per distinct
pair asked for; the precisions are the handful of integer digit counts that
the callers' tolerances map to, and s is at most n + 2, so a sweep over
n <= 12 at one tolerance adds about 55 entries.  A missing entry is summed
in the caller's fixed-precision context, so what is stored depends on its
key alone.

The series is summed on raw mpmath tuples with ``mpmath.libmp`` calls,
skipping the type checks and object allocation of the ``mpf`` operators.
Each step makes the very call, at the context's precision with
round-to-nearest, that the operator of the ``mpf`` expression it replaces
makes, and every sum keeps its association order, so each rounding and
therefore every bit of the result is what the ``mpf`` expression gives.
The head powers only its odd bases: l^-s for l = 2^a m is m^-s with its
exponent lowered by a*s, because ``mpf_pow_int`` and ``mpf_div`` round
the mantissa alone; all head terms are still added in order.  The s-free
factor of each correction term, B_2j/(2j)!, comes from a table keyed by
(precision in bits, j) with j <= 60; each entry is the raw tuple the same
calls returned when they ran inside every series.  The value and its
bound stay raw tuples until ``float_with_bound`` rounds them to doubles.

The contour legs and the closed form compute each of their terms
coeff * pi^m * zeta(s) with one raw-tuple kernel, ``_zeta_term``, which
also returns the term's bound |coeff * pi^m| * (zeta's remainder bound)
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
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    round_nearest,
)

from ._precision import context_for, float_with_bound, round_slack
from .errors import CertificationError, _require_int
from .exact_core import BernoulliTable, bernoulli_table

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


# (precision in bits, j) -> raw B_2j / (2j)!, the s-free factor of the
# j-th correction term
_LADDER_COEFF: dict[tuple[int, int], tuple] = {}


def _ladder_coefficient(j: int, table: BernoulliTable, prec: int) -> tuple:
    """B_2j / (2j)! at ``prec`` bits, from a table holding B_2j."""
    key = (prec, j)
    coeff = _LADDER_COEFF.get(key)
    if coeff is None:
        rnd = round_nearest
        b2j = table[2 * j]
        # mpf(b2j.numerator) / b2j.denominator / math.factorial(2 * j)
        coeff = mpf_pos(from_int(b2j.numerator), prec, rnd)
        coeff = mpf_div(coeff, from_int(b2j.denominator), prec, rnd)
        coeff = mpf_div(coeff, from_int(math.factorial(2 * j)), prec, rnd)
        coeff = _LADDER_COEFF.setdefault(key, coeff)
    return coeff


def _euler_maclaurin(s: int, ctx: MPContext) -> tuple[tuple, tuple]:
    """Series head of max(64, ctx.dps) terms + integral tail + correction
    ladder at the precision of ``ctx``.  Returns (value, analytic remainder
    bound) as raw tuples.

    Correction pairs are added until the next one drops below the working
    precision; the remainder is bounded by twice the first omitted term
    (the exact remainder has the magnitude and sign of that term for this
    completely monotone summand; the factor 2 is slack).  The exact
    coefficients come from one Bernoulli table that doubles when the
    ladder outgrows it.

    Each comment gives the ``mpf`` expression whose operator makes the
    ``libmp`` calls below it (see the module docstring).
    """
    prec, rnd = ctx.prec, round_nearest
    n_head = max(64, ctx.dps)
    # head += mpf(l) ** (-s) for l = 1..n_head-1, in that order.  For
    # l = 2^a m with m odd, mpf(l) is mpf(m) with its exponent raised by a;
    # mpf_pow_int and mpf_div round the mantissa alone, so l^-s is m^-s
    # with its exponent lowered by a*s, and only odd bases are powered.
    head = fzero
    odd_terms = []  # m^-s at index m // 2
    for l in range(1, n_head):
        if l & 1:
            term = mpf_pow_int(mpf_pos(from_int(l), prec, rnd), -s, prec, rnd)
            odd_terms.append(term)
        else:
            a = (l & -l).bit_length() - 1
            sign, man, exp, bc = odd_terms[l >> (a + 1)]
            term = (sign, man, exp - a * s, bc)
        head = mpf_add(head, term, prec, rnd)
    big_n = mpf_pos(from_int(n_head), prec, rnd)
    # value = head + big_n ** (1 - s) / (s - 1) + big_n ** (-s) / 2
    tail = mpf_div(mpf_pow_int(big_n, 1 - s, prec, rnd), from_int(s - 1), prec, rnd)
    half = mpf_div(mpf_pow_int(big_n, -s, prec, rnd), from_int(2), prec, rnd)
    value = mpf_add(mpf_add(head, tail, prec, rnd), half, prec, rnd)
    # threshold = mpf(10) ** (-(ctx.dps + 6))
    threshold = mpf_pow_int(mpf_pos(from_int(10), prec, rnd), -(ctx.dps + 6), prec, rnd)
    table = bernoulli_table(16)
    j = 0
    while True:
        j += 1
        if j > 60:
            raise CertificationError("correction ladder failed to close")
        if 2 * j > table.max_index:
            table = bernoulli_table(2 * table.max_index)
        rising = math.prod(range(s, s + 2 * j - 1))
        # term = (mpf(b2j.numerator) / b2j.denominator / math.factorial(2 * j)
        #         * rising * big_n ** (-s - 2 * j + 1))
        term = mpf_mul_int(_ladder_coefficient(j, table, prec), rising, prec, rnd)
        term = mpf_mul(term, mpf_pow_int(big_n, -s - 2 * j + 1, prec, rnd), prec, rnd)
        if mpf_le(mpf_abs(term, prec, rnd), threshold):  # abs(term) <= threshold
            break
        value = mpf_add(value, term, prec, rnd)
    # 2 * abs(term)
    return value, mpf_mul_int(mpf_abs(term, prec, rnd), 2, prec, rnd)


# (s, precision in bits) -> raw mpmath tuples of (value, remainder bound)
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
    bound = |scale| * (zeta's remainder bound) + round_slack(value)."""
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
    value, analytic = _zeta_raw(s, ctx)
    # analytic + round_slack(ctx.mpf(2))
    internal = mpf_add(analytic, round_slack(from_int(2), ctx.prec), ctx.prec, round_nearest)
    value, bound = float_with_bound(value, internal)
    if bound > target_abs_error:
        raise CertificationError(
            f"zeta({s}) certified to {bound:.3e}, target {target_abs_error:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)
