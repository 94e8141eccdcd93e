"""Ground-truth numerical integration for every definite integral the
library verifies, with certified absolute-error bounds.

Every integral runs on an interval [0, b], and all rules share one
mechanism: double-exponential (tanh-sinh) node placement,
x = (b/2)(1 + tanh((pi/2)*sinh(t))), trapezoid in t with step halving.
Node weights decay like exp(-exp|t|), which damps integrable logarithmic
endpoint singularities without any explicit subtraction; the same rule
therefore covers the log(sin) endpoints, the log(2 sin) corner,
and the y=0 edge of the semi-infinite integrals uniformly.

Semi-infinite domains are truncated at a cutoff Y chosen by a policy rule:
the dropped tail of y^n * log(1 - e^(-2y)) is bounded through
|log(1-u)| <= u/(1-u) by an exact incomplete-gamma sum, and Y is grown
until that bound is below half the target.

The reported abs_error is the sum of five terms, auditable one by one:
the rule estimate |T_k - T_(k-1)| of the last two refinement levels (an
estimate, not a proof); the tail-truncation bound of a semi-infinite
integral; the working-precision slack ``round_slack(mass)`` for the
``libmp``-evaluated nodes, weights, abscissae and integrand values; the
engine's counted fixed-point truncations; and the final rounding to
double, half an ulp of the result.  Refinement is deterministic:
identical inputs visit identical nodes.  Evaluation runs at a working
precision well beyond double, so the double-rounding floor dominates
even when the integrand mass is ~1e5 (x^12 log sin x) and the target is
1e-10.

The engine sums on Python integers with F = working precision + ``_GUARD``
fractional bits, ``_precision``'s unit, read from this module's binding
so that a test can coarsen the engine alone.  A node's
distances b g and b (1 - g) reach the integrand exactly, as (mantissa,
exponent) pairs, so a node within 1e-100 of an end still gets its
log(sin d) or ``libmp`` call on its floating distance: only products
and sums go fixed.  Each integrand value is computed at the working
precision and cut to an integer within one unit 2^-F of that value; the
unit covers this cut alone.  The value's own rounding error, a few of its
ulps at the working precision (for the vertical leg at 86 bits, up to
about 4 * 10^6 units at n = 0 and 1.4 * 10^9 at n = 12), is charged by
``round_slack(mass)``.  Each product with a weight w < 2 rounds down
once, so it is off by under 3 units; the rule's value (b/2) 2^-k sum
rounds down once more.  The counted term is 3 units per evaluation
scaled by b/2^(k+1), plus 2.

Results are memoized in one cache keyed by (integrand builder, its
arguments, target), and the nodes in one table of the engine's integers
keyed by (precision, level); every rule stops by level ``_MAX_DEPTH`` =
12, so depth is no part of the key.  The x^n log(sin x) integrand takes
log(sin d), d the node's distance from its nearer end, from a table
keyed by working precision and d, so the moments for every n share one
evaluation per node.  The other integrands are functions of x alone:
each rounds x to the working precision, makes the ``libmp`` calls of its
``mpf`` formula at that precision, and cuts the result with
``to_fixed``.  Every rule runs at the working precision of its target,
so every memoized value depends on its key alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from mpmath.libmp import (
    dps_to_prec, fone, from_float, from_int, from_man_exp, mpf_add, mpf_cos, mpf_cosh_sinh,
    mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_mul_int, mpf_pi, mpf_pow_int, mpf_shift,
    mpf_sin, mpf_sub, prec_to_dps, round_ceiling, round_floor, round_nearest, to_fixed, to_float,
)

from ._precision import _GUARD, float_with_bound, prec_for, round_slack
from .errors import CertificationError, RefinementExhausted, _require_int
from .zeta_engine import RealApprox

__all__ = [
    "QuadratureSettings",
    "default_semi_infinite_cutoff_policy",
    "vertical_tail_bound",
    "integrate_logsine",
    "integrate_logsquared",
    "integrate_vertical_leg",
    "cosine_moment",
    "cosine_orthogonality",
]

# Refinement levels below this never certify: a lucky small difference on a
# coarse mesh is not evidence of convergence.
_MIN_ACCEPT_LEVEL = 3
# The deepest refinement level any oracle integral visits.
_MAX_DEPTH = 12


def vertical_tail_bound(n: int, cutoff: float) -> float:
    """Bound on |int_cutoff^inf y^n log(1 - e^(-2y)) dy|.

    Uses |log(1-u)| <= u/(1-u) with u = e^(-2y) <= e^(-2*cutoff), then the
    exact closed form int_Y^inf y^n e^(-2y) dy =
    (n!/2^(n+1)) e^(-2Y) sum_{j=0}^{n} (2Y)^j / j!.  The sum is taken
    exactly and the rest rounded up, never below the smallest normal
    double; a bound past the double range raises CertificationError.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    # sum_j (n!/j!) (2Y)^j by Horner's rule, then times e^(-2Y)/(1 - e^(-2Y)) / 2^(n+1)
    x, poly, coeff, up = from_float(2.0 * cutoff), fone, 1, round_ceiling
    for j in range(n, 0, -1):
        coeff *= j
        poly = mpf_add(mpf_mul(poly, x), from_int(coeff))
    u = mpf_exp(from_float(-2.0 * cutoff), 53, up)
    ratio = mpf_div(u, mpf_sub(fone, u, 53, round_floor), 53, up)
    bound = to_float(mpf_mul(mpf_shift(poly, -(n + 1)), ratio, 53, up), rnd=up)
    if bound == math.inf:
        raise CertificationError(f"tail bound for n={n} past {cutoff!r} exceeds the double range")
    return max(bound, sys.float_info.min)  # a subnormal bound may have rounded down


def default_semi_infinite_cutoff_policy(n: int, target_abs_error: float) -> float:
    """Truncation point for the e^(-2y)-decaying integrands: start at
    max(20, 5n) and grow until the tail bound is below target/2."""
    _require_int(n, 0, "n must be a nonnegative integer")
    if not (target_abs_error > 0 and math.isfinite(target_abs_error)):
        raise ValueError("target absolute error must be positive and finite")
    cutoff = max(20.0, 5.0 * n)
    while vertical_tail_bound(n, cutoff) >= target_abs_error / 2:
        cutoff *= 1.25
    return cutoff


@dataclass(frozen=True)
class QuadratureSettings:
    """Certification parameters shared by all oracle integrals."""

    target_abs_error: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_abs_error) and self.target_abs_error > 0):
            raise ValueError("target_abs_error must be positive and finite")


# ---------------------------------------------------------------------------
# tanh-sinh engine
# ---------------------------------------------------------------------------


# An exact nonnegative number man * 2^exp as the pair (man, exp).
Distance = tuple[int, int]
# (x, d) -> f(x) on [0, b] as an integer within one unit of 2^-(prec + _GUARD)
# of its working-precision value; d is x's exact distance from the nearer end
RawIntegrand = Callable[[Distance, Distance], int]


def _shift(value: int, bits: int) -> int:
    """value * 2^bits, rounded down."""
    return value << bits if bits >= 0 else value >> -bits


def _t_limit(dps: int) -> int:
    """Integer t-range such that the double-exponential weight underflows
    the working precision beyond it."""
    return int(math.ceil(math.asinh(math.log(10.0) * (dps + 8) / math.pi)))


@lru_cache(maxsize=None)
def _nodes(prec: int, level: int) -> tuple[tuple[int, ...], ...]:
    """The nodes new at a refinement level as the engine's integers
    (gm, ge, cm, wm, ws): g = gm 2^ge, 1 - g = cm 2^ge and w = wm 2^-ws.

    For an abscissa t:  u = (pi/2) sinh t,  q = e^(-2u), offset-fraction
    g = q/(1+q) (distance of each mirrored node from its nearer endpoint,
    as a fraction of the interval), weight w = 2 pi cosh(t) q/(1+q)^2,
    rounded 10 digits above ``prec``.  Level 0 has t = 0..T, level k >= 1
    the odd multiples of 2^-k up to T.  Mirrored nodes share g and w; the
    center node g = 1/2, its own mirror, holds half its weight.
    """
    dps = prec_to_dps(prec)
    wp, rnd = dps_to_prec(dps + 10), round_nearest
    pi = mpf_pi(wp, rnd)
    half_pi = mpf_div(pi, from_int(2), wp, rnd)  # ctx.pi / 2
    two_pi = mpf_mul_int(pi, 2, wp, rnd)  # 2 * ctx.pi
    out = []
    # t = j 2^-level, exact: every j <= T at level 0, the odd j above
    odd = level > 0
    for j in range(odd, (_t_limit(dps) << level) + 1, 1 + odd):
        cosh_t, sinh_t = mpf_cosh_sinh(from_man_exp(j, -level), wp, rnd)
        u = mpf_mul(half_pi, sinh_t, wp, rnd)
        q = mpf_exp(mpf_mul_int(u, -2, wp, rnd), wp, rnd)  # ctx.exp(-2 * u)
        one_q = mpf_add(q, fone, wp, rnd)  # 1 + q
        _, gm, ge, _ = mpf_div(q, one_q, wp, rnd)
        w = mpf_mul(mpf_mul(two_pi, cosh_t, wp, rnd), q, wp, rnd)
        _, wm, we, _ = mpf_div(w, mpf_pow_int(one_q, 2, wp, rnd), wp, rnd)
        # g <= 1/2 and w < 2 with odd mantissas, so ge < 0 and we <= 0
        out.append((gm, ge, (1 << -ge) - gm, wm, -we + (j == 0)))
    return tuple(out)


def _tanh_sinh(
    f: RawIntegrand, b: tuple, rule_target: tuple, prec: int
) -> tuple[tuple, tuple, tuple, tuple]:
    """Integrate over [0, b], refining until two successive level sums
    differ by <= rule_target, at ``prec`` bits; b and rule_target are raw
    tuples.

    The integrand receives a node's abscissa x = b g or b (1 - g) and its
    distance d = b g from the nearer end as exact pairs, so a singular
    factor can be evaluated from d without cancellation.  It returns a
    fixed-point integer, on which the sums are accumulated.

    Returns (value, rule error estimate, accumulated |weight*f| mass,
    bound on the fixed-point truncations) as raw tuples, each exactly the
    engine's integer scaled by 2^-F.  Raises RefinementExhausted if
    ``_MAX_DEPTH`` levels are not enough.
    """
    frac = prec + _GUARD
    _, bm, be, _ = b
    target = to_fixed(rule_target, frac)
    # sums of w f and |w f| over the nodes of every level so far
    total_sum = mass_sum = evals = 0
    for level in range(_MAX_DEPTH + 1):
        for gm, ge, cm, wm, ws in _nodes(prec, level):
            near = (bm * gm, be + ge)
            lo = (wm * f(near, near)) >> ws
            hi = (wm * f((bm * cm, be + ge), near)) >> ws
            total_sum += lo + hi
            mass_sum += abs(lo) + abs(hi)
            evals += 2
        # the rule's value is (b/2) h total_sum with h = 2^-level
        total = _shift(bm * total_sum, be - level - 1)
        if level >= _MIN_ACCEPT_LEVEL:  # >= 1, so prev is set
            diff = abs(total - prev)
            if diff <= target:
                # under 3 units per w f, one for the value's rounding and
                # one for the ceiling of the scaled count
                units = _shift(3 * evals * bm, be - level - 1) + 2
                mass = _shift(bm * mass_sum, be - level - 1)
                return tuple(from_man_exp(x, -frac) for x in (total, diff, mass, units))
        prev = total
    raise RefinementExhausted(
        f"no convergence to {to_float(rule_target, rnd=round_nearest):.3e}"
        f" within depth {_MAX_DEPTH}"
    )


# ---------------------------------------------------------------------------
# oracle integrals
# ---------------------------------------------------------------------------

# What an integrand builder returns for (prec, *args): the raw integrand at
# the working precision ``prec``, the upper end b of its interval [0, b] as
# a raw tuple, and a bound on the part of the integral that the interval
# leaves out.
Integrand = tuple[RawIntegrand, tuple, float]


@lru_cache(maxsize=None)
def _certified(integrand: Callable[..., Integrand], args: tuple, target: float) -> RealApprox:
    """Run the rule on what ``integrand(prec, *args)`` builds at the working
    precision of ``target``, and assemble the certified bound:
    rule estimate + truncation + precision slack + fixed-point truncations
    + double rounding."""
    prec, rnd = prec_for(target, extra_digits=12, min_dps=25), round_nearest
    f, b, truncation_bound = integrand(prec, *args)
    rule_target = mpf_div(from_float(target), from_int(4), prec, rnd)  # mpf(target) / 4
    value, rule_est, mass, fixed_err = _tanh_sinh(f, b, rule_target, prec)
    # ((rule_est + truncation_bound) + round_slack(mass)) + fixed_err
    internal = mpf_add(rule_est, from_float(truncation_bound), prec, rnd)
    internal = mpf_add(internal, round_slack(mass, prec), prec, rnd)
    internal = mpf_add(internal, fixed_err, prec, rnd)
    value, bound = float_with_bound(value, internal)
    if bound > target:
        raise CertificationError(f"quadrature certified to {bound:.3e}, target {target:.3e}")
    return RealApprox(value=value, abs_error=bound)


# precision in bits -> {exact distance d from the nearer end of [0, pi]:
# raw tuple of log(sin d), d rounded to the precision}
_LOGSIN_TABLE: dict[int, dict[Distance, tuple]] = {}


def _logsine(prec: int, n: int) -> Integrand:
    """x^n log(sin x) on [0, pi]."""
    frac, rnd = prec + _GUARD, round_nearest
    table = _LOGSIN_TABLE.setdefault(prec, {})

    def f(x: Distance, d: Distance) -> int:
        # sin is symmetric about the midpoint of [0, pi]: evaluate it at the
        # nearer endpoint distance so nodes hugging pi stay on the positive
        # branch
        log_sin = table.get(d)
        if log_sin is None:
            near = from_man_exp(*d, prec, rnd)
            log_sin = table.setdefault(d, mpf_log(mpf_sin(near, prec, rnd), prec, rnd))
        sign, man, exp, _ = log_sin
        # x ** n * log_sin, exact once x is cut to the working precision
        cut = max(x[0].bit_length() - prec, 0)
        x_man, x_exp = x[0] >> cut, x[1] + cut
        value = _shift(x_man**n * man, n * x_exp + exp + frac)  # toward zero
        return -value if sign else value

    return f, mpf_pi(prec, rnd), 0


def _logsquared(prec: int) -> Integrand:
    """(log(2 sin x))^2 on [0, pi/2]."""
    frac, rnd = prec + _GUARD, round_nearest

    def f(x: Distance, d: Distance) -> int:
        # log(2 * sin(x)) ** 2
        x = from_man_exp(*x, prec, rnd)
        log = mpf_log(mpf_mul_int(mpf_sin(x, prec, rnd), 2, prec, rnd), prec, rnd)
        return to_fixed(mpf_pow_int(log, 2, prec, rnd), frac)

    return f, mpf_div(mpf_pi(prec, rnd), from_int(2), prec, rnd), 0


def _vertical_leg(prec: int, n: int, cutoff: float) -> Integrand:
    """y^n log(1 - e^(-2y)) on [0, cutoff], with the dropped tail's bound.

    e^(-2y) is taken at prec + 10 + max(0, -mag 2y) bits, and 1 - e^(-2y)
    at max(0, -mag e^(-2y)) bits more, so the difference is exact and keeps
    2y as y -> 0 and a tiny e^(-2y) far out; the log is taken at prec.
    """
    frac, rnd = prec + _GUARD, round_nearest

    def f(x: Distance, d: Distance) -> int:
        y = from_man_exp(*x, prec, rnd)
        minus_2y = mpf_mul_int(y, -2, prec, rnd)  # exact
        wp = prec + 10 + max(0, -(minus_2y[2] + minus_2y[3]))
        e = mpf_exp(minus_2y, wp, rnd)
        wp += max(0, -(e[2] + e[3]))
        log = mpf_log(mpf_sub(fone, e, wp, rnd), prec, rnd)
        return to_fixed(mpf_mul(mpf_pow_int(y, n, prec, rnd), log, prec, rnd), frac)

    return f, from_float(cutoff), vertical_tail_bound(n, cutoff)


def _cosine_moment(prec: int, l: int, power: int) -> Integrand:
    """theta^power cos(2 l theta) on [0, pi]."""
    frac, rnd = prec + _GUARD, round_nearest

    def f(x: Distance, d: Distance) -> int:
        # x ** power * cos(2 * l * x), or cos(2 * l * x) at power 0
        x = from_man_exp(*x, prec, rnd)
        value = mpf_cos(mpf_mul_int(x, 2 * l, prec, rnd), prec, rnd)
        if power:
            value = mpf_mul(mpf_pow_int(x, power, prec, rnd), value, prec, rnd)
        return to_fixed(value, frac)

    return f, mpf_pi(prec, rnd), 0


def _cosine_orth(prec: int, l: int, lp: int) -> Integrand:
    """cos(2 l theta) cos(2 l' theta) on [0, pi]."""
    frac, rnd = prec + _GUARD, round_nearest

    def f(x: Distance, d: Distance) -> int:
        # cos(2 * l * x) * cos(2 * lp * x)
        x = from_man_exp(*x, prec, rnd)
        cos_l = mpf_cos(mpf_mul_int(x, 2 * l, prec, rnd), prec, rnd)
        cos_lp = mpf_cos(mpf_mul_int(x, 2 * lp, prec, rnd), prec, rnd)
        return to_fixed(mpf_mul(cos_l, cos_lp, prec, rnd), frac)

    return f, mpf_pi(prec, rnd), 0


def integrate_logsine(n: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^pi x^n log(sin x) dx with a certified bound.

    The integrand has logarithmic singularities at both endpoints; the
    double-exponential nodes absorb them (see module docstring).
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    s = settings or QuadratureSettings()
    return _certified(_logsine, (n,), s.target_abs_error)


def integrate_logsquared(settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^{pi/2} (log(2 sin x))^2 dx; log-squared singularity at x = 0."""
    s = settings or QuadratureSettings()
    return _certified(_logsquared, (), s.target_abs_error)


def integrate_vertical_leg(n: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^inf y^n log(1 - e^(-2y)) dy (negative), truncated by the
    cutoff policy with the dropped tail added to the bound."""
    _require_int(n, 0, "n must be a nonnegative integer")
    s = settings or QuadratureSettings()
    cutoff = default_semi_infinite_cutoff_policy(n, s.target_abs_error)
    return _certified(_vertical_leg, (n, cutoff), s.target_abs_error)


def cosine_moment(l: int, power: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^pi theta^power cos(2 l theta) dtheta for power in {0, 1}.

    Exactly zero for every l >= 1 at both powers; the returned value is the
    quadrature's independent confirmation.
    """
    _require_int(l, 1, "l must be a positive integer")
    _require_int(power, 0, "power must be 0 or 1")
    if power > 1:
        raise ValueError("power must be 0 or 1")
    s = settings or QuadratureSettings(target_abs_error=1e-12)
    return _certified(_cosine_moment, (l, power), s.target_abs_error)


def cosine_orthogonality(
    l: int, l_prime: int, settings: QuadratureSettings | None = None
) -> RealApprox:
    """int_0^pi cos(2 l theta) cos(2 l' theta) dtheta: pi/2 when l = l',
    zero otherwise."""
    for value in (l, l_prime):
        _require_int(value, 1, "l and l' must be positive integers")
    s = settings or QuadratureSettings(target_abs_error=1e-12)
    return _certified(_cosine_orth, (l, l_prime), s.target_abs_error)
