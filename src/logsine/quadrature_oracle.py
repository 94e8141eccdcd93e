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
mpmath-evaluated nodes, weights, abscissae and integrand values; the
engine's counted fixed-point truncations; and the final rounding to
double, half an ulp of the result.  Refinement is deterministic:
identical inputs visit identical nodes.  Evaluation runs at a working
precision well beyond double, so the double-rounding floor dominates
even when the integrand mass is ~1e5 (x^12 log sin x) and the target is
1e-10.

The engine sums on Python integers with F = working precision + ``_GUARD``
fractional bits, the idiom of ``libmp``'s ``to_fixed``.  A node's
distances b g and b (1 - g) reach the integrand exactly, as (mantissa,
exponent) pairs, so a node within 1e-100 of an end still gets its
log(sin d) or mpmath call on its floating distance: only products and
sums go fixed.  Each integrand value is within one unit 2^-F, and each
product with a weight w < 2 rounds down once, so it is off by under 3
units; the rule's value (b/2) 2^-k sum rounds down once more.  The
counted term is 3 units per evaluation scaled by b/2^(k+1), plus 2.

Results are memoized in one cache keyed by (integrand builder, its
arguments, target), and node tables by (precision, level), as raw tuples
10 digits finer than the working precision and as the engine's integers;
every rule stops by level ``_MAX_DEPTH`` = 12, so depth is no part of the
key.  The x^n log(sin x) integrand takes log(sin d), d the node's
distance from its nearer end, from a table keyed by working precision
and d, so the moments for every n share one evaluation per node.  Each
rule runs in the fixed-precision context of its target, so every
memoized value depends on its key alone.  The other integrands are
written on ``mpf`` values as functions of x alone and reach the engine
through ``_on_mpf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from mpmath import mpf
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    prec_to_dps,
    round_nearest,
    to_fixed,
)

from ._precision import context_for, float_with_bound, round_slack
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
    (n!/2^(n+1)) e^(-2Y) sum_{j=0}^{n} (2Y)^j / j!.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    u = math.exp(-2.0 * cutoff)
    geom = sum((2.0 * cutoff) ** j / math.factorial(j) for j in range(n + 1))
    return (math.factorial(n) / 2 ** (n + 1)) * u * geom / (1.0 - u)


def default_semi_infinite_cutoff_policy(n: int, target_abs_error: float) -> float:
    """Truncation point for the e^(-2y)-decaying integrands: start at
    max(20, 5n) and grow until the tail bound is below target/2."""
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


_GUARD = 16  # fractional bits of the engine's integers beyond the working precision

# An exact nonnegative number man * 2^exp as the pair (man, exp).
Distance = tuple[int, int]
# (x, d) -> f(x) on [0, b] as an integer, within one unit of 2^-(prec + _GUARD);
# d is the distance of x from the nearer end, and both are exact
RawIntegrand = Callable[[Distance, Distance], int]


def _shift(value: int, bits: int) -> int:
    """value * 2^bits, rounded down."""
    return value << bits if bits >= 0 else value >> -bits


def _t_limit(dps: int) -> int:
    """Integer t-range such that the double-exponential weight underflows
    the working precision beyond it."""
    return int(math.ceil(math.asinh(math.log(10.0) * (dps + 8) / math.pi)))


@lru_cache(maxsize=None)
def _nodes(prec: int, level: int) -> tuple[tuple[tuple, tuple], ...]:
    """New (offset-fraction, weight) pairs introduced at a refinement level,
    as raw mpmath tuples computed 10 digits above ``prec``.

    For a positive abscissa t:  u = (pi/2) sinh t,  q = e^(-2u),
    offset-fraction g = q/(1+q) (distance of each mirrored node from its
    nearer endpoint, as a fraction of the interval), weight
    w = 2 pi cosh(t) q/(1+q)^2.  Level 0 contributes the integer abscissas
    t = 0..T; level k >= 1 contributes the odd multiples of 2^-k up to T.
    Mirrored nodes share g and w by symmetry.
    """
    dps = prec_to_dps(prec)
    wp, rnd = dps_to_prec(dps + 10), round_nearest
    one = from_int(1)
    t_max = _t_limit(dps)
    if level == 0:
        ts = [mpf_pos(from_int(j), wp, rnd) for j in range(t_max + 1)]  # mpf(j)
    else:
        # h = mpf(1) / 2 ** level; the multiples j * h while j * h <= t_max
        h = mpf_div(mpf_pos(one, wp, rnd), from_int(2**level), wp, rnd)
        top = from_int(t_max)
        ts = []
        j = 1
        while mpf_le(mpf_mul_int(h, j, wp, rnd), top):
            ts.append(mpf_mul_int(h, j, wp, rnd))
            j += 2
    pi = mpf_pi(wp, rnd)
    half_pi = mpf_div(pi, from_int(2), wp, rnd)  # ctx.pi / 2
    two_pi = mpf_mul_int(pi, 2, wp, rnd)  # 2 * ctx.pi
    out = []
    for t in ts:
        # ctx.sinh(t) and ctx.cosh(t) are the two halves of one call
        cosh_t, sinh_t = mpf_cosh_sinh(t, wp, rnd)
        u = mpf_mul(half_pi, sinh_t, wp, rnd)
        q = mpf_exp(mpf_mul_int(u, -2, wp, rnd), wp, rnd)  # ctx.exp(-2 * u)
        one_q = mpf_add(q, one, wp, rnd)  # 1 + q
        g = mpf_div(q, one_q, wp, rnd)
        # w = 2 * ctx.pi * ctx.cosh(t) * q / (1 + q) ** 2
        w = mpf_mul(mpf_mul(two_pi, cosh_t, wp, rnd), q, wp, rnd)
        w = mpf_div(w, mpf_pow_int(one_q, 2, wp, rnd), wp, rnd)
        out.append((g, w))
    return tuple(out)


# (precision in bits, level) -> per node of ``_nodes(prec, level)`` the
# integers (gm, ge, cm, wm, ws) with g = gm 2^ge, 1 - g = cm 2^ge and
# w = wm 2^-ws, all exact; the center node g = 1/2, its own mirror, holds
# half its weight, since the engine evaluates every node and its mirror
_FIXED_NODES: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _fixed_nodes(prec: int, level: int) -> tuple[tuple[int, ...], ...]:
    """The nodes of ``_nodes(prec, level)`` as the engine's integers."""
    key = (prec, level)
    nodes = _FIXED_NODES.get(key)
    if nodes is None:
        # g <= 1/2 and w < 2 with odd mantissas, so ge < 0 and we <= 0
        out = tuple(
            (gm, ge, (1 << -ge) - gm, wm, -we + (level == 0 and i == 0))
            for i, ((_, gm, ge, _), (_, wm, we, _)) in enumerate(_nodes(prec, level))
        )
        nodes = _FIXED_NODES.setdefault(key, out)
    return nodes


def _tanh_sinh(
    f: RawIntegrand, b: mpf, rule_target: mpf, ctx: MPContext
) -> tuple[tuple, tuple, tuple, tuple]:
    """Integrate over [0, b], refining until two successive level sums
    differ by <= rule_target, at the precision of ``ctx``.

    The integrand receives a node's abscissa x = b g or b (1 - g) and its
    distance d = b g from the nearer end as exact pairs, so a singular
    factor can be evaluated from d without cancellation.  It returns a
    fixed-point integer, on which the sums are accumulated.

    Returns (value, rule error estimate, accumulated |weight*f| mass,
    bound on the fixed-point truncations) as raw tuples, each exactly the
    engine's integer scaled by 2^-F.  Raises RefinementExhausted if
    ``_MAX_DEPTH`` levels are not enough.
    """
    prec = ctx.prec
    frac = prec + _GUARD
    _, bm, be, _ = b._mpf_
    target = to_fixed(rule_target._mpf_, frac)
    # sums of w f and |w f| over the nodes of every level so far
    total_sum = mass_sum = evals = 0
    prev = None
    for level in range(_MAX_DEPTH + 1):
        for gm, ge, cm, wm, ws in _fixed_nodes(prec, level):
            near = (bm * gm, be + ge)
            lo = (wm * f(near, near)) >> ws
            hi = (wm * f((bm * cm, be + ge), near)) >> ws
            total_sum += lo + hi
            mass_sum += abs(lo) + abs(hi)
            evals += 2
        # the rule's value is (b/2) h total_sum with h = 2^-level
        total = _shift(bm * total_sum, be - level - 1)
        if prev is not None and level >= _MIN_ACCEPT_LEVEL:
            diff = abs(total - prev)
            if diff <= target:
                # under 3 units per w f, one for the value's rounding and
                # one for the ceiling of the scaled count
                units = _shift(3 * evals * bm, be - level - 1) + 2
                mass = _shift(bm * mass_sum, be - level - 1)
                return tuple(from_man_exp(x, -frac) for x in (total, diff, mass, units))
        prev = total
    raise RefinementExhausted(
        f"no convergence to {float(rule_target):.3e} within depth {_MAX_DEPTH}"
    )


# ---------------------------------------------------------------------------
# oracle integrals
# ---------------------------------------------------------------------------

# What an integrand builder returns for (ctx, *args): the raw integrand and
# the upper end b of its interval [0, b] in the working context ``ctx``, and
# a bound on the part of the integral that the interval leaves out.
Integrand = tuple[RawIntegrand, mpf, float]


@lru_cache(maxsize=None)
def _certified(integrand: Callable[..., Integrand], args: tuple, target: float) -> RealApprox:
    """Run the rule on what ``integrand(ctx, *args)`` builds in the working
    context of ``target``, and assemble the certified bound:
    rule estimate + truncation + precision slack + fixed-point truncations
    + double rounding."""
    ctx = context_for(target, extra_digits=12, min_dps=25)
    prec, rnd = ctx.prec, round_nearest
    f, b, truncation_bound = integrand(ctx, *args)
    value, rule_est, mass, fixed_err = _tanh_sinh(f, b, ctx.mpf(target) / 4, ctx)
    # ((rule_est + truncation_bound) + round_slack(mass)) + fixed_err
    internal = mpf_add(rule_est, from_float(truncation_bound), prec, rnd)
    internal = mpf_add(internal, round_slack(mass, prec), prec, rnd)
    internal = mpf_add(internal, fixed_err, prec, rnd)
    value, bound = float_with_bound(value, internal)
    if bound > target:
        raise CertificationError(
            f"quadrature certified to {bound:.3e}, target {target:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)


def _on_mpf(f: Callable[[mpf], mpf], ctx: MPContext) -> RawIntegrand:
    """The engine's form of an integrand of x alone written on ``mpf``
    values of ``ctx``: x rounded to the working precision, f(x) to a
    fixed-point integer."""
    prec, frac = ctx.prec, ctx.prec + _GUARD

    return lambda x, d: to_fixed(f(ctx.make_mpf(from_man_exp(*x, prec, round_nearest)))._mpf_, frac)


# precision in bits -> {exact distance d from the nearer end of [0, pi]:
# raw tuple of log(sin d), d rounded to the precision}
_LOGSIN_TABLE: dict[int, dict[Distance, tuple]] = {}


def _logsine(ctx: MPContext, n: int) -> Integrand:
    """x^n log(sin x) on [0, pi]."""
    prec = ctx.prec
    frac = prec + _GUARD
    table = _LOGSIN_TABLE.setdefault(prec, {})

    def f(x: Distance, d: Distance) -> int:
        # sin is symmetric about the midpoint of [0, pi]: evaluate it at the
        # nearer endpoint distance so nodes hugging pi stay on the positive
        # branch
        log_sin = table.get(d)
        if log_sin is None:
            near = ctx.make_mpf(from_man_exp(*d, prec, round_nearest))
            log_sin = table.setdefault(d, ctx.log(ctx.sin(near))._mpf_)
        sign, man, exp, _ = log_sin
        # x ** n * log_sin, exact once x is cut to the working precision
        cut = max(x[0].bit_length() - prec, 0)
        x_man, x_exp = x[0] >> cut, x[1] + cut
        value = _shift(x_man**n * man, n * x_exp + exp + frac)  # toward zero
        return -value if sign else value

    return f, +ctx.pi, 0


def _logsquared(ctx: MPContext) -> Integrand:
    """(log(2 sin x))^2 on [0, pi/2]."""

    def f(x: mpf) -> mpf:
        return ctx.log(2 * ctx.sin(x)) ** 2

    return _on_mpf(f, ctx), ctx.pi / 2, 0


def _vertical_leg(ctx: MPContext, n: int, cutoff: float) -> Integrand:
    """y^n log(1 - e^(-2y)) on [0, cutoff], with the dropped tail's bound."""
    # expm1 and log1p raise their context's precision while they run, so
    # they run in a context of this call's own, not the shared one
    own = MPContext()
    own.prec = ctx.prec
    split = ctx.mpf("0.35")

    def f(y: mpf) -> mpf:
        # log(1 - e^(-2y)): expm1 form near 0, log1p form elsewhere
        if y < split:
            val = own.log(-own.expm1(-2 * y))
        else:
            val = own.log1p(-own.exp(-2 * y))
        return y ** n * val

    return _on_mpf(f, ctx), ctx.mpf(cutoff), vertical_tail_bound(n, cutoff)


def _cosine_moment(ctx: MPContext, l: int, power: int) -> Integrand:
    """theta^power cos(2 l theta) on [0, pi]."""

    def f(x: mpf) -> mpf:
        return x ** power * ctx.cos(2 * l * x) if power else ctx.cos(2 * l * x)

    return _on_mpf(f, ctx), +ctx.pi, 0


def _cosine_orth(ctx: MPContext, l: int, lp: int) -> Integrand:
    """cos(2 l theta) cos(2 l' theta) on [0, pi]."""

    def f(x: mpf) -> mpf:
        return ctx.cos(2 * l * x) * ctx.cos(2 * lp * x)

    return _on_mpf(f, ctx), +ctx.pi, 0


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


def integrate_vertical_leg(
    n: int, settings: QuadratureSettings | None = None
) -> RealApprox:
    """int_0^inf y^n log(1 - e^(-2y)) dy (negative), truncated by the
    cutoff policy with the dropped tail added to the bound."""
    _require_int(n, 0, "n must be a nonnegative integer")
    s = settings or QuadratureSettings()
    cutoff = default_semi_infinite_cutoff_policy(n, s.target_abs_error)
    return _certified(_vertical_leg, (n, cutoff), s.target_abs_error)


def cosine_moment(
    l: int, power: int, settings: QuadratureSettings | None = None
) -> RealApprox:
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
