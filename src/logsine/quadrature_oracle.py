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

The reported abs_error is the sum of the rule error estimate (difference
of the last two refinement levels), the tail-truncation bound, the
working-precision rounding slack, and the final rounding to double --
conservative, and auditable term by term.  Refinement is deterministic:
identical inputs visit identical nodes.

Evaluation runs in mpmath at a working precision well beyond double so the
certificate is honest even when the integrand mass is ~1e5 (x^12 log sin x)
and the target is 1e-10: the double-rounding floor, about half an ulp of
the result, is then the dominant claimed term.

Every result is memoized in one cache keyed by (integrand builder, its
arguments, target), and node tables by (precision, level); every rule
stops by level ``_MAX_DEPTH`` = 12, so depth is no part of the key.  The
x^n log(sin x) integrand takes log(sin d), d the node's distance from its
nearer endpoint, from a table keyed by working precision and d, so the
moments for every n share one evaluation per node.  A node's distances
from the two ends, x and b - x, come from a geometry table keyed by
(working precision in bits, level, b): the moments for every n, and the
cosine integrals, run on [0, pi] and share one entry per level.  An entry
holds three raw tuples for each node its level adds (the weight, x and
b - x), about T * 2^(k-1) nodes at level k >= 1 with T = 4..7 the
t-range: all the levels on [0, pi] at 1e-10 hold about 46 KB.  A vertical
leg runs on [0, cutoff], so legs share entries only where they share a
working precision and a cutoff.  The cutoff policy gives n = 0..4 the
cutoff 20 at every target from 1e-3 to 1e-12, so those five legs share
one set of entries; at one target, each n >= 5 has a cutoff, and about
44 KB of entries at 1e-10, of its own.  Each rule runs in the
fixed-precision context of its target, so every memoized value depends
on its key alone.

The engine and the x^n log(sin x) integrand compute on raw mpmath tuples
with ``mpmath.libmp`` calls, skipping the type checks and object
allocation of the ``mpf`` operators.  Each step makes the very call, at
the working precision with round-to-nearest, that the operator of the
``mpf`` expression it replaces makes, and every sum and product keeps its
association order, so each rounding and every bit of a result is what
the ``mpf`` expressions give.  The node tables hold raw tuples 10 digits
finer than the working precision; a product with them rounds at the
working precision.  They are built on raw tuples too, with one
``mpf_cosh_sinh`` call per abscissa, of which ``ctx.sinh`` and
``ctx.cosh`` each return one half.  A geometry entry holds the very
tuples that the engine's per-node calls returned when it computed them
for each integral, so hoisting them changes no bit.  The builders of the
other integrands write them on ``mpf`` values as functions of x alone and
hand them to the engine through ``_on_mpf``.
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
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    prec_to_dps,
    round_nearest,
    to_float,
)

from ._precision import context_for, float_with_bound, round_slack
from .errors import CertificationError, RefinementExhausted
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


# (x, b - x) -> f(x) on [0, b], all raw mpmath tuples
RawIntegrand = Callable[[tuple, tuple], tuple]


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


# (precision in bits, level, b) -> per node of the level, the raw tuples
# (weight, off, b - off) with off = b * g
_GEOMETRY: dict[tuple[int, int, tuple], tuple[tuple, ...]] = {}


def _geometry(prec: int, level: int, b: tuple) -> tuple[tuple, ...]:
    """The distances of one level's nodes from the two ends of [0, b]."""
    key = (prec, level, b)
    nodes = _GEOMETRY.get(key)
    if nodes is None:
        rnd = round_nearest
        out = []
        for g, w in _nodes(prec, level):
            off = mpf_mul(b, g, prec, rnd)
            out.append((w, off, mpf_sub(b, off, prec, rnd)))
        nodes = _GEOMETRY.setdefault(key, tuple(out))
    return nodes


def _tanh_sinh(
    f: RawIntegrand, b: mpf, rule_target: mpf, ctx: MPContext
) -> tuple[mpf, mpf, mpf]:
    """Integrate over [0, b], refining until two successive level sums
    differ by <= rule_target, computing at the precision of ``ctx``.

    Integrands receive (x, b - x) as raw mpmath tuples and return a raw
    tuple: both are a node's exact distances from the two ends, so a
    singular factor can be evaluated from the nearer one without
    cancellation even when a node sits within 1e-100 of an end.

    Returns (value, rule error estimate, accumulated |weight*f| mass).
    Raises RefinementExhausted if ``_MAX_DEPTH`` levels are not enough.
    """
    prec, rnd = ctx.prec, round_nearest
    b, rule_target = b._mpf_, rule_target._mpf_
    r = mpf_div(b, from_int(2), prec, rnd)
    total = mass = prev = None
    for level in range(_MAX_DEPTH + 1):
        h = mpf_div(fone, from_int(2**level), prec, rnd)  # mpf(1) / 2 ** level
        rh = mpf_mul(r, h, prec, rnd)
        part = part_mass = fzero
        for i, (w, off, far) in enumerate(_geometry(prec, level, b)):
            if level == 0 and i == 0:
                # contrib = w * f(off, far), the center node g = 1/2
                contrib = mpf_mul(w, f(off, far), prec, rnd)
                part = mpf_add(part, contrib, prec, rnd)
                part_mass = mpf_add(part_mass, mpf_abs(contrib, prec, rnd), prec, rnd)
            else:
                lo = f(off, far)
                hi = f(far, off)
                # part += w * (lo + hi)
                both = mpf_mul(w, mpf_add(lo, hi, prec, rnd), prec, rnd)
                part = mpf_add(part, both, prec, rnd)
                # part_mass += abs(w * lo) + abs(w * hi)
                lo_mass = mpf_abs(mpf_mul(w, lo, prec, rnd), prec, rnd)
                hi_mass = mpf_abs(mpf_mul(w, hi, prec, rnd), prec, rnd)
                part_mass = mpf_add(part_mass, mpf_add(lo_mass, hi_mass, prec, rnd), prec, rnd)
        # total = r * h * part at level 0, total / 2 + r * h * part after it
        part = mpf_mul(rh, part, prec, rnd)
        part_mass = mpf_mul(rh, part_mass, prec, rnd)
        if level == 0:
            total, mass = part, part_mass
        else:
            total = mpf_add(mpf_div(total, from_int(2), prec, rnd), part, prec, rnd)
            mass = mpf_add(mpf_div(mass, from_int(2), prec, rnd), part_mass, prec, rnd)
        if prev is not None and level >= _MIN_ACCEPT_LEVEL:
            diff = mpf_abs(mpf_sub(total, prev, prec, rnd), prec, rnd)
            if mpf_le(diff, rule_target):
                return ctx.make_mpf(total), ctx.make_mpf(diff), ctx.make_mpf(mass)
        prev = total
    target = to_float(rule_target, rnd=rnd)  # float(rule_target)
    raise RefinementExhausted(f"no convergence to {target:.3e} within depth {_MAX_DEPTH}")


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
    rule estimate + truncation + precision slack + double rounding."""
    ctx = context_for(target, extra_digits=12, min_dps=25)
    f, b, truncation_bound = integrand(ctx, *args)
    value_mp, rule_est, mass = _tanh_sinh(f, b, ctx.mpf(target) / 4, ctx)
    internal = rule_est + ctx.mpf(truncation_bound) + round_slack(mass, ctx)
    value, bound = float_with_bound(value_mp, internal)
    if bound > target:
        raise CertificationError(
            f"quadrature certified to {bound:.3e}, target {target:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)


def _on_mpf(f: Callable[[mpf], mpf], ctx: MPContext) -> RawIntegrand:
    """The raw-tuple form of an integrand of x alone written on ``mpf``
    values of ``ctx``."""
    return lambda x, dist_upper: f(ctx.make_mpf(x))._mpf_


# precision in bits -> {raw tuple of d: raw tuple of log(sin d)}
_LOGSIN_TABLE: dict[int, dict[tuple, tuple]] = {}


def _logsine(ctx: MPContext, n: int) -> Integrand:
    """x^n log(sin x) on [0, pi]."""
    prec, rnd = ctx.prec, round_nearest
    table = _LOGSIN_TABLE.setdefault(prec, {})

    def f(x: tuple, dist_upper: tuple) -> tuple:
        # sin is symmetric about the midpoint of [0, pi]: evaluate it at the
        # nearer endpoint distance so nodes hugging pi stay on the positive
        # branch; min(x, dist_upper)
        d = dist_upper if mpf_lt(dist_upper, x) else x
        log_sin = table.get(d)
        if log_sin is None:
            log_sin = table.setdefault(d, ctx.log(ctx.sin(ctx.make_mpf(d)))._mpf_)
        # x ** n * log_sin
        return mpf_mul(mpf_pow_int(x, n, prec, rnd), log_sin, prec, rnd)

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


def _require_int(value: int, least: int, message: str) -> None:
    """Raise ValueError(message) unless ``value`` is an int, not a bool,
    and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(message)


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
    if power not in (0, 1):
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
