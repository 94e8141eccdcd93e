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

The reported abs_error is the sum of four terms, auditable one by one:
the rule estimate |T_k - T_(k-1)| of the last two refinement levels (an
estimate, not a proof); the bound on what the interval leaves out, the
tail past a semi-infinite integral's cutoff or the sliver between b and
an end at pi or pi/2; the counted units of every integrand value, node
weight and fixed-point truncation; and the final rounding to double,
half an ulp of the result.  Refinement is deterministic: identical
inputs visit identical nodes.  Evaluation runs at a working precision
well beyond double, so the double-rounding floor dominates even when the
integrand mass is ~1e5 (x^12 log sin x) and the target is 1e-10.

The nodes, the ends, the integrand values and the engine's sums are
integers in ``_precision``'s unit 2^-V, V = working precision + 16.  The
ends pi and pi/2 are the exact b = ``_elementary.pi`` at V bits, at most
pi.  A node's abscissa b g or b (1 - g) reaches the integrand exactly, as
a (mantissa, exponent) pair, so a node within 1e-100 of an end still gets
its log(sin d) on its exact distance d: only products and sums go fixed.
Each integrand returns an integer and its units: the function, at that
exact point, lies within those units of the integer, except where an
integrand first cuts x to fewer bits, which moves the function by a
stated fraction 2^-r of itself.

Each product of a value of u units with a weight w < 2 rounds down once,
so it is off by under 2 u + 1 units; the rule's value (b/2) 2^-k sum
rounds down once more.  A node's own rounding makes its abscissa an
exact point near the ideal one, at which the integrand is evaluated, and
its weight within 2^-V of the ideal weight; that weight error and the
cut's fraction are charged on the rule's |weight*f| mass.

Results are memoized in one cache keyed by (integrand builder, its
arguments, target), and the nodes in one table of the engine's integers
keyed by (precision, level); every rule stops by level ``_MAX_DEPTH`` =
12, so depth is no part of the key.  The engine asks an integrand for a
whole level in one call: given the level, it returns one (lo, hi, units)
triple per node of ``_nodes(prec, level)``, in node order, lo and hi its
integers at b g and b (1 - g) and units their summed units.  Both nodes
of a pair lie b g from their nearer end, so the x^n log(sin x) integrand
reads a level from one row kept per (precision, level): each pair's two
abscissae, already cut to the working precision, and log(sin(b g)) with
its units.  The moments for every n share one row.  The other integrands
are functions of x alone, evaluated node by node with the counted
routines of ``_elementary`` through one adapter, ``_pointwise``.  Every
rule runs at the working precision of its target, so every memoized value
depends on its key alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import _elementary, _precision
from ._elementary import _shift
from ._precision import RealApprox, _units_below, certify, kept, prec_for
from .errors import CertificationError, RefinementExhausted, _require_int, _require_positive

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
# Fractional bits of the node tables beyond V, _precision's unit.
_NODE_BITS = 16


def vertical_tail_bound(n: int, cutoff: float) -> float:
    """Bound on |int_cutoff^inf y^n log(1 - e^(-2y)) dy|.

    Uses |log(1-u)| <= u/(1-u) with u = e^(-2y) <= e^(-2*cutoff), then the
    exact closed form int_Y^inf y^n e^(-2y) dy =
    (n!/2^(n+1)) e^(-2Y) sum_{j=0}^{n} (2Y)^j / j!.  The sum is taken
    exactly, e^(-2Y) from above with ``_elementary.exp``, and the bound
    rounded up once, never below the smallest normal double; a bound past
    the double range raises CertificationError.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    _require_positive(cutoff, "cutoff")
    # sum_j (n!/j!) (2Y)^j by Horner's rule
    x, poly, coeff = 2 * Fraction(cutoff), Fraction(1), 1
    for j in range(n, 0, -1):
        coeff *= j
        poly = poly * x + coeff
    num, den = x.numerator, x.denominator
    # e^(-2Y) is near 2^-k; at 64 + k bits it keeps 64 significant bits,
    # unless poly e^(-2Y) is under 2^-1200, past every double
    k = num * 1442695 // (den * 1000000)
    lift = poly.numerator.bit_length() - poly.denominator.bit_length() + 1200
    bits = 64 + min(k, lift) + max(0, den.bit_length() - num.bit_length())
    e, units = _elementary.exp((-num, 1 - den.bit_length()), bits)
    up = Fraction(e + units, 1 << bits)  # above e^(-2Y)
    bound = poly * up / ((1 - up) * 2 ** (n + 1))
    try:
        value = bound.numerator / bound.denominator
    except OverflowError:
        value = math.inf
    if value < bound:
        value = math.nextafter(value, math.inf)
    if value == math.inf:
        raise CertificationError(f"tail bound for n={n} past {cutoff!r} exceeds the double range")
    return max(value, sys.float_info.min)  # a subnormal bound may have rounded down


def default_semi_infinite_cutoff_policy(n: int, target_abs_error: float) -> float:
    """Truncation point for the e^(-2y)-decaying integrands: start at
    max(20, 5n) and grow until the tail bound is below target/2.  Raises
    CertificationError when target/2 is not above the smallest normal
    double, under which the tail bound never falls."""
    _require_int(n, 0, "n must be a nonnegative integer")
    half = _require_positive(target_abs_error, "target absolute error") / 2
    if half <= sys.float_info.min:
        raise CertificationError(f"no cutoff brings the tail bound under {half!r}")
    cutoff = max(20.0, 5.0 * n)
    while vertical_tail_bound(n, cutoff) >= half:
        cutoff *= 1.25
    return cutoff


@dataclass(frozen=True)
class QuadratureSettings:
    """Certification parameters shared by all oracle integrals."""

    target_abs_error: float = 1e-10

    def __post_init__(self) -> None:
        # the checked double, kept beside the fields so that repr, equality
        # and hash see the target as given
        checked = _require_positive(self.target_abs_error, "target_abs_error")
        object.__setattr__(self, "_checked_target", checked)


def _target(
    settings: QuadratureSettings | None, default: float = QuadratureSettings.target_abs_error
) -> float:
    """The target of ``settings`` as ``_require_positive``'s double, checked
    when the settings were made; ``default`` for None; anything else, even
    a falsy value or a bare number, raises ValueError."""
    if isinstance(settings, QuadratureSettings):
        return settings._checked_target
    if settings is None:
        return default
    raise ValueError(f"settings must be a QuadratureSettings or None, not {settings!r}")


# ---------------------------------------------------------------------------
# tanh-sinh engine
# ---------------------------------------------------------------------------


# An exact nonnegative number man * 2^exp as the pair (man, exp).
Distance = tuple[int, int]
# level -> one (lo, hi, units) per node g of _nodes(prec, level), in node
# order: f on [0, b] at x = b g and at x = b (1 - g) within lo's and hi's
# units of 2^-V of the integers lo and hi, V = prec + _precision._GUARD,
# and units the sum of those units
RawIntegrand = Callable[[int], list[tuple[int, int, int]]]
# x -> (value, units): f(x) within units of 2^-V of the integer value
PointIntegrand = Callable[[Distance], tuple[int, int]]


def _cut(x: Distance, bits: int) -> Distance:
    """x with its mantissa cut to at most ``bits`` bits, rounded down."""
    cut = max(x[0].bit_length() - bits, 0)
    return x[0] >> cut, x[1] + cut


def _t_limit(prec: int) -> int:
    """Integer t-range for ``prec`` bits: the least T with
    e^(-pi sinh T) <= 2^-(prec + 22), so that the double-exponential
    weight underflows the working precision beyond it."""
    return math.ceil(math.asinh(math.log(2.0) * (prec + 22) / math.pi))


@lru_cache(maxsize=None)
def _nodes(prec: int, level: int) -> tuple[tuple[int, ...], ...]:
    """The nodes new at a refinement level as the engine's integers
    (gm, ge, cm, wm, ws): g = gm 2^ge, 1 - g = cm 2^ge and w = wm 2^-ws.

    For an abscissa t:  u = (pi/2) sinh t,  q = e^(-2u), offset-fraction
    g = q/(1+q) (distance of each mirrored node from its nearer endpoint,
    as a fraction of the interval), weight w = 2 pi cosh(t) g (1 - g).
    Level 0 has t = 0..T, level k >= 1 the odd multiples of 2^-k up to T;
    T is ``_t_limit`` of the precision in bits.  Mirrored nodes
    share g and w; the center node g = 1/2, its own mirror, holds half
    its weight.

    Each is computed at B = V + ``_NODE_BITS`` bits, V = prec + 16 as in
    ``_precision``'s unit, with relative errors counted in units of 2^-B:
    pi and cosh t within their units, 2u = pi sinh t within a units; q at
    B + k bits, q > 2^-(k + 2), within 4 times its units and a + 1 for the
    error in 2u; g and 1 - g 8 more, for the floor of g > 2^-(k + 3); w
    the sum of those of pi, cosh t, g and 1 - g, 4 for its floor and 1 for
    the products.  The weight's count must stay within 2^_NODE_BITS, so that
    every weight is within 2^-V of itself.
    """
    frac = prec + _precision._GUARD
    bits = frac + _NODE_BITS
    pi, pi_units = _elementary.pi(bits)
    out = []
    # t = j 2^-level, exact: every j <= T at level 0, the odd j above
    odd = level > 0
    for j in range(odd, (_t_limit(prec) << level) + 1, 1 + odd):
        cosh, sinh, hyp_units = _elementary.cosh_sinh((j, -level), bits)
        a = pi * sinh >> bits  # 2u = pi sinh t
        a_units = ((pi + pi_units) * hyp_units + sinh * pi_units >> bits) + 2
        k = int(a / (1 << bits) / math.log(2))  # e^(-2u) > 2^-(k + 1)
        scale = bits + k
        q, q_units = _elementary.exp((-a, -bits), scale)
        g = (q << scale) // ((1 << scale) + q)
        c = (1 << scale) - g
        w = pi * cosh * g * c >> (3 * bits + k - 1)  # 2 pi cosh(t) g (1 - g) 2^scale
        g_units = 4 * q_units + a_units + 9
        if pi_units + hyp_units + 2 * g_units + 6 > 1 << _NODE_BITS:
            raise CertificationError(f"tanh-sinh node {j} 2^-{level} lost its precision")
        out.append((g, -scale, c, w, scale + (j == 0)))
    return tuple(out)


def _tanh_sinh(
    f: RawIntegrand, b: Distance, rule_target: int, prec: int
) -> tuple[int, int, int, int]:
    """Integrate over [0, b], refining until two successive level sums
    differ by <= rule_target, at ``prec`` bits; b is an exact pair and
    rule_target an integer in units of 2^-V, V = prec + _precision._GUARD.

    The integrand ``f(level)`` returns one (lo, hi, units) triple per node
    of ``_nodes(prec, level)``, in node order: its integers at b g and
    b (1 - g) and their summed units, all in units of 2^-V.  Each value's
    product with its weight is rounded down once, the products are summed
    in node order, and each pair counts its units and one more.

    Returns (value, rule error estimate, accumulated |weight*f| mass,
    counted units) as integers in units of 2^-V: the rule's sum over the
    integrand values lies within the counted units of the value.  Raises
    RefinementExhausted if ``_MAX_DEPTH`` levels are not enough.
    """
    bm, be = b
    # sums of w f, |w f| and the units of the values plus one per pair
    total_sum = mass_sum = unit_sum = 0
    for level in range(_MAX_DEPTH + 1):
        for (lo, hi, units), (_, _, _, wm, ws) in zip(f(level), _nodes(prec, level), strict=True):
            lo = (wm * lo) >> ws
            hi = (wm * hi) >> ws
            total_sum += lo + hi
            mass_sum += abs(lo) + abs(hi)
            unit_sum += units + 1
        # the rule's value is (b/2) h total_sum with h = 2^-level
        total = _shift(bm * total_sum, be - level - 1)
        if level >= _MIN_ACCEPT_LEVEL:  # >= 1, so prev is set
            diff = abs(total - prev)
            if diff <= rule_target:
                # (b/2) h sum (2 u + 1) over the values, and 2 for the
                # floors of that count and of the value
                units = _shift(bm * unit_sum, be - level) + 2
                return total, diff, _shift(bm * mass_sum, be - level - 1), units
        prev = total
    raise RefinementExhausted(
        f"no convergence to {math.ldexp(rule_target, -(prec + _precision._GUARD)):.3e}"
        f" within depth {_MAX_DEPTH}"
    )


# ---------------------------------------------------------------------------
# oracle integrals
# ---------------------------------------------------------------------------

# What an integrand builder returns for (prec, *args): the integrand at the
# working precision ``prec``, the exact upper end b of its interval [0, b],
# a bound in units of 2^-V, V = prec + _precision._GUARD, on what the
# interval leaves out, and r: cutting x moves the integrand by at most 2^-r
# of itself.
Integrand = tuple[RawIntegrand, Distance, int, int]


@lru_cache(maxsize=None)
def _certified(integrand: Callable[..., Integrand], args: tuple, target: float) -> RealApprox:
    """Run the rule on what ``integrand(prec, *args)`` builds at the working
    precision of ``target``, and assemble the certified bound:
    rule estimate + what the interval leaves out + counted units + double
    rounding, in ``_precision``'s unit.  The counted units take in the
    weights' error, 2^-V of themselves, and the cut's 2^-r, on the mass
    and the units."""
    prec = prec_for(target, extra_digits=12, min_dps=25)
    f, b, left_out, r = integrand(prec, *args)
    rule_target = _units_below(target / 4, prec)
    value, rule_est, mass, units = _tanh_sinh(f, b, rule_target, prec)
    units += ((mass + units + 1) >> (r - 1)) + 1
    return certify(value, rule_est + left_out + units, prec, target=target, what="quadrature")


def _log_sin(d: Distance, frac: int) -> tuple[int, int]:
    """log(sin d) for the exact 0 < d <= pi/2 in units of 2^-frac:
    (value, units).

    sin d is taken at ww bits, 2^ww d >= 2^(frac + 7), so it exceeds
    2^(frac + 6) units there, and its units go into the log's.
    """
    ww = frac + 8 + max(0, -(d[1] + d[0].bit_length()))
    s, s_units = _elementary.sin_cos(d, ww, 0)  # sin d
    return _elementary.log((s, -ww), frac, s_units)


# (precision in bits, level) -> for each node g of _nodes(prec, level),
# the pair's abscissae x = pi g and x = pi (1 - g), each cut to prec bits
# as (man, exp), and log(sin(pi g)) and its units in units of
# 2^-(prec + _precision._GUARD): (lo_man, lo_exp, hi_man, hi_exp, log_sin,
# units).  Both nodes of the pair lie pi g from their nearer end of
# [0, pi], pi at the precision's unit.
_LOGSIN_TABLE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


@kept(_LOGSIN_TABLE)
def _logsin_row(prec: int, level: int) -> tuple[tuple[int, ...], ...]:
    """The ``_LOGSIN_TABLE`` row of (prec, level), built on its first visit."""
    frac = prec + _precision._GUARD
    pi = _elementary.pi(frac)[0]
    return tuple(
        (
            *_cut((pi * gm, ge - frac), prec),
            *_cut((pi * cm, ge - frac), prec),
            *_log_sin((pi * gm, ge - frac), frac),
        )
        for gm, ge, cm, _, _ in _nodes(prec, level)
    )


def _logsine(prec: int, n: int) -> Integrand:
    """x^n log(sin x) on [0, b], b at most pi and within u units of it.

    The integrand is x^n log(sin d), d = b g the distance of the node from
    the nearer end of [0, b], read with both cut abscissae from the pair's
    ``_LOGSIN_TABLE`` entry; past b/2 it stands in for x^n log(sin(pi -
    x)).  The two differ, with the sliver [b, pi], by under 3 pi^n delta
    (log(2/delta) + 1) for delta = pi - b, under 3 pi^n u (V + 2) units.
    x is cut to prec bits, which moves x^n by under n 2^(1 - prec) of
    itself.
    """
    frac = prec + _precision._GUARD
    pi_n = -(-(355**n) // 113**n)  # above pi^n, as 355/113 > pi
    pi, units = _elementary.pi(frac)

    def f(level: int) -> list[tuple[int, int, int]]:
        # x ** n * log_sin, exact on the cut x, then rounded down: x^n <
        # pi^n times the log's units, and a unit, at each node; x < 4, so
        # n x_exp <= 0
        return [
            (
                lo**n * log_sin >> -n * lo_exp,
                hi**n * log_sin >> -n * hi_exp,
                2 * (pi_n * log_units + 1),
            )
            for lo, lo_exp, hi, hi_exp, log_sin, log_units in _logsin_row(prec, level)
        ]

    return f, (pi, -frac), 3 * pi_n * units * (frac + 2), prec - 1 - n.bit_length()


def _pointwise(point: PointIntegrand, b: Distance, prec: int) -> RawIntegrand:
    """The level function of ``point`` on [0, b]: ``point`` at b g and at
    b (1 - g) for each node g of the level, with their summed units."""
    bm, be = b

    def f(level: int) -> list[tuple[int, int, int]]:
        out = []
        for gm, ge, cm, _, _ in _nodes(prec, level):
            lo, lo_units = point((bm * gm, be + ge))
            hi, hi_units = point((bm * cm, be + ge))
            out.append((lo, hi, lo_units + hi_units))
        return out

    return f


def _logsquared(prec: int) -> Integrand:
    """(log(2 sin x))^2 on [0, b], b at most pi/2 and within u units of it;
    the integrand is below 1 on [b, pi/2], which leaves out under u units."""
    frac = prec + _precision._GUARD
    log2, log2_units = _elementary.log2(frac)

    def f(x: Distance) -> tuple[int, int]:
        # log(2 * sin(x)) ** 2: y within u units squares to within
        # (2 |y| + u) u, then rounds down
        log_sin, units = _log_sin(x, frac)
        y, units = log_sin + log2, units + log2_units
        return y * y >> frac, ((2 * abs(y) + units) * units >> frac) + 2

    half_pi, units = _elementary.pi(frac - 1)  # pi/2 in units of 2^-frac
    b = (half_pi, -frac)
    return _pointwise(f, b, prec), b, units, frac


def _vertical_leg(prec: int, n: int, target: float) -> Integrand:
    """y^n log(1 - e^(-2y)) on [0, Y], Y the cutoff policy's for n and
    ``target``, with the dropped tail's bound.

    y is cut to V + bits(c) + 2 bits, c = n + 4 ceil(Y) + 3.  Since
    y |d/dy log(1 - e^(-2y))| <= (4y + 3) |log(1 - e^(-2y))|, that moves
    the integrand by under 2^-V of itself.  The log, at least e^(-2y) >
    2^-(k + 1), is taken at V + 8 + k bits, and e^(-2y) at 8 more and as
    many again as 2y is below 1, so that 1 - e^(-2y) keeps its bits; the
    units of e^(-2y) go into the log's.
    """
    frac = prec + _precision._GUARD
    cutoff = default_semi_infinite_cutoff_policy(n, target)
    keep = frac + (n + 4 * math.ceil(cutoff) + 3).bit_length() + 2

    def f(x: Distance) -> tuple[int, int]:
        y_man, y_exp = _cut(x, keep)
        # y_exp < 0, and y_man may be past the double range
        y = y_man / (1 << -y_exp)
        k = int(y * 2.8853900817779268)  # 2y / log 2
        out = frac + 8 + k
        ww = out + 8 + max(0, -(y_exp + 1 + y_man.bit_length()))
        e, e_units = _elementary.exp((-y_man, y_exp + 1), ww)
        log, units = _elementary.log(((1 << ww) - e, -ww), out, e_units)
        power, shift = y_man**n, n * y_exp - out + frac
        return _shift(power * log, shift), _shift(power * units, shift) + 2

    num, den = cutoff.as_integer_ratio()
    left_out = -_units_below(-vertical_tail_bound(n, cutoff), prec)
    b = (num, 1 - den.bit_length())
    return _pointwise(f, b, prec), b, left_out, frac


def _cosine_moment(prec: int, l: int, power: int) -> Integrand:
    """theta^power cos(2 l theta) on [0, b], b at most pi and within u
    units of it; |integrand| < 4, so [b, pi] leaves out under 4 u units."""
    frac = prec + _precision._GUARD

    def f(x: Distance) -> tuple[int, int]:
        # x ** power * cos(2 * l * x): x < 4 times the cosine's units, and
        # a unit for the floor
        value, units = _elementary.sin_cos((x[0] * 2 * l, x[1]), frac, 1)
        if power:
            return _shift(x[0] * value, x[1]), 4 * units + 1
        return value, units

    pi, units = _elementary.pi(frac)
    b = (pi, -frac)
    return _pointwise(f, b, prec), b, 4 * units, frac


def _cosine_orth(prec: int, l: int, lp: int) -> Integrand:
    """cos(2 l theta) cos(2 l' theta) on [0, b], b at most pi and within
    u units of it; |integrand| <= 1, so [b, pi] leaves out under u units."""
    frac = prec + _precision._GUARD

    def f(x: Distance) -> tuple[int, int]:
        # cos(2 * l * x) * cos(2 * lp * x): cosines within u and u' units
        # multiply to within u + u' + 1, then round down
        cos_l, units_l = _elementary.sin_cos((x[0] * 2 * l, x[1]), frac, 1)
        cos_lp, units_lp = _elementary.sin_cos((x[0] * 2 * lp, x[1]), frac, 1)
        return cos_l * cos_lp >> frac, units_l + units_lp + 2

    pi, units = _elementary.pi(frac)
    b = (pi, -frac)
    return _pointwise(f, b, prec), b, units, frac


def integrate_logsine(n: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^pi x^n log(sin x) dx with a certified bound.

    The integrand has logarithmic singularities at both endpoints; the
    double-exponential nodes absorb them (see module docstring).
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    return _certified(_logsine, (n,), _target(settings))


def integrate_logsquared(settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^{pi/2} (log(2 sin x))^2 dx; log-squared singularity at x = 0."""
    return _certified(_logsquared, (), _target(settings))


def integrate_vertical_leg(n: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^inf y^n log(1 - e^(-2y)) dy (negative), truncated by the
    cutoff policy with the dropped tail added to the bound."""
    _require_int(n, 0, "n must be a nonnegative integer")
    target = _target(settings)
    return _certified(_vertical_leg, (n, target), target)


def cosine_moment(l: int, power: int, settings: QuadratureSettings | None = None) -> RealApprox:
    """int_0^pi theta^power cos(2 l theta) dtheta for power in {0, 1}.

    Exactly zero for every l >= 1 at both powers; the returned value is the
    quadrature's independent confirmation.
    """
    _require_int(l, 1, "l must be a positive integer")
    _require_int(power, 0, "power must be 0 or 1")
    if power > 1:
        raise ValueError("power must be 0 or 1")
    return _certified(_cosine_moment, (l, power), _target(settings, 1e-12))


def cosine_orthogonality(
    l: int, l_prime: int, settings: QuadratureSettings | None = None
) -> RealApprox:
    """int_0^pi cos(2 l theta) cos(2 l' theta) dtheta: pi/2 when l = l',
    zero otherwise."""
    for value in (l, l_prime):
        _require_int(value, 1, "l and l' must be positive integers")
    return _certified(_cosine_orth, (l, l_prime), _target(settings, 1e-12))
