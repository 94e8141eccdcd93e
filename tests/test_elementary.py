"""The counted routines of ``_elementary`` and the conversions to doubles.

Each routine is checked at every working precision the library uses
against mpmath 64 bits finer: its value lies within its stated units of
the reference.  Nearly every value there is the function rounded down with
units 1, so a routine that stated one unit fewer fails here.

``_float_units`` is checked to round once to the nearest double, bit for
bit with the mpmath rounding it replaced wherever that rounded once, and
the package is checked to import no mpmath at all.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest, to_float

from logsine import _elementary, _precision, quadrature_oracle
from logsine._precision import prec_for
from logsine.errors import CertificationError

# the working precisions: zeta_numeric's, the legs' and the closed form's,
# and the quadrature's, at every tolerance from 3e-2 to 1e-14; 40 and 80
# digits
PRECISIONS = sorted(
    {
        prec_for(tol, *rule)
        for tol in (3e-2, *(10.0**-e for e in range(2, 15)))
        for rule in ((15, 25), (25, 30), (12, 25))
    }
    | {dps_to_prec(40), dps_to_prec(80)}
)
GUARD = _precision._GUARD
# the fixed-point bits of those precisions, and of the node tables of the
# quadrature's precisions
BITS = sorted(
    {prec + GUARD for prec in PRECISIONS}
    | {prec_for(tol, 12, 25) + GUARD + quadrature_oracle._NODE_BITS for tol in (3e-2, 1e-8, 1e-14)}
)


def _context(prec: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _exact(raw: tuple) -> Fraction:
    sign, man, exp, _ = raw
    return (-1) ** sign * man * Fraction(2) ** exp


def _check(out: tuple[int, int], w: int, reference) -> None:
    """(value, units) at w bits against ``reference(ctx, ...)`` 64 bits finer."""
    value, units = out
    ref = _exact(reference(_context(w + 64))._mpf_) * 2**w
    # the reference is good to 2^-(w + 60) of itself, far under 2^-40 units
    assert abs(value - ref) < units + Fraction(1, 2**40), (w, value, units, float(value - ref))


def _arg(ctx: MPContext, x: tuple[int, int]):
    return ctx.ldexp(x[0], x[1])


# exact arguments (man, exp) for man 2^exp
EXP_ARGS = [(0, 0), (1, -100), (-1, -100), (3, -3), (-3, -3), (1, 0), (-1, 0), (11, 1),
            (-11, 1), (7, 0), (-23371, -100 + 93), (-1000, 0), (-6283, -4)]
LOG_ARGS = [(3, -302), (1, -1), ((1 << 80) - 1, -80), (1, 0), ((1 << 80) + 1, -80), (3, 0),
            (10**6, 0), (12345, 500), (2**61 - 1, -60), (7, -3)]
TRIG_ARGS = [(0, 0), (5, -200), (-5, -200), (7, -3), (201, -8), (3217, -11), (3, 0),
             (10, 0), (19, 0), (-5, -1), (355, -113 + 106)]
HYP_ARGS = [(0, 0), (1, -12), (1, -1), (7, -2), (5, 0), (7, 0)]


@pytest.mark.parametrize("w", BITS)
def test_constants_match_mpmath(cold_caches, w):
    _check(_elementary.pi(w), w, lambda ctx: +ctx.pi)
    _check(_elementary.log2(w), w, lambda ctx: +ctx.ln2)


@pytest.mark.parametrize("w", BITS)
def test_exp_and_log_match_mpmath(cold_caches, w):
    for x in EXP_ARGS:
        _check(_elementary.exp(x, w), w, lambda ctx: ctx.exp(_arg(ctx, x)))
    for x in LOG_ARGS:
        _check(_elementary.log(x, w), w, lambda ctx: ctx.log(_arg(ctx, x)))


@pytest.mark.parametrize("w", BITS)
def test_log_counts_the_units_of_its_argument(cold_caches, w):
    # x known within u units of its last bit: the value and its units must
    # cover the log at both ends of [x - u, x + u]
    for man, exp in LOG_ARGS:
        x = (man << 40, exp - 40)
        for units in (1, 1 << 30):
            out = _elementary.log(x, w, units)
            for end in (x[0] - units, x[0] + units):
                _check(out, w, lambda ctx: ctx.log(ctx.ldexp(end, x[1])))


@pytest.mark.parametrize("w", BITS)
def test_trigonometric_and_hyperbolic_match_mpmath(cold_caches, w):
    for x in TRIG_ARGS:
        _check(_elementary.sin_cos(x, w, 0), w, lambda ctx: ctx.sin(_arg(ctx, x)))
        _check(_elementary.sin_cos(x, w, 1), w, lambda ctx: ctx.cos(_arg(ctx, x)))
    for x in HYP_ARGS:
        c, s, units = _elementary.cosh_sinh(x, w)
        _check((c, units), w, lambda ctx: ctx.cosh(_arg(ctx, x)))
        _check((s, units), w, lambda ctx: ctx.sinh(_arg(ctx, x)))


def test_routines_mostly_round_down_with_one_unit(cold_caches):
    # the guard bits leave a value's last bit in doubt only where the
    # function comes within about 2^-20 units of a multiple of one, as
    # e^x does at x near 0: at arguments away from such points nearly every
    # value is the function rounded down
    outs = [
        out
        for w in BITS
        for out in (
            _elementary.pi(w),
            _elementary.log2(w),
            *(_elementary.exp(x, w) for x in ((3, -3), (-11, 1), (-23371, -7))),
            *(_elementary.log(x, w) for x in ((3, 0), (10**6, 0), (7, -3))),
            *(_elementary.sin_cos(x, w, 0) for x in ((7, -3), (3217, -11), (10, 0))),
            _elementary.sin_cos((19, 0), w, 1),
        )
    ]
    assert sum(units == 1 for _, units in outs) >= 0.95 * len(outs)


def test_constant_tables_depend_on_their_key_alone(cold_caches):
    # pi and log 2 at a precision are cut from the entry of its 128-bit
    # step, whatever was asked for before
    forward = [(_elementary.pi(w), _elementary.log2(w)) for w in BITS]
    cold_caches()
    backward = [(_elementary.pi(w), _elementary.log2(w)) for w in reversed(BITS)][::-1]
    assert forward == backward
    assert set(_elementary._PI) == set(_elementary._LOG2)
    assert all(key % 128 == 0 for key in _elementary._PI)


# ---------------------------------------------------------------------------
# rounding to double
# ---------------------------------------------------------------------------


def _mpmath_float_with_bound(value: int, bound: int, fbits: int) -> tuple[float, float]:
    """The rounding ``float_with_bound`` replaced, on raw mpmath tuples."""
    value = to_float(from_man_exp(value, -fbits), rnd=round_nearest)
    bound = to_float(from_man_exp(bound, -fbits), rnd=round_nearest)
    bound += 0.5 * math.ulp(abs(value) if value else 1e-300)
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise CertificationError("exceeds the double range")
    return value, math.nextafter(bound, math.inf)


def _nearest_double(x: int, fbits: int) -> float:
    """x 2^-fbits rounded once to the nearest double, ties to even: by
    mpmath at and above 2^-1022, where it rounds once, and by integer
    division to the multiple of 2^-1074 below."""
    if not x or abs(Fraction(x, 2**fbits)) >= Fraction(2) ** -1022:
        return to_float(from_man_exp(x, -fbits), rnd=round_nearest)
    q, r = divmod(abs(x) << 1074, 1 << fbits)
    half = 1 << (fbits - 1)
    q += r > half or (r == half and q & 1)
    return math.copysign(math.ldexp(q, -1074), x)


# the library's fixed-point bits, and some past 1074 that reach subnormals
FBITS = st.sampled_from(sorted({prec + GUARD for prec in PRECISIONS} | {1100, 1200, 1300}))
# a double's worth of bits, a tie between two doubles, or many more, at
# scales from subnormal to past the double range
MANTISSA = st.one_of(
    st.integers(0, 2**53),
    st.integers(0, 2**52 - 1).map(lambda k: 1 << 53 | 2 * k + 1),
    st.integers(0, 2**200),
)


@settings(max_examples=500, deadline=None)
@given(mantissa=MANTISSA, scale=st.integers(-1200, 1100), negative=st.booleans(), fbits=FBITS,
       bound=st.integers(0, 2**120))
@example(mantissa=2**54 - 1, scale=-54, negative=False, fbits=102, bound=0)  # a tie at 1
@example(mantissa=3, scale=-1076, negative=False, fbits=1200, bound=1)  # subnormal
@example(mantissa=1, scale=1024, negative=True, fbits=102, bound=0)  # past the range
def test_float_units_rounds_once_to_nearest(mantissa, scale, negative, fbits, bound):
    """``_float_units`` rounds a value and a bound once to the nearest
    double, ties to even, bit for bit with mpmath's rounding wherever that
    rounds once; past the double range it raises CertificationError."""
    value = (-mantissa if negative else mantissa) << max(scale + fbits, 0)
    value >>= max(-(scale + fbits), 0)
    v, b = _nearest_double(value, fbits), _nearest_double(bound, fbits)
    b += 0.5 * math.ulp(abs(v) if v else 1e-300)
    if not (math.isfinite(v) and math.isfinite(b)):
        with pytest.raises(CertificationError, match="exceeds the double range"):
            _precision._float_units(value, bound, fbits - GUARD)
        return
    expected = (v, math.nextafter(b, math.inf))
    assert _precision._float_units(value, bound, fbits - GUARD) == expected
    if all(not x or abs(Fraction(x, 2**fbits)) >= Fraction(2) ** -1022 for x in (value, bound)):
        assert _mpmath_float_with_bound(value, bound, fbits) == expected


def test_float_with_bound_rounds_once_below_the_normal_range():
    # just above half the least subnormal: mpmath's 53-bit rounding lands on
    # the tie at half, which then rounds to 0.0
    value, fbits = (1 << 200) + 1, 1275
    assert _mpmath_float_with_bound(value, 0, fbits)[0] == 0.0
    assert _precision.float_with_bound(value, 0, fbits)[0] == 5e-324


@pytest.mark.parametrize(
    "value, bound", [(1 << 1126, 0), (0, 1 << 1126), (-(1 << 1200), 0)],
    ids=["value", "bound", "negative"],
)
def test_float_with_bound_raises_past_the_double_range(value, bound):
    with pytest.raises(CertificationError, match="exceeds the double range"):
        _precision.float_with_bound(value, bound, 102)


def test_units_below_rounds_down():
    for x in (1e-10, -1e-10, 0.1, -2.5, 3e-300):
        units = _precision._units_below(x, 86)
        assert units <= Fraction(x) * 2**102 < units + 1


# ---------------------------------------------------------------------------
# no mpmath at run time
# ---------------------------------------------------------------------------


def test_cli_imports_no_mpmath():
    code = (
        "import logsine.cli, sys; "
        "assert not any(m == 'mpmath' or m.startswith('mpmath.') for m in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(_precision.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
