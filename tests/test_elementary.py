"""The counted routines of ``_elementary`` and the conversions to doubles.

Each routine is checked at every working precision the library uses
against mpmath 64 bits finer: its value lies within its stated units of
the reference.  Nearly every value there is the function rounded down with
units 1, so a routine that stated one unit fewer fails here.

``certify``, the one exit from integers to doubles, is checked to round
once to the nearest double, bit for bit with the mpmath rounding it
replaced wherever that rounded once, also after adding a certified double
exactly; ``_sum_components`` to round the exact sum of certified doubles
once; and the package is checked to import no mpmath at all.
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
def test_certify_rounds_once_to_nearest(mantissa, scale, negative, fbits, bound):
    """``certify`` rounds a value and a bound once to the nearest double,
    ties to even, bit for bit with mpmath's rounding wherever that rounds
    once; past the double range it raises CertificationError."""
    value = (-mantissa if negative else mantissa) << max(scale + fbits, 0)
    value >>= max(-(scale + fbits), 0)
    v, b = _nearest_double(value, fbits), _nearest_double(bound, fbits)
    b += 0.5 * math.ulp(abs(v) if v else 1e-300)
    if not (math.isfinite(v) and math.isfinite(b)):
        with pytest.raises(CertificationError, match="exceeds the double range"):
            _precision.certify(value, bound, fbits - GUARD)
        return
    expected = (v, math.nextafter(b, math.inf))
    approx = _precision.certify(value, bound, fbits - GUARD)
    assert (approx.value, approx.abs_error) == expected
    if all(not x or abs(Fraction(x, 2**fbits)) >= Fraction(2) ** -1022 for x in (value, bound)):
        assert _mpmath_float_with_bound(value, bound, fbits) == expected


def test_float_with_bound_rounds_once_below_the_normal_range():
    # just above half the least subnormal: mpmath's 53-bit rounding lands on
    # the tie at half, which then rounds to 0.0
    value, fbits = (1 << 200) + 1, 1275
    assert _mpmath_float_with_bound(value, 0, fbits)[0] == 0.0
    assert _precision.float_with_bound(value, 0, fbits)[0] == 5e-324


@pytest.mark.parametrize(
    "value, bound",
    [(1 << 1126, 0), (0, 1 << 1126), (-(1 << 1200), 0), (1 << 102, int(sys.float_info.max) << 102)],
    ids=["value", "bound", "negative", "bound-rounded-up"],
)
def test_float_with_bound_raises_past_the_double_range(value, bound):
    with pytest.raises(CertificationError, match="exceeds the double range"):
        _precision.float_with_bound(value, bound, 102)


def _rounded_once(value: Fraction, bound: Fraction) -> tuple[float, float]:
    """An exact value and bound rounded once to the nearest double, the
    bound with half an ulp of the value added and then rounded up."""
    v = float(value)
    return v, math.nextafter(float(bound) + 0.5 * math.ulp(abs(v) or 1e-300), math.inf)


# (m, k) for a double m 2^(k - F), F = prec + 16: from 200 bits finer than
# the unit 2^-F, which then does not divide it, to 60 bits coarser
NEAR_UNIT = st.tuples(st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-200, 60))


@settings(max_examples=300, deadline=None)
@given(prec=st.sampled_from(PRECISIONS), value=st.integers(-(2**250), 2**250),
       bound=st.integers(0, 2**120), x=NEAR_UNIT, e=NEAR_UNIT)
@example(prec=86, value=3, bound=1, x=(1, -48), e=(1, -58))  # finer: 2^-150 and 2^-160
@example(prec=86, value=-(1 << 110), bound=5, x=(3, 100), e=(1, 12))  # coarser: 0.75, 2^-90
def test_certify_adds_a_double_exactly_then_rounds_once(prec, value, bound, x, e):
    """``certify`` with ``plus`` adds the double's value and bound to the
    integers' exactly, whether the doubles have more fractional bits than
    the unit or fewer, and rounds each sum once."""
    fbits = prec + GUARD
    x, e = math.ldexp(x[0], x[1] - fbits), math.ldexp(abs(e[0]), e[1] - fbits)
    approx = _precision.certify(value, bound, prec, plus=_precision.RealApprox(x, e))
    unit = Fraction(1, 2**fbits)
    expected = _rounded_once(value * unit + Fraction(x), bound * unit + Fraction(e))
    assert (approx.value, approx.abs_error) == expected


def test_certify_raises_past_its_target():
    approx = _precision.certify(3 << 102, 1 << 60, 86)
    assert _precision.certify(3 << 102, 1 << 60, 86, target=approx.abs_error) == approx
    message = rf"^I_3 certified to {approx.abs_error:.3e}, target 1\.000e-20$"
    with pytest.raises(CertificationError, match=message):
        _precision.certify(3 << 102, 1 << 60, 86, target=1e-20, what="I_3")


# values without -0.0, whose sum with +0.0 terms would be -0.0 in no case
VALUES = st.floats(-1e300, 1e300).map(lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, min_size=3, max_size=3),
       bounds=st.lists(st.floats(0, 1e300), min_size=3, max_size=3))
@example(values=[0.1, -0.1, 0.0], bounds=[0.0, 0.0, 0.0])  # cancels exactly to +0.0
@example(values=[1e300, 1.0, -1e300], bounds=[1e-300, 1.0, 5e-324])  # no double sum holds 1.0
def test_sum_components_rounds_the_exact_sum_once(values, bounds):
    """The sum of certified doubles is their exact sum rounded once, and
    its bound their bounds' exact sum rounded once, with half an ulp of
    the value added and then rounded up; a sum that cancels is +0.0."""
    parts = [_precision.RealApprox(v, b) for v, b in zip(values, bounds)]
    total = _precision._sum_components(parts)
    expected = _rounded_once(sum(map(Fraction, values)), sum(map(Fraction, bounds)))
    assert (total.value, total.abs_error) == expected
    assert math.copysign(1.0, total.value) == math.copysign(1.0, expected[0])


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
