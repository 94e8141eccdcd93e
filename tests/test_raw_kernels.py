"""The zeta series, the tanh-sinh engine, the contour legs and the closed
form compute on fixed-point integers with counted units, and round them
to doubles from integers.  The node tables are checked against their
``mpf`` formula 64 bits finer: at every working precision the library
uses, each node's g and w lie within 2^-V of themselves of the
reference's, 2^-V the library's unit.

The zeta series and the tanh-sinh engine accumulate on fixed-point
integers.  The series is checked against its proof: Borwein's partial
sum re-done exactly with ``Fraction``, his a-priori remainder, and
mpmath's ``zeta`` in a finer context.  The engine's reference is the same
rule summed exactly with ``Fraction`` over the same nodes and integrand
values, and each integrand value is checked against the integrand
evaluated at the same exact point in a finer context: each value lies
within its stated units, and the results within the engine's counted
units of the exact sums.  With integrand values of 0 units the engine's
own floors are the whole error, and are checked against its count.

The legs and the closed form sum terms num/den pi^m x, x a zeta value,
log 2 or 1, on integers with counted units.  Each term is checked at every
working precision they use, for n <= 40: its bound covers its floor
division plus the worst case of pi^m and x over their stated units, and
pi^m, x and the term lie within their units of mpmath's values 64 bits
finer."""

import functools
import math
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, prec_to_dps

from logsine import (
    _elementary,
    _precision,
    contour_verifier,
    logsine_closed_form,
    quadrature_oracle,
    zeta_engine,
)
from logsine._elementary import _shift
from logsine._precision import prec_for
from logsine.contour_verifier import _PHASE_SIGN
from logsine.errors import CertificationError
from logsine.logsine_closed_form import logsine_symbolic
from logsine.quadrature_oracle import (
    _MIN_ACCEPT_LEVEL,
    QuadratureSettings,
    cosine_moment,
    cosine_orthogonality,
    integrate_logsine,
    integrate_logsquared,
    integrate_vertical_leg,
)
from logsine.zeta_engine import _term_prec

TOLERANCES = (1e-3, 1e-6, 1e-10, 1e-12)
# (extra digits, floor) of zeta_numeric and of the legs and the closed form,
# the two callers of the zeta series, at every tolerance from 3e-2 to
# 1e-14; and 40 and 80 digits
ZETA_PRECISIONS = sorted(
    {
        prec_for(tol, *rule)
        for tol in (3e-2, *(10.0**-e for e in range(2, 15)))
        for rule in ((15, 25), (25, 30))
    }
    | {dps_to_prec(40), dps_to_prec(80)}
)
# the quadrature's working precisions
QUAD_PRECISIONS = sorted({prec_for(tol, 12, 25) for tol in TOLERANCES})
# those and two finer ones
ENGINE_PRECISIONS = [*QUAD_PRECISIONS, dps_to_prec(40), dps_to_prec(80)]
GUARD = _precision._GUARD


def _context(prec: int) -> MPContext:
    """An mpmath context of the test's own at ``prec`` bits."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _nodes_reference(prec: int, level: int) -> tuple[tuple[tuple, tuple], ...]:
    """New (offset-fraction, weight) pairs introduced at a refinement level,
    as raw mpmath tuples computed 64 bits finer than the node tables.

    For a positive abscissa t:  u = (pi/2) sinh t,  q = e^(-2u),
    offset-fraction g = q/(1+q) (distance of each mirrored node from its
    nearer endpoint, as a fraction of the interval), weight
    w = 2 pi cosh(t) q/(1+q)^2.  Level 0 contributes the integer abscissas
    t = 0..T; level k >= 1 contributes the odd multiples of 2^-k up to T.
    Mirrored nodes share g and w by symmetry.
    """
    ctx = _context(prec + GUARD + quadrature_oracle._NODE_BITS + 64)
    mpf = ctx.mpf
    t_max = quadrature_oracle._t_limit(prec)
    if level == 0:
        ts = [mpf(j) for j in range(t_max + 1)]
    else:
        h = mpf(1) / 2 ** level
        ts = []
        j = 1
        while j * h <= t_max:
            ts.append(j * h)
            j += 2
    out = []
    for t in ts:
        u = ctx.pi / 2 * ctx.sinh(t)
        q = ctx.exp(-2 * u)
        g = q / (1 + q)
        w = 2 * ctx.pi * ctx.cosh(t) * q / (1 + q) ** 2
        out.append((g._mpf_, w._mpf_))
    return tuple(out)


def _borwein_proof(prec: int) -> tuple[int, list[int], Fraction]:
    """n, d_0..d_n and Borwein's remainder bound for ``prec`` bits, built
    from the definitions: n is the smallest with 6 / (3 + sqrt 8)^n below
    2^-(prec + 4), d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), and
    the remainder 6 / (3 + sqrt 8)^n < 6 / (a_n - 1) with the integer
    a_n = (3 + sqrt 8)^n + (3 - sqrt 8)^n from the binomial theorem."""
    fine = MPContext()
    fine.prec = 2 * prec + 100
    root = 3 + fine.sqrt(8)
    n = 1
    while 6 / root**n > fine.ldexp(1, -(prec + 4)):
        n += 1
    a_n = 2 * sum(math.comb(n, j) * 3 ** (n - j) * 8 ** (j // 2) for j in range(0, n + 1, 2))
    d = []
    for k in range(n + 1):
        d_k = n * sum(
            Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
            for i in range(k + 1)
        )
        assert d_k.denominator == 1
        d.append(int(d_k))
    return n, d, Fraction(6, a_n - 1)


# the name predates Borwein's series; the kernel kept its name
@pytest.mark.parametrize("prec", ZETA_PRECISIONS)
def test_euler_maclaurin_matches_mpf_reference(cold_caches, prec):
    """Each value lies within its counted units of Borwein's partial sum,
    re-done exactly; the bound covers those units plus his remainder; and
    the value lies within its bound of mpmath's zeta 64 bits finer."""
    ref = _context(prec + 64)
    n, d, remainder = _borwein_proof(prec)
    unit = Fraction(1, 2 ** (prec + 16))
    for s in range(2, 41):
        value, bound = (x * unit for x in zeta_engine._euler_maclaurin(s, prec))
        c = Fraction(2 ** (s - 1), 2 ** (s - 1) - 1)  # 1 / (1 - 2^(1-s))
        lcm = math.lcm(*range(1, n + 1)) ** s
        alternating = sum((-1) ** k * (d[n] - d[k]) * (lcm // (k + 1) ** s) for k in range(n))
        partial = c * Fraction(alternating, d[n] * lcm)
        # under a unit for each of the n term floors, scaled by c / d_n,
        # and one for the last floor
        units = (n * c / d[n] + 1) * unit
        assert abs(value - partial) < units, (s, prec)
        assert remainder + units <= bound, (s, prec)
        # the reference is good to far better than 2^-(prec + 50)
        zeta = _fraction(ref.zeta(s)._mpf_)
        assert abs(value - zeta) <= bound - Fraction(1, 2 ** (prec + 50)), (s, prec)


def _fraction(raw: tuple) -> Fraction:
    """The exact value of a raw tuple."""
    sign, man, exp, _ = raw
    return (-1) ** sign * man * Fraction(2) ** exp


def _check_nodes(prec: int, level: int) -> None:
    """Each integer node of a level is an exact g with 1 - g exact beside
    it, g within 2^-V of the reference's g of itself, and w within 2^-V of
    itself of the reference's w, which the center node g = 1/2, its own
    mirror, halves."""
    nodes = quadrature_oracle._nodes(prec, level)
    reference = _nodes_reference(prec, level)
    unit = Fraction(1, 2 ** (prec + GUARD))
    assert len(nodes) == len(reference), level
    for i, ((gm, ge, cm, wm, ws), (g, w)) in enumerate(zip(nodes, reference)):
        g, w = _fraction(g), _fraction(w)
        if level == 0 and i == 0:
            w /= 2
        node_g, node_w = _fraction((0, gm, ge, 0)), _fraction((0, wm, -ws, 0))
        assert _fraction((0, cm, ge, 0)) == 1 - node_g, (level, i)
        assert abs(node_g - g) <= unit * g, (level, i)
        assert abs(node_w - w) <= unit * node_w, (level, i)


@pytest.mark.parametrize("prec", ENGINE_PRECISIONS)
def test_node_tables_match_mpf_reference(cold_caches, prec):
    for level in range(8):
        _check_nodes(prec, level)


def test_t_limit_keeps_the_decimal_digits_range():
    """``_t_limit`` of the bits is the range the node tables were built
    with from decimal digits, ceil(asinh(ln 10 (dps + 8) / pi)), at every
    precision the quadrature works at, so no node moves."""
    # 0 to 324 digits below the target
    tolerances = (1e3, *(float(f"3e-{d}") for d in range(1, 324)), 5e-324)
    precisions = {prec_for(tol, 12, 25) for tol in tolerances}
    assert len(precisions) == 312  # every dps from 25 to 336
    for prec in precisions:
        digits_range = math.asinh(math.log(10.0) * (prec_to_dps(prec) + 8) / math.pi)
        assert quadrature_oracle._t_limit(prec) == math.ceil(digits_range), prec


def test_node_tables_cover_every_level_the_engine_reaches(cold_caches):
    """At the quadrature's coarsest precision, every level to
    ``_MAX_DEPTH`` has T + 1 nodes at level 0 and T 2^(level - 1) above,
    with offsets in (0, 1/2] that strictly decrease, and matches the
    reference."""
    prec = QUAD_PRECISIONS[0]
    t_max = quadrature_oracle._t_limit(prec)
    for level in range(quadrature_oracle._MAX_DEPTH + 1):
        nodes = quadrature_oracle._nodes(prec, level)
        assert len(nodes) == (t_max + 1 if level == 0 else t_max << (level - 1)), level
        g = [_fraction((0, gm, ge, 0)) for gm, ge, *_ in nodes]
        assert 0 < g[-1] and g[0] <= Fraction(1, 2), level
        assert all(a > b for a, b in zip(g, g[1:])), level
        _check_nodes(prec, level)


def test_node_past_its_count_raises(cold_caches, monkeypatch):
    """A node whose weight's count passes 2^_NODE_BITS cannot keep its
    weight within 2^-V of itself, and the table refuses to build."""
    monkeypatch.setattr(quadrature_oracle, "_NODE_BITS", 4)
    with pytest.raises(CertificationError, match=r"^tanh-sinh node 0 2\^-0 lost its precision"):
        quadrature_oracle._nodes(86, 0)


# ---------------------------------------------------------------------------
# the fixed-point tanh-sinh engine
# ---------------------------------------------------------------------------


@pytest.fixture
def pointwise_calls(monkeypatch):
    """Every level function ``_pointwise`` builds, mapped to its per-point
    function and that function's calls, each (x, value, units), in call
    order."""
    made = {}
    pointwise = quadrature_oracle._pointwise

    def recording(point, b, prec):
        calls = []

        def p(x):
            value = point(x)
            calls.append((x, *value))
            return value

        f = pointwise(p, b, prec)
        made[f] = (point, calls)
        return f

    monkeypatch.setattr(quadrature_oracle, "_pointwise", recording)
    return made


@pytest.fixture
def engine_runs(cold_caches, pointwise_calls, monkeypatch):
    """Every call into the tanh-sinh engine from empty caches: its
    arguments, each integrand call's (level, triples), the level the engine
    asked for and the (lo, hi, units) triples the integrand returned, the
    per-point calls behind them (None for x^n log sin x, which has none),
    and its result."""
    runs = []
    engine = quadrature_oracle._tanh_sinh

    def recording(f, b, rule_target, prec):
        seen = []

        def g(level):
            triples = list(f(level))
            seen.append((level, triples))
            return triples

        out = engine(g, b, rule_target, prec)
        calls = pointwise_calls[f][1] if f in pointwise_calls else None
        runs.append((b, rule_target, prec, seen, calls, out))
        return out

    monkeypatch.setattr(quadrature_oracle, "_tanh_sinh", recording)
    return runs


def _run(call):
    try:
        call()
    except CertificationError:  # past the envelope; what ran before the raise is checked
        pass


def _pair(pair: tuple[int, int]) -> Fraction:
    """The exact value of a (mantissa, exponent) pair."""
    man, exp = pair
    return man * Fraction(2) ** exp


def _node_points(b, prec, level):
    """For each node g of a level, in node order: the exact pairs b g and
    b (1 - g), where the integrand is taken, with the node's weight w; b g
    is both nodes' distance from the nearer end of [0, b]."""
    bm, be = b
    for gm, ge, cm, wm, ws in quadrature_oracle._nodes(prec, level):
        yield (bm * gm, be + ge), (bm * cm, be + ge), _pair((wm, -ws))


def _check_rule(b, rule_target, prec, seen, out) -> Fraction:
    """The engine's levels, and its sums against exact sums of the same
    integrand values: the rule's exact sum lies within the counted units of
    the value, and the mass within them of the exact mass, the estimate
    within twice them, and the rule stops at the first level from
    ``_MIN_ACCEPT_LEVEL`` on whose estimate meets the target; all in units
    of 2^-V.  The engine asks for each level once, in order, and the
    integrand returns one triple per node.  Returns the value's distance
    from the exact sum."""
    value, estimate, mass, units = out
    half_b = _pair(b) / 2
    assert [level for level, _ in seen] == list(range(len(seen)))
    totals, masses = [], []
    total_sum = mass_sum = Fraction(0)
    unit_sum = 0
    for level, triples in seen:
        points = list(_node_points(b, prec, level))
        assert len(triples) == len(points), level
        # the center node g = 1/2, its own mirror, holds half its weight
        for (lo, hi, u), (_, _, w) in zip(triples, points):
            total_sum += w * lo + w * hi
            mass_sum += abs(w * lo) + abs(w * hi)
            # 2 u' + 1 for each of the two values, u' its own units
            unit_sum += 2 * u + 2
        totals.append(half_b * total_sum / 2**level)
        masses.append(half_b * mass_sum / 2**level)
    last = len(seen) - 1
    assert last >= _MIN_ACCEPT_LEVEL
    assert abs(value - totals[last]) <= units
    assert abs(mass - masses[last]) <= units
    assert abs(estimate - abs(totals[last] - totals[last - 1])) <= 2 * units
    assert estimate <= rule_target
    for k in range(_MIN_ACCEPT_LEVEL, last):
        assert abs(totals[k] - totals[k - 1]) > rule_target - 2 * units, k
    # under 2 u + 1 units per product w f for a value of u units, scaled by
    # the rule, and 2 more
    assert units <= 2 * half_b * unit_sum / 2 ** (last + 1) + 2
    return abs(value - totals[last])


def _engine_ends(prec: int) -> dict[str, tuple[int, int]]:
    """The ends pi and pi/2 as the integrands give them, and a cutoff."""
    frac = prec + GUARD
    return {
        "pi": (_elementary.pi(frac)[0], -frac),
        "half-pi": (_elementary.pi(frac - 1)[0], -frac),
        "cutoff": (125, -2),
    }


def _engine_error(value, b, prec) -> tuple[Fraction, int]:
    """The engine on [0, b] for an integrand whose values ``value(x)`` are
    exact, of 0 units, so that its floors are the whole error: that error,
    checked by ``_check_rule``, and the engine's count."""
    seen = []

    def f(level):
        triples = [(value(lo), value(hi), 0) for lo, hi, _ in _node_points(b, prec, level)]
        seen.append((level, triples))
        return triples

    out = quadrature_oracle._tanh_sinh(f, b, 1 << GUARD, prec)
    return _check_rule(b, 1 << GUARD, prec, seen, out), out[3]


@pytest.mark.parametrize("end", ["pi", "half-pi", "cutoff"])
@pytest.mark.parametrize("prec", ENGINE_PRECISIONS)
def test_engine_floors_within_their_count(cold_caches, prec, end):
    """x/3 on [0, b]: the floors lie within the engine's count, and pass
    the 2 units that it would hold without one unit per pair."""
    third = (1 << (prec + GUARD)) // 3
    error, _ = _engine_error(lambda x: _shift(x[0] * third, x[1]), _engine_ends(prec)[end], prec)
    assert error > 2


@pytest.mark.parametrize("prec", ENGINE_PRECISIONS)
def test_engine_final_floors_within_their_count(cold_caches, prec):
    """-1 unit on [0, 1/16]: each product with a weight w < 1 rounds down
    by 1 - w, so the floors lie within the count and pass it less its
    final 2 units."""
    error, units = _engine_error(lambda x: -1, (1, -4), prec)
    assert error > units - 2


def _values(b, prec, seen, calls) -> list:
    """Each value the engine was given, as (x, d, value, units): the exact
    abscissa x, its distance d from the nearer end of [0, b], the value and
    its own units.  A pointwise integrand's per-point ``calls`` must make
    up its triples, one call at b g and one at b (1 - g) per node, and give
    each value's units; x^n log sin x, with ``calls`` None, gives both
    values of a pair the same units, half the triple's."""
    calls = None if calls is None else iter(calls)
    out = []
    for level, triples in seen:
        for (lo, hi, u), (x_lo, x_hi, _) in zip(triples, _node_points(b, prec, level), strict=True):
            if calls is None:
                assert u % 2 == 0, level
                lo_units = hi_units = u // 2
            else:
                (at_lo, v_lo, lo_units), (at_hi, v_hi, hi_units) = next(calls), next(calls)
                assert (at_lo, at_hi, v_lo, v_hi) == (x_lo, x_hi, lo, hi), level
                assert lo_units + hi_units == u, level
            # both nodes lie b g = x_lo from their nearer end
            out += [(x_lo, x_lo, lo, lo_units), (x_hi, x_lo, hi, hi_units)]
    assert calls is None or next(calls, None) is None
    return out


def _check_values(prec, values, reference, rel=None) -> None:
    """Each integrand value (x, d, value, units) against ``reference(fine,
    x, d)`` at the exact x and d, computed in a context 64 bits finer:
    within its own units, and where the integrand cuts x, 2^-rel of the
    reference more."""
    fine = _context(prec + 64)
    fbits = prec + GUARD
    for x, d, v, u in values:
        x_f, d_f = (fine.ldexp(*p) for p in (x, d))
        expected = _fraction(reference(fine, x_f, d_f)._mpf_) * 2**fbits
        slack = abs(expected) / 2**rel if rel is not None else 0
        assert abs(v - expected) <= u + slack + Fraction(1, 2**30), (x, d)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_logsine_moments_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        _run(lambda: integrate_logsine(n, settings))
        b, target, prec, seen, calls, out = engine_runs.pop()
        _check_rule(b, target, prec, seen, out)
        _check_values(
            prec,
            _values(b, prec, seen, calls),
            lambda fine, x, d: x**n * fine.log(fine.sin(d)),
            prec - 1 - n.bit_length(),
        )


@pytest.mark.parametrize("tol", TOLERANCES)
def test_log_sin_table_holds_one_value_per_node_pair(engine_runs, tol):
    """Each (prec, level) the engine visited holds one entry per node, and
    entry i ends in ``_log_sin`` at the nearer-end distance b g of both
    nodes of pair i; at n = 0 the integrand returns that value at both, with
    one unit more at each."""
    integrate_logsine(0, QuadratureSettings(target_abs_error=tol))
    b, _, prec, seen, _, _ = engine_runs.pop()
    table = quadrature_oracle._LOGSIN_TABLE
    assert set(table) == {(prec, level) for level, _ in seen}
    for key, row in table.items():
        assert len(row) == len(quadrature_oracle._nodes(*key)), key
    for level, triples in seen:
        for i, ((lo, hi, u), (d, _, _)) in enumerate(zip(triples, _node_points(b, prec, level))):
            *_, log_sin, units = table[prec, level][i]
            assert (log_sin, units) == quadrature_oracle._log_sin(d, prec + GUARD), (level, i)
            assert (lo, hi, u) == (log_sin, log_sin, 2 * (units + 1)), (level, i)


def _cut_to(x: tuple[int, int], bits: int) -> tuple[int, int]:
    """The pair x with its mantissa's low bits dropped past ``bits``."""
    man, exp = x
    drop = max(man.bit_length() - bits, 0)
    return man >> drop, exp + drop


@pytest.mark.parametrize("tol", TOLERANCES)
def test_log_sin_rows_and_level_function_are_exact(cold_caches, tol):
    """At every (prec, level) the moments visit, each row entry holds the
    pair's abscissae pi g and pi (1 - g) cut to prec bits, pi from
    ``_elementary.pi`` at V bits and g from ``_nodes``; and for n = 0..12
    each triple of the level function is x^n log(sin(pi g)) rounded down
    at each cut abscissa, with pi^n (bounded by 355/113) times the log's
    units and one more per value."""
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        _run(lambda: integrate_logsine(n, settings))
    prec = prec_for(tol, 12, 25)
    frac = prec + GUARD
    pi = _elementary.pi(frac)[0]
    rows = quadrature_oracle._LOGSIN_TABLE
    assert {key[0] for key in rows} == {prec} and len(rows) > _MIN_ACCEPT_LEVEL
    for level in sorted(level for _, level in rows):
        row = rows[prec, level]
        nodes = quadrature_oracle._nodes(prec, level)
        assert len(row) == len(nodes), level
        for i, ((gm, ge, cm, _, _), entry) in enumerate(zip(nodes, row)):
            lo, hi = _cut_to((pi * gm, ge - frac), prec), _cut_to((pi * cm, ge - frac), prec)
            assert entry[:4] == (*lo, *hi), (level, i)
        for n in range(13):
            f, *_ = quadrature_oracle._logsine(prec, n)
            pi_n = -(-(355**n) // 113**n)
            expected = []
            for lo_man, lo_exp, hi_man, hi_exp, log_sin, units in row:
                expected.append(
                    (
                        _shift(lo_man**n * log_sin, n * lo_exp),
                        _shift(hi_man**n * log_sin, n * hi_exp),
                        2 * (pi_n * units + 1),
                    )
                )
            assert list(f(level)) == expected, (level, n)


def _leg_integrand(n):
    # y^n log(1 - e^(-2y)) without the cancellation of 1 - e^(-2y) near 0,
    # nor that of log(1 - u) for a tiny u = e^(-2y) far out
    def f(fine, y, d):
        if y < 1:
            return y**n * fine.log(-fine.expm1(-2 * y))
        return y**n * fine.log1p(-fine.exp(-2 * y))

    return f


@pytest.mark.parametrize("tol", TOLERANCES)
def test_other_integrands_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    prec = prec_for(tol, 12, 25)
    for call, reference, rel in (
        (
            lambda: integrate_logsquared(settings),
            lambda fine, x, d: fine.log(2 * fine.sin(x)) ** 2,
            None,
        ),
        # n = 0 leaves the cancellation of 1 - e^(-2y) near y = 0 undamped
        # by y^n, and n = 12 weighs the far nodes, where e^(-2y) is tiny
        *(
            (lambda n=n: integrate_vertical_leg(n, settings), _leg_integrand(n), prec + GUARD)
            for n in (0, 3, 12)
        ),
        (lambda: cosine_moment(2, 1, settings), lambda fine, x, d: x * fine.cos(4 * x), None),
        (
            lambda: cosine_orthogonality(1, 3, settings),
            lambda fine, x, d: fine.cos(2 * x) * fine.cos(6 * x),
            None,
        ),
    ):
        _run(call)
        b, target, prec, seen, calls, out = engine_runs.pop()
        assert calls is not None  # each value's units come from its own call
        _check_rule(b, target, prec, seen, out)
        _check_values(prec, _values(b, prec, seen, calls), reference, rel)


def test_leg_integrand_past_the_double_range(cold_caches, pointwise_calls):
    """At 1e-290 the leg's cut ordinate has a mantissa of over 1024 bits,
    which raised OverflowError when made a double; the per-point integrand
    at the center node lies within its units of the reference."""
    prec = prec_for(1e-290, 12, 25)
    _, (bm, be), _, _ = quadrature_oracle._vertical_leg(prec, 3, 1e-290)
    ((point, _),) = pointwise_calls.values()
    gm, ge, *_ = quadrature_oracle._nodes(prec, 0)[0]
    near = (bm * gm, be + ge)
    _check_values(prec, [(near, near, *point(near))], _leg_integrand(3), prec + GUARD)


# ---------------------------------------------------------------------------
# the legs L, R and H and the closed form on integers with counted units
# ---------------------------------------------------------------------------

# one tolerance for each working precision the legs and the closed form use
# from 3e-2 to 1e-14 (3e-2 to 1e-5 share 30 digits), then 40 and 80 digits
LEG_TOLERANCES = (1e-3, *(10.0**-e for e in range(6, 15)), 1e-15, 1e-55)
LEG_N = range(41)


@functools.lru_cache(maxsize=None)
def _reference(prec: int) -> dict:
    """pi^m for m <= 42 keyed ("pi", m), log 2 keyed "log2" and zeta(s)
    for s <= 42 keyed s, 64 bits finer than ``prec``, as exact fractions."""
    fine = _context(prec + 64)
    ref = {("pi", m): _fraction((fine.pi**m)._mpf_) for m in range(43)}
    ref["log2"] = _fraction(fine.ln2._mpf_)
    ref.update((s, _fraction(fine.zeta(s)._mpf_)) for s in range(2, 43))
    return ref


def _factor(prec: int, key) -> tuple[int, int]:
    """The library's units (z, u) of a term's factor x: zeta(key), log 2 at
    "log2", or 1 at None."""
    if key is None:
        return 1 << (prec + GUARD), 0
    return zeta_engine._log2_fixed(prec) if key == "log2" else zeta_engine._zeta_fixed(key, prec)


def _check_inputs(prec: int) -> None:
    """pi^m for m <= 42, log 2 and zeta(s) for s <= 42 lie within their
    stated units of the reference."""
    ref, unit = _reference(prec), Fraction(1, 2 ** (prec + GUARD))
    for m in range(43):
        power, err = zeta_engine._pi_fixed(m, prec)
        assert abs(ref["pi", m] - power * unit) <= err * unit, (prec, m)
    for key in ("log2", *range(2, 43)):
        z, u = _factor(prec, key)
        assert abs(ref[key] - z * unit) <= u * unit, (prec, key)


def _check_term(prec: int, num: int, den: int, m: int, key, out: tuple[int, int]) -> Fraction:
    """A term num/den pi^m x that the library returned as ``out``, a value
    and a bound in units: the bound covers the value's actual distance from
    num/den P z plus the worst case of pi^m within e units of P and x
    within u units of z, and the value lies within the bound of the
    reference.  Returns the reference term."""
    fbits = prec + GUARD
    power, err = zeta_engine._pi_fixed(m, prec)
    z, u = _factor(prec, key)
    value, bound = out
    scale = den << fbits
    worst = abs(value * scale - num * power * z) + abs(num) * (power * u + z * err + err * u)
    assert worst <= bound * scale, (prec, num, den, m, key)
    ref = _reference(prec)
    exact = Fraction(num, den) * ref["pi", m] * (1 if key is None else ref[key])
    assert abs(exact - Fraction(value, 2**fbits)) <= Fraction(bound, 2**fbits), (prec, m, key)
    return exact


def _raw(value: int, bound: int, prec: int) -> tuple:
    """What ``certify`` hands ``float_with_bound`` for a value and a bound
    in units at ``prec`` bits."""
    return value, bound, prec + GUARD


@pytest.fixture
def rounded(monkeypatch):
    """The (value, bound, fbits) that the legs and the closed form
    hand to ``float_with_bound``, recorded as the test runs."""
    calls = []
    float_with_bound = _precision.float_with_bound

    def recording(*args):
        calls.append(args)
        return float_with_bound(*args)

    monkeypatch.setattr(_precision, "float_with_bound", recording)
    return calls


@pytest.mark.parametrize("tol", LEG_TOLERANCES)
def test_leg_r_summands_match_mpf_reference(cold_caches, rounded, tol):
    """Each summand of the right leg for n <= 40, leg L's the last, lies
    within its counted units of the reference, and so do the two summed
    components; they are what ``_leg`` rounds for one summand, leg_L and
    leg_R, signed, each component once, and a component with no term not
    at all.  Summand k = 2j - 1 < n is the closed form's zeta(2j+1)
    term, read from its table at phase 2."""
    prec = _term_prec(tol)
    _check_inputs(prec)
    reached = 0
    for n in LEG_N:
        sums, errs, exact = [0, 0], [0, 0], [Fraction(0), Fraction(0)]
        row = contour_verifier._leg_r_terms(n, prec)
        closed = logsine_closed_form._zeta_terms(n, prec)
        assert len(row) == n + 1 and len(closed) == n // 2, n
        for k in range(n + 1):
            rounded.clear()
            _run(lambda: contour_verifier._leg([row[k]], prec))
            phase, value, bound = row[k]
            comp, sign = _PHASE_SIGN[phase]
            shared = k % 2 == 1 and k < n
            assert phase == (2 if shared else (k + 3) % 4), (n, k)
            if shared:
                assert (value, bound) == closed[(k - 1) // 2], (n, k)
            assert rounded == [_raw(sign * value, bound, prec)], (n, k)
            # the term i^(k+3) num/den pi^(n-k) zeta(k+2) adds sign_k * T
            # to the component, and the library adds sign * value
            sign_k = _PHASE_SIGN[(k + 3) % 4][1]
            assert comp == _PHASE_SIGN[(k + 3) % 4][0], (n, k)
            num = sign * sign_k * math.comb(n, k) * math.factorial(k)
            term = _check_term(prec, num, 2 ** (k + 1), n - k, k + 2, (value, bound))
            sums[comp] += sign * value
            errs[comp] += bound
            exact[comp] += sign * term
        rounded.clear()
        _run(lambda: contour_verifier.leg_L(n, tol))
        assert rounded == [_raw(-sign * value, bound, prec)], n  # i^(n+1) = -i^(n+3)
        unit = Fraction(1, 2 ** (prec + GUARD))
        for comp in (0, 1):
            assert abs(exact[comp] - sums[comp] * unit) <= errs[comp] * unit, (n, comp)
        rounded.clear()
        _run(lambda: contour_verifier.leg_R(n, tol))
        if rounded:
            # R_0 = -i zeta(2)/2 has no real term
            comps = (1,) if n == 0 else (0, 1)
            assert rounded == [_raw(sums[c], errs[c], prec) for c in comps], n
            reached += 1
    assert reached > 0


@pytest.mark.parametrize("tol", LEG_TOLERANCES)
def test_log2_terms_match_mpf_reference(cold_caches, tol):
    """The log-2 term of Re(H_n), the closed form's negated, and Im(H_n)
    = r pi^(n+2) for n <= 40 lie within their counted units of the
    reference."""
    prec = _term_prec(tol)
    for n in LEG_N:
        value, bound = logsine_closed_form._log2_term(n, prec)
        _check_term(prec, 1, n + 1, n + 1, "log2", (-value, bound))
        r = Fraction(n, 2 * (n + 1) * (n + 2))
        im = zeta_engine._fixed_term(r.numerator, r.denominator, n + 2, None, prec)
        _check_term(prec, r.numerator, r.denominator, n + 2, None, im)
        # leg_H passes the rational unreduced, to the same integers
        assert contour_verifier._leg_h_im(n, prec) == im, n


def test_legs_and_closed_form_match_mpf_reference(cold_caches, rounded):
    """At each leg precision, each term of the closed form for n <= 40,
    the log-2 term and those of its zeta sum, lies within its counted
    units of the reference, and so does their sum; the sum is what
    logsine_numeric rounds."""
    every = {prec_for(tol, 25, 30) for tol in (3e-2, *(10.0**-e for e in range(2, 15)))}
    assert {_term_prec(tol) for tol in LEG_TOLERANCES} == every | {dps_to_prec(40), dps_to_prec(80)}
    reached = 0
    for tol in LEG_TOLERANCES:
        prec = _term_prec(tol)
        for n in LEG_N:
            sym = logsine_symbolic(n)
            total = internal = 0
            exact = Fraction(0)
            for coeff, m, key in (
                (sym.log2_coefficient, n + 1, "log2"),
                *((coeff, sym.pi_power(s), s) for s, coeff in sym.zeta_terms),
            ):
                p, q = coeff.numerator, coeff.denominator
                value, bound = zeta_engine._fixed_term(p, q, m, _factor(prec, key), prec)
                exact += _check_term(prec, p, q, m, key, (value, bound))
                total += value
                internal += bound
            unit = Fraction(1, 2 ** (prec + GUARD))
            assert abs(exact - total * unit) <= internal * unit, (prec, n)
            rounded.clear()
            _run(lambda: logsine_closed_form.logsine_numeric(n, tol))
            if rounded:
                assert rounded == [_raw(total, internal, prec)], (prec, n)
                reached += 1
    assert reached > 0
