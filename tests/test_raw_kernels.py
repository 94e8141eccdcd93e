"""The zeta series, the tanh-sinh engine, the contour legs and the closed
form compute on raw mpmath tuples or fixed-point integers, and round them
to doubles from raw tuples.  The earlier body of the node tables on
``mpf`` objects is kept here verbatim as the reference: at every working
precision the library uses, each node must be the same, bit for bit.

The zeta series and the tanh-sinh engine accumulate on fixed-point
integers.  The series is checked against its proof: Borwein's partial
sum re-done exactly with ``Fraction``, his a-priori remainder, and
mpmath's ``zeta`` in a finer context.  The engine's reference is the same
rule summed exactly on ``mpf`` values over the same nodes and integrand
values, and each integrand value is checked against the integrand
evaluated in a finer context: the results lie within the engine's counted
truncation bound of the exact sums.

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
from mpmath import mp, mpf
from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, prec_to_dps, round_nearest

from logsine import (
    _precision,
    contour_verifier,
    logsine_closed_form,
    quadrature_oracle,
    zeta_engine,
)
from logsine._precision import prec_for
from logsine.contour_verifier import _PHASE_SIGN, _leg_prec
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


def _context(prec: int) -> MPContext:
    """An mpmath context of the test's own at ``prec`` bits."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _nodes_reference(prec: int, level: int) -> tuple[tuple[tuple, tuple], ...]:
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
    ctx = _context(dps_to_prec(dps + 10))
    mpf = ctx.mpf
    t_max = quadrature_oracle._t_limit(dps)
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
    """Each integer node of a level is exactly the reference's g, 1 - g
    and w, with w halved at the center node g = 1/2, its own mirror."""
    nodes = quadrature_oracle._nodes(prec, level)
    reference = _nodes_reference(prec, level)
    assert len(nodes) == len(reference), level
    for i, ((gm, ge, cm, wm, ws), (g, w)) in enumerate(zip(nodes, reference)):
        g, w = _fraction(g), _fraction(w)
        if level == 0 and i == 0:
            w /= 2
        assert (_fraction((0, gm, ge, 0)), _fraction((0, cm, ge, 0))) == (g, 1 - g), (level, i)
        assert _fraction((0, wm, -ws, 0)) == w, (level, i)


# the quadrature's precision at every tolerance above, and two finer ones
@pytest.mark.parametrize("prec", [*QUAD_PRECISIONS, dps_to_prec(40), dps_to_prec(80)])
def test_node_tables_match_mpf_reference(cold_caches, prec):
    for level in range(8):
        _check_nodes(prec, level)


def test_node_tables_cover_every_level_the_engine_reaches(cold_caches):
    """At the quadrature's coarsest precision, every level to
    ``_MAX_DEPTH`` has T + 1 nodes at level 0 and T 2^(level - 1) above,
    with offsets in (0, 1/2] that strictly decrease, and matches the
    reference."""
    prec = QUAD_PRECISIONS[0]
    t_max = quadrature_oracle._t_limit(prec_to_dps(prec))
    for level in range(quadrature_oracle._MAX_DEPTH + 1):
        nodes = quadrature_oracle._nodes(prec, level)
        assert len(nodes) == (t_max + 1 if level == 0 else t_max << (level - 1)), level
        g = [_fraction((0, gm, ge, 0)) for gm, ge, *_ in nodes]
        assert 0 < g[-1] and g[0] <= Fraction(1, 2), level
        assert all(a > b for a, b in zip(g, g[1:])), level
        _check_nodes(prec, level)


# ---------------------------------------------------------------------------
# the fixed-point tanh-sinh engine
# ---------------------------------------------------------------------------

# exact for every sum and product the rule checks below make
EXACT = MPContext()
EXACT.prec = 4000


def _exact(pair: tuple[int, int]) -> mpf:
    """The exact value of a (mantissa, exponent) pair."""
    return EXACT.make_mpf(from_man_exp(*pair))


@pytest.fixture
def engine_runs(cold_caches, monkeypatch):
    """Every call into the tanh-sinh engine from empty caches: its
    arguments, each integrand call's (x, d, value), and its result."""
    runs = []
    engine = quadrature_oracle._tanh_sinh

    def recording(f, b, rule_target, prec):
        seen = []

        def g(x, d):
            value = f(x, d)
            seen.append((x, d, value))
            return value

        out = engine(g, b, rule_target, prec)
        runs.append((b, rule_target, prec, seen, out))
        return out

    monkeypatch.setattr(quadrature_oracle, "_tanh_sinh", recording)
    return runs


def _run(call):
    try:
        call()
    except CertificationError:  # past the envelope; what ran before the raise is checked
        pass


def _check_rule(b, rule_target, prec, seen, out) -> None:
    """The engine's nodes, and its sums against exact sums of the same
    integrand values: the value and the mass lie within the counted
    truncation bound of the exact ones, the estimate within twice it, and
    the rule stops at the first level from ``_MIN_ACCEPT_LEVEL`` on whose
    estimate meets the target."""
    value, estimate, mass, bound = (EXACT.make_mpf(x) for x in out)
    target = EXACT.make_mpf(rule_target)
    unit = EXACT.ldexp(1, -(prec + quadrature_oracle._GUARD))
    b = EXACT.make_mpf(b)
    calls = iter(seen)
    totals, masses = [], []
    total_sum = mass_sum = EXACT.mpf(0)
    evals = level = 0
    while evals < len(seen):
        for i, (gm, ge, _, wm, ws) in enumerate(quadrature_oracle._nodes(prec, level)):
            # the center node g = 1/2, its own mirror, holds half its weight
            g, w = _exact((gm, ge)), _exact((wm, -ws))
            # the lower node at b g, then its mirror at b (1 - g)
            for x_exact in (b * g, b - b * g):
                x, d, v = next(calls)
                assert (_exact(x), _exact(d)) == (x_exact, b * g), (level, i)
                total_sum += w * v * unit
                mass_sum += abs(w * v * unit)
                evals += 1
        totals.append(b / 2 * total_sum / 2**level)
        masses.append(b / 2 * mass_sum / 2**level)
        level += 1
    assert next(calls, None) is None
    last = level - 1
    assert last >= _MIN_ACCEPT_LEVEL
    assert abs(value - totals[last]) <= bound
    assert abs(mass - masses[last]) <= bound
    assert abs(estimate - abs(totals[last] - totals[last - 1])) <= 2 * bound
    assert estimate <= target
    for k in range(_MIN_ACCEPT_LEVEL, last):
        assert abs(totals[k] - totals[k - 1]) > target - 2 * bound, k
    # under 3 units per product w f, scaled by the rule, and 2 more
    assert bound <= (3 * evals * b / 2 ** (last + 1) + 2) * unit


def _check_values(prec, seen, reference) -> None:
    """Each integrand value against ``reference(fine, x, d)``, computed in
    a context 64 bits finer: within one fixed-point unit and 2^(8 - prec)
    of 1 + |value|, well inside the precision slack 10^(4 - dps) per unit
    of mass that the certificate charges for the mpmath evaluations."""
    fine = _context(prec + 64)
    unit = fine.ldexp(1, -(prec + quadrature_oracle._GUARD))
    for x, d, v in seen:
        # the rounded distances the mpmath calls receive
        x_r, d_r = (fine.make_mpf(from_man_exp(*p, prec, round_nearest)) for p in (x, d))
        expected = reference(fine, x_r, d_r)
        slack = fine.ldexp(1 + abs(expected), 8 - prec)
        assert abs(v * unit - expected) <= unit + slack, (x, d)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_logsine_moments_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        _run(lambda: integrate_logsine(n, settings))
        b, target, prec, seen, out = engine_runs.pop()
        _check_rule(b, target, prec, seen, out)
        _check_values(prec, seen, lambda fine, x, d: x**n * fine.log(fine.sin(d)))


def _leg_integrand(n):
    # y^n log(1 - e^(-2y)) without the cancellation of 1 - e^(-2y) near 0
    return lambda fine, y, d: y**n * fine.log(-fine.expm1(-2 * y))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_other_integrands_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for call, reference in (
        (lambda: integrate_logsquared(settings), lambda fine, x, d: fine.log(2 * fine.sin(x)) ** 2),
        # n = 0 leaves the cancellation of 1 - e^(-2y) near y = 0 undamped
        # by y^n, and n = 12 weighs the far nodes, where e^(-2y) is tiny
        *((lambda n=n: integrate_vertical_leg(n, settings), _leg_integrand(n)) for n in (0, 3, 12)),
        (lambda: cosine_moment(2, 1, settings), lambda fine, x, d: x * fine.cos(4 * x)),
        (
            lambda: cosine_orthogonality(1, 3, settings),
            lambda fine, x, d: fine.cos(2 * x) * fine.cos(6 * x),
        ),
    ):
        _run(call)
        b, target, prec, seen, out = engine_runs.pop()
        _check_rule(b, target, prec, seen, out)
        _check_values(prec, seen, reference)


# ---------------------------------------------------------------------------
# rounding to double
# ---------------------------------------------------------------------------


def float_with_bound(value_mp: mpf, internal_bound_mp: mpf) -> tuple[float, float]:
    """Round an mp value to double and return (value, certified abs bound).

    The bound adds half an ulp for the final rounding and is itself rounded
    upward so the certificate never understates.
    """
    value = float(value_mp)
    bound = float(internal_bound_mp) + 0.5 * math.ulp(abs(value) if value else 1e-300)
    return value, math.nextafter(bound, math.inf)


def test_float_with_bound_rounds_to_nearest():
    # 2^55 - 1 lies 1 below the double 2^55 and 3 above the double below it,
    # to which libmp's default rounding takes it
    x = from_man_exp(2**55 - 1, 0)
    nearest = float(mp.make_mpf(x))
    assert nearest == 3.602879701896397e16
    assert _precision.float_with_bound(x, x) == float_with_bound(mp.make_mpf(x), mp.make_mpf(x))
    assert _precision.float_with_bound(x, fzero)[0] == nearest
    assert _precision.float_with_bound(fzero, x)[1] == math.nextafter(nearest, math.inf)


# each returned inf, which RealApprox rejects with ValueError
@pytest.mark.parametrize(
    "value, bound",
    [(from_man_exp(1, 1024), fzero), (fzero, from_man_exp(1, 1024)), (from_man_exp(-1, 1100), fzero)],
    ids=["value", "bound", "negative"],
)
def test_float_with_bound_raises_past_the_double_range(value, bound):
    with pytest.raises(CertificationError, match="exceeds the double range"):
        _precision.float_with_bound(value, bound)


# ---------------------------------------------------------------------------
# the legs L, R and H and the closed form on integers with counted units
# ---------------------------------------------------------------------------

GUARD = _precision._GUARD
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


def _raw(value: int, bound: int, prec: int) -> tuple[tuple, tuple]:
    return from_man_exp(value, -(prec + GUARD)), from_man_exp(bound, -(prec + GUARD))


@pytest.fixture
def rounded(monkeypatch):
    """The (value, bound) raw tuples that the legs and the closed form hand
    to ``float_with_bound``, recorded as the test runs."""
    calls = []
    float_with_bound = _precision.float_with_bound

    def recording(value, bound):
        calls.append((value, bound))
        return float_with_bound(value, bound)

    monkeypatch.setattr(_precision, "float_with_bound", recording)
    return calls


@pytest.mark.parametrize("tol", LEG_TOLERANCES)
def test_leg_r_summands_match_mpf_reference(cold_caches, rounded, tol):
    """Each summand of the right leg for n <= 40, leg L's the last, lies
    within its counted units of the reference, and so do the two summed
    components; they are what leg_R_term, leg_L and leg_R round."""
    prec = _leg_prec(tol)
    _check_inputs(prec)
    reached = 0
    for n in LEG_N:
        sums, errs, exact = [0, 0], [0, 0], [Fraction(0), Fraction(0)]
        for k in range(n + 1):
            rounded.clear()
            _run(lambda: contour_verifier.leg_R_term(n, k, tol))
            phase, value, bound = contour_verifier._leg_r_term(n, k, prec)
            assert phase == (k + 3) % 4 and rounded == [_raw(value, bound, prec)], (n, k)
            num = math.comb(n, k) * math.factorial(k)
            term = _check_term(prec, num, 2 ** (k + 1), n - k, k + 2, (value, bound))
            comp, sign = _PHASE_SIGN[phase]
            sums[comp] += sign * value
            errs[comp] += bound
            exact[comp] += sign * term
        rounded.clear()
        _run(lambda: contour_verifier.leg_L(n, tol))
        assert rounded == [_raw(value, bound, prec)], n
        unit = Fraction(1, 2 ** (prec + GUARD))
        for comp in (0, 1):
            assert abs(exact[comp] - sums[comp] * unit) <= errs[comp] * unit, (n, comp)
        rounded.clear()
        _run(lambda: contour_verifier.leg_R(n, tol))
        if rounded:
            assert rounded == [_raw(sums[0], errs[0], prec), _raw(sums[1], errs[1], prec)], n
            reached += 1
    assert reached > 0


@pytest.mark.parametrize("tol", LEG_TOLERANCES)
def test_log2_terms_and_slack_match_mpf_reference(cold_caches, tol):
    """The log-2 term of Re(H_n) and Im(H_n) = r pi^(n+2) for n <= 40
    lie within their counted units of the reference; the quadrature's
    precision-slack unit is its ``mpf`` expression, bit for bit."""
    quad = _context(prec_for(tol, 12, 25))
    assert _precision._slack_unit(quad.prec) == (quad.mpf(10) ** (4 - quad.dps))._mpf_
    prec = _leg_prec(tol)
    for n in LEG_N:
        _check_term(prec, 1, n + 1, n + 1, "log2", contour_verifier._log2_term(n, prec))
        r = contour_verifier.leg_H_im_coefficient(n)
        im = zeta_engine._fixed_term(r.numerator, r.denominator, n + 2, None, prec)
        _check_term(prec, r.numerator, r.denominator, n + 2, None, im)


def test_legs_and_closed_form_match_mpf_reference(cold_caches, rounded):
    """At each leg precision, each term of the closed form for n <= 40,
    the log-2 term and those of its zeta sum, lies within its counted
    units of the reference, and so does their sum; the sum is what
    logsine_numeric rounds."""
    every = {prec_for(tol, 25, 30) for tol in (3e-2, *(10.0**-e for e in range(2, 15)))}
    assert {_leg_prec(tol) for tol in LEG_TOLERANCES} == every | {dps_to_prec(40), dps_to_prec(80)}
    reached = 0
    for tol in LEG_TOLERANCES:
        prec = _leg_prec(tol)
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
