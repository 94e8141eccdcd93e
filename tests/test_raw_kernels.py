"""The zeta series, the tanh-sinh node tables, the contour legs L and R
and the closed form compute on raw mpmath tuples, and round them to
doubles from raw tuples.  The earlier bodies of the node tables, the legs
and the closed form on ``mpf`` objects are kept here verbatim as the
reference: at every working precision the library uses, each node and
summand must be the same raw tuple, bit for bit, and each result or error
the same.

The zeta series and the tanh-sinh engine accumulate on fixed-point
integers.  The series is checked against its proof: Borwein's partial
sum re-done exactly with ``Fraction``, his a-priori remainder, and
mpmath's ``zeta`` in a finer context.  The engine's reference is the same
rule summed exactly on ``mpf`` values over the same nodes and integrand
values, and each integrand value is checked against the integrand
evaluated in a finer context: the results lie within the engine's counted
truncation bound of the exact sums."""

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
from logsine._precision import context_for, private_context
from logsine.contour_verifier import _PHASE_SIGN, ComplexApprox, _leg_context
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
from logsine.zeta_engine import RealApprox

TOLERANCES = (1e-3, 1e-6, 1e-10, 1e-12)
# (extra digits, floor) of zeta_numeric and of the legs and the closed form,
# the two callers of the zeta series, at every tolerance from 3e-2 to
# 1e-14; and 40 and 80 digits
ZETA_PRECISIONS = sorted(
    {
        context_for(tol, *rule).prec
        for tol in (3e-2, *(10.0**-e for e in range(2, 15)))
        for rule in ((15, 25), (25, 30))
    }
    | {dps_to_prec(40), dps_to_prec(80)}
)
# the quadrature's working precisions
QUAD_PRECISIONS = sorted({context_for(tol, 12, 25).prec for tol in TOLERANCES})


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
    ctx = private_context(dps_to_prec(dps + 10))
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
    ctx = private_context(prec)
    ref = MPContext()
    ref.prec = prec + 64
    n, d, remainder = _borwein_proof(prec)
    unit = Fraction(1, 2 ** (prec + 16))
    for s in range(2, 41):
        value, bound = (_fraction(x) for x in zeta_engine._euler_maclaurin(s, ctx))
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


# the quadrature's precision at every tolerance above, and two finer ones
@pytest.mark.parametrize("prec", [*QUAD_PRECISIONS, dps_to_prec(40), dps_to_prec(80)])
def test_node_tables_match_mpf_reference(cold_caches, prec):
    for level in range(8):
        assert quadrature_oracle._nodes(prec, level) == _nodes_reference(prec, level), level


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

    def recording(f, b, rule_target, ctx):
        seen = []

        def g(x, d):
            value = f(x, d)
            seen.append((x, d, value))
            return value

        out = engine(g, b, rule_target, ctx)
        runs.append((b, rule_target, ctx, seen, out))
        return out

    monkeypatch.setattr(quadrature_oracle, "_tanh_sinh", recording)
    return runs


def _run(call):
    try:
        call()
    except CertificationError:  # past the envelope the engine still ran
        pass


def _check_rule(b, rule_target, ctx, seen, out) -> None:
    """The engine's nodes, and its sums against exact sums of the same
    integrand values: the value and the mass lie within the counted
    truncation bound of the exact ones, the estimate within twice it, and
    the rule stops at the first level from ``_MIN_ACCEPT_LEVEL`` on whose
    estimate meets the target."""
    value, estimate, mass, bound = (EXACT.make_mpf(x) for x in out)
    target = EXACT.make_mpf(rule_target._mpf_)
    unit = EXACT.ldexp(1, -(ctx.prec + quadrature_oracle._GUARD))
    b = EXACT.make_mpf(b._mpf_)
    calls = iter(seen)
    totals, masses = [], []
    total_sum = mass_sum = EXACT.mpf(0)
    evals = level = 0
    while evals < len(seen):
        for i, (g, w) in enumerate(quadrature_oracle._nodes(ctx.prec, level)):
            g, w = EXACT.make_mpf(g), EXACT.make_mpf(w)
            if level == 0 and i == 0:  # the center node g = 1/2, its own mirror
                w /= 2
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


def _check_values(ctx, seen, reference) -> None:
    """Each integrand value against ``reference(fine, x, d)``, computed in
    a context 64 bits finer: within one fixed-point unit and 2^(8 - prec)
    of 1 + |value|, well inside the precision slack 10^(4 - dps) per unit
    of mass that the certificate charges for the mpmath evaluations."""
    fine = MPContext()
    fine.prec = ctx.prec + 64
    unit = fine.ldexp(1, -(ctx.prec + quadrature_oracle._GUARD))
    for x, d, v in seen:
        # the rounded distances the mpmath calls receive
        x_r, d_r = (fine.make_mpf(from_man_exp(*p, ctx.prec, round_nearest)) for p in (x, d))
        expected = reference(fine, x_r, d_r)
        slack = fine.ldexp(1 + abs(expected), 8 - ctx.prec)
        assert abs(v * unit - expected) <= unit + slack, (x, d)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_logsine_moments_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        _run(lambda: integrate_logsine(n, settings))
        b, target, ctx, seen, out = engine_runs.pop()
        _check_rule(b, target, ctx, seen, out)
        _check_values(ctx, seen, lambda fine, x, d: x**n * fine.log(fine.sin(d)))


def _leg_integrand(fine, y, d):
    # y^3 log(1 - e^(-2y)) without the cancellation of 1 - e^(-2y) near 0
    return y**3 * fine.log(-fine.expm1(-2 * y))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_other_integrands_match_mpf_reference(engine_runs, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for call, reference in (
        (lambda: integrate_logsquared(settings), lambda fine, x, d: fine.log(2 * fine.sin(x)) ** 2),
        (lambda: integrate_vertical_leg(3, settings), _leg_integrand),
        (lambda: cosine_moment(2, 1, settings), lambda fine, x, d: x * fine.cos(4 * x)),
        (
            lambda: cosine_orthogonality(1, 3, settings),
            lambda fine, x, d: fine.cos(2 * x) * fine.cos(6 * x),
        ),
    ):
        _run(call)
        b, target, ctx, seen, out = engine_runs.pop()
        _check_rule(b, target, ctx, seen, out)
        _check_values(ctx, seen, reference)


# ---------------------------------------------------------------------------
# the legs L and R and the closed form
# ---------------------------------------------------------------------------


def _validate_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")


def round_slack(x: mpf, ctx: MPContext) -> mpf:
    """Bound on accumulated rounding in ``ctx`` for an O(100)-operation
    computation whose intermediates are at most ``|x|`` in magnitude."""
    return abs(x) * ctx.mpf(10) ** (4 - ctx.dps)


def float_with_bound(value_mp: mpf, internal_bound_mp: mpf) -> tuple[float, float]:
    """Round an mp value to double and return (value, certified abs bound).

    The bound adds half an ulp for the final rounding and is itself rounded
    upward so the certificate never understates.
    """
    value = float(value_mp)
    bound = float(internal_bound_mp) + 0.5 * math.ulp(abs(value) if value else 1e-300)
    return value, math.nextafter(bound, math.inf)


def _zeta_mpf(s: int, ctx: MPContext) -> tuple[mpf, mpf]:
    """zeta(s) at the precision of ``ctx``: (value, analytic bound)."""
    value, bound = zeta_engine._zeta_raw(s, ctx)
    return ctx.make_mpf(value), ctx.make_mpf(bound)


def test_float_with_bound_rounds_to_nearest():
    # 2^55 - 1 lies 1 below the double 2^55 and 3 above the double below it,
    # to which libmp's default rounding takes it
    x = from_man_exp(2**55 - 1, 0)
    nearest = float(mp.make_mpf(x))
    assert nearest == 3.602879701896397e16
    assert _precision.float_with_bound(x, x) == float_with_bound(mp.make_mpf(x), mp.make_mpf(x))
    assert _precision.float_with_bound(x, fzero)[0] == nearest
    assert _precision.float_with_bound(fzero, x)[1] == math.nextafter(nearest, math.inf)


def leg_L(n: int, tol: float) -> ComplexApprox:
    """Left vertical leg: i^(n+1) (n!/2^(n+1)) zeta(n+2).

    Exactly one component is nonzero, selected by (n+1) mod 4.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _validate_tol(tol)
    ctx = _leg_context(tol)
    zeta_mp, zeta_bound = _zeta_mpf(n + 2, ctx)
    coeff = Fraction(math.factorial(n), 2 ** (n + 1))
    scale = ctx.mpf(coeff.numerator) / coeff.denominator
    mag = scale * zeta_mp
    value, bound = float_with_bound(mag, scale * zeta_bound + round_slack(mag, ctx))
    if bound > tol:
        raise CertificationError(f"leg L(n={n}) certified to {bound:.3e} > {tol:.3e}")
    comp, sign = _PHASE_SIGN[(n + 1) % 4]
    parts = [RealApprox(0.0, 0.0), RealApprox(0.0, 0.0)]
    parts[comp] = RealApprox(sign * value, bound)
    return ComplexApprox(re=parts[0], im=parts[1])


def _leg_r_terms_mp(n: int, ctx: MPContext) -> list[tuple[int, mpf, mpf]]:
    """Summands of the right leg at the precision of ``ctx``:
    (phase, value, bound).

    Term k carries -i * i^k = i^(k+3), magnitude
    C(n,k) pi^(n-k) (k!/2^(k+1)) zeta(k+2).
    """
    pi = +ctx.pi
    out = []
    for k in range(n + 1):
        zeta_mp, zeta_bound = _zeta_mpf(k + 2, ctx)
        coeff = Fraction(math.comb(n, k) * math.factorial(k), 2 ** (k + 1))
        scale = ctx.mpf(coeff.numerator) / coeff.denominator * pi ** (n - k)
        mag = scale * zeta_mp
        err = scale * zeta_bound + round_slack(mag, ctx)
        out.append(((k + 3) % 4, mag, err))
    return out


def leg_R(n: int, tol: float) -> ComplexApprox:
    """Right vertical leg: the binomial sum over zeta(k+2), k = 0..n.

    Each summand's certified error must fit tol/(n+1), so the assembled
    component bounds stay within tol overall.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _validate_tol(tol)
    share = tol / (n + 1)
    ctx = _leg_context(tol)
    re = im = re_err = im_err = ctx.mpf(0)
    for phase, mag, err in _leg_r_terms_mp(n, ctx):
        if err > share:
            raise CertificationError(
                f"leg R(n={n}) term exceeds its error share {share:.3e}"
            )
        comp, sign = _PHASE_SIGN[phase]
        if comp == 0:
            re += sign * mag
            re_err += err
        else:
            im += sign * mag
            im_err += err
    re_val, re_bound = float_with_bound(re, re_err)
    im_val, im_bound = float_with_bound(im, im_err)
    if re_bound + im_bound > tol:
        raise CertificationError(
            f"leg R(n={n}) certified to {re_bound + im_bound:.3e} > {tol:.3e}"
        )
    return ComplexApprox(
        re=RealApprox(re_val, re_bound), im=RealApprox(im_val, im_bound)
    )


def leg_R_term(n: int, k: int, tol: float) -> ComplexApprox:
    """Single right-leg summand (index k); the k = n term always cancels
    the left leg."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    _validate_tol(tol)
    phase, mag, err = _leg_r_terms_mp(n, _leg_context(tol))[k]
    value, bound = float_with_bound(mag, err)
    comp, sign = _PHASE_SIGN[phase]
    parts = [RealApprox(0.0, 0.0), RealApprox(0.0, 0.0)]
    parts[comp] = RealApprox(sign * value, bound)
    return ComplexApprox(re=parts[0], im=parts[1])


def logsine_numeric(n: int, target_abs_error: float) -> RealApprox:
    """Evaluate the closed form of I_n with a certified absolute bound.

    The budget is split evenly across the floor(n/2)+1 summands; each
    zeta(2k+1) substitution must fit its share, and the final rounding to
    double must fit the total, else CertificationError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (math.isfinite(target_abs_error) and target_abs_error > 0):
        raise ValueError("target absolute error must be positive and finite")
    sym = logsine_symbolic(n)
    share = target_abs_error / (n // 2 + 1)
    ctx = context_for(target_abs_error, extra_digits=25, min_dps=30)
    mpf = ctx.mpf
    pi = +ctx.pi
    c0 = sym.log2_coefficient
    total = mpf(c0.numerator) / c0.denominator * pi ** (n + 1) * ctx.log(2)
    internal = round_slack(total, ctx)
    if internal > share:
        raise CertificationError("log-2 term exceeds its error share")
    for arg, coeff in sym.zeta_terms:
        zeta_mp, zeta_bound = _zeta_mpf(arg, ctx)
        scale = mpf(coeff.numerator) / coeff.denominator * pi ** sym.pi_power(arg)
        term = scale * zeta_mp
        term_err = abs(scale) * zeta_bound + round_slack(term, ctx)
        if term_err > share:
            raise CertificationError(
                f"zeta({arg}) term exceeds its error share {share:.3e}"
            )
        total += term
        internal += term_err
    value, bound = float_with_bound(total, internal)
    if bound > target_abs_error:
        raise CertificationError(
            f"I_{n} certified to {bound:.3e}, target {target_abs_error:.3e}"
        )
    return RealApprox(value=value, abs_error=bound)


def _outcome(call) -> str:
    """The repr of the result, which tells -0.0 from 0.0, or the error."""
    try:
        return repr(call())
    except CertificationError as exc:
        return f"raised {exc}"


# past the certified envelope for the larger n, so errors are compared too
LEG_N = range(21)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_leg_r_summands_match_mpf_reference(cold_caches, tol):
    ctx = _leg_context(tol)
    for n in LEG_N:
        expected = [(p, v._mpf_, e._mpf_) for p, v, e in _leg_r_terms_mp(n, ctx)]
        assert [contour_verifier._leg_r_term(n, k, ctx) for k in range(n + 1)] == expected, n


def test_legs_and_closed_form_match_mpf_reference(cold_caches):
    outcomes = {"new": [], "reference": []}
    for side, legs, closed, term in (
        (
            "new",
            (contour_verifier.leg_L, contour_verifier.leg_R),
            logsine_closed_form.logsine_numeric,
            contour_verifier.leg_R_term,
        ),
        ("reference", (leg_L, leg_R), logsine_numeric, leg_R_term),
    ):
        cold_caches()
        for tol in TOLERANCES:
            for n in LEG_N:
                row = [_outcome(lambda: leg(n, tol)) for leg in legs]
                row.append(_outcome(lambda: closed(n, tol)))
                row += [_outcome(lambda: term(n, k, tol)) for k in range(n + 1)]
                outcomes[side].append(row)
    assert outcomes["new"] == outcomes["reference"]
    # both certified results and errors are compared
    flat = [x for row in outcomes["new"] for x in row]
    assert any(x.startswith("raised") for x in flat)
    assert any(not x.startswith("raised") for x in flat)
