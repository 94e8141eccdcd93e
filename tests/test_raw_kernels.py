"""The zeta series and the tanh-sinh engine compute on raw mpmath tuples.
Their earlier bodies on ``mpf`` objects are kept here verbatim as the
reference: at every working precision the library uses, each value, rule
estimate and mass must be the same raw tuple, bit for bit."""

import math
from typing import Callable

import pytest
from mpmath import mpf
from mpmath.ctx_mp import MPContext

from logsine import quadrature_oracle, zeta_engine
from logsine._precision import context_for, private_context
from logsine.errors import CertificationError, RefinementExhausted
from logsine.exact_core import bernoulli_table
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
# the two callers of the zeta series
ZETA_PRECISIONS = sorted(
    {context_for(tol, *rule).prec for tol in TOLERANCES for rule in ((15, 25), (25, 30))}
)


def _raw(values) -> tuple:
    return tuple(v._mpf_ for v in values)


def _euler_maclaurin(s: int, n_head: int, ctx: MPContext) -> tuple[mpf, mpf]:
    """Series head + integral tail + correction ladder at the precision of
    ``ctx``.  Returns (value, analytic remainder bound).

    Correction pairs are added until the next one drops below the working
    precision; the remainder is bounded by twice the first omitted term
    (the exact remainder has the magnitude and sign of that term for this
    completely monotone summand; the factor 2 is slack).  The exact
    coefficients come from one Bernoulli table that doubles when the
    ladder outgrows it.
    """
    mpf = ctx.mpf
    head = mpf(0)
    for l in range(1, n_head):
        head += mpf(l) ** (-s)
    big_n = mpf(n_head)
    value = head + big_n ** (1 - s) / (s - 1) + big_n ** (-s) / 2
    threshold = mpf(10) ** (-(ctx.dps + 6))
    table = bernoulli_table(16)
    j = 0
    term = mpf(0)
    while True:
        j += 1
        if j > 60:
            raise CertificationError("correction ladder failed to close")
        if 2 * j > table.max_index:
            table = bernoulli_table(2 * table.max_index)
        b2j = table[2 * j]
        rising = math.prod(range(s, s + 2 * j - 1))
        term = (
            mpf(b2j.numerator)
            / b2j.denominator
            / math.factorial(2 * j)
            * rising
            * big_n ** (-s - 2 * j + 1)
        )
        if abs(term) <= threshold:
            break
        value += term
    return value, 2 * abs(term)


def _nodes(prec: int, level: int) -> tuple[tuple[mpf, mpf], ...]:
    """The node pairs as the reference engine took them: ``mpf`` values of
    the caller's context holding the unrounded raw tuples."""
    caller = private_context(prec)
    pairs = quadrature_oracle._nodes(prec, level)
    return tuple((caller.make_mpf(g), caller.make_mpf(w)) for g, w in pairs)


def _tanh_sinh(
    f: Callable[[mpf, mpf, mpf], mpf],
    a: mpf,
    b: mpf,
    rule_target: mpf,
    max_depth: int,
    ctx: MPContext,
) -> tuple[mpf, mpf, mpf]:
    """Refine until two successive level sums differ by <= rule_target,
    computing at the precision of ``ctx``.

    Integrands receive (x, dist_lower, dist_upper): the offsets from the
    endpoints are exact by construction, so a singular factor can be
    evaluated from the nearer distance without cancellation even when a
    node sits within 1e-100 of an endpoint.

    Returns (value, rule error estimate, accumulated |weight*f| mass).
    Raises RefinementExhausted if max_depth levels are not enough.
    """
    mpf = ctx.mpf
    width = b - a
    r = width / 2
    total = mpf(0)
    mass = mpf(0)
    prev = None
    for level in range(max_depth + 1):
        h = mpf(1) / 2 ** level
        part = mpf(0)
        part_mass = mpf(0)
        for i, (g, w) in enumerate(_nodes(ctx.prec, level)):
            off = width * g
            far = width - off
            if level == 0 and i == 0:
                contrib = w * f(a + off, off, far)  # center node, g = 1/2
                part += contrib
                part_mass += abs(contrib)
            else:
                lo = f(a + off, off, far)
                hi = f(b - off, far, off)
                part += w * (lo + hi)
                part_mass += abs(w * lo) + abs(w * hi)
        if level == 0:
            total = r * h * part
            mass = r * h * part_mass
        else:
            total = total / 2 + r * h * part
            mass = mass / 2 + r * h * part_mass
        if prev is not None and level >= _MIN_ACCEPT_LEVEL:
            diff = abs(total - prev)
            if diff <= rule_target:
                return total, diff, mass
        prev = total
    raise RefinementExhausted(
        f"no convergence to {float(rule_target):.3e} within depth {max_depth}"
    )


# precision in bits -> {raw tuple of d: raw tuple of log(sin d)}
_LOGSIN_TABLE: dict[int, dict[tuple, tuple]] = {}


def _logsine_integrand(n: int, ctx: MPContext) -> Callable[[mpf, mpf, mpf], mpf]:
    """The x^n log(sin x) integrand as written on ``mpf`` values."""
    table = _LOGSIN_TABLE.setdefault(ctx.prec, {})

    def f(x: mpf, dist_lower: mpf, dist_upper: mpf) -> mpf:
        d = min(dist_lower, dist_upper)._mpf_
        log_sin = table.get(d)
        if log_sin is None:
            log_sin = table.setdefault(d, ctx.log(ctx.sin(ctx.make_mpf(d)))._mpf_)
        return x ** n * ctx.make_mpf(log_sin)

    return f


@pytest.fixture
def engine_calls(cold_caches, monkeypatch):
    """Every call into the tanh-sinh engine, with its arguments and result,
    from empty result caches."""
    for cached in (
        quadrature_oracle._logsquared_cached,
        quadrature_oracle._vertical_leg_cached,
        quadrature_oracle._cosine_moment_cached,
        quadrature_oracle._cosine_orth_cached,
    ):
        cached.cache_clear()
    calls = []
    engine = quadrature_oracle._tanh_sinh

    def recording(*args):
        out = engine(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(quadrature_oracle, "_tanh_sinh", recording)
    return calls


def _run(call):
    try:
        call()
    except CertificationError:  # past the envelope the engine still ran
        pass


@pytest.mark.parametrize("prec", ZETA_PRECISIONS)
def test_euler_maclaurin_matches_mpf_reference(prec):
    ctx = private_context(prec)
    for s in range(2, 31):
        assert _raw(zeta_engine._euler_maclaurin(s, 64, ctx)) == _raw(
            _euler_maclaurin(s, 64, ctx)
        ), (s, prec)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_logsine_moments_match_mpf_reference(engine_calls, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        _run(lambda: integrate_logsine(n, settings))
        ((_, a, b, target, depth, ctx), out) = engine_calls.pop()
        expected = _tanh_sinh(_logsine_integrand(n, ctx), a, b, target, depth, ctx)
        assert _raw(out) == _raw(expected), n


@pytest.mark.parametrize("tol", TOLERANCES)
def test_other_integrands_match_mpf_reference(engine_calls, tol):
    settings = QuadratureSettings(target_abs_error=tol)
    for call in (
        lambda: integrate_logsquared(settings),
        lambda: integrate_vertical_leg(3, settings),
        lambda: cosine_moment(2, 1, settings),
        lambda: cosine_orthogonality(1, 3, settings),
    ):
        _run(call)
        ((f, a, b, target, depth, ctx), out) = engine_calls.pop()

        # these integrands are written on mpf values behind a raw adaptor;
        # unwrapping it gives the mpf integrand back
        def on_mpf(x, dist_lower, dist_upper):
            return ctx.make_mpf(f(x._mpf_, dist_lower._mpf_, dist_upper._mpf_))

        assert _raw(out) == _raw(_tanh_sinh(on_mpf, a, b, target, depth, ctx))
