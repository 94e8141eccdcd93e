"""Under any thread interleaving, numeric calls return what a serial run
returns, leave the global mpmath precision alone, and fill the zeta table,
the series' coefficient table and the pi-power table, the log-sin node table, the
engine's node table and the result caches with exactly the values a serial
run computes at each entry's precision.
"""

import sys
from fractions import Fraction
import threading

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest
from mpmath.ctx_mp import MPContext

from logsine import _precision, quadrature_oracle, zeta_engine
from logsine.contour_verifier import leg_R
from logsine.errors import CertificationError
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import (
    QuadratureSettings,
    integrate_logsine,
    integrate_vertical_leg,
)
from logsine.zeta_engine import zeta_numeric

TOLERANCES = (1e-6, 1e-12, 1e-7, 1e-11, 1e-8, 1e-10, 1e-9, 3e-8)


def _calls(tol: float) -> None:
    settings = QuadratureSettings(target_abs_error=tol)
    for n in range(13):
        for call in (
            lambda: logsine_numeric(n, tol),
            lambda: leg_R(n, tol),
            lambda: integrate_logsine(n, settings),
        ):
            try:
                call()
            except CertificationError:
                pass  # past the certified envelope


def _fresh_context(prec: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def test_tables_match_serial_values_under_threads(cold_caches):
    saved_interval, saved_prec = sys.getswitchinterval(), mp.prec
    threads = [threading.Thread(target=_calls, args=(tol,)) for tol in TOLERANCES]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(saved_interval)
        # a numeric call that set the global precision would leave it changed
        mp.prec = saved_prec

    assert len(zeta_engine._ZETA_TABLE) > 0
    for (s, prec), entry in zeta_engine._ZETA_TABLE.items():
        ctx = _fresh_context(prec)
        assert entry == zeta_engine._euler_maclaurin(s, ctx), (s, prec)

    # each entry against one built afresh from an empty table
    built = dict(zeta_engine._BORWEIN_D)
    assert len(built) > 0
    zeta_engine._BORWEIN_D.clear()
    for prec, entry in built.items():
        assert zeta_engine._borwein_table(prec) == entry, prec

    assert len(zeta_engine._PI_POWERS) > 0
    for (prec, m), power in zeta_engine._PI_POWERS.items():
        ctx = _fresh_context(prec)
        assert power == ((+ctx.pi) ** m)._mpf_, (prec, m)

    assert len(quadrature_oracle._LOGSIN_TABLE) > 0
    for prec, table in quadrature_oracle._LOGSIN_TABLE.items():
        ctx = _fresh_context(prec)
        for d, log_sin in table.items():
            near = ctx.make_mpf(from_man_exp(*d, prec, round_nearest))
            assert log_sin == ctx.log(ctx.sin(near))._mpf_, (prec, d)

    assert len(quadrature_oracle._FIXED_NODES) > 0
    for (prec, level), nodes in quadrature_oracle._FIXED_NODES.items():
        # the node pairs computed afresh, past the lru cache
        fresh = quadrature_oracle._nodes.__wrapped__(prec, level)
        for i, ((gm, ge, cm, wm, ws), (g, w)) in enumerate(zip(nodes, fresh, strict=True)):
            g, w = _exact(g), _exact(w)
            if level == 0 and i == 0:  # the center node, its own mirror
                w /= 2
            assert (_value(gm, ge), _value(cm, ge), _value(wm, -ws)) == (g, 1 - g, w)


def _value(man: int, exp: int) -> Fraction:
    return man * Fraction(2) ** exp


def _exact(raw: tuple) -> Fraction:
    """The exact value of a positive raw tuple."""
    return _value(raw[1], raw[2])


def _outcome(call):
    try:
        return call()
    except CertificationError as exc:
        return str(exc)


def _outcomes(tol: float) -> dict:
    """Every result, or the error text, of four numeric calls for n = 0..12."""
    settings = QuadratureSettings(target_abs_error=tol)
    out = {}
    for n in range(13):
        out["logsine_numeric", n] = _outcome(lambda: logsine_numeric(n, tol))
        out["leg_R", n] = _outcome(lambda: leg_R(n, tol))
        out["integrate_logsine", n] = _outcome(lambda: integrate_logsine(n, settings))
        out["zeta_numeric", n] = _outcome(lambda: zeta_numeric(n + 2, tol))
    return out


def test_threaded_results_match_serial(cold_caches):
    serial = {tol: _outcomes(tol) for tol in TOLERANCES}
    cold_caches()
    threaded: dict = {}

    def run(tol: float) -> None:
        threaded[tol] = _outcomes(tol)

    saved_interval, saved_prec = sys.getswitchinterval(), mp.prec
    threads = [threading.Thread(target=run, args=(tol,), daemon=True) for tol in TOLERANCES]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        prec_after = mp.prec
    finally:
        sys.setswitchinterval(saved_interval)
        mp.prec = saved_prec

    assert prec_after == saved_prec
    for tol in TOLERANCES:
        assert threaded[tol] == serial[tol], tol
        settings = QuadratureSettings(target_abs_error=tol)
        for n in range(13):
            cached = _outcome(lambda: integrate_logsine(n, settings))
            assert cached == serial[tol]["integrate_logsine", n], (tol, n)


def test_threaded_vertical_legs_leave_shared_contexts_fixed(cold_caches):
    # the targets share one working precision, so every thread computes in
    # one private context; expm1 and log1p, which raise their context's
    # precision while they run, must not run in it
    targets = (1e-8, 9e-9, 8e-9, 7e-9)

    def legs(tol: float) -> list:
        settings = QuadratureSettings(target_abs_error=tol)
        return [integrate_vertical_leg(n, settings) for n in range(4)]

    serial = {tol: legs(tol) for tol in targets}
    quadrature_oracle._certified.cache_clear()
    threaded: dict = {}
    saved_interval = sys.getswitchinterval()
    threads = [
        threading.Thread(target=lambda tol=tol: threaded.update({tol: legs(tol)}), daemon=True)
        for tol in targets
    ]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(saved_interval)

    moved = {p: ctx.prec for p, ctx in _precision._PRIVATE_CONTEXTS.items() if ctx.prec != p}
    assert moved == {}
    assert threaded == serial
