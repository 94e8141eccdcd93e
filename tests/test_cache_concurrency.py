"""The zeta table and the log-sin node table hold, under any thread
interleaving, exactly the values a serial run computes at each entry's
precision.

Numeric calls still share the global mp.dps, so the results themselves may
differ from serial ones under threads; only the memo tables are checked.
"""

import sys
import threading

from mpmath import mp
from mpmath.ctx_mp import MPContext

from logsine import quadrature_oracle, zeta_engine
from logsine.contour_verifier import leg_R
from logsine.errors import CertificationError
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import QuadratureSettings, integrate_logsine

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
                pass  # past the envelope, or a bound spoiled by the shared mp.dps


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
        # interleaved workdps blocks can leave the global precision changed
        mp.prec = saved_prec

    assert len(zeta_engine._ZETA_TABLE) > 0
    for (s, prec), entry in zeta_engine._ZETA_TABLE.items():
        ctx = _fresh_context(prec)
        value, bound = zeta_engine._euler_maclaurin(s, n_head=max(64, ctx.dps), ctx=ctx)
        assert entry == (value._mpf_, bound._mpf_), (s, prec)

    assert len(quadrature_oracle._LOGSIN_TABLE) > 0
    for prec, table in quadrature_oracle._LOGSIN_TABLE.items():
        ctx = _fresh_context(prec)
        for d, log_sin in table.items():
            assert log_sin == ctx.log(ctx.sin(ctx.make_mpf(d)))._mpf_, (prec, d)
