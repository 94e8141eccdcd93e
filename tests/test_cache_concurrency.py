"""Under any thread interleaving, numeric calls return what a serial run
returns, leave the global mpmath precision alone, and fill the zeta table,
the series' coefficient table, the integer table of pi^m, the counted
routines' tables of pi and log 2, the term sums of the closed form and
the legs, the precision memo, the log-sin node table, the engine's node
table and the result caches with exactly the values a serial run
computes at each entry's key.
"""

import ast
import os
import subprocess
import sys
import threading

from mpmath import mp

from logsine import (
    _elementary,
    _precision,
    contour_verifier,
    logsine_closed_form,
    quadrature_oracle,
    zeta_engine,
)
from logsine.contour_verifier import leg_H, leg_L, leg_R
from logsine.errors import CertificationError
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import (
    QuadratureSettings,
    _nodes,
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
            lambda: leg_L(n, tol),
            lambda: leg_R(n, tol),
            lambda: integrate_logsine(n, settings),
            lambda: leg_H(n, settings),
        ):
            try:
                call()
            except CertificationError:
                pass  # past the certified envelope


def _rebuilt(pi_keys: list) -> list:
    """The pi^m integer entries at the given keys, computed one after
    another in a fresh process, whose tables all start empty."""
    code = (
        "import sys; from logsine import zeta_engine as z; "
        "print([z._pi_fixed(m, prec) for prec, m in eval(sys.stdin.read())])"
    )
    src = os.path.dirname(os.path.dirname(zeta_engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=repr(pi_keys),
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return ast.literal_eval(proc.stdout)


def test_tables_match_serial_values_under_threads(cold_caches, node_keys):
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
        assert entry == zeta_engine._euler_maclaurin(s, prec), (s, prec)

    # each entry against one built afresh from an empty table
    built = dict(zeta_engine._BORWEIN_D)
    assert len(built) > 0
    zeta_engine._BORWEIN_D.clear()
    for prec, entry in built.items():
        assert zeta_engine._borwein_table(prec) == entry, prec

    pi_powers = dict(zeta_engine._PI_FIXED)
    assert len(pi_powers) > 0
    assert _rebuilt(list(pi_powers)) == list(pi_powers.values())

    # the term sums and the precisions, each entry against one built
    # afresh from an empty table, on the serially checked tables above
    for table, build in (
        (logsine_closed_form._LOG2_TERM, logsine_closed_form._log2_term),
        (logsine_closed_form._ZETA_TERMS, logsine_closed_form._zeta_terms),
        (logsine_closed_form._CLOSED_FORM, logsine_closed_form._closed_form_fixed),
        (contour_verifier._LEG_R_TERMS, contour_verifier._leg_r_terms),
        (contour_verifier._LEG_H_IM, contour_verifier._leg_h_im),
        (_precision._PREC_FOR, _precision.prec_for),
    ):
        built = dict(table)
        assert len(built) > 0
        table.clear()
        for key, entry in built.items():
            assert build(*key) == entry, key

    # the routines' pi and log 2, each entry against one built afresh
    for table, build in (
        (_elementary._PI, _elementary._build_pi),
        (_elementary._LOG2, _elementary._build_log2),
    ):
        assert len(table) > 0
        for bits, entry in table.items():
            assert build(bits) == entry, bits

    # each log-sin entry against the one computed afresh from its node
    assert len(quadrature_oracle._LOGSIN_TABLE) > 0
    for (prec, level), row in quadrature_oracle._LOGSIN_TABLE.items():
        frac = prec + _precision._GUARD
        pi = _elementary.pi(frac)[0]
        nodes = _nodes.__wrapped__(prec, level)
        assert len(row) == len(nodes), (prec, level)
        for i, ((gm, ge, *_), log_sin) in enumerate(zip(nodes, row)):
            d = (pi * gm, ge - frac)
            assert log_sin == quadrature_oracle._log_sin(d, frac), (prec, level, i)

    assert len(node_keys) > 0
    for prec, level in node_keys:
        # the cached entry against the nodes computed afresh, past the cache
        assert _nodes(prec, level) == _nodes.__wrapped__(prec, level), (prec, level)


def test_pi_powers_match_serial_values_when_threads_build_them_at_once(cold_caches):
    # six threads released together build pi^1..pi^40 from an empty table
    # at one precision, a new precision in each of 90 rounds: an entry
    # built from a stale or a doubled predecessor differs from the serial one
    saved_interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for prec in range(100, 1000, 10):
            start = threading.Barrier(6)

            def build(prec=prec):
                start.wait()
                zeta_engine._pi_fixed(40, prec)

            threads = [threading.Thread(target=build, daemon=True) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(saved_interval)
    pi_powers = dict(zeta_engine._PI_FIXED)
    assert {prec for prec, _ in pi_powers} == set(range(100, 1000, 10))
    assert _rebuilt(list(pi_powers)) == list(pi_powers.values())


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


def _tables() -> list[dict]:
    """Copies of the routines' pi and log 2 tables, the terms and sums of
    the closed form and leg R, the precision memo and the log-sin table."""
    return [
        dict(_elementary._PI),
        dict(_elementary._LOG2),
        dict(logsine_closed_form._LOG2_TERM),
        dict(logsine_closed_form._ZETA_TERMS),
        dict(logsine_closed_form._CLOSED_FORM),
        dict(contour_verifier._LEG_R_TERMS),
        dict(_precision._PREC_FOR),
        dict(quadrature_oracle._LOGSIN_TABLE),
    ]


def test_threaded_results_match_serial(cold_caches):
    serial = {tol: _outcomes(tol) for tol in TOLERANCES}
    serial_tables = _tables()
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
    assert _tables() == serial_tables
    assert all(serial_tables)
    for tol in TOLERANCES:
        assert threaded[tol] == serial[tol], tol
        settings = QuadratureSettings(target_abs_error=tol)
        for n in range(13):
            cached = _outcome(lambda: integrate_logsine(n, settings))
            assert cached == serial[tol]["integrate_logsine", n], (tol, n)


def test_threaded_vertical_legs_leave_shared_contexts_fixed(cold_caches):
    # the targets share one working precision, and so the log-sin and node
    # tables; the legs' exp and log calls at raised precisions, in every
    # thread at once, must not change each other's results
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

    assert threaded == serial
