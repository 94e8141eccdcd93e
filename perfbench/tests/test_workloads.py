"""The input generator: deterministic, and inside the certified envelope."""

import pytest

import logsine
import workloads
from workloads import ENVELOPE, n_max

SEEDS = range(40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.schedule(workload, 7)
    again = workloads.schedule(workload, 7)
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(workloads.schedule(workload, 8))


def _in_range(tol, lo_log10, hi_log10):
    return 10.0**lo_log10 <= tol < 10.0**hi_log10


def test_scattered_calls_inside_envelope():
    for seed in SEEDS:
        for batch in workloads.schedule("scattered", seed, 3):
            calls = batch["calls"]
            assert len({(c["fn"], c["n"], c["tol"]) for c in calls}) == len(calls)
            for call in calls:
                assert _in_range(call["tol"], *workloads.SCATTERED_LOG10_TOL)
                lo = workloads.S_RANGE[0] if call["fn"] == "zeta_numeric" else 0
                assert lo <= call["n"] <= n_max(call["fn"], call["tol"])


def test_sweep_and_exact_inside_envelope():
    for seed in SEEDS:
        for op in workloads.schedule("sweep", seed, 40):
            assert _in_range(op["tol"], *workloads.SWEEP_LOG10_TOL)
            for fn in ENVELOPE:
                top = max(workloads.SWEEP_ZETA_S) if fn == "zeta_numeric" else max(workloads.SWEEP_N)
                assert top <= n_max(fn, op["tol"])
        for op in workloads.schedule("exact", seed, 40):
            assert workloads.EXACT_N[0] <= op["N"] <= workloads.EXACT_N[1]
            assert op["N"] >= workloads.EXACT_CHECK_N + 1  # the checks need B_201


def test_cli_arguments_inside_envelope():
    for seed in SEEDS:
        for op in workloads.schedule("cli", seed, 60):
            argv = op["argv"]
            n = int(argv[argv.index("--n-max") + 1])
            tol = float(argv[argv.index("--tolerance") + 1])
            assert _in_range(tol, *workloads.CLI_LOG10_TOL)
            if argv[0] == "zeta":
                assert n <= n_max("zeta_numeric", tol)
            elif argv[0] == "logsine":
                assert n <= n_max("logsine_numeric", tol)
            elif argv[0] == "verify":
                assert n <= min(n_max("verify_null", tol), n_max("logsine_numeric", tol))


def _certifies(fn, n, tol):
    settings = logsine.QuadratureSettings(target_abs_error=tol)
    if fn == "verify_null":
        return logsine.verify_null(n, tol).passed
    if fn == "verify_real_part":
        r = logsine.verify_real_part(n, tol)
        return abs(r.value) <= r.abs_error
    if fn in ("integrate_logsine", "integrate_vertical_leg"):
        getattr(logsine, fn)(n, settings)
    else:
        getattr(logsine, fn)(n, tol)
    return True


@pytest.mark.parametrize("fn", sorted(ENVELOPE))
def test_envelope_edges_certify(fn):
    """The largest argument the generator may draw certifies at the lowest
    tolerance of every decade it may draw from."""
    for k in ENVELOPE[fn]:
        assert _certifies(fn, n_max(fn, 10.0**-k), 10.0**-k), (fn, k)
