"""Benchmark worker: one fresh interpreter that runs a job and exits.

Reads one JSON job from stdin, imports ``logsine`` (so a traced worker
started with ``-X importtime`` reports the package's start-up), runs the
job's ops, and writes one JSON document to stdout:

    {"results": [{"out": ..., "wall": s, "cpu": s, "warm_wall": s,
                  "warm_same": bool}, ...],
     "trace": {...} or null}

``wall`` and ``cpu`` cover the cold op only; ``cpu`` is process CPU, so
helper threads count.  With ``warm`` set, the op is repeated at once in the
same process and timed as ``warm_wall``; ``warm_same`` says whether the
repeat returned identical outputs.  Outputs are plain JSON (RealApprox as
``[value, abs_error]``) so that reference.py can check them.  A call that
raises records ``"error: ..."`` in place of its output.  With ``budget_s``
set, no op starts after that many seconds (the rest of the job is skipped).

Usage: python perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

import workloads


def _approx(r) -> list[float]:
    return [r.value, r.abs_error]


def _complex(c) -> dict:
    return {"re": _approx(c.re), "im": _approx(c.im)}


def _report(rep) -> dict:
    return {
        "passed": rep.passed,
        "failure": rep.failure,
        "L": _complex(rep.L),
        "R": _complex(rep.R),
        "H": _complex(rep.H),
        "K": _complex(rep.K),
    }


def _guard(call):
    try:
        return call()
    except Exception as exc:  # every failure is an output the checker rejects
        return f"error: {type(exc).__name__}: {exc}"


def sweep_pass(lib, op: dict) -> dict:
    """verify_null, verify_real_part, logsine_numeric and integrate_logsine
    for n = 0..12, then zeta_numeric for s = 2..30, at one tolerance."""
    tol = op["tol"]
    settings = lib.QuadratureSettings(target_abs_error=tol)
    rows = []
    for n in workloads.SWEEP_N:
        rows.append(
            {
                "verify_null": _guard(lambda: _report(lib.verify_null(n, tol))),
                "verify_real_part": _guard(lambda: _approx(lib.verify_real_part(n, tol))),
                "logsine_numeric": _guard(lambda: _approx(lib.logsine_numeric(n, tol))),
                "integrate_logsine": _guard(lambda: _approx(lib.integrate_logsine(n, settings))),
            }
        )
    zeta = [_guard(lambda: _approx(lib.zeta_numeric(s, tol))) for s in workloads.SWEEP_ZETA_S]
    return {"n": rows, "zeta": zeta}


def scattered_call(lib, call: dict):
    """One independent library call."""
    fn, n, tol = call["fn"], call["n"], call["tol"]
    if fn == "zeta_numeric":
        return _guard(lambda: _approx(lib.zeta_numeric(n, tol)))
    if fn == "logsine_numeric":
        return _guard(lambda: _approx(lib.logsine_numeric(n, tol)))
    if fn == "integrate_logsine":
        settings = lib.QuadratureSettings(target_abs_error=tol)
        return _guard(lambda: _approx(lib.integrate_logsine(n, settings)))
    if fn == "integrate_vertical_leg":
        settings = lib.QuadratureSettings(target_abs_error=tol)
        return _guard(lambda: _approx(lib.integrate_vertical_leg(n, settings)))
    if fn == "leg_R":
        return _guard(lambda: _complex(lib.leg_R(n, tol)))
    if fn == "verify_null":
        return _guard(lambda: _report(lib.verify_null(n, tol)))
    raise ValueError(f"unknown function {fn}")


def exact_op(lib, op: dict) -> dict:
    """bernoulli_table(N), then the exact identities on it."""
    size = op["N"]
    try:
        table = lib.bernoulli_table(size)
        top = range(1, workloads.EXACT_CHECK_N + 1)
        return {
            "table": [str(table[k]) for k in range(size + 1)],
            "recurrence": [(n, lib.verify_recurrence(n, table)) for n in top if n >= 2],
            "imag_identity": [(n, lib.verify_imag_identity_exact(n, table)) for n in top],
            "reduction_chain": [(n, lib.verify_reduction_chain(n, table)) for n in top],
            "route_equivalence": [
                (n, lib.logsine_via_fourier(n) == lib.logsine_symbolic(n))
                for n in range(workloads.EXACT_ROUTE_N + 1)
            ],
        }
    except Exception as exc:
        return f"error: {type(exc).__name__}: {exc}"


def cli_in_process(cli, op: dict) -> dict:
    """``logsine.cli.main(argv)`` with stdout captured, for warm repeats of
    a CLI op."""
    buf = io.StringIO(newline="")
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return {"code": code, "stdout": buf.getvalue()}


RUNNERS = {"sweep": sweep_pass, "exact": exact_op, "cli": cli_in_process}


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w0, time.process_time() - c0


def run_job(lib, job: dict, tracer=None) -> list[dict]:
    """Run every op of ``job`` against ``lib``; ``tracer`` (or None)
    records spans around the cold ops only."""
    if job["workload"] == "scattered":
        units = job["ops"][0]["calls"]
        run = scattered_call
    else:
        units = job["ops"]
        run = RUNNERS[job["workload"]]
    target = lib.cli if job["workload"] == "cli" else lib
    stop = time.perf_counter() + job.get("budget_s", math.inf)
    results = []
    for unit in units:
        if results and time.perf_counter() > stop:
            break
        with tracer.measure() if tracer else contextlib.nullcontext():
            out, wall, cpu = _timed(lambda: run(target, unit))
        row = {"out": out, "wall": wall, "cpu": cpu}
        if job.get("warm"):
            again, row["warm_wall"], _ = _timed(lambda: run(target, unit))
            row["warm_same"] = json.dumps(again, sort_keys=True) == json.dumps(out, sort_keys=True)
        results.append(row)
    return results


def main() -> int:
    job = json.load(sys.stdin)
    import logsine

    tracer = None
    if job["workload"] == "cli" or job.get("trace"):
        import logsine.cli
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = run_job(logsine, job, tracer)
    json.dump({"results": results, "trace": tracer.summary() if tracer else None}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
