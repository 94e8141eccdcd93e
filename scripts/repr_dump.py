"""Check that two checkouts return bit-identical library results.

Imports ``logsine`` from each checkout's ``src/`` in a fresh process and
dumps the repr of every numeric entry point over n = 0..12 (zeta over
s = 2..30) at tolerances from 3e-2, where the working-precision floors
apply, down to 1e-14, past the certified envelope.  A call that raises
is recorded as its error type and text.  The two dumps are compared line
by line; the script prints each differing result and exits 1 on any
difference.

Usage: python scripts/repr_dump.py OLD_CHECKOUT NEW_CHECKOUT
"""

from __future__ import annotations

import os
import subprocess
import sys

TOLERANCES = (3e-2, 1e-3, 2e-5, 1e-6, 3e-8, 1e-10, 1e-12, 1e-14)
N_RANGE = range(13)
S_RANGE = range(2, 31)
L_RANGE = range(1, 4)


def calls():
    """(label, thunk) for every dumped result, in a fixed order."""
    import logsine
    from logsine.contour_verifier import leg_R_term

    for tol in TOLERANCES:
        settings = logsine.QuadratureSettings(target_abs_error=tol)
        for n in N_RANGE:
            yield f"logsine_numeric({n}, {tol!r})", lambda: logsine.logsine_numeric(n, tol)
            yield f"integrate_logsine({n}, {tol!r})", lambda: logsine.integrate_logsine(n, settings)
            yield f"integrate_vertical_leg({n}, {tol!r})", lambda: logsine.integrate_vertical_leg(
                n, settings
            )
            yield f"leg_L({n}, {tol!r})", lambda: logsine.leg_L(n, tol)
            yield f"leg_R({n}, {tol!r})", lambda: logsine.leg_R(n, tol)
            yield f"leg_H({n}, {tol!r})", lambda: logsine.leg_H(n, settings)
            for k in range(n + 1):
                yield f"leg_R_term({n}, {k}, {tol!r})", lambda: leg_R_term(n, k, tol)
            yield f"verify_null({n}, {tol!r})", lambda: logsine.verify_null(n, tol)
            yield f"verify_real_part({n}, {tol!r})", lambda: logsine.verify_real_part(n, tol)
        for s in S_RANGE:
            yield f"zeta_numeric({s}, {tol!r})", lambda: logsine.zeta_numeric(s, tol)
        yield f"integrate_logsquared({tol!r})", lambda: logsine.integrate_logsquared(settings)
        for l in L_RANGE:
            for power in (0, 1):
                yield f"cosine_moment({l}, {power}, {tol!r})", lambda: logsine.cosine_moment(
                    l, power, settings
                )
            for lp in L_RANGE:
                yield f"cosine_orthogonality({l}, {lp}, {tol!r})", (
                    lambda: logsine.cosine_orthogonality(l, lp, settings)
                )


def dump() -> None:
    for label, thunk in calls():
        try:
            out = repr(thunk())
        except Exception as exc:  # an error is a result to compare too
            out = f"raised {type(exc).__name__}: {exc}"
        print(f"{label} -> {out}", flush=True)


def run(checkout: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def main(old: str, new: str) -> int:
    a, b = run(old), run(new)
    if len(a) != len(b):
        print(f"result counts differ: {len(a)} vs {len(b)}")
        return 1
    differ = [(x, y) for x, y in zip(a, b) if x != y]
    for x, y in differ:
        print(f"OLD {x}\nNEW {y}")
    raised = sum(" -> raised " in x for x in a)
    print(f"{len(differ)} of {len(a)} results differ ({raised} of them raised at OLD)")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
