"""Check that two checkouts return bit-identical library results.

Imports ``logsine`` from each checkout's ``src/`` in a fresh process and
dumps the repr of every numeric entry point over n = 0..12 (zeta over
s = 2..30) at tolerances from 3e-2, where the working-precision floors
apply, down to 1e-14, past the certified envelope.  A call that raises
is recorded as its error type and text.  The two dumps are compared line
by line.  Each checkout is then dumped again in a fresh process that
makes the same calls in reverse order, and that dump is compared with
its forward one: a result that changes is one that depends on what ran
before it, through a memo table.  The script prints each differing
result and exits 1 on any difference of either kind.

Usage: python scripts/repr_dump.py OLD_CHECKOUT NEW_CHECKOUT
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import partial

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
            yield f"logsine_numeric({n}, {tol!r})", partial(logsine.logsine_numeric, n, tol)
            yield f"integrate_logsine({n}, {tol!r})", partial(
                logsine.integrate_logsine, n, settings
            )
            yield f"integrate_vertical_leg({n}, {tol!r})", partial(
                logsine.integrate_vertical_leg, n, settings
            )
            yield f"leg_L({n}, {tol!r})", partial(logsine.leg_L, n, tol)
            yield f"leg_R({n}, {tol!r})", partial(logsine.leg_R, n, tol)
            yield f"leg_H({n}, {tol!r})", partial(logsine.leg_H, n, settings)
            for k in range(n + 1):
                yield f"leg_R_term({n}, {k}, {tol!r})", partial(leg_R_term, n, k, tol)
            yield f"verify_null({n}, {tol!r})", partial(logsine.verify_null, n, tol)
            yield f"verify_real_part({n}, {tol!r})", partial(logsine.verify_real_part, n, tol)
        for s in S_RANGE:
            yield f"zeta_numeric({s}, {tol!r})", partial(logsine.zeta_numeric, s, tol)
        yield f"integrate_logsquared({tol!r})", partial(logsine.integrate_logsquared, settings)
        for l in L_RANGE:
            for power in (0, 1):
                yield f"cosine_moment({l}, {power}, {tol!r})", partial(
                    logsine.cosine_moment, l, power, settings
                )
            for lp in L_RANGE:
                yield f"cosine_orthogonality({l}, {lp}, {tol!r})", partial(
                    logsine.cosine_orthogonality, l, lp, settings
                )


def dump(reverse: bool) -> None:
    """Print every result, making the calls in the fixed order or in its
    reverse; the lines come out in the fixed order either way."""
    todo = list(calls())
    lines = {}
    for label, thunk in reversed(todo) if reverse else todo:
        try:
            out = repr(thunk())
        except Exception as exc:  # an error is a result to compare too
            out = f"raised {type(exc).__name__}: {exc}"
        lines[label] = f"{label} -> {out}"
    for label, _ in todo:
        print(lines[label])


def run(checkout: str, reverse: bool = False) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump-reversed" if reverse else "--dump"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def compare(a: list[str], b: list[str], names: tuple[str, str]) -> int:
    """Print each differing result of two dumps; return how many differ."""
    if len(a) != len(b):
        print(f"result counts differ: {len(a)} vs {len(b)}")
        return max(len(a), len(b))
    differ = [(x, y) for x, y in zip(a, b) if x != y]
    for x, y in differ:
        print(f"{names[0]} {x}\n{names[1]} {y}")
    return len(differ)


def main(old: str, new: str) -> int:
    a, b = run(old), run(new)
    differ = compare(a, b, ("OLD", "NEW"))
    raised = sum(" -> raised " in x for x in a)
    print(f"{differ} of {len(a)} results differ ({raised} of them raised at OLD)")
    # every result must depend on its arguments alone, not on what ran before
    order = 0
    for name, checkout, forward in (("OLD", old, a), ("NEW", new, b)):
        backward = run(checkout, reverse=True)
        here = compare(forward, backward, (name, f"{name}-REVERSED"))
        print(f"{here} of {len(forward)} {name} results change in reverse call order")
        order += here
    return 1 if differ or order else 0


if __name__ == "__main__":
    if sys.argv[1:] in (["--dump"], ["--dump-reversed"]):
        dump(reverse=sys.argv[1] == "--dump-reversed")
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
