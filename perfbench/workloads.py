"""Seeded inputs for the four benchmark workloads.

Every workload is a closed loop with one client.  The benchmark draws a
fixed-length schedule from the seed before it starts the clock; a run
consumes a prefix of that schedule, so two commits measured with the same
seed run identical inputs (the record carries the schedule digest and the
number of units consumed).

Draws are stratified: each round covers every stratum of the input space
once, in a seeded order.  Runs with different seeds therefore see
different inputs with nearly the same cost profile, which keeps the
run-to-run spread small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("cli", "sweep", "scattered", "exact")

# Largest n (or s, for zeta_numeric) that the library certifies at
# tolerance 10**-k, probed at every decade edge.  A tolerance in
# [10**-k, 10**-(k-1)) uses the row for k: a looser tolerance never
# certifies less.  tests/test_workloads.py re-checks every edge against
# the library.
ENVELOPE = {
    "zeta_numeric": {6: 40, 7: 40, 8: 40, 9: 40, 10: 40, 11: 40, 12: 40},
    "logsine_numeric": {6: 20, 7: 18, 8: 17, 9: 15, 10: 12, 11: 10, 12: 8},
    "integrate_logsine": {6: 20, 7: 18, 8: 17, 9: 15, 10: 12, 11: 10, 12: 8},
    "integrate_vertical_leg": {6: 18, 7: 16, 8: 15, 9: 14, 10: 13, 11: 12, 12: 11},
    "leg_R": {6: 18, 7: 16, 8: 15, 9: 14, 10: 12, 11: 10, 12: 8},
    "verify_null": {6: 18, 7: 16, 8: 15, 9: 14, 10: 12, 11: 10, 12: 8},
    "verify_real_part": {6: 17, 7: 16, 8: 15, 9: 14, 10: 11, 11: 9, 12: 7},
}

# n never exceeds the sweep's range, so single calls cost what sweep steps cost
N_CAP = 12
S_RANGE = (2, 30)

SWEEP_N = range(0, 13)
SWEEP_ZETA_S = range(2, 31)
SWEEP_LOG10_TOL = (-9.0, -6.0)  # verify_real_part(12, tol) needs tol >= 1e-9

SCATTERED_FUNCTIONS = (
    "zeta_numeric",
    "logsine_numeric",
    "integrate_logsine",
    "integrate_vertical_leg",
    "leg_R",
    "verify_null",
)
SCATTERED_LOG10_TOL = (-12.0, -6.0)
SCATTERED_ROUNDS_PER_BATCH = 40  # 240 calls per fresh worker

CLI_COMMANDS = ("bernoulli", "zeta", "logsine", "verify")
CLI_FORMATS = ("plain", "json", "csv")
CLI_SUITES = ("recurrence", "contour", "identities", "fourier", "all")
CLI_LOG10_TOL = (-10.0, -6.0)
CLI_BERNOULLI_N = (0, 60)

EXACT_N = (400, 520)  # table sizes where the sum-rule generator takes ~1 s
EXACT_CHECK_N = 200  # sum rule, imaginary identity and reduction chain
EXACT_ROUTE_N = 60  # Fourier route vs direct closed form
EXACT_STRATA = 4
SWEEP_STRATA = 4

SCHEDULE_LENGTH = {"cli": 1200, "sweep": 400, "scattered": 100, "exact": 200}


def decade(tol: float) -> int:
    """k such that tol lies in [10**-k, 10**-(k-1))."""
    return math.ceil(-math.log10(tol))


def n_max(function: str, tol: float) -> int:
    """Largest argument the generator may pass to ``function`` at ``tol``."""
    top = ENVELOPE[function][decade(tol)]
    return min(top, S_RANGE[1]) if function == "zeta_numeric" else min(top, N_CAP)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _stratified(rng: random.Random, lo: float, hi: float, strata: int, rounds: int):
    """``rounds`` rounds, each one draw from every equal-width stratum of
    [lo, hi) in a shuffled order."""
    width = (hi - lo) / strata
    for _ in range(rounds):
        order = list(range(strata))
        rng.shuffle(order)
        for i in order:
            yield lo + width * (i + rng.random())


def _deck(rng: random.Random, values):
    """Endless draws that run through every value in a shuffled order
    before any value repeats."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _cli_schedule(rng: random.Random, length: int) -> list[dict]:
    # the envelope at the tightest tolerance holds for the whole range
    tightest = 10.0 ** CLI_LOG10_TOL[0]
    decks = {
        "bernoulli": _deck(rng, range(CLI_BERNOULLI_N[0], CLI_BERNOULLI_N[1] + 1)),
        "zeta": _deck(rng, range(S_RANGE[0], S_RANGE[1] + 1)),
        "logsine": _deck(rng, range(n_max("logsine_numeric", tightest) + 1)),
        "verify": _deck(rng, range(n_max("verify_null", tightest) + 1)),
    }
    suites = _deck(rng, CLI_SUITES)
    combos = [(c, f) for c in CLI_COMMANDS for f in CLI_FORMATS]
    ops: list[dict] = []
    while len(ops) < length:
        rng.shuffle(combos)
        for command, fmt in combos:
            tol = _log_uniform(rng, *CLI_LOG10_TOL)
            argv = [command] + (["--suite", next(suites)] if command == "verify" else [])
            argv += ["--n-max", str(next(decks[command])), "--tolerance", repr(tol), "--format", fmt]
            ops.append({"argv": argv})
    return ops[:length]


def _sweep_schedule(rng: random.Random, length: int) -> list[dict]:
    rounds = -(-length // SWEEP_STRATA)
    logs = _stratified(rng, *SWEEP_LOG10_TOL, SWEEP_STRATA, rounds)
    return [{"tol": 10.0 ** x} for x in logs][:length]


def _scattered_call(rng: random.Random, function: str) -> dict:
    tol = _log_uniform(rng, *SCATTERED_LOG10_TOL)
    lo = S_RANGE[0] if function == "zeta_numeric" else 0
    return {"fn": function, "n": rng.randint(lo, n_max(function, tol)), "tol": tol}


def _scattered_schedule(rng: random.Random, length: int) -> list[dict]:
    batches = []
    for _ in range(length):
        calls = []
        for _ in range(SCATTERED_ROUNDS_PER_BATCH):
            order = list(SCATTERED_FUNCTIONS)
            rng.shuffle(order)
            calls.extend(_scattered_call(rng, f) for f in order)
        batches.append({"calls": calls})
    return batches


def _exact_schedule(rng: random.Random, length: int) -> list[dict]:
    rounds = -(-length // EXACT_STRATA)
    sizes = _stratified(rng, EXACT_N[0], EXACT_N[1] + 1, EXACT_STRATA, rounds)
    return [{"N": int(x)} for x in sizes][:length]


_SCHEDULES = {
    "cli": _cli_schedule,
    "sweep": _sweep_schedule,
    "scattered": _scattered_schedule,
    "exact": _exact_schedule,
}


def schedule(workload: str, seed: int, length: int | None = None) -> list[dict]:
    """The workload's input units for ``seed``: the same seed always gives
    the same list.  A unit is one op, except for ``scattered``, where it is
    one batch of calls run by one fresh worker."""
    rng = random.Random(f"{workload}:{seed}")
    return _SCHEDULES[workload](rng, length or SCHEDULE_LENGTH[workload])


def digest(units: list[dict]) -> str:
    """sha256 of the canonical JSON form of a schedule."""
    text = json.dumps(units, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
