"""Check that two checkouts return bit-identical library results.

Imports ``logsine`` from each checkout's ``src/`` in a fresh process and
dumps the repr of every public numeric entry point over n = 0..12 (zeta
over s = 2..30) at tolerances from 3e-2, where the working-precision floors
apply, down to 1e-14, past the certified envelope.  A call that raises
is recorded as its error type and text.  After the results, each dump
lists every entry of the working-precision memo tables the calls filled
(``RAW_TABLES``), one line per key in sorted key order with the entry's
integers, or the sha256 of their repr when that is long, so an error in
bits that rounding to double hides still shows; a table that a checkout
lacks, or whose module it lacks, is listed as ``absent``.  Each zeta
entry is the integers of its value and bound in units of 2^-(prec + 16),
prec the key's precision.  The counted routines' pi and log 2 are listed
by their precision in bits.  The tanh-sinh engine's tables are the
log-sin values and its nodes.  The log-sin values, kept by (prec, level),
one per node of ``_nodes(prec, level)``, are listed as (log sin, units)
by precision and node distance d = pi g from the nearer end of [0, pi],
with g = gm 2^ge from the node and pi at the precision's unit.  The nodes are listed as the
integers (gm, ge, cm, wm, ws) the engine sums with, as ``nodes`` for each
(prec, level) that the calls ask ``_nodes`` for.  The two dumps are
compared entry by entry.  Each checkout is then dumped again in a fresh
process that makes the same calls in reverse order, and that dump is
compared with its forward one: a result that changes is one that depends
on what ran before it, through a memo table.  The script prints each differing
result or table entry and exits 1 on any difference of either kind.

For results that differ between the checkouts, the script also prints
the largest NEW/OLD ratio of their ``abs_error`` fields, with its label,
and how many of them have [value - abs_error, value + abs_error]
intervals at OLD and NEW that do not meet.  Each ``RealApprox`` in a
result is paired with the one in the same place in the other checkout's.

Usage: python scripts/repr_dump.py OLD_CHECKOUT NEW_CHECKOUT
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial

TOLERANCES = (3e-2, 1e-3, 2e-5, 1e-6, 3e-8, 1e-10, 1e-12, 1e-14)
N_RANGE = range(13)
S_RANGE = range(2, 31)
L_RANGE = range(1, 4)
# (module, table); _LOGSIN_TABLE is flattened by ``log_sin_entries``
RAW_TABLES = (
    ("_elementary", "_PI"),
    ("_elementary", "_LOG2"),
    ("zeta_engine", "_ZETA_TABLE"),
    ("zeta_engine", "_PI_FIXED"),
    ("zeta_engine", "_BORWEIN_D"),
    ("quadrature_oracle", "_LOGSIN_TABLE"),
)
TABLES_MARK = "-- raw tables --"  # the line between results and table entries
REAL_APPROX = re.compile(r"RealApprox\(value=([^,]+), abs_error=([^)]+)\)")


def calls():
    """(label, thunk) for every dumped result, in a fixed order."""
    import logsine

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
    reverse, then every raw-table entry; the lines come out in the same
    order either way."""
    from logsine import quadrature_oracle

    # the node function the engine calls, wrapped to record its keys
    node_table = quadrature_oracle._nodes
    node_keys = set()

    def recording(prec, level):
        node_keys.add((prec, level))
        return node_table(prec, level)

    quadrature_oracle._nodes = recording
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
    print(TABLES_MARK)
    for module, name in RAW_TABLES:
        try:
            table = getattr(importlib.import_module(f"logsine.{module}"), name, None)
        except ModuleNotFoundError:
            table = None
        if table is None:
            print(f"{name} -> absent")
            continue
        if name == "_LOGSIN_TABLE":
            table = log_sin_entries(table, node_table)
        for key in sorted(table):
            print_entry(name, key, table[key])
    for key in sorted(node_keys):
        print_entry("nodes", key, node_table(*key))


def log_sin_entries(table: dict, node_table) -> dict:
    """The log-sin table {(prec, level): row}, row[i] the entry of the node
    node_table(prec, level)[i] = (gm, ge, ...), as {(prec, d): (log_sin,
    units)}, the entry's last two integers, d = (pi gm, ge - V) the exact
    distance from the nearer end of [0, pi], V = prec + _GUARD and pi at V
    bits.  An entry that also holds the pair's abscissae, cut from pi gm
    and pi cm, lists the same pair as one that holds the log sin alone."""
    from logsine import _elementary, _precision

    flat = {}
    for (prec, level), entries in table.items():
        frac = prec + _precision._GUARD
        pi = _elementary.pi(frac)[0]
        for (gm, ge, *_), entry in zip(node_table(prec, level), entries, strict=True):
            flat[prec, (pi * gm, ge - frac)] = tuple(entry[-2:])
    return flat


def print_entry(name: str, key, value) -> None:
    """One raw-table line: the entry's repr, or its sha256 when long."""
    text = repr(value)
    if len(text) > 200:
        text = "sha256 " + hashlib.sha256(text.encode()).hexdigest()
    print(f"{name}[{key!r}] -> {text}")


def run(checkout: str, reverse: bool = False) -> tuple[list[str], list[str]]:
    """The result lines and the raw-table lines of one checkout's dump."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump-reversed" if reverse else "--dump"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    mark = lines.index(TABLES_MARK)
    return lines[:mark], lines[mark + 1 :]


def compare(a: list[str], b: list[str], names: tuple[str, str]) -> list[str]:
    """Print each entry, keyed by what precedes its " -> ", that differs
    between two dumps or that only one of them has; return their keys."""
    da = dict(line.split(" -> ", 1) for line in a)
    db = dict(line.split(" -> ", 1) for line in b)
    differ = []
    for label in dict.fromkeys([*da, *db]):  # in dump order
        x, y = da.get(label, "(missing)"), db.get(label, "(missing)")
        if x != y:
            print(f"{names[0]} {label} -> {x}\n{names[1]} {label} -> {y}")
            differ.append(label)
    return differ


def bound_moves(a: list[str], b: list[str]) -> None:
    """Print the largest NEW/OLD abs_error ratio over the results that
    differ between two dumps, and how many of them have OLD and NEW
    intervals value +- abs_error that are disjoint."""
    da = dict(line.split(" -> ", 1) for line in a)
    db = dict(line.split(" -> ", 1) for line in b)
    worst, worst_label, disjoint = 0.0, None, 0
    for label, x in da.items():
        y = db.get(label, x)
        if x == y:
            continue
        apart = False
        for old, new in zip(REAL_APPROX.findall(x), REAL_APPROX.findall(y)):
            (v_old, e_old), (v_new, e_new) = (map(float, pair) for pair in (old, new))
            if e_old or e_new:
                ratio = e_new / e_old if e_old else math.inf
                if worst_label is None or ratio > worst:
                    worst, worst_label = ratio, label
            if all(map(math.isfinite, (v_old, e_old, v_new, e_new))):
                gap = abs(Fraction(v_new) - Fraction(v_old))
                apart |= gap > Fraction(e_old) + Fraction(e_new)
        disjoint += apart
    if worst_label is None:
        print("largest NEW/OLD abs_error ratio over moved results: none")
    else:
        print(f"largest NEW/OLD abs_error ratio over moved results: {worst!r} at {worst_label}")
    print(f"{disjoint} moved results have disjoint [value +- abs_error] intervals")


def main(old: str, new: str) -> int:
    (a, a_raw), (b, b_raw) = run(old), run(new)
    differ = compare(a, b, ("OLD", "NEW"))
    # of the results that differ, those that raised at OLD
    at_old = dict(line.split(" -> ", 1) for line in a)
    raised = sum(at_old.get(label, "").startswith("raised ") for label in differ)
    print(f"{len(differ)} of {len(a)} results differ ({raised} of them raised at OLD)")
    bound_moves(a, b)
    raw = len(compare(a_raw, b_raw, ("OLD", "NEW")))
    print(f"{raw} of {len(a_raw)} raw-table entries differ ({len(b_raw)} entries at NEW)")
    # every result must depend on its arguments alone, not on what ran before
    order = 0
    for name, checkout, forward in (("OLD", old, (a, a_raw)), ("NEW", new, (b, b_raw))):
        backward = run(checkout, reverse=True)
        for kind, x, y in zip(("results", "raw-table entries"), forward, backward):
            here = len(compare(x, y, (name, f"{name}-REVERSED")))
            print(f"{here} of {len(x)} {name} {kind} change in reverse call order")
            order += here
    return 1 if differ or raw or order else 0


if __name__ == "__main__":
    if sys.argv[1:] in (["--dump"], ["--dump-reversed"]):
        dump(reverse=sys.argv[1] == "--dump-reversed")
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
