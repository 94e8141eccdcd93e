"""Command-line front end.

Subcommands expose the exact tables and the verification suites with
machine-readable output:

    logsine bernoulli --n-max 10 --format plain
    logsine zeta      --n-max 12 --format json
    logsine logsine   --n-max 8  --tolerance 1e-10 --format csv
    logsine verify    --suite all --n-max 10

Each command is a record builder: it returns its records and prints
nothing.  ``main`` builds them all, then prints them at once as plain
lines, one JSON document, or CSV, so a failure prints no partial output.

Exit codes: 0 success, 1 some verification check failed, 2 usage error,
3 a tolerance could not be certified.  Output is deterministic: identical
arguments produce byte-identical output.  The default tolerance is 1e-10,
overridable by the LOGSINE_TOLERANCE environment variable (a --tolerance
flag wins over the environment).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Callable

from . import contour_verifier, exact_core, fourier_appendix
from . import logsine_closed_form as closed_form
from . import zeta_engine
from ._precision import certify
from .errors import CertificationError

__all__ = ["main"]

_FORMATS = ("plain", "json", "csv")
_PARSEVAL_TERMS = 10 ** 6


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _compact(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return _compact(value)
    return str(value)


def _emit(
    records: list[dict], header: list[str], plain_line: Callable[[dict], str], fmt: str
) -> None:
    """Print the records as plain lines, one JSON document, or CSV with the
    given header, which is printed even when there are no records."""
    if fmt == "plain":
        for r in records:
            print(plain_line(r))
    elif fmt == "json":
        print(json.dumps(records, indent=2, ensure_ascii=False))
    else:
        writer = csv.writer(sys.stdout)  # RFC 4180: comma-separated, CRLF line ends
        writer.writerow(header)
        writer.writerows([_csv_cell(r[key]) for key in header] for r in records)


def _bernoulli(args: argparse.Namespace) -> list[dict]:
    table = exact_core.bernoulli_table(args.n_max)
    return [{"k": k, "B": str(table[k])} for k in range(args.n_max + 1)]


def _zeta(args: argparse.Namespace) -> list[dict]:
    records = []
    table = exact_core.bernoulli_table(args.n_max)  # B_s for every even s shown
    for s in range(2, args.n_max + 1):
        approx = zeta_engine.zeta_numeric(s, args.tolerance)
        exact = None
        if s % 2 == 0:
            ev = zeta_engine.zeta_even_exact(s // 2, table)
            exact = f"{ev.coefficient} · pi^{ev.pi_power}"
        records.append(
            {"s": s, "exact": exact, "value": approx.value, "abs_error": approx.abs_error}
        )
    return records


def _zeta_line(r: dict) -> str:
    exact = f" exact={r['exact']}" if r["exact"] else ""
    return f"s={r['s']} value={r['value']!r} abs_error={r['abs_error']!r}{exact}"


def _logsine(args: argparse.Namespace) -> list[dict]:
    records = []
    for n in range(args.n_max + 1):
        sym = closed_form.symbolic_to_json(closed_form.logsine_symbolic(n))
        approx = closed_form.logsine_numeric(n, args.tolerance)
        records.append(
            {"n": n, "value": approx.value, "abs_error": approx.abs_error, "symbolic": sym}
        )
    return records


def _logsine_line(r: dict) -> str:
    return (
        f"n={r['n']} value={r['value']!r} abs_error={r['abs_error']!r} "
        f"symbolic={_compact(r['symbolic'])}"
    )


def _check(suite: str, check: str, n: int, ok: bool, detail: str = "") -> dict:
    """One verify record; JSON prints its keys in this order."""
    return {"suite": suite, "check": check, "n": n, "pass": ok, "detail": detail}


def _suite_recurrence(n_max: int, tol: float) -> list[dict]:
    table = exact_core.bernoulli_table(max(1, n_max))
    checks = [
        _check("recurrence", "recurrence", n, exact_core.verify_recurrence(n, table))
        for n in range(2, n_max + 1)
    ]
    checks += [
        _check("recurrence", "odd-zero", m, table[m] == 0) for m in range(3, n_max + 1, 2)
    ]
    return checks


def _suite_contour(n_max: int, tol: float) -> list[dict]:
    checks = []
    for n in range(n_max + 1):
        report = contour_verifier.verify_null(n, tol)
        if report.failure:
            raise CertificationError(report.failure)
        detail = f"residual={report.residual_modulus!r} bound={report.certified_bound!r}"
        checks.append(_check("contour", "null-quadrature", n, report.passed, detail))
    return checks


def _suite_identities(n_max: int, tol: float) -> list[dict]:
    table = exact_core.bernoulli_table(max(2, n_max + 1))
    checks = []
    for n in range(1, n_max + 1):
        imag_ok = contour_verifier.verify_imag_identity_exact(n, table)
        checks.append(_check("identities", "imag-identity", n, imag_ok))
        steps = contour_verifier.reduction_chain_steps(n, table)
        failed = [name for name, ok in steps.items() if not ok]
        detail = f"failed steps: {','.join(failed)}" if failed else ""
        checks.append(_check("identities", "reduction-chain", n, not failed, detail))
        binom_ok = all(exact_core.verify_binomial_identity(n, k) for k in range(n // 2 + 1))
        checks.append(_check("identities", "binomial-identity", n, binom_ok))
    return checks


def _suite_fourier(n_max: int, tol: float) -> list[dict]:
    checks = []
    for n in range(n_max + 1):
        same = fourier_appendix.logsine_via_fourier(n) == closed_form.logsine_symbolic(n)
        checks.append(_check("fourier", "route-equivalence", n, same))
    # the partial sum's enclosure less pi^3/24 = (pi/4) zeta(2) by the
    # Bernoulli bridge, certified within 1e-6 as a whole
    prec = zeta_engine._term_prec(1e-6)
    value, bound = fourier_appendix._parseval_fixed(_PARSEVAL_TERMS, prec)
    exact = zeta_engine.zeta_even_exact(1, exact_core.bernoulli_table(2)).coefficient / 4
    target, target_bound = zeta_engine._fixed_term(
        exact.numerator, exact.denominator, 3, None, prec
    )
    d = certify(value - target, bound + target_bound, prec)
    ok = abs(d.value) + d.abs_error <= 1e-6
    detail = f"value={certify(value, bound, prec).value!r}"
    checks.append(_check("fourier", "parseval", _PARSEVAL_TERMS, ok, detail))
    return checks


_SUITE_BUILDERS = {
    "recurrence": _suite_recurrence,
    "contour": _suite_contour,
    "identities": _suite_identities,
    "fourier": _suite_fourier,
}
_SUITES = (*_SUITE_BUILDERS, "all")


def _verify(args: argparse.Namespace) -> list[dict]:
    names = list(_SUITE_BUILDERS) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    for name in names:
        block = _SUITE_BUILDERS[name](args.n_max, args.tolerance)
        checks += sorted(block, key=lambda c: (c["n"], c["check"]))
    return checks


def _check_line(c: dict) -> str:
    status = "PASS" if c["pass"] else "FAIL"
    detail = f" {c['detail']}" if c["detail"] else ""
    return f"{status} {c['suite']}/{c['check']} n={c['n']}{detail}"


# command -> (record builder, CSV header, plain-format line of one record)
_COMMANDS = {
    "bernoulli": (_bernoulli, ["k", "B"], lambda r: f"{r['k']} {r['B']}"),
    "zeta": (_zeta, ["s", "exact", "value", "abs_error"], _zeta_line),
    "logsine": (_logsine, ["n", "value", "abs_error", "symbolic"], _logsine_line),
    "verify": (_verify, ["suite", "check", "n", "pass", "detail"], _check_line),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsine",
        description="Exact Bernoulli/zeta identities and certified log-sine numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bernoulli", "print exact Bernoulli numbers B_0..B_n"),
        ("zeta", "exact even-argument forms and certified numeric zeta values"),
        ("logsine", "symbolic and certified numeric log-sine integrals"),
        ("verify", "run a verification suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n-max", type=_nonnegative_int, default=10)
        p.add_argument("--tolerance", type=_positive_float, default=None)
        p.add_argument("--format", choices=_FORMATS, default="plain")
        if name == "verify":
            p.add_argument("--suite", choices=_SUITES, default="all")
    return parser


def _resolve_tolerance(flag_value: float | None, parser: argparse.ArgumentParser) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("LOGSINE_TOLERANCE")
    if env is None:
        return 1e-10
    try:
        return _positive_float(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"LOGSINE_TOLERANCE {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.tolerance = _resolve_tolerance(args.tolerance, parser)
    build, header, plain_line = _COMMANDS[args.command]
    try:
        records = build(args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, header, plain_line, args.format)
    return 0 if all(r.get("pass", True) for r in records) else 1
