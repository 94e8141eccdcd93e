"""Command-line front end.

Subcommands expose the exact tables and the verification suites with
machine-readable output:

    logsine bernoulli --n-max 10 --format plain
    logsine zeta      --n-max 12 --format json
    logsine logsine   --n-max 8  --tolerance 1e-10 --format csv
    logsine verify    --suite all --n-max 10

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 a tolerance could not be certified.  Output is deterministic: identical
arguments produce byte-identical output.  The default tolerance is 1e-10,
overridable by the LOGSINE_TOLERANCE environment variable (a --tolerance
flag wins over the environment).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

from . import contour_verifier, exact_core, fourier_appendix
from . import logsine_closed_form as closed_form
from . import zeta_engine
from .errors import CertificationError

__all__ = ["main", "RunConfig"]

_SUITES = ("recurrence", "contour", "identities", "fourier", "all")
_FORMATS = ("plain", "json", "csv")
_PARSEVAL_TERMS = 10 ** 6


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-10
    n_max: int = 10
    output_format: str = "plain"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.n_max < 0:
            raise ValueError("n-max must be nonnegative")
        if self.output_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")


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
    records: list[dict],
    header: list[str],
    plain_line: Callable[[dict], str],
    cfg: RunConfig,
    out: io.TextIOBase,
) -> None:
    """Print the records as plain lines, one JSON document, or CSV with the
    given header, which is printed even when there are no records."""
    if cfg.output_format == "plain":
        for r in records:
            print(plain_line(r), file=out)
    elif cfg.output_format == "json":
        print(json.dumps(records, indent=2, ensure_ascii=False), file=out)
    else:
        writer = csv.writer(out)  # RFC 4180: comma-separated, CRLF line ends
        writer.writerow(header)
        writer.writerows([_csv_cell(r[key]) for key in header] for r in records)


def _cmd_bernoulli(cfg: RunConfig, out: io.TextIOBase) -> int:
    table = exact_core.bernoulli_table(cfg.n_max)
    records = [{"k": k, "B": str(table[k])} for k in range(cfg.n_max + 1)]
    _emit(records, ["k", "B"], lambda r: f"{r['k']} {r['B']}", cfg, out)
    return 0


def _cmd_zeta(cfg: RunConfig, out: io.TextIOBase) -> int:
    records = []
    table = exact_core.bernoulli_table(cfg.n_max)  # B_s for every even s shown
    for s in range(2, cfg.n_max + 1):
        approx = zeta_engine.zeta_numeric(s, cfg.tolerance)
        exact = None
        if s % 2 == 0:
            ev = zeta_engine.zeta_even_exact(s // 2, table)
            exact = f"{ev.coefficient} · pi^{ev.pi_power}"
        records.append(
            {
                "s": s,
                "exact": exact,
                "value": approx.value,
                "abs_error": approx.abs_error,
            }
        )

    def plain_line(r: dict) -> str:
        exact = f" exact={r['exact']}" if r["exact"] else ""
        return f"s={r['s']} value={r['value']!r} abs_error={r['abs_error']!r}{exact}"

    _emit(records, ["s", "exact", "value", "abs_error"], plain_line, cfg, out)
    return 0


def _cmd_logsine(cfg: RunConfig, out: io.TextIOBase) -> int:
    records = []
    for n in range(cfg.n_max + 1):
        sym = closed_form.symbolic_to_json(closed_form.logsine_symbolic(n))
        approx = closed_form.logsine_numeric(n, cfg.tolerance)
        records.append(
            {
                "n": n,
                "value": approx.value,
                "abs_error": approx.abs_error,
                "symbolic": sym,
            }
        )

    def plain_line(r: dict) -> str:
        return (
            f"n={r['n']} value={r['value']!r} abs_error={r['abs_error']!r} "
            f"symbolic={_compact(r['symbolic'])}"
        )

    _emit(records, ["n", "value", "abs_error", "symbolic"], plain_line, cfg, out)
    return 0


def _suite_recurrence(cfg: RunConfig) -> list[dict]:
    table = exact_core.bernoulli_table(max(1, cfg.n_max))
    checks = []
    for n in range(2, cfg.n_max + 1):
        checks.append(
            {
                "suite": "recurrence",
                "check": "recurrence",
                "n": n,
                "pass": exact_core.verify_recurrence(n, table),
                "detail": "",
            }
        )
    for m in range(3, cfg.n_max + 1, 2):
        checks.append(
            {
                "suite": "recurrence",
                "check": "odd-zero",
                "n": m,
                "pass": table[m] == 0,
                "detail": "",
            }
        )
    return checks


def _suite_contour(cfg: RunConfig) -> list[dict]:
    checks = []
    for n in range(cfg.n_max + 1):
        report = contour_verifier.verify_null(n, cfg.tolerance)
        if report.failure:
            raise CertificationError(report.failure)
        checks.append(
            {
                "suite": "contour",
                "check": "null-quadrature",
                "n": n,
                "pass": report.passed,
                "detail": (
                    f"residual={report.residual_modulus!r} "
                    f"bound={report.certified_bound!r}"
                ),
            }
        )
    return checks


def _suite_identities(cfg: RunConfig) -> list[dict]:
    table = exact_core.bernoulli_table(max(2, cfg.n_max + 1))
    checks = []
    for n in range(1, cfg.n_max + 1):
        checks.append(
            {
                "suite": "identities",
                "check": "imag-identity",
                "n": n,
                "pass": contour_verifier.verify_imag_identity_exact(n, table),
                "detail": "",
            }
        )
        steps = contour_verifier.reduction_chain_steps(n, table)
        failed = [name for name, ok in steps.items() if not ok]
        checks.append(
            {
                "suite": "identities",
                "check": "reduction-chain",
                "n": n,
                "pass": not failed,
                "detail": f"failed steps: {','.join(failed)}" if failed else "",
            }
        )
        binom_ok = all(
            exact_core.verify_binomial_identity(n, k) for k in range(n // 2 + 1)
        )
        checks.append(
            {
                "suite": "identities",
                "check": "binomial-identity",
                "n": n,
                "pass": binom_ok,
                "detail": "",
            }
        )
    return checks


def _suite_fourier(cfg: RunConfig) -> list[dict]:
    checks = []
    for n in range(cfg.n_max + 1):
        same = fourier_appendix.logsine_via_fourier(n) == closed_form.logsine_symbolic(n)
        checks.append(
            {
                "suite": "fourier",
                "check": "route-equivalence",
                "n": n,
                "pass": same,
                "detail": "",
            }
        )
    value = fourier_appendix.parseval_logsquared(_PARSEVAL_TERMS)
    target = math.pi ** 3 / 24
    checks.append(
        {
            "suite": "fourier",
            "check": "parseval",
            "n": _PARSEVAL_TERMS,
            "pass": abs(value - target) <= 1e-6,
            "detail": f"value={value!r}",
        }
    )
    return checks


def _cmd_verify(cfg: RunConfig, suite: str, out: io.TextIOBase) -> int:
    builders = {
        "recurrence": _suite_recurrence,
        "contour": _suite_contour,
        "identities": _suite_identities,
        "fourier": _suite_fourier,
    }
    names = list(builders) if suite == "all" else [suite]
    checks: list[dict] = []
    for name in names:
        block = builders[name](cfg)
        block.sort(key=lambda c: (c["n"], c["check"]))
        checks.extend(block)

    def plain_line(c: dict) -> str:
        status = "PASS" if c["pass"] else "FAIL"
        detail = f" {c['detail']}" if c["detail"] else ""
        return f"{status} {c['suite']}/{c['check']} n={c['n']}{detail}"

    _emit(checks, ["suite", "check", "n", "pass", "detail"], plain_line, cfg, out)
    return 0 if all(c["pass"] for c in checks) else 1


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
        value = float(env)
    except ValueError:
        parser.error(f"LOGSINE_TOLERANCE is not a number: {env!r}")
    if not (math.isfinite(value) and value > 0):
        parser.error("LOGSINE_TOLERANCE must be positive and finite")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        tolerance=_resolve_tolerance(args.tolerance, parser),
        n_max=args.n_max,
        output_format=args.format,
    )
    out = sys.stdout
    try:
        if args.command == "bernoulli":
            return _cmd_bernoulli(cfg, out)
        if args.command == "zeta":
            return _cmd_zeta(cfg, out)
        if args.command == "logsine":
            return _cmd_logsine(cfg, out)
        return _cmd_verify(cfg, args.suite, out)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
