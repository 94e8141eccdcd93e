"""Independent output checker.

References are computed in a private mpmath context at 50 digits, so the
checker never reads or changes the global ``mp.dps`` the library works
in, and it shares no code with the library: zeta values come from
``mpmath.zeta``, Bernoulli numbers from ``mpmath.bernfrac``, and the
closed forms are written out here from their formulas.

Each ``check_*`` function returns a list of problems; an empty list means
every output is within its own claimed ``abs_error`` of the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext

import workloads

_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**p as (re, im)


class Reference:
    """Reference values at ``dps`` digits in a context of its own."""

    def __init__(self, dps: int = 50):
        self.ctx = MPContext()
        self.ctx.dps = dps
        self.zeta = lru_cache(maxsize=None)(self._zeta)
        self.bernoulli = lru_cache(maxsize=None)(self._bernoulli)
        self.logsine = lru_cache(maxsize=None)(self._logsine)

    def _zeta(self, s: int):
        return self.ctx.zeta(s)

    def _bernoulli(self, k: int) -> Fraction:
        p, q = self.ctx.bernfrac(k)
        return Fraction(p, q)

    def _logsine(self, n: int):
        """I_n = int_0^pi x^n log(sin x) dx from its closed form."""
        c = self.ctx
        total = -(c.pi ** (n + 1)) / (n + 1) * c.log(2)
        scale = c.mpf(math.factorial(n)) / 2 ** (n + 1)
        for k in range(1, n // 2 + 1):
            p = n - 2 * k + 1
            total += scale * (-1) ** k * (2 * c.pi) ** p / math.factorial(p) * self.zeta(2 * k + 1)
        return total

    def vertical_leg(self, n: int):
        """int_0^inf y^n log(1 - e^(-2y)) dy = -n!/2^(n+1) zeta(n+2)."""
        return -self.ctx.mpf(math.factorial(n)) / 2 ** (n + 1) * self.zeta(n + 2)

    def zeta_even_coefficient(self, k: int) -> Fraction:
        """zeta(2k) / pi^(2k), exactly."""
        return Fraction((-1) ** (k + 1) * 2 ** (2 * k), 2 * math.factorial(2 * k)) * self.bernoulli(2 * k)

    def leg_L(self, n: int):
        mag = self.ctx.mpf(math.factorial(n)) / 2 ** (n + 1) * self.zeta(n + 2)
        re, im = _PHASES[(n + 1) % 4]
        return re * mag, im * mag

    def leg_R(self, n: int):
        c = self.ctx
        re = im = c.mpf(0)
        for k in range(n + 1):
            mag = math.comb(n, k) * c.pi ** (n - k) * c.mpf(math.factorial(k)) / 2 ** (k + 1) * self.zeta(k + 2)
            pr, pi_ = _PHASES[(k + 3) % 4]  # -i * i^k = i^(k+3)
            re += pr * mag
            im += pi_ * mag
        return re, im

    def leg_H(self, n: int):
        c = self.ctx
        re = c.pi ** (n + 1) / (n + 1) * c.log(2) + self.logsine(n)
        im = c.pi ** (n + 2) / (n + 2) - c.pi ** (n + 2) / (2 * (n + 1))
        return re, im

    def near(self, value: float, abs_error: float, ref) -> bool:
        """|value - ref| <= abs_error, decided at the reference precision."""
        if not (math.isfinite(value) and math.isfinite(abs_error)):
            return False
        return abs(self.ctx.mpf(value) - ref) <= self.ctx.mpf(abs_error)


# ---------------------------------------------------------------------------
# library-call outputs (see worker.py for their serialized shapes)
# ---------------------------------------------------------------------------


def _approx(problems, ref: Reference, label, out, expected, tol=None):
    """Check a serialized RealApprox ``[value, abs_error]``."""
    if not isinstance(out, list):
        problems.append(f"{label}: {out}")
        return
    value, err = out
    if not ref.near(value, err, expected):
        problems.append(f"{label}: {value!r} +- {err!r} misses {ref.ctx.nstr(expected, 20)}")
    elif tol is not None and not err <= tol:
        problems.append(f"{label}: bound {err!r} above target {tol!r}")


def _report(problems, ref: Reference, label, out, n):
    """Check a serialized ContourReport against the reference legs."""
    if not isinstance(out, dict):
        problems.append(f"{label}: {out}")
        return
    if not out["passed"]:
        problems.append(f"{label}: not certified ({out['failure']})")
        return
    for leg in ("L", "R", "H"):
        for part, expected in zip(("re", "im"), getattr(ref, "leg_" + leg)(n)):
            _approx(problems, ref, f"{label} {leg}.{part}", out[leg][part], expected)
    for part in ("re", "im"):
        _approx(problems, ref, f"{label} K.{part}", out["K"][part], 0)


def check_call(ref: Reference, call: dict, out) -> list[str]:
    """One scattered call."""
    fn, n, tol = call["fn"], call["n"], call["tol"]
    problems: list[str] = []
    label = f"{fn}({n}, {tol!r})"
    if fn == "zeta_numeric":
        _approx(problems, ref, label, out, ref.zeta(n), tol)
    elif fn in ("logsine_numeric", "integrate_logsine"):
        _approx(problems, ref, label, out, ref.logsine(n), tol)
    elif fn == "integrate_vertical_leg":
        _approx(problems, ref, label, out, ref.vertical_leg(n), tol)
    elif fn == "leg_R":
        if not isinstance(out, dict):
            problems.append(f"{label}: {out}")
        else:
            for part, expected in zip(("re", "im"), ref.leg_R(n)):
                _approx(problems, ref, f"{label} {part}", out[part], expected)
            if not out["re"][1] + out["im"][1] <= tol:
                problems.append(f"{label}: bound above target")
    elif fn == "verify_null":
        _report(problems, ref, label, out, n)
    else:
        problems.append(f"unknown function {fn}")
    return problems


def check_sweep(ref: Reference, tol: float, out) -> list[str]:
    """One n = 0..12 verification pass."""
    if not isinstance(out, dict):
        return [f"sweep({tol!r}): {out}"]
    problems: list[str] = []
    for n in workloads.SWEEP_N:
        row = out["n"][n]
        _report(problems, ref, f"verify_null({n})", row["verify_null"], n)
        _approx(problems, ref, f"verify_real_part({n})", row["verify_real_part"], 0)
        _approx(problems, ref, f"logsine_numeric({n})", row["logsine_numeric"], ref.logsine(n), tol)
        _approx(problems, ref, f"integrate_logsine({n})", row["integrate_logsine"], ref.logsine(n), tol)
    for s, z in zip(workloads.SWEEP_ZETA_S, out["zeta"]):
        _approx(problems, ref, f"zeta_numeric({s})", z, ref.zeta(s), tol)
    return problems


def check_exact(ref: Reference, size: int, out) -> list[str]:
    """One exact op: the table against bernfrac, every identity True."""
    if not isinstance(out, dict):
        return [f"exact({size}): {out}"]
    problems: list[str] = []
    table = out["table"]
    if len(table) != size + 1:
        problems.append(f"table has {len(table)} entries, expected {size + 1}")
    for k, text in enumerate(table):
        if Fraction(text) != ref.bernoulli(k):
            problems.append(f"B_{k} = {text} is wrong")
            break
    for name in ("recurrence", "imag_identity", "reduction_chain", "route_equivalence"):
        bad = [n for n, ok in out[name] if ok is not True]
        if bad:
            problems.append(f"{name} failed at n = {bad[:5]}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def _records(fmt: str, text: str, header: list[str]) -> list[dict]:
    """Rows of a json or csv document as dicts keyed by ``header``."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if rows[0] != header:
        raise ValueError(f"csv header {rows[0]}")
    return [dict(zip(header, r)) for r in rows[1:]]


def _plain_fields(line: str) -> dict[str, str]:
    out = {}
    for part in line.split(" "):
        key, _, value = part.partition("=")
        out[key] = value
    return out


def _expected_checks(suite: str, n_max: int) -> list[tuple[str, str, int]]:
    """(suite, check, n) of every check ``verify --suite`` must report."""
    if suite == "all":
        return [c for s in workloads.CLI_SUITES[:-1] for c in _expected_checks(s, n_max)]
    if suite == "recurrence":
        return [(suite, "recurrence", n) for n in range(2, n_max + 1)] + [
            (suite, "odd-zero", m) for m in range(3, n_max + 1, 2)
        ]
    if suite == "contour":
        return [(suite, "null-quadrature", n) for n in range(n_max + 1)]
    if suite == "identities":
        return [
            (suite, c, n)
            for n in range(1, n_max + 1)
            for c in ("imag-identity", "reduction-chain", "binomial-identity")
        ]
    return [(suite, "route-equivalence", n) for n in range(n_max + 1)] + [
        (suite, "parseval", 10**6)
    ]


def _check_verify(ref, fmt, text, n_max, suite, problems):
    checks = []
    if fmt == "plain":
        for line in text.splitlines():
            status, name, n_field, *detail = line.split(" ")
            s, _, c = name.partition("/")
            fields = _plain_fields(" ".join(detail))
            checks.append((s, c, int(n_field[2:]), status == "PASS", fields))
    else:
        header = ["suite", "check", "n", "pass", "detail"]
        for r in _records(fmt, text, header):
            ok = r["pass"] if fmt == "json" else {"true": True, "false": False}[r["pass"]]
            fields = _plain_fields(r["detail"]) if r["detail"] else {}
            checks.append((r["suite"], r["check"], int(r["n"]), ok, fields))
    if sorted(c[:3] for c in checks) != sorted(_expected_checks(suite, n_max)):
        problems.append(f"verify --suite {suite} --n-max {n_max}: unexpected set of checks")
    for s, c, n, ok, fields in checks:
        if ok is not True:
            problems.append(f"{s}/{c} n={n} did not pass")
        if c == "parseval" and not abs(float(fields["value"]) - math.pi ** 3 / 24) <= 1e-6:
            problems.append(f"parseval value {fields['value']} is off")
        if c == "null-quadrature" and not float(fields["residual"]) <= float(fields["bound"]):
            problems.append(f"contour n={n}: residual above bound")


def _check_bernoulli(ref, fmt, text, n_max, problems):
    if fmt == "plain":
        rows = [line.split(" ") for line in text.splitlines()]
    else:
        rows = [(r["k"], r["B"]) for r in _records(fmt, text, ["k", "B"])]
    if [int(k) for k, _ in rows] != list(range(n_max + 1)):
        problems.append("bernoulli: wrong set of indices")
    for k, b in rows:
        if Fraction(b) != ref.bernoulli(int(k)):
            problems.append(f"B_{k} = {b} is wrong")


def _check_zeta(ref, fmt, text, n_max, tol, problems):
    if fmt == "plain":
        rows = []
        for line in text.splitlines():
            head, _, exact = line.partition(" exact=")
            f = _plain_fields(head)
            rows.append((f["s"], f["value"], f["abs_error"], exact or None))
    else:
        rows = [
            (r["s"], r["value"], r["abs_error"], r["exact"] or None)
            for r in _records(fmt, text, ["s", "exact", "value", "abs_error"])
        ]
    if [int(r[0]) for r in rows] != list(range(2, n_max + 1)):
        problems.append("zeta: wrong set of arguments")
    for s, value, err, exact in rows:
        s = int(s)
        _approx(problems, ref, f"zeta({s})", [float(value), float(err)], ref.zeta(s), tol)
        if s % 2 == 0:
            coeff, _, power = (exact or "").partition(" · pi^")
            if Fraction(coeff) != ref.zeta_even_coefficient(s // 2) or power != str(s):
                problems.append(f"zeta({s}) exact form {exact!r} is wrong")
        elif exact is not None:
            problems.append(f"zeta({s}) has an exact form")


def _check_logsine(ref, fmt, text, n_max, tol, problems):
    if fmt == "plain":
        rows = []
        for line in text.splitlines():
            head, _, sym = line.partition(" symbolic=")
            f = _plain_fields(head)
            rows.append((f["n"], f["value"], f["abs_error"], json.loads(sym)))
    else:
        rows = [
            (r["n"], r["value"], r["abs_error"], r["symbolic"] if fmt == "json" else json.loads(r["symbolic"]))
            for r in _records(fmt, text, ["n", "value", "abs_error", "symbolic"])
        ]
    if [int(r[0]) for r in rows] != list(range(n_max + 1)):
        problems.append("logsine: wrong set of indices")
    c = ref.ctx
    for n, value, err, sym in rows:
        n = int(n)
        expected = ref.logsine(n)
        _approx(problems, ref, f"I_{n}", [float(value), float(err)], expected, tol)
        # the exact decomposition, evaluated here, must reproduce I_n
        lc = Fraction(sym["log2_coeff"])
        total = c.mpf(lc.numerator) / lc.denominator * c.pi ** sym["pi_power_log2"] * c.log(2)
        for term in sym["zeta_terms"]:
            q = Fraction(term["coeff"])
            total += c.mpf(q.numerator) / q.denominator * c.pi ** term["pi_power"] * ref.zeta(term["arg"])
        if sym["n"] != n or not abs(total - expected) <= c.mpf(10) ** (-40) * (1 + abs(expected)):
            problems.append(f"I_{n} symbolic form is wrong")


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_cli(ref: Reference, argv: list[str], returncode: int, stdout: bytes) -> list[str]:
    """One ``python -m logsine`` invocation: exit 0 and every line right."""
    label = " ".join(argv)
    if returncode != 0:
        return [f"{label}: exit {returncode}"]
    command, fmt = argv[0], _option(argv, "--format")
    n_max, tol = int(_option(argv, "--n-max")), float(_option(argv, "--tolerance"))
    problems: list[str] = []
    try:
        text = stdout.decode("utf-8")
        if command == "bernoulli":
            _check_bernoulli(ref, fmt, text, n_max, problems)
        elif command == "zeta":
            _check_zeta(ref, fmt, text, n_max, tol, problems)
        elif command == "logsine":
            _check_logsine(ref, fmt, text, n_max, tol, problems)
        else:
            _check_verify(ref, fmt, text, n_max, _option(argv, "--suite"), problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return [f"{label}: {p}" for p in problems]
