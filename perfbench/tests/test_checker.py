"""The output checker: it accepts the library's outputs and rejects a
deliberately wrong value from a fake callee."""

import dataclasses
import types

import logsine
import logsine.cli
import worker
from reference import Reference, check_call, check_cli, check_exact, check_sweep

REF = Reference()


def _fake(**overrides):
    """The package with some public functions replaced."""
    names = {name: getattr(logsine, name) for name in logsine.__all__}
    names["cli"] = logsine.cli
    return types.SimpleNamespace(**{**names, **overrides})


def _off_by(fn, delta):
    def wrong(*args, **kwargs):
        r = fn(*args, **kwargs)
        return dataclasses.replace(r, value=r.value + delta)

    return wrong


def test_reference_closed_forms_match_quadrature():
    c = REF.ctx
    for n in range(4):
        quad = c.quad(lambda x: x**n * c.log(c.sin(x)), [0, c.pi / 2, c.pi])
        assert abs(quad - REF.logsine(n)) < c.mpf(10) ** -30
        vert = c.quad(lambda y: y**n * c.log(1 - c.exp(-2 * y)), [0, 1, c.inf])
        assert abs(vert - REF.vertical_leg(n)) < c.mpf(10) ** -30


def test_scattered_checker_flags_wrong_value():
    for fn in ("zeta_numeric", "logsine_numeric"):
        call = {"fn": fn, "n": 6, "tol": 1e-9}
        assert check_call(REF, call, worker.scattered_call(logsine, call)) == []
        fake = _fake(**{fn: _off_by(getattr(logsine, fn), 1e-7)})
        assert check_call(REF, call, worker.scattered_call(fake, call))


def test_scattered_checker_flags_raised_error():
    def refuse(*args):
        raise logsine.CertificationError("no")

    call = {"fn": "leg_R", "n": 3, "tol": 1e-9}
    assert check_call(REF, call, worker.scattered_call(_fake(leg_R=refuse), call))


def test_sweep_checker_flags_wrong_value():
    op = {"tol": 1e-7}
    assert check_sweep(REF, op["tol"], worker.sweep_pass(logsine, op)) == []
    fake = _fake(integrate_logsine=_off_by(logsine.integrate_logsine, 1e-5))
    assert check_sweep(REF, op["tol"], worker.sweep_pass(fake, op))


def test_exact_checker_flags_wrong_table_entry():
    op = {"N": 210}
    assert check_exact(REF, op["N"], worker.exact_op(logsine, op)) == []

    def table(size):
        t = logsine.bernoulli_table(size)
        values = list(t.values)
        values[12] += 1
        return dataclasses.replace(t, values=tuple(values))

    assert check_exact(REF, op["N"], worker.exact_op(_fake(bernoulli_table=table), op))


def test_cli_checker_flags_wrong_output():
    for argv, old, new in (
        (["zeta", "--n-max", "8", "--tolerance", "1e-9", "--format", "csv"], b"1.64", b"1.65"),
        (["logsine", "--n-max", "6", "--tolerance", "1e-8", "--format", "plain"], b"-2.1", b"-2.2"),
        (["bernoulli", "--n-max", "12", "--tolerance", "1e-8", "--format", "json"], b"1/6", b"1/7"),
        (["verify", "--suite", "all", "--n-max", "4", "--tolerance", "1e-8", "--format", "json"], b"true", b"false"),
        (["verify", "--suite", "fourier", "--n-max", "3", "--tolerance", "1e-8", "--format", "plain"], b"n=3\n", b"n=2\n"),
    ):
        run = worker.cli_in_process(logsine.cli, {"argv": argv})
        out = run["stdout"].encode()
        assert check_cli(REF, argv, run["code"], out) == []
        assert check_cli(REF, argv, 1, out)
        assert old in out
        assert check_cli(REF, argv, 0, out.replace(old, new, 1))
