"""The term sums of the closed form and the legs, and the working precision,
are kept by key: a warm table answers another tolerance at the same
precision with no kernel call and the same result, and every tolerance is
still checked before any table is read."""

import math
from fractions import Fraction

import pytest

from logsine import _precision, contour_verifier, logsine_closed_form, zeta_engine
from logsine._precision import prec_for
from logsine.contour_verifier import leg_H, leg_L, leg_R, verify_real_part
from logsine.errors import CertificationError
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import QuadratureSettings
from logsine.zeta_engine import _term_prec, zeta_numeric

# two tolerances that share the term sums' working precision
T1, T2 = 2e-9, 1e-9

CALLS = {
    "logsine_numeric": lambda n, tol: logsine_numeric(n, tol),
    "leg_R": lambda n, tol: leg_R(n, tol),
    "leg_L": lambda n, tol: leg_L(n, tol),
    "leg_H": lambda n, tol: leg_H(n, QuadratureSettings(tol)),
    "verify_real_part": lambda n, tol: verify_real_part(n, tol),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """The arguments of every ``_fixed_term`` call the closed form and the
    legs make, recorded as the test runs."""
    calls = []
    for module in (logsine_closed_form, contour_verifier):
        kernel = module._fixed_term

        def counting(*args, kernel=kernel):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(module, "_fixed_term", counting)
    return calls


@pytest.mark.parametrize("name", list(CALLS))
def test_warm_tables_answer_another_tolerance_without_the_kernel(
    name, cold_caches, kernel_calls
):
    assert T1 != T2 and _term_prec(T1) == _term_prec(T2)
    call = CALLS[name]
    for n in range(13):
        for warm in CALLS.values():
            warm(n, T1)
    assert kernel_calls
    kernel_calls.clear()
    warm_results = [call(n, T2) for n in range(13)]
    assert kernel_calls == []
    cold_caches()
    for n in range(13):
        assert warm_results[n] == call(n, T2), n
    assert kernel_calls  # the cold calls ran the kernel


@pytest.mark.parametrize("n", range(13))
def test_leg_r_reads_its_odd_summands_from_the_closed_form(n, cold_caches, kernel_calls):
    # once the closed form is built, a cold leg R runs the kernel for its
    # even k and for k = n, which leg L cancels, alone: every other odd k
    # is the closed form's summand
    logsine_numeric(n, T1)
    kernel_calls.clear()
    leg_R(n, T1)
    assert [n - m for _, _, m, _, _ in kernel_calls] == [
        k for k in range(n + 1) if k % 2 == 0 or k == n
    ]


@pytest.mark.parametrize("n", range(13))
def test_cold_legs_build_only_their_own_terms(n, cold_caches, kernel_calls):
    # a cold leg R builds the closed form's zeta terms, pi^(n-k) for odd
    # k < n, but not its log-2 term, pi^(n+1); a cold leg H builds that
    # log-2 term and Im(H_n) and no zeta value
    leg_R(n, T1)
    assert sorted(m for _, _, m, _, _ in kernel_calls) == list(range(n + 1))
    cold_caches()
    kernel_calls.clear()
    leg_H(n, QuadratureSettings(T1))
    assert [m for _, _, m, _, _ in kernel_calls] == [n + 1, n + 2]
    assert zeta_engine._ZETA_TABLE == {}


def test_verify_real_part_takes_its_terms_at_one_precision(cold_caches):
    # H's log-2 term was taken at tol's precision and L, R and the closed
    # form at tol/4's, two precisions where those differ, as at 3e-9
    assert _term_prec(3e-9) != _term_prec(3e-9 / 4)
    for n in range(13):
        verify_real_part(n, 3e-9)
    prec = _term_prec(3e-9 / 4)
    assert sorted(logsine_closed_form._LOG2_TERM) == [(n, prec) for n in range(13)]


def test_kept_sum_still_checks_the_target(cold_caches):
    # the sums for n = 13 are kept from a met target; an unmet one at the
    # same precision raises with the message a cold call gives
    assert _term_prec(2e-10) == _term_prec(1e-10)
    logsine_numeric(13, 2e-10)
    leg_R(13, 2e-10)
    closed = r"^I_13 certified to 1\.164e-10, target 1\.000e-10$"
    with pytest.raises(CertificationError, match=closed):
        logsine_numeric(13, 1e-10)
    right = r"^leg R\(n=13\) certified to 1\.746e-10 > 1\.000e-10$"
    with pytest.raises(CertificationError, match=right):
        leg_R(13, 1e-10)


# an unhashable list, a bool equal to a warm 1.0, a nan and a string each
# raise the tolerance check's ValueError, not a table's TypeError or entry
@pytest.mark.parametrize(
    "value", [[1e-8], True, math.nan, "1e-8"], ids=["list", "bool", "nan", "str"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: prec_for(tol, 25, 30),
        lambda tol: logsine_numeric(3, tol),
        lambda tol: zeta_numeric(3, tol),
        lambda tol: leg_L(3, tol),
        lambda tol: leg_R(3, tol),
        lambda tol: leg_H(3, QuadratureSettings(tol)),
    ],
    ids=["prec_for", "logsine_numeric", "zeta_numeric", "leg_L", "leg_R", "leg_H"],
)
def test_invalid_tolerance_raises_with_warm_tables(call, value, cold_caches):
    for tol in (1e-8, 1.0):
        call(tol)
    with pytest.raises(ValueError, match="must be positive and finite"):
        call(value)


@pytest.mark.parametrize(
    "first, second",
    [(1, 1.0), (1.0, 1), (Fraction(1, 2), 0.5), (0.5, Fraction(1, 2))],
    ids=["int-float", "float-int", "Fraction-float", "float-Fraction"],
)
def test_equal_targets_have_one_precision(first, second, cold_caches):
    warm = [prec_for(first, 25, 30), prec_for(second, 25, 30)]
    cold = []
    for target in (first, second):
        cold_caches()
        cold.append(prec_for(target, 25, 30))
    assert warm == cold and cold[0] == cold[1]


def test_unhashable_real_target_is_worked_out_afresh(cold_caches):
    class Target(float):  # a float whose __eq__ leaves it without a hash
        def __eq__(self, other):
            return float(self) == other

    assert Target.__hash__ is None
    assert prec_for(Target(1e-9), 25, 30) == prec_for(1e-9, 25, 30)
    assert list(_precision._PREC_FOR) == [(1e-9, 25, 30)]
