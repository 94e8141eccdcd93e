import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsine._precision import prec_for
from logsine.errors import CertificationError, _require_positive
from logsine.contour_verifier import (
    leg_H,
    leg_L,
    leg_R,
    reduction_chain_steps,
    verify_imag_identity_exact,
    verify_null,
    verify_real_part,
)
from logsine.exact_core import (
    bernoulli_table,
    verify_binomial_identity,
    verify_recurrence,
)
from logsine.fourier_appendix import (
    logsin_series_partial,
    parseval_logsquared,
)
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import (
    QuadratureSettings,
    cosine_moment,
    cosine_orthogonality,
    default_semi_infinite_cutoff_policy,
    integrate_logsine,
    integrate_logsquared,
    integrate_vertical_leg,
    vertical_tail_bound,
)
from logsine.zeta_engine import zeta_even_exact, zeta_numeric


@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        bernoulli_table,
        lambda k: zeta_even_exact(k, bernoulli_table(8)),
        lambda s: zeta_numeric(s, 1e-10),
        parseval_logsquared,
        lambda terms: logsin_series_partial(1.0, terms),
        lambda n: vertical_tail_bound(n, 20.0),
        lambda n: default_semi_infinite_cutoff_policy(n, 1e-10),
    ],
    ids=[
        "bernoulli_table",
        "zeta_even_exact",
        "zeta_numeric",
        "parseval_logsquared",
        "logsin_series_partial",
        "vertical_tail_bound",
        "cutoff_policy",
    ],
)
def test_index_and_term_count_must_be_integers(call, value):
    with pytest.raises(ValueError):
        call(value)


# a bool tolerance ran as 1.0, a string or None raised TypeError, and a
# Fraction below the least double died in math.log10; every tolerance
# passes one check
@pytest.mark.parametrize(
    "value",
    [True, 0.0, -1.0, math.nan, math.inf, "1e-8", None, Fraction(1, 10**400)],
    ids=["bool", "zero", "negative", "nan", "inf", "1e-8", "None", "tiny-Fraction"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: prec_for(tol, 25, 30),
        QuadratureSettings,
        lambda tol: logsine_numeric(3, tol),
        lambda tol: zeta_numeric(3, tol),
        lambda tol: leg_L(3, tol),
        lambda tol: leg_R(3, tol),
        lambda tol: verify_null(3, tol),
        lambda tol: verify_real_part(3, tol),
        lambda tol: default_semi_infinite_cutoff_policy(2, tol),
        lambda cutoff: vertical_tail_bound(2, cutoff),
    ],
    ids=[
        "prec_for",
        "QuadratureSettings",
        "logsine_numeric",
        "zeta_numeric",
        "leg_L",
        "leg_R",
        "verify_null",
        "verify_real_part",
        "cutoff_policy",
        "vertical_tail_bound",
    ],
)
def test_tolerance_must_be_positive_and_finite(call, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        call(value)


class _Unhashable(float):
    """A real whose ``__eq__`` leaves it without a hash."""

    def __eq__(self, other):
        return float(self) == other


# the one check a tolerance passes returns the largest double at most it,
# and the largest double for a value past it
@pytest.mark.parametrize(
    "value",
    [1e-8, 1, Fraction(1, 3), Fraction(1, 10), 2**53 + 1, 10**400, _Unhashable(1e-8)],
    ids=["float", "int", "third", "tenth", "2**53+1", "10**400", "unhashable"],
)
def test_a_tolerance_is_checked_into_the_largest_double_at_most_it(value):
    double = _require_positive(value, "tol")
    assert type(double) is float
    assert double <= value
    assert math.nextafter(double, math.inf) > value or double == sys.float_info.max


# a tolerance past the largest double, an int such as 10**400, raised a bare
# OverflowError where a routine quartered or halved it, and an unhashable
# real raised TypeError from the quadrature's result cache; each certifies
# as the largest double at most it does.  logsine_numeric, zeta_numeric,
# leg_L and leg_R never divide a tolerance, and returned already.
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: leg_H(3, QuadratureSettings(tol)),
        lambda tol: verify_null(3, tol),
        lambda tol: verify_real_part(3, tol),
        lambda tol: integrate_logsine(3, QuadratureSettings(tol)),
        lambda tol: integrate_logsquared(QuadratureSettings(tol)),
        lambda tol: integrate_vertical_leg(3, QuadratureSettings(tol)),
        lambda tol: cosine_moment(1, 1, QuadratureSettings(tol)),
        lambda tol: cosine_orthogonality(1, 2, QuadratureSettings(tol)),
        lambda tol: default_semi_infinite_cutoff_policy(3, tol),
    ],
    ids=[
        "leg_H",
        "verify_null",
        "verify_real_part",
        "integrate_logsine",
        "integrate_logsquared",
        "integrate_vertical_leg",
        "cosine_moment",
        "cosine_orthogonality",
        "cutoff_policy",
    ],
)
def test_tolerance_past_the_double_range_certifies(call):
    pairs = [
        (10**400, sys.float_info.max),
        (_Unhashable(1e-8), 1e-8),
        (Fraction(1, 3 * 10**8), 3.333333333333333e-09),  # the double below it
    ]
    for given, double in pairs:
        assert call(given) == call(double), given


# a Fraction tolerance certifies like a float; one that cannot be met
# raised TypeError from formatting it into the error's message
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tol: logsine_numeric(13, tol), "I_13 certified to 1.164e-10, target 1.000e-10"),
        (
            lambda tol: zeta_numeric(2, tol / 10**20),
            "zeta(2) certified to 1.110e-16, target 1.000e-30",
        ),
        (
            lambda tol: integrate_logsine(13, QuadratureSettings(tol)),
            "quadrature certified to 1.164e-10, target 1.000e-10",
        ),
    ],
    ids=["logsine_numeric", "zeta_numeric", "integrate_logsine"],
)
def test_unmet_fraction_tolerance_raises_certification_error(call, message):
    with pytest.raises(CertificationError) as raised:
        call(Fraction(1, 10**10))
    assert str(raised.value) == message


def test_unmet_fraction_tolerance_fails_the_report():
    report = verify_null(13, Fraction(1, 10**10))
    assert not report.passed
    assert report.failure == "leg R(n=13) certified to 1.746e-10 > 1.000e-10"


# every routine that reads a Bernoulli table asks it for the index it needs
@pytest.mark.parametrize(
    "call, need",
    [
        (lambda table: verify_recurrence(10, table), 9),
        (lambda table: zeta_even_exact(3, table), 6),
        (lambda table: verify_imag_identity_exact(5, table), 6),
        (lambda table: reduction_chain_steps(5, table), 6),
    ],
    ids=["recurrence", "zeta_even_exact", "imag_identity", "reduction_chain"],
)
def test_short_table_names_the_index_it_lacks(call, need):
    with pytest.raises(ValueError, match=rf"^table holds B_0\.\.B_4, need B_{need}$"):
        call(bernoulli_table(4))


# the table's cache once keyed max_index=2.0 and max_index=True as the
# integer keyword calls made before them, and returned their tables
@pytest.mark.parametrize("warm, value", [(2, 2.0), (1, True)], ids=["integral-float", "bool"])
def test_bernoulli_table_checks_keyword_calls_after_a_warm_call(warm, value):
    bernoulli_table(max_index=warm)
    with pytest.raises(ValueError):
        bernoulli_table(max_index=value)


# each call returned a result, or raised TypeError, for a bool or a float
@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_binomial_identity(True, 0),
        lambda: verify_binomial_identity(3.0, 1),
        lambda: verify_binomial_identity(2, True),
        lambda: verify_recurrence(3.0, bernoulli_table(4)),
        lambda: verify_imag_identity_exact(True, bernoulli_table(4)),
        lambda: verify_imag_identity_exact(3.0, bernoulli_table(4)),
        lambda: reduction_chain_steps(2.0, bernoulli_table(4)),
        lambda: reduction_chain_steps(True, bernoulli_table(4)),
        lambda: cosine_moment(1, True),
        lambda: cosine_moment(1, 1.0),
    ],
    ids=[
        "binomial_identity-bool-n",
        "binomial_identity-float-n",
        "binomial_identity-bool-k",
        "recurrence-float",
        "imag_identity-bool",
        "imag_identity-float",
        "reduction_chain-float",
        "reduction_chain-bool",
        "cosine_moment-bool-power",
        "cosine_moment-float-power",
    ],
)
def test_exact_checks_and_power_must_be_integers(call):
    with pytest.raises(ValueError):
        call()


class TestBernoulliTable:
    def test_first_two(self):
        table = bernoulli_table(1)
        assert table.values == (Fraction(1), Fraction(-1, 2))

    def test_hand_solved_values(self):
        table = bernoulli_table(12)
        assert table[2] == Fraction(1, 6)
        assert table[3] == 0
        assert table[4] == Fraction(-1, 30)
        assert table[6] == Fraction(1, 42)
        assert table[10] == Fraction(5, 66)
        assert table[12] == Fraction(-691, 2730)

    def test_odd_indices_vanish(self, table_202):
        for l in range(1, 101):
            assert table_202[2 * l + 1] == 0

    def test_even_sign_alternation(self, table_202):
        # B_{4m+2} > 0 and B_{4m} < 0 for m >= 1
        for m in range(1, 51):
            assert table_202[4 * m + 2] > 0
            assert table_202[4 * m] < 0

    def test_pure_function_of_max_index(self):
        assert bernoulli_table(40) == bernoulli_table(40)
        assert bernoulli_table(40).values[:31] == bernoulli_table(30).values

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            bernoulli_table(-1)

    def test_getitem_bounds(self):
        table = bernoulli_table(4)
        with pytest.raises(IndexError):
            table[5]
        assert len(table) == 5
        assert list(table) == list(table.values)  # iteration stops at IndexError

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_getitem_rejects_a_non_int_index(self, index):
        # a bool is an int to Python, so True would read B_1 = -1/2
        with pytest.raises(TypeError, match="^Bernoulli index must be an int"):
            bernoulli_table(10)[index]


def _sum_rule_solver(max_index: int) -> tuple[Fraction, ...]:
    """B_0..B_max_index by solving the sum rule for each new index, an
    independent reference for the tangent-number generator."""
    values = [Fraction(1)]
    for m in range(1, max_index + 1):
        acc = sum(math.comb(m + 1, k) * values[k] for k in range(m))
        values.append(-acc / (m + 1))
    return tuple(values)


class TestTangentGenerator:
    def test_matches_sum_rule_solver(self):
        solved = _sum_rule_solver(200)
        for n in [*range(41), 199, 200]:
            assert bernoulli_table(n).values == solved[: n + 1], n

    def test_matches_sympy(self, table_202):
        sympy = pytest.importorskip("sympy")
        for k in range(203):
            if k == 1:
                continue  # sympy uses B_1 = +1/2
            expected = sympy.bernoulli(k)
            assert table_202[k] == Fraction(int(expected.p), int(expected.q)), k


class TestRecurrence:
    def test_forced_by_first_two(self):
        assert verify_recurrence(2, bernoulli_table(1))

    def test_small_cases(self, table_202):
        assert verify_recurrence(3, table_202)
        assert verify_recurrence(150, table_202)

    def test_rejects_n_below_two(self, table_202):
        with pytest.raises(ValueError):
            verify_recurrence(1, table_202)

    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            verify_recurrence(10, bernoulli_table(5))

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(2, 202))
    def test_holds_at_random_index(self, table_202, n):
        assert verify_recurrence(n, table_202)


class TestBinomialIdentity:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (1, 0)])
    def test_hand_cases(self, n, k):
        assert verify_binomial_identity(n, k)

    def test_rejects_2k_above_n(self):
        with pytest.raises(ValueError):
            verify_binomial_identity(3, 2)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            verify_binomial_identity(0, 0)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 300))
    def test_holds_for_all_admissible_k(self, n):
        assert all(verify_binomial_identity(n, k) for k in range(n // 2 + 1))


def test_recurrence_sum_is_exact_zero(table_202):
    # the check compares exact rationals, so the residual is literally zero
    n = 97
    acc = sum(math.comb(n, k) * table_202[k] for k in range(n))
    assert acc == 0 and isinstance(acc, Fraction)
