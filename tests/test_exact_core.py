import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsine.contour_verifier import reduction_chain_steps, verify_imag_identity_exact
from logsine.exact_core import (
    bernoulli_table,
    verify_binomial_identity,
    verify_recurrence,
)
from logsine.fourier_appendix import (
    logsin_series_partial,
    parseval_logsquared,
    sawtooth_series_partial,
)
from logsine.quadrature_oracle import (
    cosine_moment,
    default_semi_infinite_cutoff_policy,
    vertical_tail_bound,
)
from logsine.zeta_engine import zeta_even_exact, zeta_numeric, zeta_series_partial


@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        bernoulli_table,
        lambda k: zeta_even_exact(k, bernoulli_table(8)),
        lambda s: zeta_numeric(s, 1e-10),
        lambda terms: zeta_series_partial(2.0, terms),
        parseval_logsquared,
        lambda terms: logsin_series_partial(1.0, terms),
        lambda terms: sawtooth_series_partial(1.0, terms),
        lambda n: vertical_tail_bound(n, 20.0),
        lambda n: default_semi_infinite_cutoff_policy(n, 1e-10),
    ],
    ids=[
        "bernoulli_table",
        "zeta_even_exact",
        "zeta_numeric",
        "zeta_series_partial",
        "parseval_logsquared",
        "logsin_series_partial",
        "sawtooth_series_partial",
        "vertical_tail_bound",
        "cutoff_policy",
    ],
)
def test_index_and_term_count_must_be_integers(call, value):
    with pytest.raises(ValueError):
        call(value)


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
