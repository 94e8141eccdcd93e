import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsine import zeta_engine
from logsine._precision import certify, prec_for
from logsine.contour_verifier import verify_null, verify_real_part
from logsine.errors import CertificationError
from logsine.exact_core import bernoulli_table
from logsine.logsine_closed_form import logsine_numeric
from logsine.zeta_engine import (
    RealApprox,
    zeta_even_exact,
    zeta_numeric,
)

# 40-digit reference values, rounded once to double
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595942
ZETA5 = 1.03692775514337


class TestRealApprox:
    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            RealApprox(1.0, -1e-3)
        with pytest.raises(ValueError):
            RealApprox(1.0, math.inf)


class TestZetaEvenExact:
    @pytest.mark.parametrize(
        "k,coeff",
        [
            (1, Fraction(1, 6)),
            (2, Fraction(1, 90)),
            (3, Fraction(1, 945)),
            (4, Fraction(1, 9450)),
            (5, Fraction(1, 93555)),
        ],
    )
    def test_known_coefficients(self, k, coeff, table_202):
        ev = zeta_even_exact(k, table_202)
        assert ev.coefficient == coeff
        assert ev.pi_power == 2 * k

    def test_coefficients_positive(self, table_202):
        for k in range(1, 40):
            assert zeta_even_exact(k, table_202).coefficient > 0

    def test_rejects_bad_k(self, table_202):
        with pytest.raises(ValueError):
            zeta_even_exact(0, table_202)

    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            zeta_even_exact(5, bernoulli_table(8))


class TestZetaNumeric:
    @pytest.mark.parametrize(
        "s,expected", [(2, ZETA2), (3, ZETA3), (5, ZETA5)]
    )
    def test_reference_values(self, s, expected):
        approx = zeta_numeric(s, 1e-12)
        assert approx.abs_error <= 1e-12
        assert abs(approx.value - expected) <= approx.abs_error + 1e-15

    def test_strictly_decreasing(self):
        values = [zeta_numeric(s, 1e-12).value for s in range(2, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_s_below_two(self):
        with pytest.raises(ValueError):
            zeta_numeric(1, 1e-10)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            zeta_numeric(2.5, 1e-10)
        with pytest.raises(ValueError):
            zeta_numeric(True, 1e-10)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            zeta_numeric(2, 0.0)

    def test_unreachable_tolerance_fails(self):
        with pytest.raises(CertificationError):
            zeta_numeric(2, 1e-30)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 12), st.integers(1, 5000))
    def test_partial_sums_stay_below(self, s, terms):
        approx = zeta_numeric(s, 1e-12)
        partial = math.fsum(l ** (-s) for l in range(1, terms + 1))
        assert partial <= approx.value + approx.abs_error


def test_euler_connection_numerically(table_202):
    # series evaluation against the exact coefficient times pi-power
    for k in range(1, 11):
        coeff = zeta_even_exact(k, table_202).coefficient
        approx = zeta_numeric(2 * k, 1e-12)
        assert abs(approx.value - float(coeff) * math.pi ** (2 * k)) <= 1e-12


class TestZetaTable:
    def test_repeated_call_sums_no_new_series(self, cold_caches, monkeypatch):
        calls = []
        series = zeta_engine._euler_maclaurin

        def counting(*args, **kwargs):
            calls.append(args)
            return series(*args, **kwargs)

        monkeypatch.setattr(zeta_engine, "_euler_maclaurin", counting)
        first = logsine_numeric(9, 1e-10)
        assert [args[0] for args in calls] == [3, 5, 7, 9]
        assert logsine_numeric(9, 1e-10) == first
        assert len(calls) == 4

    def test_entry_is_the_global_context_sum_at_its_precision(self, cold_caches):
        # zeta_numeric works at 30 digits for the first target, 25 for the second
        for tol in (1e-15, 1e-5, 1e-15, 1e-5):
            prec = prec_for(tol, extra_digits=15, min_dps=25)
            approx = zeta_numeric(3, tol)
            entry = zeta_engine._zeta_fixed(3, prec)
            assert entry == zeta_engine._euler_maclaurin(3, prec)
            assert approx == certify(*entry, prec)

    def test_results_independent_of_call_order(self, cold_caches):
        def outcome(fn, n, tol):
            try:
                return fn(n, tol)
            except CertificationError as exc:  # verify_real_part(12, tol < 1e-9)
                return str(exc)

        def run(tol, order):
            return {
                n: [outcome(fn, n, tol) for fn in (logsine_numeric, verify_null, verify_real_part)]
                for n in order
            }

        cold = run(1e-10, range(13))
        cold_caches()
        for tol in (1e-7, 3e-9, 2e-10):
            run(tol, range(13))
        warm = run(1e-10, reversed(range(13)))
        assert warm == cold
