import math
from fractions import Fraction

import pytest

from logsine.errors import CertificationError
from logsine.logsine_closed_form import (
    logsine_numeric,
    logsine_symbolic,
    symbolic_to_json,
)

# 40-digit reference values, rounded once to double
I0 = -2.177586090303602  # -pi log 2
I1 = -3.420544231928558  # -(pi^2/2) log 2
I2 = -9.052157654952007  # -(pi^3/3) log 2 - (pi/2) zeta(3)
I5 = -219.05037245033674
I12 = -458180.4469787219


class TestSymbolic:
    def test_n0_pure_log2(self):
        sym = logsine_symbolic(0)
        assert sym.log2_coefficient == Fraction(-1)
        assert sym.zeta_terms == ()

    def test_n1_pure_log2(self):
        sym = logsine_symbolic(1)
        assert sym.log2_coefficient == Fraction(-1, 2)
        assert sym.zeta_terms == ()

    def test_n2_single_zeta3(self):
        sym = logsine_symbolic(2)
        assert sym.log2_coefficient == Fraction(-1, 3)
        assert sym.zeta_terms == ((3, Fraction(-1, 2)),)
        assert sym.pi_power(3) == 1

    def test_n4_two_terms(self):
        sym = logsine_symbolic(4)
        assert dict(sym.zeta_terms) == {3: Fraction(-1), 5: Fraction(3, 2)}

    def test_n5_two_terms(self):
        sym = logsine_symbolic(5)
        assert dict(sym.zeta_terms) == {3: Fraction(-5, 4), 5: Fraction(15, 4)}

    def test_log2_coefficient_sweep(self):
        for n in range(13):
            assert logsine_symbolic(n).log2_coefficient == Fraction(-1, n + 1)

    def test_term_count_and_parity_growth(self):
        # one extra zeta term appears exactly when n steps onto an even value
        for n in range(13):
            assert len(logsine_symbolic(n).zeta_terms) == n // 2
        for n in range(1, 13):
            growth = len(logsine_symbolic(n).zeta_terms) - len(
                logsine_symbolic(n - 1).zeta_terms
            )
            assert growth == (1 if n % 2 == 0 else 0)

    def test_arguments_increasing(self):
        args = [arg for arg, _ in logsine_symbolic(12).zeta_terms]
        assert args == sorted(args) == [3, 5, 7, 9, 11, 13]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            logsine_symbolic(-1)

    def test_cache_keeps_rejecting_bool(self):
        # True == 1 and hashes alike: an untyped cache would answer it with I_1
        assert logsine_symbolic(1) is logsine_symbolic(1)
        with pytest.raises(ValueError):
            logsine_symbolic(True)


class TestNumeric:
    @pytest.mark.parametrize(
        "n,expected", [(0, I0), (1, I1), (2, I2), (5, I5), (12, I12)]
    )
    def test_reference_values(self, n, expected):
        approx = logsine_numeric(n, 1e-10)
        assert approx.abs_error <= 1e-10
        # reference is exact to half an ulp, so allow ulp-scale slack on top
        assert abs(approx.value - expected) <= approx.abs_error + 4 * math.ulp(abs(expected))

    def test_n0_closed_constant(self):
        approx = logsine_numeric(0, 1e-12)
        assert abs(approx.value - (-math.pi * math.log(2))) <= 1e-12

    def test_error_within_target_across_n(self):
        for n in range(13):
            assert logsine_numeric(n, 1e-10).abs_error <= 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            logsine_numeric(-1, 1e-10)
        with pytest.raises(ValueError):
            logsine_numeric(2, 0.0)

    def test_unreachable_tolerance_fails(self):
        with pytest.raises(CertificationError):
            logsine_numeric(0, 1e-30)


class TestJson:
    def test_schema_n2(self):
        assert symbolic_to_json(logsine_symbolic(2)) == {
            "n": 2,
            "log2_coeff": "-1/3",
            "pi_power_log2": 3,
            "zeta_terms": [{"arg": 3, "coeff": "-1/2", "pi_power": 1}],
        }

    def test_schema_n0_empty_terms(self):
        assert symbolic_to_json(logsine_symbolic(0)) == {
            "n": 0,
            "log2_coeff": "-1",
            "pi_power_log2": 1,
            "zeta_terms": [],
        }

    def test_pi_powers_descend_by_two(self):
        doc = symbolic_to_json(logsine_symbolic(9))
        powers = [t["pi_power"] for t in doc["zeta_terms"]]
        assert powers == [8, 6, 4, 2]
