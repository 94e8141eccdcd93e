import math
from fractions import Fraction

import pytest
from mpmath import mp, workdps

from logsine import _precision
from logsine._precision import RealApprox
from logsine.contour_verifier import (
    _leg,
    _leg_r_term,
    leg_H,
    leg_L,
    leg_R,
    reduction_chain_steps,
    verify_imag_identity_exact,
    verify_null,
    verify_real_part,
    verify_reduction_chain,
)
from logsine.errors import CertificationError
from logsine.exact_core import bernoulli_table, verify_recurrence
from logsine.logsine_closed_form import _log2_term, logsine_numeric, logsine_symbolic
from logsine.quadrature_oracle import QuadratureSettings, integrate_logsine
from logsine.zeta_engine import _term_prec

TOL = 1e-10

# 40-digit reference values, rounded once to double
PI2_OVER_12 = 0.8224670334241132
PI3_OVER_12 = 2.583856390024985
PI4_OVER_360 = 0.27058080842778454
ZETA3_OVER_4 = 0.30051422578989856


def _close(approx, expected):
    return abs(approx.value - expected) <= approx.abs_error + 4 * math.ulp(
        abs(expected) or 1.0
    )


class TestLegL:
    def test_n0_positive_imaginary(self):
        leg = leg_L(0, TOL)
        assert leg.re.value == 0.0
        assert _close(leg.im, PI2_OVER_12)

    def test_n1_negative_real(self):
        leg = leg_L(1, TOL)
        assert _close(leg.re, -ZETA3_OVER_4)
        assert leg.im.value == 0.0

    def test_n2_negative_imaginary(self):
        leg = leg_L(2, TOL)
        assert leg.re.value == 0.0
        assert _close(leg.im, -PI4_OVER_360)

    def test_single_nonzero_component(self):
        for n in range(10):
            leg = leg_L(n, TOL)
            assert (leg.re.value == 0.0) != (leg.im.value == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            leg_L(-1, TOL)
        with pytest.raises(ValueError):
            leg_L(0, 0.0)


class TestLegR:
    def test_n0_negates_leg_l(self):
        r = leg_R(0, TOL)
        assert r.re == RealApprox(0.0, 0.0)  # an exact zero, radius 0
        assert _close(r.im, -PI2_OVER_12)

    def test_n1_expansion(self):
        # -i [ pi (1/2) zeta(2) + i (1/4) zeta(3) ] = (zeta(3)/4, -pi^3/12)
        r = leg_R(1, TOL)
        assert _close(r.re, ZETA3_OVER_4)
        assert _close(r.im, -PI3_OVER_12)

    def test_absorption_of_highest_power(self):
        # the k = n summand always cancels the left leg
        prec = _term_prec(TOL)
        for n in range(11):
            term = _leg([_leg_r_term(n, n, prec)], prec)
            left = leg_L(n, TOL)
            assert abs(term.re.value + left.re.value) <= (
                term.re.abs_error + left.re.abs_error
            )
            assert abs(term.im.value + left.im.value) <= (
                term.im.abs_error + left.im.abs_error
            )

    def test_term_past_the_double_range_raises_certification_error(self):
        # both components, about 8e481 and 8e523, and their bounds
        # overflow a double; an overflow reached RealApprox as inf, which
        # raised ValueError
        with pytest.raises(CertificationError, match="exceeds the double range"):
            leg_R(300, 1e-10)


class TestLegH:
    def test_n0_vanishes(self):
        h = leg_H(0, QuadratureSettings(target_abs_error=TOL))
        assert abs(h.re.value) <= h.re.abs_error
        # the two imaginary terms cancel at n = 0: an exact zero, radius 0
        assert h.im == RealApprox(0.0, 0.0)

    def test_n1_components(self):
        h = leg_H(1, QuadratureSettings(target_abs_error=TOL))
        assert abs(h.re.value) <= h.re.abs_error  # pi^2 log2 / 2 + I_1 = 0
        assert _close(h.im, PI3_OVER_12)  # pi^3 (1/3 - 1/4)

    @pytest.mark.parametrize("tol", [1e-3, TOL])
    def test_re_adds_the_oracle_exactly(self, tol):
        # Re(H_n) is the log-2 term plus the oracle's double, and the bound
        # their bounds, each summed exactly and rounded once to nearest
        settings = QuadratureSettings(target_abs_error=tol)
        prec = _term_prec(tol)
        unit = Fraction(1, 2 ** (prec + _precision._GUARD))
        for n in range(13):
            oracle = integrate_logsine(n, settings)
            value, bound = _log2_term(n, prec)  # the closed form's, negated
            re = float(-value * unit + Fraction(oracle.value))
            half_ulp = 0.5 * math.ulp(abs(re) if re else 1e-300)
            re_bound = math.nextafter(
                float(bound * unit + Fraction(oracle.abs_error)) + half_ulp, math.inf
            )
            h = leg_H(n, settings)
            assert (h.re.value, h.re.abs_error) == (re, re_bound), n

    def test_im_coefficient_exact_form(self):
        # the two imaginary terms of H_n collapse to the rational leg_H uses
        for n in range(30):
            coeff = Fraction(1, n + 2) - Fraction(1, 2 * (n + 1))
            assert coeff == Fraction(n, 2 * (n + 1) * (n + 2))

    def test_im_matches_exact_coefficient(self):
        for n in (0, 1, 5, 10):
            h = leg_H(n, QuadratureSettings(target_abs_error=TOL))
            with workdps(40):
                coeff = Fraction(n, 2 * (n + 1) * (n + 2))
                expected = float(
                    mp.mpf(coeff.numerator) / coeff.denominator * mp.pi ** (n + 2)
                )
            assert abs(h.im.value - expected) <= h.im.abs_error + 2 * math.ulp(
                abs(expected) or 1.0
            )


class TestVerifyNull:
    def test_sweep_passes(self):
        for n in range(7):
            report = verify_null(n, TOL)
            assert report.passed, (n, report)
            assert report.residual_modulus <= report.certified_bound
            assert report.certified_bound <= 10 * TOL

    def test_n0_exact_cancellation_structure(self):
        report = verify_null(0, TOL)
        assert abs(report.L.im.value + report.R.im.value) <= (
            report.L.im.abs_error + report.R.im.abs_error
        )
        assert abs(report.H.re.value) <= report.H.re.abs_error
        assert report.H.im.value == 0.0

    def test_k_components_are_leg_sums(self):
        report = verify_null(3, TOL)
        assert report.K.re.value == math.fsum(
            [report.L.re.value, report.H.re.value, report.R.re.value]
        )
        assert report.K.im.value == math.fsum(
            [report.L.im.value, report.H.im.value, report.R.im.value]
        )

    def test_unreachable_tolerance_yields_failed_report(self):
        report = verify_null(1, 1e-30)
        assert not report.passed
        assert report.failure

    def test_failed_report_holds_every_field_of_a_failure(self):
        # the envelope's edge at 1e-10: leg R cannot certify n = 13
        report = verify_null(13, TOL)
        legs = (report.L, report.R, report.H, report.K)
        parts = [part for leg in legs for part in (leg.re, leg.im)]
        assert all(math.isnan(part.value) and part.abs_error == 0.0 for part in parts)
        assert report.n == 13 and report.passed is False
        assert report.residual_modulus == math.inf and report.certified_bound == 0.0
        assert report.failure == "leg R(n=13) certified to 1.746e-10 > 1.000e-10"


class TestVerifyRealPart:
    @pytest.mark.parametrize("n,ceiling", [(0, 1e-10), (3, 1e-9), (8, 1e-9)])
    def test_certified_near_zero(self, n, ceiling):
        residual = verify_real_part(n, 1e-10)
        assert abs(residual.value) <= residual.abs_error
        assert residual.abs_error <= ceiling

    def test_tolerance_whose_quarter_underflows_fails_certification(self):
        # tol / 4 rounded to 0.0, which the legs rejected as no tolerance
        with pytest.raises(CertificationError, match="^a quarter of 1e-323 underflows to 0$"):
            verify_real_part(0, 1e-323)


def _real_part_of_legs(n: int) -> dict[tuple[int, int], Fraction]:
    """Re(L_n + R_n) from the paper's formulas, as {(power of pi, zeta
    argument): coefficient}, with i^p resolved by p mod 4 and the zero
    coefficients dropped:

        L_n = i^(n+1) (n!/2^(n+1)) zeta(n+2)
        R_n = -i sum_k C(n,k) pi^(n-k) i^k (k!/2^(k+1)) zeta(k+2)
    """
    re: dict[tuple[int, int], Fraction] = {}
    terms = [(n + 1, Fraction(math.factorial(n), 2 ** (n + 1)), (0, n + 2))]
    for k in range(n + 1):  # -i i^k = i^(k+3)
        coeff = math.comb(n, k) * Fraction(math.factorial(k), 2 ** (k + 1))
        terms.append((k + 3, coeff, (n - k, k + 2)))
    for p, coeff, key in terms:
        if p % 2 == 0:  # i^0 = 1, i^2 = -1; i^1 and i^3 are imaginary
            re[key] = re.get(key, Fraction(0)) + (coeff if p % 4 == 0 else -coeff)
    return {key: c for key, c in re.items() if c}


class TestExactIdentities:
    def test_real_identity_exact(self):
        # the vanishing real part evaluates the sequence: I_n is
        # -Re(L_n + R_n) - pi^(n+1) log 2/(n+1), coefficient by coefficient
        for n in range(1, 201):
            sym = logsine_symbolic(n)
            assert sym.log2_coefficient == Fraction(-1, n + 1), n
            closed = {(sym.pi_power(s), s): coeff for s, coeff in sym.zeta_terms}
            assert len(closed) == n // 2, n
            assert closed == {key: -c for key, c in _real_part_of_legs(n).items()}, n

    def test_imag_identity_hand_cases(self, table_202):
        # n=1: C(1,0) B_2 / 1 = 1/6 and 1/(2*3) = 1/6
        assert verify_imag_identity_exact(1, table_202)
        assert verify_imag_identity_exact(2, table_202)
        assert verify_imag_identity_exact(9, table_202)

    def test_imag_identity_sweep(self, table_202):
        assert all(verify_imag_identity_exact(n, table_202) for n in range(1, 41))

    def test_imag_identity_validation(self, table_202):
        with pytest.raises(ValueError):
            verify_imag_identity_exact(0, table_202)
        with pytest.raises(ValueError):
            verify_imag_identity_exact(30, bernoulli_table(10))

    def test_chain_steps_all_hold(self, table_202):
        for n in (1, 2, 40):
            assert reduction_chain_steps(n, table_202) == {
                "a": True,
                "b": True,
                "c": True,
                "d": True,
            }

    def test_chain_sweep(self, table_202):
        assert all(verify_reduction_chain(n, table_202) for n in range(1, 41))

    def test_chain_final_step_is_sum_rule_at_shifted_index(self, table_202):
        for n in range(1, 41):
            steps = reduction_chain_steps(n, table_202)
            assert steps["d"] == verify_recurrence(n + 2, table_202)

    def test_chain_validation(self, table_202):
        with pytest.raises(ValueError):
            verify_reduction_chain(0, table_202)
        with pytest.raises(ValueError):
            verify_reduction_chain(50, bernoulli_table(20))


@pytest.mark.parametrize("n", [2.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: logsine_numeric(n, TOL),
        logsine_symbolic,
        lambda n: leg_L(n, TOL),
        lambda n: leg_R(n, TOL),
        lambda n: verify_null(n, TOL),
        lambda n: verify_real_part(n, TOL),
    ],
    ids=[
        "logsine_numeric",
        "logsine_symbolic",
        "leg_L",
        "leg_R",
        "verify_null",
        "verify_real_part",
    ],
)
def test_index_must_be_a_nonnegative_integer(call, n):
    # True must not certify as n = 1, nor 2.5 fail with a TypeError deep
    # inside the ladder
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        call(n)
