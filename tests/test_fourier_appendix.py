import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from logsine.fourier_appendix import (
    _parseval_fixed,
    logsin_series_partial,
    logsine_via_fourier,
    parseval_logsquared,
)
from logsine.logsine_closed_form import logsine_symbolic
from logsine.quadrature_oracle import cosine_moment
from logsine.zeta_engine import _term_prec

PI3_OVER_24 = 1.2919281950124926


class TestLogsinSeries:
    def test_single_term_at_pi(self):
        # -cos(pi)/1 = 1
        assert logsin_series_partial(math.pi, 1) == pytest.approx(1.0, abs=1e-15)

    def test_alternating_limit_at_pi(self):
        # target log(2 |sin(pi/2)|) = log 2
        got = logsin_series_partial(math.pi, 10 ** 4)
        assert abs(got - math.log(2)) <= 1e-3

    def test_half_pi(self):
        got = logsin_series_partial(math.pi / 2, 10 ** 4)
        assert abs(got - 0.5 * math.log(2)) <= 1e-3

    @pytest.mark.parametrize(
        "theta", [0.0, 2 * math.pi, -0.5, 7.0, 1e-10, 2 * math.pi - 1e-10]
    )
    def test_lattice_and_range_rejection(self, theta):
        with pytest.raises(ValueError):
            logsin_series_partial(theta, 10)

    @pytest.mark.parametrize("theta", [True, False])
    def test_rejects_bool_angle(self, theta):
        # True ran as the angle 1.0
        with pytest.raises(ValueError, match="not a bool"):
            logsin_series_partial(theta, 10)

    @pytest.mark.parametrize("theta", ["1", b"1", None], ids=["str", "bytes", "None"])
    def test_rejects_non_number_angle(self, theta):
        # each raised a bare TypeError from the range comparison
        with pytest.raises(ValueError, match="must be a number"):
            logsin_series_partial(theta, 10)

    def test_just_inside_guard_is_accepted(self):
        logsin_series_partial(1e-8, 10)

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(ValueError):
            logsin_series_partial(1.0, 0)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(0.05, 2 * math.pi - 0.05),
        st.integers(1, 3000),
    )
    def test_increment_is_next_term(self, theta, terms):
        step = logsin_series_partial(theta, terms + 1) - logsin_series_partial(
            theta, terms
        )
        expected = -math.cos((terms + 1) * theta) / (terms + 1)
        assert abs(step - expected) <= 1e-11


class TestParseval:
    def test_single_term(self):
        assert parseval_logsquared(1) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_limit(self):
        assert abs(parseval_logsquared(10 ** 6) - PI3_OVER_24) <= 1e-6

    def test_strictly_increasing_bounded(self):
        ladder = [parseval_logsquared(n) for n in (1, 2, 5, 10, 100, 1000, 10 ** 4)]
        assert all(a < b for a, b in zip(ladder, ladder[1:]))
        assert all(v < PI3_OVER_24 + 1e-12 for v in ladder)

    def test_tail_scale(self):
        # tail after N terms is below (pi/4)/N
        n = 1000
        assert PI3_OVER_24 - parseval_logsquared(n) <= math.pi / 4 / n

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(ValueError):
            parseval_logsquared(0)


class TestParsevalEnclosure:
    """``_parseval_fixed``'s value lies within its bound of the true
    partial sum (pi/4) sum_{l<=N} 1/l^2, in units of 2^-(prec + 16)."""

    PREC = _term_prec(1e-6)

    def _assert_encloses(self, terms, truth):
        value, bound = _parseval_fixed(terms, self.PREC)
        assert abs(value - truth * 2 ** (self.PREC + 16)) <= bound

    @pytest.mark.parametrize("terms", range(1, 31))
    def test_small_n_against_exact_partial_sum(self, terms):
        partial = sum(Fraction(1, l * l) for l in range(1, terms + 1))
        with workdps(60):
            self._assert_encloses(terms, mp.pi / 4 * partial.numerator / partial.denominator)

    @pytest.mark.parametrize("terms", [10 ** 3, 785397, 10 ** 6, 10 ** 9])
    def test_large_n_against_hurwitz_tail(self, terms):
        with workdps(60):
            self._assert_encloses(terms, mp.pi / 4 * (mp.zeta(2) - mp.zeta(2, terms + 1)))


class TestRouteEquivalence:
    def test_field_by_field(self):
        for n in range(13):
            assert logsine_via_fourier(n) == logsine_symbolic(n)

    def test_n2_structure(self):
        sym = logsine_via_fourier(2)
        assert sym.zeta_terms == logsine_symbolic(2).zeta_terms
        assert len(sym.zeta_terms) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            logsine_via_fourier(-1)

    @pytest.mark.parametrize("n", [4, 7])
    def test_terminal_moments_certified_zero(self, n):
        # the cadence discards its per-l terminal term; the oracle confirms
        # that term's integral vanishes at the parity-matching power
        power = 0 if n % 2 == 0 else 1
        for l in (1, 2, 3, 4):
            approx = cosine_moment(l, power)
            assert abs(approx.value) <= approx.abs_error <= 1e-12
