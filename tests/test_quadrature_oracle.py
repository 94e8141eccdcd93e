import math
import sys

import pytest
from mpmath import mp, workdps

from logsine import quadrature_oracle
from logsine.contour_verifier import leg_H
from logsine.errors import CertificationError, RefinementExhausted
from logsine.logsine_closed_form import logsine_numeric
from logsine.quadrature_oracle import (
    QuadratureSettings,
    _nodes,
    cosine_moment,
    cosine_orthogonality,
    default_semi_infinite_cutoff_policy,
    integrate_logsine,
    integrate_logsquared,
    integrate_vertical_leg,
    vertical_tail_bound,
)
from logsine.zeta_engine import zeta_numeric

TIGHT = QuadratureSettings(target_abs_error=1e-10)

# 40-digit reference values, rounded once to double
PI3_OVER_24 = 1.2919281950124926
V0 = -0.8224670334241132  # -pi^2/12
V1 = -0.30051422578989856  # -zeta(3)/4
V2 = -0.27058080842778454  # -pi^4/360


class TestSettings:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            QuadratureSettings(target_abs_error=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(target_abs_error=math.inf)

    def test_cutoff_policy_meets_tail_budget(self):
        for n in (0, 3, 8):
            cutoff = default_semi_infinite_cutoff_policy(n, 1e-12)
            assert cutoff >= max(20.0, 5.0 * n)
            assert vertical_tail_bound(n, cutoff) < 1e-12 / 2

    def test_tail_bound_decreases_with_cutoff(self):
        assert vertical_tail_bound(2, 30.0) < vertical_tail_bound(2, 20.0)

    # e^(-2Y) underflows a double at the first and third, and (2Y)^n
    # overflows at the second; the first returned 0.0, the second raised
    # OverflowError
    @pytest.mark.parametrize("n, cutoff", [(102, 510.0), (150, 750.0), (0, 400.0)])
    def test_tail_bound_past_the_double_range_covers_its_formula(self, n, cutoff):
        bound = vertical_tail_bound(n, cutoff)
        with workdps(60):
            # int_Y^inf y^n e^(-2y) dy / (1 - e^(-2Y)), the bound exactly
            y = mp.mpf(2 * cutoff)
            exact = mp.gammainc(n + 1, y) / 2 ** (n + 1) / -mp.expm1(-y)
        assert 0 < exact <= bound
        assert bound <= max(exact * (1 + 1e-12), sys.float_info.min)

    # the first returned nan, and the others raised ZeroDivisionError, when
    # e^(-2Y) was rounded to 53 bits
    @pytest.mark.parametrize("n, cutoff", [(2, 1.05e308), (0, 1e-300), (4, 1e-20)])
    def test_tail_bound_at_extreme_cutoffs_covers_its_formula(self, n, cutoff):
        bound = vertical_tail_bound(n, cutoff)
        with workdps(60):
            y = mp.mpf(2 * cutoff) if cutoff < 1e300 else mp.mpf(cutoff) * 2
            exact = mp.gammainc(n + 1, y) / 2 ** (n + 1) / -mp.expm1(-y)
        assert exact <= bound <= max(exact * (1 + 1e-12), sys.float_info.min)

    # the tolerances of scripts/repr_dump.py; |log(1-u)| <= u/(1-u) has at
    # most about 2e-18 relative to spare at these cutoffs, so a bound
    # rounded to nearest anywhere can fall below the tail
    @pytest.mark.parametrize("tol", [3e-2, 1e-3, 2e-5, 1e-6, 3e-8, 1e-10, 1e-12, 1e-14])
    def test_tail_bound_covers_the_tail_at_every_policy_cutoff(self, tol):
        for n in range(13):
            cutoff = default_semi_infinite_cutoff_policy(n, tol)
            with workdps(80):
                # sum_k int_Y^inf y^n e^(-2ky) dy / k, to k = 8: the rest is
                # under e^(-300) of it, since Y >= 20
                y = mp.mpf(cutoff)
                tail = mp.fsum(
                    mp.gammainc(n + 1, 2 * k * y) / (k * (2 * k) ** (n + 1)) for k in range(1, 9)
                )
            assert tail <= vertical_tail_bound(n, cutoff), (n, cutoff)

    # each returned a bound, nan as a bound, cutoff 20.0 or cutoff 1.05e308
    @pytest.mark.parametrize(
        "call",
        [
            lambda: vertical_tail_bound(-1, 20.0),
            lambda: vertical_tail_bound(2, math.nan),
            lambda: vertical_tail_bound(2, math.inf),
            lambda: default_semi_infinite_cutoff_policy(-1, 1e-10),
            lambda: default_semi_infinite_cutoff_policy(2, math.nan),
            lambda: default_semi_infinite_cutoff_policy(2, -1.0),
        ],
        ids=[
            "tail-negative-n",
            "tail-nan-cutoff",
            "tail-inf-cutoff",
            "policy-negative-n",
            "policy-nan-target",
            "policy-negative-target",
        ],
    )
    def test_tail_bound_and_cutoff_policy_reject_bad_input(self, call):
        with pytest.raises(ValueError):
            call()

    # the tail bound never falls below the smallest normal double: the
    # policy grew the cutoff to inf and raised ValueError
    @pytest.mark.parametrize("target", [1e-310, 5e-324])
    def test_cutoff_policy_below_the_normal_range_raises(self, target):
        with pytest.raises(CertificationError):
            default_semi_infinite_cutoff_policy(3, target)

    def test_tail_bound_past_the_largest_double_raises(self):
        with pytest.raises(CertificationError):
            vertical_tail_bound(200, 20.0)  # about 10^314


class TestLogsine:
    def test_n0_reproduces_minus_pi_log2(self):
        approx = integrate_logsine(0, TIGHT)
        assert abs(approx.value - (-math.pi * math.log(2))) <= 1e-10
        assert approx.abs_error <= 1e-10

    def test_n1(self):
        approx = integrate_logsine(1, TIGHT)
        assert abs(approx.value - (-math.pi ** 2 / 2 * math.log(2))) <= 1e-10

    def test_n2_matches_closed_form(self):
        oracle = integrate_logsine(2, TIGHT)
        closed = logsine_numeric(2, 1e-10)
        assert abs(oracle.value - closed.value) <= oracle.abs_error + closed.abs_error

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            integrate_logsine(-1)

    def test_deterministic(self):
        a = integrate_logsine(4, TIGHT)
        b = integrate_logsine(4, QuadratureSettings(target_abs_error=1e-10))
        assert a == b


class TestLogsquared:
    def test_reference_value(self):
        approx = integrate_logsquared(TIGHT)
        assert abs(approx.value - PI3_OVER_24) <= 1e-10
        assert approx.abs_error <= 1e-10

    def test_loose_tolerance_same_value(self):
        tight = integrate_logsquared(TIGHT)
        loose = integrate_logsquared(QuadratureSettings(target_abs_error=1e-4))
        assert loose.abs_error <= 1e-4
        assert abs(loose.value - tight.value) <= loose.abs_error + tight.abs_error

    def test_depth_exhaustion_is_distinct_failure(self, monkeypatch, cold_caches):
        monkeypatch.setattr(quadrature_oracle, "_MAX_DEPTH", 1)
        with pytest.raises(RefinementExhausted):
            integrate_logsquared(QuadratureSettings(target_abs_error=1e-14))


class TestVerticalLeg:
    @pytest.mark.parametrize("n,expected", [(0, V0), (1, V1), (2, V2)])
    def test_reference_values(self, n, expected):
        approx = integrate_vertical_leg(n, TIGHT)
        assert abs(approx.value - expected) <= approx.abs_error + 4 * math.ulp(abs(expected))

    def test_matches_zeta_form(self):
        # termwise integration of the expanded logarithm gives
        # -(n!/2^(n+1)) zeta(n+2); the quadrature must agree within bounds
        for n in range(4):
            leg = integrate_vertical_leg(n, TIGHT)
            zn = zeta_numeric(n + 2, 1e-12)
            coef = math.factorial(n) / 2 ** (n + 1)
            diff = abs(leg.value - (-coef * zn.value))
            assert diff <= leg.abs_error + coef * zn.abs_error + 4 * math.ulp(coef)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            integrate_vertical_leg(-2)


class TestCosineIntegrals:
    @pytest.mark.parametrize("l,power", [(1, 0), (1, 1), (7, 1)])
    def test_moments_vanish(self, l, power):
        approx = cosine_moment(l, power)
        assert abs(approx.value) <= approx.abs_error <= 1e-12

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            cosine_moment(0, 0)
        with pytest.raises(ValueError):
            cosine_moment(1, 2)

    def test_orthogonality_diagonal(self):
        for l in (1, 3):
            approx = cosine_orthogonality(l, l)
            assert abs(approx.value - math.pi / 2) <= 1e-12

    def test_orthogonality_off_diagonal(self):
        approx = cosine_orthogonality(2, 5)
        assert abs(approx.value) <= 1e-12

    def test_orthogonality_validation(self):
        with pytest.raises(ValueError):
            cosine_orthogonality(0, 1)


class TestCertification:
    def test_nested_intervals_as_target_halves(self):
        # tightening the target must keep the certified interval inside
        # the looser one
        prev = None
        for target in (1e-6, 5e-7, 2.5e-7, 1e-8, 1e-10):
            cur = integrate_logsine(3, QuadratureSettings(target_abs_error=target))
            assert cur.abs_error <= target
            if prev is not None:
                assert abs(cur.value - prev.value) <= prev.abs_error - cur.abs_error
            prev = cur

    def test_unreachable_tolerance_fails(self):
        with pytest.raises(CertificationError):
            integrate_logsine(2, QuadratureSettings(target_abs_error=1e-30))


class TestLogSinTable:
    def test_moments_share_one_log_sin_per_node(self, cold_caches):
        first = [integrate_logsine(n, TIGHT) for n in range(13)]
        sizes = {key: len(row) for key, row in quadrature_oracle._LOGSIN_TABLE.items()}
        quadrature_oracle._certified.cache_clear()
        again = [integrate_logsine(n, TIGHT) for n in range(13)]
        assert again == first
        assert {key: len(row) for key, row in quadrature_oracle._LOGSIN_TABLE.items()} == sizes

    def test_results_independent_of_call_order(self, cold_caches):
        cold = [integrate_logsine(n, TIGHT) for n in range(13)]
        cold_caches()
        for target in (1e-7, 3e-9, 2e-10):
            for n in range(13):
                integrate_logsine(n, QuadratureSettings(target_abs_error=target))
        warm = [integrate_logsine(n, TIGHT) for n in reversed(range(13))]
        assert warm[::-1] == cold


_LOOSE = QuadratureSettings(target_abs_error=1e-8)


@pytest.mark.parametrize(
    "integral",
    [
        lambda: integrate_logsine(3, _LOOSE),
        lambda: integrate_logsquared(_LOOSE),
        lambda: integrate_vertical_leg(2, _LOOSE),
        lambda: cosine_moment(2, 1, _LOOSE),
        lambda: cosine_orthogonality(1, 2, _LOOSE),
    ],
    ids=["logsine", "logsquared", "vertical_leg", "cosine_moment", "cosine_orthogonality"],
)
def test_result_cache_serves_repeats_until_cleared(integral, cold_caches, monkeypatch):
    calls = []
    engine = quadrature_oracle._tanh_sinh

    def counting(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(quadrature_oracle, "_tanh_sinh", counting)
    first = integral()
    assert len(calls) == 1
    assert integral() == first
    assert len(calls) == 1
    cold_caches()
    assert integral() == first
    assert len(calls) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_logsine(2.5, TIGHT),
        lambda: integrate_logsine(True, TIGHT),
        lambda: integrate_vertical_leg(2.5, TIGHT),
        lambda: cosine_moment(1.5, 0),
        lambda: cosine_orthogonality(1.5, 1),
        lambda: cosine_orthogonality(1, 2.5),
    ],
    ids=["logsine", "logsine_bool", "vertical_leg", "cosine_moment", "orth_l", "orth_l_prime"],
)
def test_rejects_non_integer_index(call):
    # x^2.5 log sin x is no moment the oracle certifies; it must not
    # silently return I_2
    with pytest.raises(ValueError):
        call()


def test_warm_vertical_leg_skips_the_cutoff_policy(cold_caches, monkeypatch):
    # the result cache is keyed by (n, target), so a repeated call answers
    # before the policy's tail bounds are summed again
    calls = []
    policy = quadrature_oracle.default_semi_infinite_cutoff_policy

    def counting(n, target):
        calls.append((n, target))
        return policy(n, target)

    monkeypatch.setattr(quadrature_oracle, "default_semi_infinite_cutoff_policy", counting)
    first = integrate_vertical_leg(4, TIGHT)
    assert calls == [(4, TIGHT.target_abs_error)]
    assert integrate_vertical_leg(4, TIGHT) == first
    assert len(calls) == 1


def test_vertical_leg_past_the_double_range():
    # the tail bound's double formula raised OverflowError at both; at
    # n = 200 the integral, about -2.4e314, does not fit a double
    settings = QuadratureSettings(target_abs_error=1e300)
    approx = integrate_vertical_leg(103, settings)
    with workdps(60):
        exact = -mp.factorial(103) / mp.mpf(2) ** 104 * mp.zeta(105)
    assert abs(approx.value - exact) <= approx.abs_error <= 1e300
    with pytest.raises(CertificationError):
        integrate_vertical_leg(200, settings)


def test_vertical_leg_at_a_tiny_target_fails_certification(cold_caches):
    # past 1000 bits of working precision the integrand raised
    # OverflowError making its cut ordinate a double
    with pytest.raises(CertificationError):
        integrate_vertical_leg(0, QuadratureSettings(target_abs_error=1e-300))


def test_shared_geometry_is_independent_of_call_order(cold_caches, node_keys):
    # all of these run at one working precision and share its node table;
    # the log-sine moments share the log-sin values of [0, pi]
    calls = [
        *(lambda n=n: integrate_logsine(n, TIGHT) for n in (0, 5, 12)),
        *(lambda n=n: integrate_vertical_leg(n, TIGHT) for n in (0, 7)),
        lambda: integrate_logsquared(TIGHT),
        lambda: cosine_moment(2, 1, TIGHT),
        lambda: cosine_orthogonality(1, 3, TIGHT),
    ]

    def tables():
        return {key: _nodes(*key) for key in node_keys}, dict(quadrature_oracle._LOGSIN_TABLE)

    forward = [call() for call in calls]
    nodes, log_sin = tables()
    cold_caches()
    node_keys.clear()
    backward = [call() for call in reversed(calls)][::-1]
    assert backward == forward
    assert tables() == (nodes, log_sin)
    assert len({prec for prec, _ in nodes}) == 1  # one working precision
    assert {prec for prec, _ in log_sin} == {prec for prec, _ in nodes}


# each call that takes a QuadratureSettings or None
_WITH_SETTINGS = {
    "integrate_logsine": lambda s: integrate_logsine(3, s),
    "integrate_logsquared": integrate_logsquared,
    "integrate_vertical_leg": lambda s: integrate_vertical_leg(2, s),
    "cosine_moment": lambda s: cosine_moment(2, 1, s),
    "cosine_orthogonality": lambda s: cosine_orthogonality(1, 2, s),
    "leg_H": lambda s: leg_H(3, s),
}


@pytest.mark.parametrize("settings", [0, 0.0, False, 1e-8], ids=["0", "0.0", "False", "1e-8"])
@pytest.mark.parametrize("name", list(_WITH_SETTINGS))
def test_settings_other_than_none_raise(name, settings):
    # a falsy value certified silently at the default target, and a bare
    # number raised AttributeError
    with pytest.raises(ValueError, match="^settings must be a QuadratureSettings or None, not "):
        _WITH_SETTINGS[name](settings)
