"""Audit of the certified bounds against independent 60-digit references.

Every numeric entry point is run over the tolerances 1e-6..1e-12 and every
n inside the certified envelope, and each result must lie within its own
claimed abs_error of a reference computed in a 60-digit mpmath context of
this module's own: ``zeta`` for the zeta values, the closed form with those
zeta values for I_n (itself spot-checked against ``quad``), the zeta
forms of the vertical and contour legs, pi^3/24 for the Monthly integral,
and 0 or (pi/2) delta for the Fourier gloss's cosine integrals.  Inside the
envelope no call may raise; one step past its edge the call must raise
CertificationError.
"""

import math

import pytest
from mpmath.ctx_mp import MPContext

import logsine
from logsine.errors import CertificationError

REF = MPContext()
REF.dps = 60

TOLERANCES = (1e-6, 1e-8, 1e-10, 1e-12)
ZETA_S = range(2, 41)
L_RANGE = range(1, 5)

# largest certified n per tolerance; at 1e-10 the closed form stops at 12
# because |I_13| > 2^20, where half an ulp of a double exceeds 1e-10
ENVELOPE = {
    "logsine_numeric": {1e-6: 21, 1e-8: 17, 1e-10: 12, 1e-12: 8},
    "integrate_logsine": {1e-6: 21, 1e-8: 17, 1e-10: 12, 1e-12: 8},
    "integrate_vertical_leg": {1e-6: 18, 1e-8: 15, 1e-10: 13, 1e-12: 11},
    "leg_L": {1e-6: 18, 1e-8: 15, 1e-10: 13, 1e-12: 11},
    "leg_R": {1e-6: 18, 1e-8: 15, 1e-10: 12, 1e-12: 8},
}

# phase p of i^p -> (real part, imaginary part)
_PHASE = ((1, 0), (0, 1), (-1, 0), (0, -1))


def ref_logsine(n: int):
    """I_n = -(pi^(n+1)/(n+1)) log 2
    + (n!/2^(n+1)) sum_k (-1)^k (2 pi)^(n-2k+1) / (n-2k+1)! zeta(2k+1)."""
    pi = +REF.pi
    total = -pi ** (n + 1) / (n + 1) * REF.log(2)
    for k in range(1, n // 2 + 1):
        j = n - 2 * k + 1
        total += (
            REF.mpf(math.factorial(n)) / 2 ** (n + 1)
            * (-1) ** k * (2 * pi) ** j / math.factorial(j) * REF.zeta(2 * k + 1)
        )
    return total


def ref_vertical_leg(n: int):
    """int_0^inf y^n log(1 - e^(-2y)) dy = -(n!/2^(n+1)) zeta(n+2)."""
    return -REF.mpf(math.factorial(n)) / 2 ** (n + 1) * REF.zeta(n + 2)


def ref_leg_L(n: int):
    """i^(n+1) (n!/2^(n+1)) zeta(n+2) as (re, im)."""
    mag = -ref_vertical_leg(n)
    re, im = _PHASE[(n + 1) % 4]
    return re * mag, im * mag


def ref_leg_R(n: int):
    """-i sum_k C(n,k) pi^(n-k) i^k (k!/2^(k+1)) zeta(k+2) as (re, im)."""
    re = im = REF.mpf(0)
    for k in range(n + 1):
        mag = math.comb(n, k) * REF.pi ** (n - k) * -ref_vertical_leg(k)
        p_re, p_im = _PHASE[(k + 3) % 4]
        re += p_re * mag
        im += p_im * mag
    return re, im


class Audit:
    """Worst ratio of true error to claimed bound over the checks made."""

    def __init__(self) -> None:
        self.worst = (0.0, "")

    def check(self, label: str, approx, ref) -> None:
        err = abs(REF.mpf(approx.value) - ref)
        assert err <= approx.abs_error, (label, float(err), approx.abs_error)
        if approx.abs_error:
            self.worst = max(self.worst, (float(err / approx.abs_error), label))


def _in_envelope(name: str, tol: float, call):
    """Run ``call`` for every n up to the envelope edge and return the
    results; one step past the edge it must raise CertificationError."""
    top = ENVELOPE[name][tol]
    results = {n: call(n) for n in range(top + 1)}
    with pytest.raises(CertificationError):
        call(top + 1)
    return results


def test_quad_confirms_closed_form_reference():
    for n in (0, 5, 12):
        quad = REF.quad(lambda x: x ** n * REF.log(REF.sin(x)), [0, REF.pi / 2, REF.pi])
        assert abs(quad - ref_logsine(n)) < REF.mpf(10) ** -45, n


@pytest.mark.parametrize("tol", TOLERANCES)
def test_bounds_hold_against_references(tol):
    audit = Audit()
    settings = logsine.QuadratureSettings(target_abs_error=tol)
    for s in ZETA_S:
        audit.check(f"zeta_numeric({s})", logsine.zeta_numeric(s, tol), REF.zeta(s))
    for name, call, ref in (
        ("logsine_numeric", lambda n: logsine.logsine_numeric(n, tol), ref_logsine),
        ("integrate_logsine", lambda n: logsine.integrate_logsine(n, settings), ref_logsine),
        (
            "integrate_vertical_leg",
            lambda n: logsine.integrate_vertical_leg(n, settings),
            ref_vertical_leg,
        ),
    ):
        for n, approx in _in_envelope(name, tol, call).items():
            audit.check(f"{name}({n})", approx, ref(n))
    for name, call, ref in (
        ("leg_L", lambda n: logsine.leg_L(n, tol), ref_leg_L),
        ("leg_R", lambda n: logsine.leg_R(n, tol), ref_leg_R),
    ):
        for n, approx in _in_envelope(name, tol, call).items():
            re, im = ref(n)
            audit.check(f"{name}({n}).re", approx.re, re)
            audit.check(f"{name}({n}).im", approx.im, im)
    audit.check("integrate_logsquared", logsine.integrate_logsquared(settings), REF.pi**3 / 24)
    for l in L_RANGE:
        for power in (0, 1):
            audit.check(
                f"cosine_moment({l}, {power})", logsine.cosine_moment(l, power, settings), 0
            )
        for lp in L_RANGE:
            audit.check(
                f"cosine_orthogonality({l}, {lp})",
                logsine.cosine_orthogonality(l, lp, settings),
                REF.pi / 2 if l == lp else 0,
            )
    ratio, label = audit.worst
    print(f"tolerance {tol:g}: worst error/bound {ratio:.5f} at {label}")


# the last certified n of the closed form at loose tolerances, the start
# of the error that stops it one step further (the certified bound of I_n
# over the target), and the last n of verify_null, which stops on leg L's
# double rounding
LOOSE_EDGES = (
    (1e-3, 27, r"I_28 certified to", 21),
    (1.0, 33, r"I_34 certified to", 23),
    (1e3, 38, r"I_39 certified to", 26),
)


@pytest.mark.parametrize(
    "tol,closed_top,next_failure,null_top", LOOSE_EDGES, ids=[repr(e[0]) for e in LOOSE_EDGES]
)
def test_loose_envelope_edges(tol, closed_top, next_failure, null_top):
    audit = Audit()
    for n in range(closed_top + 1):
        audit.check(f"logsine_numeric({n})", logsine.logsine_numeric(n, tol), ref_logsine(n))
    with pytest.raises(CertificationError, match=f"^{next_failure}"):
        logsine.logsine_numeric(closed_top + 1, tol)
    assert logsine.verify_null(null_top, tol).passed
    failed = logsine.verify_null(null_top + 1, tol)
    assert not failed.passed and failed.failure.startswith(f"leg L(n={null_top + 1})")
