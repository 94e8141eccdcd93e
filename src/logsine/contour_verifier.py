"""Three-leg verification of the null strip quadrature and the exact
identities that fall out of it.

The boundary of the semi-infinite vertical strip [0, pi] x [0, inf)
decomposes the null integral of z^n log(1 - e^{2iz}) into a left leg L, a
bottom leg H, and a right leg R, with K_n = L_n + H_n + R_n = 0:

    L_n = i^(n+1) (n!/2^(n+1)) zeta(n+2)
    R_n = -i sum_{k=0}^{n} C(n,k) pi^(n-k) i^k (k!/2^(k+1)) zeta(k+2)
    H_n = pi^(n+1) log(2)/(n+1) - i pi^(n+2)/(2(n+1)) + i pi^(n+2)/(n+2) + I_n

Numeric checks here are deliberately non-circular: verify_null builds
H_n from the quadrature oracle's I_n (so K ~ 0 tests the closed form's
real-part origin independently), while verify_real_part swaps in the
closed-form I_n to test the converse direction.  The vanishing imaginary
part reduces, through the even-zeta Bernoulli bridge, to exact rational
identities checked with no floating arithmetic at all.

Powers of i are resolved by residue mod 4, never by complex
exponentials, so parity structure is exact.

Each term of L and R, (p/q) pi^m zeta(k+2), H's log-2 term and its
imaginary part r pi^(n+2) come from zeta_engine's integer kernel as a
value and a bound in units of 2^-(prec + 16), and R sums them exactly:
each bound counts the kernel's floor division and carries the units of
pi^m, log 2 and zeta.  Each leg is rounded to double once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from mpmath.libmp import from_float, mpf_add

from ._precision import _float_units, _from_units, _units_below, float_with_bound, prec_for
from .errors import CertificationError, _require_int
from .exact_core import BernoulliTable
from .logsine_closed_form import logsine_numeric
from .quadrature_oracle import QuadratureSettings, integrate_logsine
from .zeta_engine import RealApprox, _fixed_term, _log2_fixed, _zeta_fixed

__all__ = [
    "ComplexApprox",
    "ContourReport",
    "leg_L",
    "leg_R",
    "leg_R_term",
    "leg_H",
    "leg_H_im_coefficient",
    "verify_null",
    "verify_real_part",
    "verify_imag_identity_exact",
    "reduction_chain_steps",
    "verify_reduction_chain",
    "report_to_json",
]

# phase index p -> contribution of i^p: (target component, sign)
# p = 0 -> +re, 1 -> +im, 2 -> -re, 3 -> -im
_PHASE_SIGN = ((0, 1), (1, 1), (0, -1), (1, -1))


@dataclass(frozen=True)
class ComplexApprox:
    """Real/imaginary pair with independent certified bounds."""

    re: RealApprox
    im: RealApprox

    @property
    def modulus_bound(self) -> float:
        # sqrt(re_err^2 + im_err^2) <= re_err + im_err; use the sum
        return self.re.abs_error + self.im.abs_error


def _leg_prec(tol: float) -> int:
    return prec_for(tol, extra_digits=25, min_dps=30)


def _one_component(phase: int, value: float, bound: float) -> ComplexApprox:
    """i^phase times a real value: one nonzero component."""
    comp, sign = _PHASE_SIGN[phase]
    parts = [RealApprox(0.0, 0.0), RealApprox(0.0, 0.0)]
    parts[comp] = RealApprox(sign * value, bound)
    return ComplexApprox(re=parts[0], im=parts[1])


def leg_L(n: int, tol: float) -> ComplexApprox:
    """Left vertical leg: i^(n+1) (n!/2^(n+1)) zeta(n+2).

    Exactly one component is nonzero, selected by (n+1) mod 4.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _leg_prec(tol)
    _, mag, err = _leg_r_term(n, n, prec)  # the right leg's last summand
    value, bound = _float_units(mag, err, prec)
    if bound > tol:
        raise CertificationError(f"leg L(n={n}) certified to {bound:.3e} > {tol:.3e}")
    return _one_component((n + 1) % 4, value, bound)


def _leg_r_term(n: int, k: int, prec: int) -> tuple[int, int, int]:
    """Summand k of the right leg at ``prec`` bits: (phase, value, bound),
    the last two in units of 2^-(prec + 16).

    Term k carries -i * i^k = i^(k+3), magnitude
    C(n,k) pi^(n-k) (k!/2^(k+1)) zeta(k+2).
    """
    num = math.comb(n, k) * math.factorial(k)
    return ((k + 3) % 4, *_fixed_term(num, 2 ** (k + 1), n - k, _zeta_fixed(k + 2, prec), prec))


def leg_R(n: int, tol: float) -> ComplexApprox:
    """Right vertical leg: the binomial sum over zeta(k+2), k = 0..n.

    Each summand's certified error must fit tol/(n+1), so the assembled
    component bounds stay within tol overall.  The components are summed
    on integers in units of 2^-(prec + 16).
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _leg_prec(tol)
    share = tol / (n + 1)
    share_units = _units_below(share, prec)
    sums, errs = [0, 0], [0, 0]  # re, im
    # every summand, and so every zeta value it needs, before any check
    for phase, mag, err in [_leg_r_term(n, k, prec) for k in range(n + 1)]:
        if err > share_units:
            raise CertificationError(
                f"leg R(n={n}) term exceeds its error share {share:.3e}"
            )
        comp, sign = _PHASE_SIGN[phase]
        sums[comp] += sign * mag
        errs[comp] += err
    re_val, re_bound = _float_units(sums[0], errs[0], prec)
    im_val, im_bound = _float_units(sums[1], errs[1], prec)
    if re_bound + im_bound > tol:
        raise CertificationError(
            f"leg R(n={n}) certified to {re_bound + im_bound:.3e} > {tol:.3e}"
        )
    return ComplexApprox(
        re=RealApprox(re_val, re_bound), im=RealApprox(im_val, im_bound)
    )


def leg_R_term(n: int, k: int, tol: float) -> ComplexApprox:
    """Single right-leg summand (index k); the k = n term always cancels
    the left leg."""
    _require_int(n, 0, "n must be a nonnegative integer")
    _require_int(k, 0, "require 0 <= k <= n")
    if k > n:
        raise ValueError("require 0 <= k <= n")
    prec = _leg_prec(tol)
    phase, mag, err = _leg_r_term(n, k, prec)
    return _one_component(phase, *_float_units(mag, err, prec))


def leg_H_im_coefficient(n: int) -> Fraction:
    """Exact rational r with Im(H_n) = r * pi^(n+2): the two imaginary
    bottom-leg terms collapse to n/(2(n+1)(n+2))."""
    _require_int(n, 0, "n must be a nonnegative integer")
    return Fraction(1, n + 2) - Fraction(1, 2 * (n + 1))


def _log2_term(n: int, prec: int) -> tuple[int, int]:
    """pi^(n+1) log(2) / (n+1), the term that sits beside I_n in Re(H_n):
    (value, bound) in units of 2^-(prec + 16)."""
    return _fixed_term(1, n + 1, n + 1, _log2_fixed(prec), prec)


def leg_H(n: int, settings: QuadratureSettings | None = None) -> ComplexApprox:
    """Bottom horizontal leg.

    The real part takes I_n from the quadrature oracle, never from the
    closed form, so downstream nullity checks stay independent.  The
    imaginary part is the exact rational times pi^(n+2), floated once.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    settings = settings or QuadratureSettings()
    oracle = integrate_logsine(n, settings)
    prec = _leg_prec(settings.target_abs_error)
    value, bound = (_from_units(x, prec) for x in _log2_term(n, prec))
    # the log-2 term plus the oracle's value, and their bounds, summed exactly
    re_val, re_bound = float_with_bound(
        mpf_add(value, from_float(oracle.value)), mpf_add(bound, from_float(oracle.abs_error))
    )
    r = leg_H_im_coefficient(n)
    im = _fixed_term(r.numerator, r.denominator, n + 2, None, prec)
    im_val, im_bound = _float_units(*im, prec)
    return ComplexApprox(
        re=RealApprox(re_val, re_bound), im=RealApprox(im_val, im_bound)
    )


@dataclass(frozen=True)
class ContourReport:
    """Per-n record of the three legs, their sum K, and the certification."""

    n: int
    L: ComplexApprox
    R: ComplexApprox
    H: ComplexApprox
    K: ComplexApprox
    residual_modulus: float
    certified_bound: float
    passed: bool
    failure: str = field(default="")


def _sum_components(parts: list[RealApprox]) -> RealApprox:
    value = math.fsum(p.value for p in parts)
    bound = math.fsum(p.abs_error for p in parts) + 0.5 * math.ulp(abs(value) or 1e-300)
    return RealApprox(value, math.nextafter(bound, math.inf))


_NAN_COMPLEX = ComplexApprox(
    re=RealApprox(math.nan, 0.0), im=RealApprox(math.nan, 0.0)
)


def verify_null(n: int, tol: float) -> ContourReport:
    """Assemble K_n = L_n + H_n + R_n and certify that it vanishes.

    Passes iff the residual modulus is inside the summed component bounds
    and those bounds total at most 10*tol.  A leg that cannot certify its
    tolerance yields a failed report carrying the cause.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    try:
        L = leg_L(n, tol)
        R = leg_R(n, tol)
        H = leg_H(n, QuadratureSettings(target_abs_error=tol))
    except CertificationError as exc:
        return ContourReport(
            n=n,
            L=_NAN_COMPLEX,
            R=_NAN_COMPLEX,
            H=_NAN_COMPLEX,
            K=_NAN_COMPLEX,
            residual_modulus=math.inf,
            certified_bound=0.0,
            passed=False,
            failure=str(exc),
        )
    K = ComplexApprox(
        re=_sum_components([L.re, H.re, R.re]),
        im=_sum_components([L.im, H.im, R.im]),
    )
    residual = math.hypot(K.re.value, K.im.value)
    bound = K.modulus_bound
    return ContourReport(
        n=n,
        L=L,
        R=R,
        H=H,
        K=K,
        residual_modulus=residual,
        certified_bound=bound,
        passed=(residual <= bound) and (bound <= 10 * tol),
    )


def verify_real_part(n: int, tol: float) -> RealApprox:
    """Re(K_n) with I_n substituted from the closed form, certified near 0.

    This is the converse of verify_null: here the closed form must
    annihilate the real part it was derived from.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    L = leg_L(n, tol / 4)
    R = leg_R(n, tol / 4)
    closed = logsine_numeric(n, tol / 4)
    prec = _leg_prec(tol)
    log2 = RealApprox(*_float_units(*_log2_term(n, prec), prec))
    return _sum_components([L.re, R.re, log2, closed])


def verify_imag_identity_exact(n: int, table: BernoulliTable) -> bool:
    """Exact form of the vanishing imaginary part:

        sum_{k=0}^{floor((n-1)/2)} C(n,2k) B_{2k+2} / ((k+1)(2k+1))
            = n / ((n+1)(n+2))

    Checked over exact rationals; true for every n >= 1.
    """
    _require_int(n, 1, "require n >= 1")
    top = (n - 1) // 2
    if table.max_index < 2 * top + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * top + 2}")
    lhs = Fraction(0)
    for k in range(top + 1):
        lhs += Fraction(math.comb(n, 2 * k), (k + 1) * (2 * k + 1)) * table[2 * k + 2]
    return lhs == Fraction(n, (n + 1) * (n + 2))


def reduction_chain_steps(n: int, table: BernoulliTable) -> dict[str, bool]:
    """The four exact steps that turn the vanishing-imaginary-part identity
    into the binomial-weighted Bernoulli sum rule at index n+2:

    (a) even-index reindexing:  sum C(n+2,2k+2) B_{2k+2} = n/2
    (b) odd-index intercalation (odd B vanish):  sum_{k=2}^{n+1} C(n+2,k) B_k = n/2
    (c) the two leading terms:  C(n+2,0) B_0 + C(n+2,1) B_1 = -n/2
    (d) full sum:  sum_{k=0}^{n+1} C(n+2,k) B_k = 0
    """
    _require_int(n, 1, "require n >= 1")
    if table.max_index < n + 1:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{n + 1}")
    half_n = Fraction(n, 2)

    sum_a = Fraction(0)
    for k in range((n - 1) // 2 + 1):
        sum_a += math.comb(n + 2, 2 * k + 2) * table[2 * k + 2]

    sum_b = Fraction(0)
    for k in range(2, n + 2):
        sum_b += math.comb(n + 2, k) * table[k]

    lead = math.comb(n + 2, 0) * table[0] + math.comb(n + 2, 1) * table[1]

    sum_d = sum_b + lead

    return {
        "a": sum_a == half_n,
        "b": sum_b == half_n,
        "c": lead == -half_n,
        "d": sum_d == 0,
    }


def verify_reduction_chain(n: int, table: BernoulliTable) -> bool:
    """True iff all four reduction steps hold exactly (see
    reduction_chain_steps for the step-by-step breakdown)."""
    return all(reduction_chain_steps(n, table).values())


def report_to_json(report: ContourReport) -> dict[str, Any]:
    """Serializable report; leg entries are [re, im] value pairs."""
    out: dict[str, Any] = {
        "n": report.n,
        "L": [report.L.re.value, report.L.im.value],
        "R": [report.R.re.value, report.R.im.value],
        "H": [report.H.re.value, report.H.im.value],
        "K": [report.K.re.value, report.K.im.value],
        "residual": report.residual_modulus,
        "bound": report.certified_bound,
        "pass": report.passed,
    }
    if report.failure:
        out["error"] = report.failure
    return out
