"""Three-leg verification of the null strip quadrature and the exact
identities that fall out of it.

The boundary of the semi-infinite vertical strip [0, pi] x [0, inf)
decomposes the null integral of z^n log(1 - e^{2iz}) into a left leg L, a
bottom leg H, and a right leg R, with K_n = L_n + H_n + R_n = 0:

    L_n = i^(n+1) (n!/2^(n+1)) zeta(n+2)
    R_n = -i sum_{k=0}^{n} C(n,k) pi^(n-k) i^k (k!/2^(k+1)) zeta(k+2)
    H_n = pi^(n+1) log(2)/(n+1) - i pi^(n+2)/(2(n+1)) + i pi^(n+2)/(n+2) + I_n

The closed form of I_n is -Re(L_n + R_n) - pi^(n+1) log(2)/(n+1), term
for term, and R and H read their real terms from its tables,
``logsine_closed_form._ZETA_TERMS`` and ``_LOG2_TERM``.  So
verify_real_part, with the closed-form I_n, checks signs and roundings,
while verify_null builds H_n from the quadrature oracle's I_n and tests
the real-part origin without resting on the closed form.  The vanishing
imaginary part reduces, through the even-zeta Bernoulli bridge, to exact
rational identities checked with no floating arithmetic at all.

Powers of i are resolved by residue mod 4, never by complex
exponentials, so parity structure is exact.

Each term is a value and a bound in units of 2^-(prec + 16) from
zeta_engine's integer kernel, which counts its floor division and
carries the units of pi^m, log 2 and zeta; R's summands k = 2j - 1 < n
and H's log-2 term are read, signed, from the closed form's terms.
``_leg`` sums each component of L, R and Im(H) on integers and rounds it
once, by ``_precision.certify``; an exact zero is RealApprox(0.0, 0.0).
Re(H_n) adds the oracle's doubles exactly to its log-2 term in
``certify`` first.  R's summands and Im(H) depend on n and the precision
alone, so each is kept in a table keyed by the two; the rounding and the
tolerance check run on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._precision import RealApprox, _sum_components, certify
from .errors import CertificationError, _require_int, _require_positive
from .exact_core import BernoulliTable
from .logsine_closed_form import _log2_term, _zeta_terms, logsine_numeric
from .quadrature_oracle import QuadratureSettings, _target, integrate_logsine
from .zeta_engine import _fixed_term, _term_prec, _zeta_fixed

__all__ = [
    "ComplexApprox",
    "ContourReport",
    "leg_L",
    "leg_R",
    "leg_H",
    "verify_null",
    "verify_real_part",
    "verify_imag_identity_exact",
    "reduction_chain_steps",
    "verify_reduction_chain",
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


_ZERO = RealApprox(0.0, 0.0)


def _leg(
    terms: Sequence[tuple[int, int, int]], prec: int, tol: float = math.inf, what: str = ""
) -> ComplexApprox:
    """The sum of i^phase * value over ``terms``, (phase, value, bound) in
    units of 2^-(prec + 16), each component summed on integers and
    certified once; an exact zero (no term, or value and bound both 0) is
    ``RealApprox(0.0, 0.0)``.  Raises CertificationError naming leg
    ``what`` when the modulus bound exceeds ``tol``."""
    sums, errs = [0, 0], [0, 0]  # re, im
    for phase, value, bound in terms:
        comp, sign = _PHASE_SIGN[phase]
        sums[comp] += sign * value
        errs[comp] += bound
    re = certify(sums[0], errs[0], prec) if sums[0] or errs[0] else _ZERO
    im = certify(sums[1], errs[1], prec) if sums[1] or errs[1] else _ZERO
    leg = ComplexApprox(re=re, im=im)
    if (bound := leg.modulus_bound) > tol:
        raise CertificationError(f"leg {what} certified to {bound:.3e} > {float(tol):.3e}")
    return leg


def leg_L(n: int, tol: float) -> ComplexApprox:
    """Left vertical leg: i^(n+1) (n!/2^(n+1)) zeta(n+2), R's last summand
    negated; its one nonzero component is selected by (n+1) mod 4.  The
    summand is read from R's row once R has been built at this precision;
    L alone computes no zeta value or power of pi that only R needs."""
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _term_prec(tol)
    row = _LEG_R_TERMS.get((n, prec))
    phase, value, bound = row[n] if row else _leg_r_term(n, n, prec)
    return _leg([((phase + 2) % 4, value, bound)], prec, tol, f"L(n={n})")


def _leg_r_term(n: int, k: int, prec: int) -> tuple[int, int, int]:
    """Summand k of the right leg at ``prec`` bits: (phase, value, bound),
    the last two in units of 2^-(prec + 16).

    Term k carries -i * i^k = i^(k+3), magnitude
    C(n,k) pi^(n-k) (k!/2^(k+1)) zeta(k+2).
    """
    num = math.comb(n, k) * math.factorial(k)
    return ((k + 3) % 4, *_fixed_term(num, 2 ** (k + 1), n - k, _zeta_fixed(k + 2, prec), prec))


# (n, precision in bits) -> the right leg's summands k = 0..n
_LEG_R_TERMS: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}


def _leg_r_terms(n: int, prec: int) -> tuple[tuple[int, int, int], ...]:
    """The right leg's n + 1 summands at ``prec`` bits, built once per key;
    summand k = 2j - 1 < n, i^(k+3) = -(-1)^j, is the closed form's zeta(2j+1)
    term at phase 2."""
    entry = _LEG_R_TERMS.get((n, prec))
    if entry is None:
        closed = _zeta_terms(n, prec)
        row = tuple(
            (2, *closed[k // 2]) if k % 2 and k < n else _leg_r_term(n, k, prec)
            for k in range(n + 1)
        )
        entry = _LEG_R_TERMS.setdefault((n, prec), row)
    return entry


def leg_R(n: int, tol: float) -> ComplexApprox:
    """Right vertical leg: the binomial sum over zeta(k+2), k = 0..n,
    whose modulus bound must stay within tol."""
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _term_prec(tol)
    return _leg(_leg_r_terms(n, prec), prec, tol, f"R(n={n})")


# (n, precision in bits) -> Im(H_n) = n/(2(n+1)(n+2)) pi^(n+2)
_LEG_H_IM: dict[tuple[int, int], tuple[int, int]] = {}


def _leg_h_im(n: int, prec: int) -> tuple[int, int]:
    """Im(H_n) at ``prec`` bits, built once per key."""
    entry = _LEG_H_IM.get((n, prec))
    if entry is None:
        # unreduced: a factor common to num and den moves no floor of num X / den
        im = _fixed_term(n, 2 * (n + 1) * (n + 2), n + 2, None, prec)
        entry = _LEG_H_IM.setdefault((n, prec), im)
    return entry


def leg_H(n: int, settings: QuadratureSettings | None = None) -> ComplexApprox:
    """Bottom horizontal leg.

    The real part takes I_n from the quadrature oracle, never from the
    closed form, so downstream nullity checks stay independent, and adds
    it exactly to the log-2 term, the closed form's negated, before
    rounding once.  The imaginary part is n/(2(n+1)(n+2)) pi^(n+2).
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    prec = _term_prec(_target(settings))
    oracle = integrate_logsine(n, settings)
    value, bound = _log2_term(n, prec)
    re = certify(-value, bound, prec, plus=oracle)
    return ComplexApprox(re=re, im=_leg([(1, *_leg_h_im(n, prec))], prec).im)


_NAN_COMPLEX = ComplexApprox(re=RealApprox(math.nan, 0.0), im=RealApprox(math.nan, 0.0))


@dataclass(frozen=True)
class ContourReport:
    """Per-n record of the three legs, their sum K, and the certification.
    Every field after ``n`` defaults to what a failed report holds."""

    n: int
    L: ComplexApprox = _NAN_COMPLEX
    R: ComplexApprox = _NAN_COMPLEX
    H: ComplexApprox = _NAN_COMPLEX
    K: ComplexApprox = _NAN_COMPLEX
    residual_modulus: float = math.inf
    certified_bound: float = 0.0
    passed: bool = False
    failure: str = ""


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
        return ContourReport(n=n, failure=str(exc))
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

    As the legs read the closed form's terms, they cancel on integers:
    this checks the terms' signs in the legs and the four roundings to
    double, not the paper's derivation, which verify_null checks.
    """
    _require_int(n, 0, "n must be a nonnegative integer")
    quarter = _require_positive(tol, "target absolute error") / 4
    if not quarter:
        raise CertificationError(f"a quarter of {tol!r} underflows to 0")
    L = leg_L(n, quarter)
    R = leg_R(n, quarter)
    closed = logsine_numeric(n, quarter)
    prec = _term_prec(quarter)
    value, bound = _log2_term(n, prec)
    return _sum_components([L.re, R.re, certify(-value, bound, prec), closed])


def verify_imag_identity_exact(n: int, table: BernoulliTable) -> bool:
    """Exact form of the vanishing imaginary part:

        sum_{k=0}^{floor((n-1)/2)} C(n,2k) B_{2k+2} / ((k+1)(2k+1))
            = n / ((n+1)(n+2))

    Checked over exact rationals; true for every n >= 1.
    """
    _require_int(n, 1, "require n >= 1")
    top = (n - 1) // 2
    table._require(2 * top + 2)
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
    table._require(n + 1)
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
