"""Exact Bernoulli/zeta identities and log-sine integrals, cross-verified
against an independent certified quadrature oracle.

Exact layer: arbitrary-precision rationals carry the Bernoulli table, the
even-argument zeta coefficients, and the log-sine closed-form
decomposition, so every identity check is a true equality test.  Numeric
layer: every floating result is a RealApprox carrying a certified
absolute-error bound, and each closed form is validated against
tanh-sinh quadrature of the defining integral.
"""

from .errors import CertificationError, RefinementExhausted
from ._precision import RealApprox
from .exact_core import (
    BernoulliTable,
    bernoulli_table,
    verify_binomial_identity,
    verify_recurrence,
)
from .zeta_engine import (
    ZetaEvenValue,
    zeta_even_exact,
    zeta_numeric,
)
from .logsine_closed_form import (
    SymbolicLogSine,
    logsine_numeric,
    logsine_symbolic,
    symbolic_to_json,
)
from .quadrature_oracle import (
    QuadratureSettings,
    cosine_moment,
    cosine_orthogonality,
    integrate_logsine,
    integrate_logsquared,
    integrate_vertical_leg,
)
from .contour_verifier import (
    ComplexApprox,
    ContourReport,
    leg_H,
    leg_L,
    leg_R,
    verify_imag_identity_exact,
    verify_null,
    verify_real_part,
    verify_reduction_chain,
)
from .fourier_appendix import (
    logsin_series_partial,
    logsine_via_fourier,
    parseval_logsquared,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "RefinementExhausted",
    "BernoulliTable",
    "bernoulli_table",
    "verify_recurrence",
    "verify_binomial_identity",
    "RealApprox",
    "ZetaEvenValue",
    "zeta_even_exact",
    "zeta_numeric",
    "SymbolicLogSine",
    "logsine_symbolic",
    "logsine_numeric",
    "symbolic_to_json",
    "QuadratureSettings",
    "integrate_logsine",
    "integrate_logsquared",
    "integrate_vertical_leg",
    "cosine_moment",
    "cosine_orthogonality",
    "ComplexApprox",
    "ContourReport",
    "leg_L",
    "leg_R",
    "leg_H",
    "verify_null",
    "verify_real_part",
    "verify_imag_identity_exact",
    "verify_reduction_chain",
    "logsin_series_partial",
    "parseval_logsquared",
    "logsine_via_fourier",
    "__version__",
]
