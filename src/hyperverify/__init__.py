"""Exact-arithmetic verification of a family of hypergeometric identities.

The engine checks, over user-chosen rational parameter grids and with zero
tolerance, a quadratic transformation of the Gauss series generalized over
denominator shifts j in [-5, 5], the summation identity obtained from it
by rational beta moments, the closed corollary forms for |j| <= 3, and a
mechanical replay of the derivation itself.
"""

from .errors import (
    DenominatorPoleBeforeTermination,
    InvalidCase,
    NonTerminatingSeries,
    PoleError,
    TranscendentalResidue,
    UnsupportedJ,
    VerificationError,
)
from .exact import (
    GammaProduct,
    gamma_simplify,
    is_nonpositive_integer,
    pochhammer,
    pochhammer_duplication,
)
from .hyper import (
    HyperSpec,
    WeightedSumSpec,
    eval_terminating,
    eval_terminating_direct,
    eval_weighted_sum,
    series_in_z,
    termination_index,
    weighted_series,
    weighted_termination,
)
from .identities import (
    COEFF_TABLE,
    IdentityCase,
    VerificationRecord,
    beta_integral_pipeline,
    beta_moment,
    bracket,
    coeff_A,
    coeff_B,
    corollary_rhs,
    even_prefactor,
    gen_transform_lhs_series,
    gen_transform_rhs_series,
    grid_sweep,
    kummer_rhs_series,
    odd_prefactor,
    theorem_lhs,
    theorem_rhs,
    verify_theorem,
)
from .series import TruncatedSeries, binomial_series

__version__ = "0.1.0"

__all__ = [
    "COEFF_TABLE",
    "DenominatorPoleBeforeTermination",
    "GammaProduct",
    "HyperSpec",
    "IdentityCase",
    "InvalidCase",
    "NonTerminatingSeries",
    "PoleError",
    "TranscendentalResidue",
    "TruncatedSeries",
    "UnsupportedJ",
    "VerificationError",
    "VerificationRecord",
    "WeightedSumSpec",
    "beta_integral_pipeline",
    "beta_moment",
    "binomial_series",
    "bracket",
    "coeff_A",
    "coeff_B",
    "corollary_rhs",
    "eval_terminating",
    "eval_terminating_direct",
    "eval_weighted_sum",
    "even_prefactor",
    "gamma_simplify",
    "gen_transform_lhs_series",
    "gen_transform_rhs_series",
    "grid_sweep",
    "is_nonpositive_integer",
    "kummer_rhs_series",
    "odd_prefactor",
    "pochhammer",
    "pochhammer_duplication",
    "series_in_z",
    "termination_index",
    "theorem_lhs",
    "theorem_rhs",
    "verify_theorem",
    "weighted_series",
    "weighted_termination",
]
