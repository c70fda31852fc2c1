"""Exact-arithmetic verification of a family of hypergeometric identities.

The engine checks, over user-chosen rational parameter grids and with zero
tolerance, a quadratic transformation of the Gauss series generalized over
denominator shifts j in [-5, 5], the summation identity obtained from it
by rational beta moments, the closed corollary forms for |j| <= 3, and a
mechanical replay of the derivation itself.

The package exports the summation identity's case type, its two sides and
its checker, and the errors that mark a point the engine refuses to
evaluate.  Everything else is imported from its submodule.
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
from .identities import IdentityCase, theorem_lhs, theorem_rhs, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "DenominatorPoleBeforeTermination",
    "IdentityCase",
    "InvalidCase",
    "NonTerminatingSeries",
    "PoleError",
    "TranscendentalResidue",
    "UnsupportedJ",
    "VerificationError",
    "theorem_lhs",
    "theorem_rhs",
    "verify_theorem",
]
