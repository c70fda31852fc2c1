"""Horner series composition, kept as an independent oracle for the tests.

The package expands the transformation's left side by the closed form of
the Moebius substitution; these cubic-time helpers recompute it the
direct way at small orders.
"""

from fractions import Fraction

from hyperverify import TruncatedSeries, VerificationError


class NonzeroConstantTerm(VerificationError):
    """Series substitution needs an inner series that vanishes at the origin."""


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(x)) truncated at the common order.

    Requires inner(0) = 0, otherwise every outer coefficient would feed
    every output coefficient and truncation would be meaningless.  Computed
    by Horner accumulation over the outer coefficients.
    """
    if inner[0] != 0:
        raise NonzeroConstantTerm(
            f"inner series has constant term {inner[0]}, expected 0"
        )
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = TruncatedSeries.constant(0, n)
    for c in reversed(outer.coefficients[: n + 1]):
        acc = acc * inner + TruncatedSeries.constant(c, n)
    return acc


def mobius_arg(order: int) -> TruncatedSeries:
    """The substitution argument -2x/(1 - x) as a series: 0, then -2 forever."""
    return TruncatedSeries((Fraction(0),) + (Fraction(-2),) * order)
