"""Plain-Fraction oracles kept for the tests.

The package expands the transformation's left side by the closed form of
the Moebius substitution; the cubic-time Horner composition here
recomputes it the direct way at small orders.  The package interpolates
the weight polynomials with integer Newton differences; the plain
Fraction Newton loop here is the reference they are checked against.
The package sums a terminating series by iterated integer term ratios;
the direct sum here rebuilds every term from scratch instead.
"""

import math
from fractions import Fraction

from hyperverify.errors import NonTerminatingSeries, VerificationError
from hyperverify.exact import pochhammer
from hyperverify.series import TruncatedSeries


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
    inner = TruncatedSeries(inner.coefficients[: n + 1])
    acc = _constant(0, n)
    for c in reversed(outer.coefficients[: n + 1]):
        acc = acc * inner + _constant(c, n)
    return acc


def _constant(value, order: int) -> TruncatedSeries:
    return TruncatedSeries((Fraction(value),) + (Fraction(0),) * order)


def mobius_arg(order: int) -> TruncatedSeries:
    """The substitution argument -2x/(1 - x) as a series: 0, then -2 forever."""
    return TruncatedSeries((Fraction(0),) + (Fraction(-2),) * order)


def fraction_poly_from_samples(samples) -> tuple:
    """Ascending monomial coefficients of the polynomial through
    (0, samples[0]), (1, samples[1]), ... via Newton forward differences.

    Exact for any polynomial of degree < len(samples)."""
    deltas = []
    level = [Fraction(s) for s in samples]
    while level:
        deltas.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
    coeffs = [Fraction(0)] * len(deltas)
    falling = [Fraction(1)]  # coefficients of n(n-1)...(n-k+1), ascending
    for k, delta in enumerate(deltas):
        w = delta / math.factorial(k)
        for i, c in enumerate(falling):
            coeffs[i] += w * c
        falling = [Fraction(0)] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def eval_terminating_direct(spec, reverse: bool = False) -> Fraction:
    """The terminating series of a HyperSpec, every term rebuilt from
    scratch with its own Pochhammer products, summed upwards or, with
    `reverse`, downwards."""
    if spec.stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer"
        )
    indices = range(spec.stop, -1, -1) if reverse else range(spec.stop + 1)
    total = Fraction(0)
    for n in indices:
        term = spec.argument ** n / math.factorial(n)
        for p in spec.numerators:
            term *= pochhammer(p, n)
        for q in spec.denominators:
            term /= pochhammer(q, n)
        total += term
    return total
