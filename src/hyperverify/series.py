"""Dense truncated power series over exact rationals.

A :class:`TruncatedSeries` is the polynomial-of-degree-N view of a formal
power series in one variable: coefficients for x**0 .. x**order, stored
densely with explicit zeros.  Binary operations truncate to the smaller
operand order, which is the honest amount of shared information; nothing
is combined or compared beyond it.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class TruncatedSeries:
    coefficients: tuple

    def __post_init__(self):
        coeffs = _fractions(self.coefficients)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(tuple(c * x for x in self.coefficients))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # An integer convolution of the numerators over each operand's
        # common denominator, then one Fraction per output coefficient.
        n = min(self.order, other.order)
        p, p_den = _common_denominator(self.coefficients[: n + 1])
        q, q_den = _common_denominator(other.coefficients[: n + 1])
        den = p_den * q_den
        return TruncatedSeries(tuple(
            Fraction(sum(map(operator.mul, p, q[m::-1])), den)
            for m in range(n + 1)
        ))


def binomial_series(alpha, order: int) -> TruncatedSeries:
    """Expansion of (1 - x)**(-alpha): coefficient n is (alpha)_n / n!,
    kept as one running integer numerator and denominator."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    coeffs, num, den = [Fraction(1)], 1, 1
    for n in range(order):
        num *= p + n * q
        den *= q * (n + 1)
        coeffs.append(Fraction(num, den))
    return TruncatedSeries(tuple(coeffs))


def _common_denominator(coeffs) -> tuple:
    """(numerators, d): integers with coeffs[k] == numerators[k] / d, for the
    least common denominator d."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(values) -> tuple:
    """values as a tuple of Fractions, wrapping only those that are not."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)
