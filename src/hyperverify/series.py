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
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls((Fraction(value),) + (Fraction(0),) * order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self[k] - other[k] for k in range(n + 1)))

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(tuple(c * x for x in self.coefficients))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
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

    __rmul__ = __mul__

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient equality up to the common order of the two series."""
        n = min(self.order, other.order)
        return self.coefficients[: n + 1] == other.coefficients[: n + 1]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coefficients[: order + 1])


def binomial_series(alpha, order: int) -> TruncatedSeries:
    """Expansion of (1 - x)**(-alpha): coefficient n is (alpha)_n / n!."""
    alpha = Fraction(alpha)
    coeffs = [Fraction(1)]
    for n in range(order):
        coeffs.append(coeffs[-1] * (alpha + n) / (n + 1))
    return TruncatedSeries(tuple(coeffs))


def _common_denominator(coeffs) -> tuple:
    """(numerators, d): integers with coeffs[k] == numerators[k] / d, for the
    least common denominator d."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den
