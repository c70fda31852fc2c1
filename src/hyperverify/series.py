"""Dense truncated power series over exact rationals.

A :class:`TruncatedSeries` is the polynomial-of-degree-N view of a formal
power series in one variable: coefficients for x**0 .. x**order, stored
densely with explicit zeros.  It holds integer numerators over one
positive denominator, reduced so that the denominator and all numerators
have no common factor; that form is unique, so equality and hashing
compare integers.  `*`, `+` and `scale` are integer operations on that
form, and the `Fraction` coefficients are built only when first read.
Binary operations truncate to the smaller operand order, which is the
honest amount of shared information; nothing is combined or compared
beyond it.  The module holds integer series only: `hyper` turns
parameters into the ratio rows that `_walk_terms` steps, and applies
the legality rule before it hands them over.
"""

import functools
import math
import operator
from fractions import Fraction

from .value import Value, as_fraction


class TruncatedSeries(Value):
    _fields = ("numerators", "denominator")

    def __init__(self, coefficients):
        coeffs = tuple(as_fraction(c, "a coefficient") for c in coefficients)
        _set(self, *_common_denominator(coeffs))
        self.__dict__["coefficients"] = coeffs

    @classmethod
    def over(cls, numerators, denominator: int) -> "TruncatedSeries":
        """The series with coefficient k numerators[k] / denominator."""
        nums = tuple(numerators)
        if denominator == 0:
            raise ZeroDivisionError("a series over the denominator 0")
        if denominator < 0:
            nums, denominator = tuple(-x for x in nums), -denominator
        g = math.gcd(denominator, *nums)
        if g > 1:
            nums, denominator = tuple(x // g for x in nums), denominator // g
        return _reduced(nums, denominator)

    @functools.cached_property
    def coefficients(self) -> tuple:
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators)

    @property
    def order(self) -> int:
        return len(self.numerators) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order) + 1
        g = math.gcd(self.denominator, other.denominator)
        sp, sq = other.denominator // g, self.denominator // g
        return TruncatedSeries.over(
            [x * sp + y * sq
             for x, y in zip(self.numerators[:n], other.numerators[:n])],
            sq * other.denominator)

    def scale(self, c) -> "TruncatedSeries":
        c = as_fraction(c, "a scale factor")
        return TruncatedSeries.over(
            [x * c.numerator for x in self.numerators],
            self.denominator * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # An integer convolution of the numerators over the product of
        # the denominators, reduced once.
        n = min(self.order, other.order)
        p, q = self.numerators[: n + 1], other.numerators
        return TruncatedSeries.over(
            [sum(map(operator.mul, p, q[m::-1])) for m in range(n + 1)],
            self.denominator * other.denominator)


def _reduced(numerators, denominator: int) -> TruncatedSeries:
    """The series numerators[k] / denominator, which the caller has
    already reduced (denominator > 0, no factor common to all)."""
    series = object.__new__(TruncatedSeries)
    _set(series, numerators, denominator)
    return series


def _set(series, numerators, denominator: int) -> None:
    if not numerators:
        raise ValueError("a series needs at least its constant coefficient")
    series.__dict__.update(numerators=tuple(numerators), denominator=denominator)


def _times(x: int, y: int, a: int, b: int) -> tuple:
    """x/y * a/b in lowest terms, for x/y in lowest terms and b != 0:
    a/b is reduced, then each numerator is cancelled crosswise against
    the other denominator, so every gcd has a small argument."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    g, h = math.gcd(a, y), math.gcd(x, b)
    return x // h * (a // g), y // g * (b // h)


def _walk_terms(rows, weight=(1,), w_den: int = 1) -> tuple:
    """weight(n) / w_den * term_n for n = 0, 1, ... while the rows last,
    term n the product of the ratios a/b of one group's rows (a, b), no
    b zero, over n!, kept reduced by _times, the weight read by Horner's
    rule; as (integer numerators, their least common denominator)."""
    weight = weight[::-1]
    terms, x, y = [_times(1, 1, weight[-1], w_den)], 1, 1  # term 0 is 1
    for n, (a, b) in enumerate(rows, 1):
        x, y = _times(x, y, a, b * n)
        w = 0
        for c in weight:
            w = w * n + c
        terms.append(_times(x, y, w, w_den))
    # reduced pairs over their least common denominator stay reduced
    den = math.lcm(*(y for _, y in terms))
    return [x * (den // y) for x, y in terms], den


def _common_denominator(coeffs) -> tuple:
    """(numerators, d): integers with coeffs[k] == numerators[k] / d, for the
    least common denominator d."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den
