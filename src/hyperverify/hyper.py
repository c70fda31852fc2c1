"""Generalized hypergeometric series with exact rational parameters.

Covers term generation, termination detection, exact evaluation of
terminating instances, expansion as a series in the argument, and weighted
sums whose terms carry a polynomial-in-n coefficient on top of the usual
Pochhammer quotient.  Each walks the integer ratio rows of its parameter
groups through one combiner and builds one `Fraction` per result.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from .exact import is_nonpositive_integer
from .series import TruncatedSeries, _common_denominator, _fractions


def _termination(parameters) -> int | None:
    """Index of the last possibly-nonzero term forced by nonpositive-integer
    parameters, or None when no parameter terminates the series."""
    stops = [-int(p) for p in parameters if is_nonpositive_integer(p)]
    return min(stops) if stops else None


@dataclass(frozen=True)
class HyperSpec:
    """One pFq instance: numerator parameters, denominator parameters, argument.

    Construction enforces the legality rule for lower parameters (see
    check_lower).
    """

    numerators: tuple
    denominators: tuple
    argument: Fraction = field(default=Fraction(1))
    # the termination index, the smallest M with every term beyond M zero
    # (None when the series does not terminate)
    stop: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "numerators", _fractions(self.numerators))
        object.__setattr__(self, "denominators", _fractions(self.denominators))
        if type(self.argument) is not Fraction:
            object.__setattr__(self, "argument", Fraction(self.argument))
        stop = _termination(self.numerators)
        object.__setattr__(self, "stop", stop)
        check_lower(self.denominators, stop)


def check_lower(denominators, stop) -> None:
    """The legality rule of HyperSpec: raise for the first lower parameter
    beta, in list order, whose Pochhammer vanishes (at term 1 - beta) while
    terms are alive, that is before the stop index (None: never)."""
    for beta in denominators:
        if is_nonpositive_integer(beta) and (stop is None or stop > -beta):
            raise DenominatorPoleBeforeTermination(beta, int(1 - beta))


def ratio_rows(numerators, denominators, argument: Fraction, count: int) -> tuple:
    """Integer rows (a_n, b_n, pole), n = 0 .. count-1, of one parameter
    group: a_n / b_n is its share of the ratio of term n+1 to term n of
    prod (num_i)_n / prod (den_i)_n * argument**n, n! left to the caller,
    and pole is its first lower parameter that vanishes at n, or None.
    Never raises; ends before the step where the numerators vanish."""
    nums = [(p.numerator, p.denominator) for p in numerators]
    dens = [(q, q.numerator, q.denominator) for q in denominators]
    a_const = argument.numerator * math.prod(qd for _, _, qd in dens)
    b_const = argument.denominator * math.prod(pd for _, pd in nums)
    rows = []
    for n in range(count):
        a = a_const * math.prod(pn + n * pd for pn, pd in nums)
        if a == 0:
            break
        b, pole = b_const, None
        for q, qn, qd in dens:
            factor = qn + n * qd
            if factor == 0 and pole is None:
                pole = q
            b *= factor
        rows.append((a, b, pole))
    return tuple(rows)


def _combined(row_sets):
    """Yield (1, 1), then integer pairs (a_n, b_n), n = 1, 2, ..., with
    a_n / b_n the ratio of term n to term n-1 of the family with every
    group's parameters, n! included, until a numerator product vanishes.
    A lower parameter vanishing at a step walked raises, head group first."""
    yield 1, 1
    for n, rows in enumerate(zip(*row_sets), 1):
        a, b = 1, n
        for ra, rb, pole in rows:
            if pole is not None:
                raise DenominatorPoleBeforeTermination(pole, n)
            a *= ra
            b *= rb
        yield a, b


def _weighted_terms(row_sets, up_to: int, weight=(1,), den: int = 1) -> list:
    """weight(n) * term_n / den for n = 0..up_to, the terms those of the
    product of the row sets, the weight's ascending coefficients read by
    Horner's rule; the list ends early when the terms die out."""
    terms, num, weight = [], 1, weight[::-1]
    for n, (a, b) in zip(range(up_to + 1), _combined(row_sets)):
        num *= a
        den *= b
        w = 0
        for c in weight:
            w = w * n + c
        terms.append(Fraction(w * num, den))
    return terms


def sum_rows(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> Fraction:
    """Exact sum over n = 0..up_to of weight(n) / w_den * term_n, as in
    _weighted_terms, kept as one running integer total over one den."""
    total, num, den, weight = 0, 1, 1, weight[::-1]
    for n, (a, b) in zip(range(up_to + 1), _combined(row_sets)):
        num *= a
        den *= b
        w = 0
        for c in weight:
            w = w * n + c
        total = total * b + w * num
    return Fraction(total, den * w_den)


def eval_terminating(spec: HyperSpec) -> Fraction:
    """Exact value of a terminating series, by iterated term ratios."""
    if spec.stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    rows = ratio_rows(spec.numerators, spec.denominators, spec.argument, spec.stop)
    return sum_rows((rows,), spec.stop)


def series_in_z(spec: HyperSpec, order: int) -> TruncatedSeries:
    """Series expansion in the argument: coefficient n is the Pochhammer
    quotient over n!.  The stored argument of the spec is ignored."""
    limit = order if spec.stop is None else min(order, spec.stop)
    rows = ratio_rows(spec.numerators, spec.denominators, Fraction(1), limit)
    coeffs = _weighted_terms((rows,), limit)
    coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(tuple(coeffs))


@dataclass(frozen=True)
class WeightedSumSpec:
    """A weighted hypergeometric-style term family.

    Term n is

        weight(n) * prod (num_i)_n / (prod (den_i)_n * n!) * argument**n

    on degree 2n + offset of a series in x, with weight a polynomial in n
    (ascending coefficients), evaluated per term rather than absorbed into
    extra Pochhammer parameters, so the absorbed closed forms computed
    elsewhere stay an independent path.  With no legality rule, a spec
    can also be one group of a larger family.
    """

    weight: tuple
    numerators: tuple
    denominators: tuple
    power_offset: int = 0
    argument: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        for name in ("weight", "numerators", "denominators"):
            object.__setattr__(self, name, _fractions(getattr(self, name)))
        if type(self.argument) is not Fraction:
            object.__setattr__(self, "argument", Fraction(self.argument))

    @functools.cached_property
    def integer_weight(self) -> tuple:
        """(integer coefficients, their denominator) of the weight."""
        return _common_denominator(self.weight)

    def rows(self, count: int) -> tuple:
        """ratio_rows of the spec's parameters and argument."""
        return ratio_rows(self.numerators, self.denominators, self.argument, count)


def weighted_termination(spec: WeightedSumSpec) -> int | None:
    """Last index whose Pochhammer product can be nonzero, if any is forced."""
    return _termination(spec.numerators)


def eval_weighted_sum(spec: WeightedSumSpec, up_to: int) -> Fraction:
    """Exact finite sum of the weighted terms for n = 0..up_to."""
    return sum_rows((spec.rows(up_to),), up_to, *spec.integer_weight)


def weighted_series(spec: WeightedSumSpec, order: int) -> TruncatedSeries:
    """The same term family rendered as a series in x: term n lands on
    degree 2n + offset, and no term is walked past the order."""
    coeffs = [Fraction(0)] * (order + 1)
    up_to = (order - spec.power_offset) // 2
    terms = _weighted_terms((spec.rows(up_to),), up_to, *spec.integer_weight)
    for n, c in enumerate(terms):
        coeffs[2 * n + spec.power_offset] = c
    return TruncatedSeries(tuple(coeffs))
