"""Generalized hypergeometric series with exact rational parameters.

Covers term generation, termination detection, exact evaluation of
terminating instances, expansion as a series in the argument, and weighted
sums whose terms carry a polynomial-in-n coefficient on top of the usual
Pochhammer quotient.  All of them walk one integer term-ratio iterator and
build one `Fraction` per result; a recompute-from-scratch path is kept for
cross-checks.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from .exact import is_nonpositive_integer, pochhammer
from .series import TruncatedSeries, _common_denominator, _fractions


def _termination(parameters) -> int | None:
    """Index of the last possibly-nonzero term forced by nonpositive-integer
    parameters, or None when no parameter terminates the series."""
    stops = [-int(p) for p in parameters if is_nonpositive_integer(p)]
    return min(stops) if stops else None


@dataclass(frozen=True)
class HyperSpec:
    """One pFq instance: numerator parameters, denominator parameters, argument.

    Construction enforces the legality rule for lower parameters: a
    nonpositive-integer denominator parameter is only allowed when some
    numerator parameter truncates the series strictly before the
    denominator Pochhammer vanishes.
    """

    numerators: tuple
    denominators: tuple
    argument: Fraction = field(default=Fraction(1))
    # the termination index, found once by the legality check below
    stop: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "numerators", _fractions(self.numerators))
        object.__setattr__(self, "denominators", _fractions(self.denominators))
        if type(self.argument) is not Fraction:
            object.__setattr__(self, "argument", Fraction(self.argument))
        stop = _termination(self.numerators)
        object.__setattr__(self, "stop", stop)
        for beta in self.denominators:
            if not is_nonpositive_integer(beta):
                continue
            # (beta)_n first vanishes at n = 1 - beta; terms must stop sooner.
            if stop is None or stop > -beta:
                raise DenominatorPoleBeforeTermination(beta, int(1 - beta))


def termination_index(spec: HyperSpec) -> int | None:
    """Smallest M with every term beyond M vanishing, if the series terminates."""
    return spec.stop


def _term_ratios(numerators, denominators, argument=Fraction(1)):
    """Yield (1, 1), the ratio of term 0 to the empty product, then
    integer pairs (a_n, b_n), n = 0, 1, ..., with a_n / b_n the ratio of
    term n+1 to term n of prod (num_i)_n / (prod (den_i)_n * n!) * argument**n;
    nothing is reduced.  Stops when the numerator product vanishes, before
    any denominator is looked at: later terms are then exactly zero, and a
    lower parameter is only a genuine pole while terms are still alive.
    """
    nums = [(p.numerator, p.denominator) for p in numerators]
    dens = [(q, q.numerator, q.denominator) for q in denominators]
    a_const = math.prod(qd for _, _, qd in dens)
    b_const = argument.denominator * math.prod(pd for _, pd in nums)
    yield 1, 1
    n = 0
    while True:
        a = a_const * math.prod(pn + n * pd for pn, pd in nums)
        if a == 0:
            return
        b = b_const * (n + 1)
        for q, qn, qd in dens:
            factor = qn + n * qd
            if factor == 0:
                raise DenominatorPoleBeforeTermination(q, n + 1)
            b *= factor
        yield a * argument.numerator, b
        n += 1


def _poly_at(coeffs, n: int):
    """Horner value at n of the polynomial with ascending coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = value * n + c
    return value


def _weighted_total(ratios, weight, up_to: int) -> tuple:
    """(total, den): integers with total / den the sum over n = 0..up_to of
    weight(n) * term_n, the terms given by the ratios of _term_ratios."""
    total, num, den = 0, 1, 1
    for n, (a, b) in zip(range(up_to + 1), ratios):
        num *= a
        den *= b
        total = total * b + _poly_at(weight, n) * num
    return total, den


def _weighted_terms(ratios, weight, den: int, up_to: int) -> list:
    """weight(n) * term_n / den for n = 0..up_to, as in _weighted_total;
    the list ends early when the terms die out."""
    terms, num = [], 1
    for n, (a, b) in zip(range(up_to + 1), ratios):
        num *= a
        den *= b
        terms.append(Fraction(_poly_at(weight, n) * num, den))
    return terms


def eval_terminating(spec: HyperSpec) -> Fraction:
    """Exact value of a terminating series, by iterated term ratios."""
    stop = termination_index(spec)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer"
        )
    ratios = _term_ratios(spec.numerators, spec.denominators, spec.argument)
    return Fraction(*_weighted_total(ratios, (1,), stop))


def eval_terminating_direct(spec: HyperSpec, reverse: bool = False) -> Fraction:
    """Slow cross-check: every term rebuilt from scratch, any summation order."""
    stop = termination_index(spec)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer"
        )
    indices = range(stop, -1, -1) if reverse else range(stop + 1)
    total = Fraction(0)
    for n in indices:
        term = spec.argument ** n / math.factorial(n)
        for p in spec.numerators:
            term *= pochhammer(p, n)
        for q in spec.denominators:
            term /= pochhammer(q, n)
        total += term
    return total


def series_in_z(spec: HyperSpec, order: int) -> TruncatedSeries:
    """Series expansion in the argument: coefficient n is the Pochhammer
    quotient over n!.  The stored argument of the spec is ignored."""
    stop = termination_index(spec)
    limit = order if stop is None else min(order, stop)
    ratios = _term_ratios(spec.numerators, spec.denominators)
    coeffs = _weighted_terms(ratios, (1,), 1, limit)
    coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(tuple(coeffs))


@dataclass(frozen=True)
class WeightedSumSpec:
    """A weighted hypergeometric-style term family.

    Term n is

        weight(n) * prod (num_i)_n / (prod (den_i)_n * n!)

    on degree 2n + offset of a series in x, with weight a polynomial in n
    (ascending coefficients), evaluated per term rather than absorbed into
    extra Pochhammer parameters, so the absorbed closed forms computed
    elsewhere stay an independent path.
    """

    weight: tuple
    numerators: tuple
    denominators: tuple
    power_offset: int = 0

    def __post_init__(self):
        for name in ("weight", "numerators", "denominators"):
            object.__setattr__(self, name, _fractions(getattr(self, name)))


def weighted_termination(spec: WeightedSumSpec) -> int | None:
    """Last index whose Pochhammer product can be nonzero, if any is forced."""
    return _termination(spec.numerators)


def eval_weighted_sum(spec: WeightedSumSpec, up_to: int) -> Fraction:
    """Exact finite sum of the weighted terms for n = 0..up_to."""
    weight, w_den = _common_denominator(spec.weight)
    ratios = _term_ratios(spec.numerators, spec.denominators)
    total, den = _weighted_total(ratios, weight, up_to)
    return Fraction(total, den * w_den)


def weighted_series(spec: WeightedSumSpec, order: int) -> TruncatedSeries:
    """The same term family rendered as a series in x: term n lands on
    degree 2n + offset, and no term is walked past the order."""
    coeffs = [Fraction(0)] * (order + 1)
    up_to = (order - spec.power_offset) // 2
    weight, w_den = _common_denominator(spec.weight)
    ratios = _term_ratios(spec.numerators, spec.denominators)
    for n, c in enumerate(_weighted_terms(ratios, weight, w_den, up_to)):
        coeffs[2 * n + spec.power_offset] = c
    return TruncatedSeries(tuple(coeffs))
