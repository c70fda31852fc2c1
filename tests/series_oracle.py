"""Plain-Fraction oracles kept for the tests.

The package expands the transformation's left side by the closed form of
the Moebius substitution; the cubic-time Horner composition here
recomputes it the direct way at small orders.  The package interpolates
the weight polynomials with integer Newton differences; the plain
Fraction Newton loop here is the reference they are checked against.
The package sums a terminating series by iterated integer term ratios;
the direct sum here rebuilds every term from scratch instead.  The
package builds its specs from integer pairs and keeps each sum as an
integer pair; `spec` and the three sums here let the tests state a spec
in rationals and read a sum as one Fraction.  The package reduces Gamma
products on integer pairs; the Fraction reduction here, with one
Pochhammer symbol per pair, is the reference it is checked against.
"""

import math
from fractions import Fraction

from hyperverify.errors import (
    NonTerminatingSeries,
    PoleError,
    TranscendentalResidue,
    VerificationError,
)
from hyperverify.exact import pochhammer
from hyperverify.hyper import (
    HyperSpec,
    _row_sum,
    _terminating_pair,
    _weighted_pair,
)
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


def spec(numerators, denominators, argument=1, *, weight=(1,), power_offset=0):
    """The HyperSpec of rational parameters, argument and weight."""
    nums, dens, (arg,) = ([Fraction(x).as_integer_ratio() for x in xs]
                          for xs in (numerators, denominators, [argument]))
    return HyperSpec(nums, dens, arg, weight=tuple(map(Fraction, weight)),
                     power_offset=power_offset)


# hyper's integer sums, each reduced to one Fraction
def sum_rows(*args) -> Fraction:
    return Fraction(*_row_sum(*args))


def eval_terminating(*specs) -> Fraction:
    return Fraction(*_terminating_pair(*specs))


def eval_weighted_sum(*specs) -> Fraction:
    return Fraction(*_weighted_pair(*specs))


def eval_terminating_direct(spec, reverse: bool = False) -> Fraction:
    """The terminating series of a HyperSpec, every term rebuilt from
    scratch with its own Pochhammer products, summed upwards or, with
    `reverse`, downwards."""
    if spec.stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer"
        )
    indices = range(spec.stop, -1, -1) if reverse else range(spec.stop + 1)
    argument, total = Fraction(*spec.arg_pair), Fraction(0)
    for n in indices:
        term = argument ** n / math.factorial(n)
        for p in spec.num_pairs:
            term *= pochhammer(Fraction(*p), n)
        for q in spec.den_pairs:
            term /= pochhammer(Fraction(*q), n)
        total += term
    return total


def _fraction_lone_gamma(arg: Fraction) -> Fraction:
    if arg.denominator != 1:
        raise TranscendentalResidue(arg)
    if arg <= 0:
        raise PoleError(arg)
    return Fraction(math.factorial(arg.numerator - 1))


def fraction_gamma_simplify(product) -> Fraction:
    """A GammaProduct reduced in Fraction arithmetic: its factors split
    into classes of arguments that differ by integers, visited in the
    order of arg - floor(arg); within a class the sorted numerator and
    denominator arguments are paired in order, each pair a Pochhammer
    symbol, a vanished one multiplied in zeroing the product and one
    divided by raising; the unpaired ones are (m-1)!, poles, or
    irrational."""
    classes = {}
    for arg, exp in product.factors:
        classes.setdefault(arg - math.floor(arg), []).append((arg, exp))
    result = Fraction(1)
    vanished = False
    for _, entries in sorted(classes.items()):
        upper = []
        lower = []
        for arg, exp in entries:
            (upper if exp > 0 else lower).extend([arg] * abs(exp))
        upper.sort()
        lower.sort()
        for u, v in zip(upper, lower):
            if u >= v:
                step = pochhammer(v, int(u - v))
                if step == 0:
                    vanished = True
                else:
                    result *= step
            else:
                step = pochhammer(u, int(v - u))
                if step == 0:
                    raise PoleError(u)
                result /= step
        for arg in upper[len(lower):]:
            result *= _fraction_lone_gamma(arg)
        for arg in lower[len(upper):]:
            result /= _fraction_lone_gamma(arg)
    return Fraction(0) if vanished else result
