"""Plain-Fraction oracles kept for the tests.

The package expands the transformation's left side by the closed form of
the Moebius substitution; the cubic-time Horner composition here, with
the Fraction recurrence of the binomial factor, recomputes it the direct
way at small orders.
The package sums a terminating series by iterated integer term ratios
in one two-group kernel; `row_sum` here is the general loop over any
number of groups that the kernel replaced, and the direct sum here
rebuilds every term from scratch instead.  The package builds its specs
from integer pairs and keeps each sum as an integer pair; `spec` and
`eval_terminating` here let the tests state a spec in rationals and
read a sum as one Fraction.  The package reduces Gamma products on
integer pairs; the Fraction reduction here, with one Pochhammer symbol
per pair, is the reference it is checked against.  The package keeps
the corollary and pipeline sides as methods of a (j, a, b) row over one
(d, e) column; `corollary_rhs` and `beta_integral_pipeline` here read
them on one case, each pair as a Fraction.  The package adds the two
scaled parts of the transformation's right side over one denominator
and reduces once; `composed_transform_rhs` here reduces each part, each
scaling and the sum, as the package once did.
"""

import math
from fractions import Fraction

from hyperverify.errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
    PoleError,
    TranscendentalResidue,
    VerificationError,
)
from hyperverify.exact import pochhammer
from hyperverify.hyper import (
    HyperSpec,
    _terminating_pair,
    check_lower,
    ratio_rows,
)
from hyperverify.hyper import weighted_series
from hyperverify.identities import _Column, _Row
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


def binomial(alpha, order: int) -> TruncatedSeries:
    """(1 - x)**(-alpha) by the Fraction recurrence of its coefficients,
    c_0 = 1 and c_{n+1} = c_n (alpha + n) / (n + 1)."""
    coeffs = [Fraction(1)]
    for n in range(order):
        coeffs.append(coeffs[-1] * (alpha + n) / (n + 1))
    return TruncatedSeries(coeffs)


def mobius_arg(order: int) -> TruncatedSeries:
    """The substitution argument -2x/(1 - x) as a series: 0, then -2 forever."""
    return TruncatedSeries((Fraction(0),) + (Fraction(-2),) * order)


def spec(numerators, denominators, argument=1, *, weight=(1,), power_offset=0):
    """The HyperSpec of rational parameters, argument and weight."""
    nums, dens, (arg,) = ([Fraction(x).as_integer_ratio() for x in xs]
                          for xs in (numerators, denominators, [argument]))
    return HyperSpec(nums, dens, arg, weight=tuple(map(Fraction, weight)),
                     power_offset=power_offset)


def row_sum(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> tuple:
    """Exact sum over n = 0..up_to of weight(n) / w_den * term_n, the
    terms those of the family with every group's parameters, n!
    included, until a numerator product vanishes: the general loop over
    any number of row sets that the package's two-group kernel
    (hyper._terminating_pair) replaced, kept as its reference.  Step n
    multiplies the groups' rows (a, b) of that step, first group first;
    a row with b = 0 has a lower factor that vanished, the parameter
    1 - n, and raises there.  The weight's ascending coefficients are
    read by Horner's rule, and the sum is one running integer total over
    one denominator, returned unreduced."""
    if up_to < 0:
        return 0, w_den
    weight = weight[::-1]
    total, num, den = weight[-1], 1, 1  # term 0 is 1
    for n, rows in zip(range(1, up_to + 1), zip(*row_sets)):
        a, b = 1, n
        for ra, rb in rows:
            if rb == 0:
                raise DenominatorPoleBeforeTermination(1 - n, n)
            a *= ra
            b *= rb
        num *= a
        den *= b
        w = 0
        for c in weight:
            w = w * n + c
        total = total * b + w * num
    return total, den * w_den


def chain_pair(specs, legal: bool) -> tuple:
    """The family with the specs' parameters and the first one's weight,
    summed as the package did before its kernel: the legality rule
    (check_lower) on every call with `legal`, else the smallest of the
    specs' stops, with a pole only raised where row_sum meets it;
    NonTerminatingSeries without a stop; then every spec's rows, built
    afresh to the stop, through row_sum."""
    if legal:
        stop = check_lower(*specs)
    else:
        stop = min((s.stop for s in specs if s.stop is not None), default=None)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    rows = [ratio_rows(s.num_pairs, s.den_pairs, s.arg_pair, stop)
            for s in specs]
    return row_sum(rows, stop, *specs[0].integer_weight)


def sum_rows(*args) -> Fraction:
    """row_sum reduced to one Fraction."""
    return Fraction(*row_sum(*args))


def eval_terminating(*specs) -> Fraction:
    """hyper's integer sum reduced to one Fraction."""
    return Fraction(*_terminating_pair(*specs))


def corollary_rhs(case) -> Fraction:
    """The closed corollary right side of one case, |j| <= 3, after the
    identity's hypotheses, which a sweep checks before the left side."""
    row, column = _Row(case.j, case.a, case.b), _Column(case.d, case.e)
    row._check_terminates(column)
    return Fraction(*row.corollary_rhs_pair(column))


def composed_transform_rhs(j, a, b, order) -> TruncatedSeries:
    """The transformation's right side as the package composed it before
    it reduced once: each part a reduced weighted_series, scaled by its
    scale as a Fraction, and the two parts added, every step reduced."""
    row = _Row(j, Fraction(a), Fraction(b))
    even, odd = row.part_heads
    total = weighted_series(even, order).scale(Fraction(*row.even_scale))
    if odd is not None:
        total = total + weighted_series(odd, order).scale(
            Fraction(*row.odd_scale))
    return total


def beta_integral_pipeline(case) -> tuple:
    """(the moment transform of the left-side polynomial, the left side)
    of one case, whose equality is the identity itself."""
    row, column = _Row(case.j, case.a, case.b), _Column(case.d, case.e)
    return Fraction(*row.moment_pair(column)), Fraction(*row.left(column))


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


def fraction_gamma_simplify(numerators, denominators) -> Fraction:
    """Gamma(n_1)...Gamma(n_k) / (Gamma(d_1)...Gamma(d_m)) reduced in
    Fraction arithmetic: equal arguments merge into one net exponent,
    and those left split into classes of arguments that differ by
    integers, visited in the order of arg - floor(arg); within a class
    the sorted numerator and denominator arguments are paired in order,
    each pair a Pochhammer symbol, a vanished one multiplied in zeroing
    the product and one divided by raising; the unpaired ones are
    (m-1)!, poles, or irrational."""
    net = {}
    for sign, args in ((1, numerators), (-1, denominators)):
        for arg in map(Fraction, args):
            net[arg] = net.get(arg, 0) + sign
    classes = {}
    for arg, exp in net.items():
        if exp:
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
