"""Term families with exact rational parameters.

One type, HyperSpec, covers every series here: term n is a Pochhammer
quotient times argument**n, times a polynomial weight in n.  A plain pFq
has the unit weight.  The module finds where a family terminates, applies
the legality rule for its lower parameters, sums terminating instances
exactly, and expands a family as a series in its argument or in x.  A
sum may take several specs as the groups of one family, the parameters of
all of them together.  Each walks the integer ratio rows of its groups
through one combiner and builds one `Fraction` per result.
"""

import math
from dataclasses import KW_ONLY, dataclass, field
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from .exact import is_nonpositive_integer
from .series import TruncatedSeries, _common_denominator, _fractions


@dataclass(frozen=True)
class HyperSpec:
    """One term family.  Term n is

        weight(n) * prod (num_i)_n / (prod (den_i)_n * n!) * argument**n

    with weight a polynomial in n (ascending coefficients), evaluated per
    term rather than absorbed into extra Pochhammer parameters, so the
    absorbed closed forms computed elsewhere stay an independent path.
    weighted_series puts term n on degree 2n + power_offset of a series
    in x.  Construction applies no legality rule (see check_lower), so a
    spec can also be one group of a larger family.
    """

    numerators: tuple
    denominators: tuple
    argument: Fraction = field(default=Fraction(1))
    _: KW_ONLY
    weight: tuple = (1,)
    power_offset: int = 0
    # the termination index, the smallest M with every term beyond M zero
    # (None when the series does not terminate)
    stop: int | None = field(init=False, repr=False, compare=False)
    # the nonpositive-integer lower parameters, in list order
    poles: tuple = field(init=False, repr=False, compare=False)
    # (integer coefficients, their denominator) of the weight
    integer_weight: tuple = field(init=False, repr=False, compare=False)
    # ratio rows by count, built as sums ask for them
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("numerators", "denominators", "weight"):
            object.__setattr__(self, name, _fractions(getattr(self, name)))
        if type(self.argument) is not Fraction:
            object.__setattr__(self, "argument", Fraction(self.argument))
        derived = dict(
            stop=weighted_termination(self),
            poles=tuple(q for q in self.denominators if is_nonpositive_integer(q)),
            integer_weight=_common_denominator(self.weight),
            _rows={},
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def rows(self, count: int) -> tuple:
        """ratio_rows of the spec's parameters and argument, built once
        per count and kept."""
        rows = self._rows.get(count)
        if rows is None:
            rows = self._rows[count] = ratio_rows(
                self.numerators, self.denominators, self.argument, count)
        return rows


def weighted_termination(spec: HyperSpec) -> int | None:
    """Last index whose Pochhammer product can be nonzero, if any is forced."""
    return min((-int(p) for p in spec.numerators if is_nonpositive_integer(p)),
               default=None)


def _stop(specs) -> int | None:
    """The termination index of the family with every spec's parameters."""
    return min((s.stop for s in specs if s.stop is not None), default=None)


def check_lower(*specs) -> None:
    """The legality rule of the family with the specs' parameters, in
    order: raise for the first lower parameter beta, in list order, whose
    Pochhammer vanishes (at term 1 - beta) while terms are alive, that is
    before the family's stop (None: never)."""
    stop = _stop(specs)
    for spec in specs:
        for beta in spec.poles:
            if stop is None or stop > -beta:
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


def _sum_to_stop(specs) -> Fraction:
    """Sum of the family with the specs' parameters and the first one's
    weight, up to the family's stop."""
    stop = _stop(specs)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    return sum_rows([spec.rows(stop) for spec in specs], stop,
                    *specs[0].integer_weight)


def eval_terminating(*specs: HyperSpec) -> Fraction:
    """Exact value of a terminating series, the family with the specs'
    parameters, under the legality rule (checked first)."""
    check_lower(*specs)
    return _sum_to_stop(specs)


def eval_weighted_sum(*specs: HyperSpec) -> Fraction:
    """Exact sum of the weighted terms up to the family's stop; a lower
    parameter is only rejected where the walk meets it."""
    return _sum_to_stop(specs)


def series_in_z(spec: HyperSpec, order: int) -> TruncatedSeries:
    """Series expansion in the argument, under the legality rule:
    coefficient n is term n at argument 1, so the stored argument of the
    spec is ignored."""
    check_lower(spec)
    limit = order if spec.stop is None else min(order, spec.stop)
    rows = ratio_rows(spec.numerators, spec.denominators, Fraction(1), limit)
    coeffs = _weighted_terms((rows,), limit, *spec.integer_weight)
    coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(tuple(coeffs))


def weighted_series(spec: HyperSpec, order: int) -> TruncatedSeries:
    """The term family rendered as a series in x: term n lands on
    degree 2n + offset, and no term is walked past the order."""
    coeffs = [Fraction(0)] * (order + 1)
    up_to = (order - spec.power_offset) // 2
    terms = _weighted_terms((spec.rows(up_to),), up_to, *spec.integer_weight)
    for n, c in enumerate(terms):
        coeffs[2 * n + spec.power_offset] = c
    return TruncatedSeries(tuple(coeffs))
