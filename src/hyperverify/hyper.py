"""Term families with exact rational parameters.

One type, HyperSpec, covers every series here: term n is a Pochhammer
quotient times argument**n, times a polynomial weight in n.  A plain pFq
has the unit weight.  The module finds where a family terminates, applies
the legality rule for its lower parameters, sums terminating instances
exactly, and expands a family as a series in its argument or in x.  A
sum may take several specs as the groups of one family, the parameters of
all of them together.  Each walks the integer ratio rows of its groups
through one combiner; a sum keeps one running integer pair, which the
public sums reduce to one `Fraction`, and a series comes back as integer
numerators over one denominator, with no `Fraction`.
"""

import functools
import math
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from .series import (
    TruncatedSeries,
    _common_denominator,
    _fractions,
    _over_lcm,
    _reduced,
    _times,
)
from .value import Value


class HyperSpec(Value):
    """One term family.  Term n is

        weight(n) * prod (num_i)_n / (prod (den_i)_n * n!) * argument**n

    with weight a polynomial in n (ascending coefficients), evaluated per
    term rather than absorbed into extra Pochhammer parameters, so the
    absorbed closed forms computed elsewhere stay an independent path.
    weighted_series puts term n on degree 2n + power_offset of a series
    in x.  Construction applies no legality rule (see check_lower), so a
    spec can also be one group of a larger family.  The sums read the
    parameters and argument as reduced integer pairs (p, q), q > 0.

    A spec also keeps, uncompared: `stop`, the smallest M with every term
    beyond M zero, or None; `poles`, its nonpositive-integer lower
    parameters in order; `integer_weight`, the weight as (integers, their
    denominator); and `_rows`, its ratio rows by count, built as needed.
    """

    _fields = ("num_pairs", "den_pairs", "arg_pair", "weight", "power_offset")

    def __init__(self, numerators, denominators, argument=1, *,
                 weight=(1,), power_offset=0):
        nums, dens = _fractions(numerators), _fractions(denominators)
        (arg,) = _fractions((argument,))
        _set_up(self, [p.as_integer_ratio() for p in nums],
                [q.as_integer_ratio() for q in dens], arg.as_integer_ratio(),
                _fractions(weight), power_offset)
        self.__dict__.update(numerators=nums, denominators=dens, argument=arg)

    @classmethod
    def from_pairs(cls, numerators, denominators, argument=(1, 1), *,
                   weight=(Fraction(1),), power_offset=0) -> "HyperSpec":
        """The spec of integer-pair parameters and argument (p, q), q != 0,
        each reduced here, and a weight of Fractions; its Fraction
        numerators, denominators and argument are built when first read."""
        spec = object.__new__(cls)
        _set_up(spec, map(_lowest, numerators), map(_lowest, denominators),
                _lowest(argument), weight, power_offset)
        return spec

    numerators = functools.cached_property(
        lambda self: tuple(Fraction(p, q) for p, q in self.num_pairs))
    denominators = functools.cached_property(
        lambda self: tuple(Fraction(p, q) for p, q in self.den_pairs))
    argument = functools.cached_property(lambda self: Fraction(*self.arg_pair))

    def rows(self, count: int) -> tuple:
        """ratio_rows of the spec's parameters and argument, built once
        per count and kept."""
        rows = self._rows.get(count)
        if rows is None:
            rows = self._rows[count] = ratio_rows(
                self.num_pairs, self.den_pairs, self.arg_pair, count)
        return rows


def _lowest(pair) -> tuple:
    p, q = pair
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return p // g, q // g


def _set_up(spec, nums, dens, arg, weight, power_offset) -> None:
    """Set the fields of a spec from its reduced integer pairs."""
    dens = tuple(dens)
    spec.__dict__.update(
        num_pairs=tuple(nums), den_pairs=dens, arg_pair=arg, weight=weight,
        power_offset=power_offset, integer_weight=_common_denominator(weight),
        poles=tuple(p for p, q in dens if q == 1 and p <= 0), _rows={})
    spec.__dict__["stop"] = weighted_termination(spec)


def weighted_termination(spec: HyperSpec) -> int | None:
    """Last index whose Pochhammer product can be nonzero, if any is forced."""
    return min((-p for p, q in spec.num_pairs if q == 1 and p <= 0),
               default=None)


def _stop(specs) -> int | None:
    """The termination index of the family with every spec's parameters."""
    return min((s.stop for s in specs if s.stop is not None), default=None)


def check_lower(*specs) -> None:
    """The legality rule of the family with the specs' parameters: no
    lower parameter beta may vanish (at term 1 - beta) while terms are
    alive, that is before the family's stop (None: never).  Of those
    that do, the earliest to vanish, the largest beta, is named, as the
    combined walk would meet it."""
    stop = _stop(specs)
    live = [beta for spec in specs for beta in spec.poles
            if stop is None or stop > -beta]
    if live:
        beta = max(live)
        raise DenominatorPoleBeforeTermination(beta, int(1 - beta))


def ratio_rows(numerators, denominators, argument, count: int) -> tuple:
    """Integer rows (a_n, b_n, pole), n = 0 .. count-1, of one parameter
    group: a_n / b_n is its share of the ratio of term n+1 to term n of
    prod (num_i)_n / prod (den_i)_n * argument**n, n! left to the caller,
    and pole is -n when a lower parameter vanishes at n, else None.  The
    parameters and the argument are integer pairs (p, q), q > 0.  Never
    raises; ends before the step where the numerators vanish."""
    an, ad = argument
    a_const = an * math.prod(qd for _, qd in denominators)
    b_const = ad * math.prod(pd for _, pd in numerators)
    rows = []
    for n in range(count):
        a = a_const * math.prod(pn + n * pd for pn, pd in numerators)
        if a == 0:
            break
        b = math.prod(qn + n * qd for qn, qd in denominators) * b_const
        rows.append((a, b, None if b else -n))
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


def _weighted_terms(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> tuple:
    """weight(n) / w_den * term_n for n = 0..up_to, the terms those of
    the product of the row sets, the weight's ascending coefficients read
    by Horner's rule, as (integer numerators, their least common
    denominator), reduced; the numerators end early when the terms die
    out.  Each term is kept in lowest terms as it is walked."""
    terms, num, den, weight = [], 1, 1, weight[::-1]
    for n, (a, b) in zip(range(up_to + 1), _combined(row_sets)):
        num, den = _times(num, den, a, b)
        w = 0
        for c in weight:
            w = w * n + c
        g = math.gcd(w, den)
        terms.append((w // g * num, den // g))
    nums, den = _over_lcm(terms)
    # the terms over den are reduced, so only w_den can cancel
    g = math.gcd(w_den, *nums)
    return [x // g for x in nums], den * (w_den // g)


def _row_sum(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> tuple:
    """Exact sum over n = 0..up_to of weight(n) / w_den * term_n, as in
    _weighted_terms, kept as one running integer total over one den and
    returned unreduced: (numerator, denominator), the denominator nonzero
    and of either sign."""
    total, num, den, weight = 0, 1, 1, weight[::-1]
    for n, (a, b) in zip(range(up_to + 1), _combined(row_sets)):
        num *= a
        den *= b
        w = 0
        for c in weight:
            w = w * n + c
        total = total * b + w * num
    return total, den * w_den


def sum_rows(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> Fraction:
    """The value of _row_sum, reduced."""
    return Fraction(*_row_sum(row_sets, up_to, weight, w_den))


def _weighted_pair(*specs: HyperSpec) -> tuple:
    """Sum of the family with the specs' parameters and the first one's
    weight, up to the family's stop, as _row_sum's unreduced pair."""
    stop = _stop(specs)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    return _row_sum([spec.rows(stop) for spec in specs], stop,
                    *specs[0].integer_weight)


def _terminating_pair(*specs: HyperSpec) -> tuple:
    """_weighted_pair under the legality rule (checked first)."""
    check_lower(*specs)
    return _weighted_pair(*specs)


def eval_terminating(*specs: HyperSpec) -> Fraction:
    """Exact value of a terminating series, the family with the specs'
    parameters, under the legality rule (checked first)."""
    return Fraction(*_terminating_pair(*specs))


def eval_weighted_sum(*specs: HyperSpec) -> Fraction:
    """Exact sum of the weighted terms up to the family's stop; a lower
    parameter is only rejected where the walk meets it."""
    return Fraction(*_weighted_pair(*specs))


def series_in_z(spec: HyperSpec, order: int) -> TruncatedSeries:
    """Series expansion in the argument, under the legality rule:
    coefficient n is term n at argument 1, so the stored argument of the
    spec is ignored."""
    check_lower(spec)
    limit = order if spec.stop is None else min(order, spec.stop)
    rows = ratio_rows(spec.num_pairs, spec.den_pairs, (1, 1), limit)
    nums, den = _weighted_terms((rows,), limit, *spec.integer_weight)
    return _reduced(nums + [0] * (order + 1 - len(nums)), den)


def weighted_series(spec: HyperSpec, order: int) -> TruncatedSeries:
    """The term family rendered as a series in x: term n lands on
    degree 2n + offset, and no term is walked past the order."""
    up_to = (order - spec.power_offset) // 2
    terms, den = _weighted_terms((spec.rows(up_to),), up_to,
                                 *spec.integer_weight)
    nums = [0] * (order + 1)
    start = spec.power_offset
    nums[start:start + 2 * len(terms):2] = terms
    return _reduced(nums, den)
