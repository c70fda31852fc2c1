"""Term families with exact rational parameters.

One type, HyperSpec, covers every series here: term n is a Pochhammer
quotient times argument**n, times a polynomial weight in n.  A plain pFq
has the unit weight.  The module finds where a family terminates, applies
the legality rule for its lower parameters, sums terminating instances
exactly, and expands a family as a series in its argument or in x.  A
sum may take several specs as the groups of one family, the parameters of
all of them together.  A sum takes the family's stop once from its specs,
fetches each spec's integer ratio rows once, and walks them in one plain
loop (_row_sum), which multiplies the groups' rows step by step, head
group first, and raises at the first lower parameter that vanishes.  A
sum keeps one running integer total over one denominator, and comes
back as that unreduced integer pair.  A series expansion steps one
group's rows in the series walk (series._walk_terms), which keeps each
term reduced, and comes back as integer numerators over their least
common denominator, with no `Fraction`.
"""

import math
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from .series import (
    TruncatedSeries,
    _common_denominator,
    _reduced,
    _walk_terms,
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
    spec can also be one group of a larger family.  The parameters and
    the argument are integer pairs (p, q), q != 0, which the constructor
    reduces so that q > 0; the weight is a tuple of Fractions.

    A spec also keeps, uncompared: `stop`, the smallest M with every term
    beyond M zero, or None; `poles`, its nonpositive-integer lower
    parameters in order; `integer_weight`, the weight as (integers, their
    denominator); and `_rows`, its ratio rows by count, built as needed.
    """

    _fields = ("num_pairs", "den_pairs", "arg_pair", "weight", "power_offset")

    def __init__(self, numerators, denominators, argument=(1, 1), *,
                 weight=(Fraction(1),), power_offset=0):
        dens = tuple(map(_lowest, denominators))
        self.__dict__.update(
            num_pairs=tuple(map(_lowest, numerators)), den_pairs=dens,
            arg_pair=_lowest(argument), weight=weight,
            power_offset=power_offset,
            integer_weight=_common_denominator(weight),
            poles=tuple(p for p, q in dens if q == 1 and p <= 0), _rows={})
        self.__dict__["stop"] = weighted_termination(self)

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


def weighted_termination(spec: HyperSpec) -> int | None:
    """Last index whose Pochhammer product can be nonzero, if any is forced."""
    return min((-p for p, q in spec.num_pairs if q == 1 and p <= 0),
               default=None)


def _stop(specs) -> int | None:
    """The termination index of the family with every spec's parameters."""
    stop = None
    for spec in specs:
        if spec.stop is not None and (stop is None or spec.stop < stop):
            stop = spec.stop
    return stop


def check_lower(*specs) -> int | None:
    """The legality rule of the family with the specs' parameters: no
    lower parameter beta may vanish (at term 1 - beta) while terms are
    alive, that is before the family's stop (None: never).  Of those
    that do, the earliest to vanish, the largest beta, is named, as the
    walk would meet it.  Returns the stop."""
    stop = _stop(specs)
    live = [beta for spec in specs for beta in spec.poles
            if stop is None or stop > -beta]
    if live:
        beta = max(live)
        raise DenominatorPoleBeforeTermination(beta, int(1 - beta))
    return stop


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
        a, b = a_const, b_const
        for pn, pd in numerators:
            a *= pn + n * pd
        if a == 0:
            break
        for qn, qd in denominators:
            b *= qn + n * qd
        rows.append((a, b, None if b else -n))
    return tuple(rows)


def _row_sum(row_sets, up_to: int, weight=(1,), w_den: int = 1) -> tuple:
    """Exact sum over n = 0..up_to of weight(n) / w_den * term_n, the
    terms those of the family with every group's parameters, n!
    included, until a numerator product vanishes.  One loop walks the
    row sets: step n multiplies the groups' rows of that step, head group
    first, and a lower parameter vanishing there raises.  The weight's
    ascending coefficients are read by Horner's rule, and the sum is one
    running integer total over one denominator, returned unreduced:
    (numerator, denominator), the denominator nonzero and of either sign.
    The loop only sums; a series steps its own walk (series._walk_terms)."""
    if up_to < 0:
        return 0, w_den
    weight = weight[::-1]
    total, num, den = weight[-1], 1, 1  # term 0 is 1
    for n, rows in zip(range(1, up_to + 1), zip(*row_sets)):
        a, b = 1, n
        for ra, rb, pole in rows:
            if pole is not None:
                raise DenominatorPoleBeforeTermination(pole, n)
            a *= ra
            b *= rb
        num *= a
        den *= b
        w = 0
        for c in weight:
            w = w * n + c
        total = total * b + w * num
    return total, den * w_den


def _sum_to(specs, stop) -> tuple:
    """Sum of the family with the specs' parameters and the first one's
    weight, up to stop, the family's stop, as _row_sum's unreduced pair:
    each spec's rows are fetched once and walked in one loop."""
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    return _row_sum([spec.rows(stop) for spec in specs], stop,
                    *specs[0].integer_weight)


def _weighted_pair(*specs: HyperSpec) -> tuple:
    """_sum_to the family's stop: a lower parameter is only rejected
    where the walk meets it."""
    return _sum_to(specs, _stop(specs))


def _terminating_pair(*specs: HyperSpec) -> tuple:
    """_weighted_pair under the legality rule (checked first), which
    gives the stop the walk takes."""
    return _sum_to(specs, check_lower(*specs))


def series_in_z(spec: HyperSpec, order: int) -> TruncatedSeries:
    """Series expansion in the argument, under the legality rule:
    coefficient n is term n at argument 1, so the stored argument of the
    spec is ignored."""
    stop = check_lower(spec)
    limit = order if stop is None else min(order, stop)
    rows = ratio_rows(spec.num_pairs, spec.den_pairs, (1, 1), limit)
    nums, den = _walk_terms(rows, *spec.integer_weight)
    return _reduced(nums + [0] * (order + 1 - len(nums)), den)


def weighted_series(spec: HyperSpec, order: int) -> TruncatedSeries:
    """The term family rendered as a series in x: term n lands on
    degree 2n + offset, and no term is walked past the order."""
    up_to = (order - spec.power_offset) // 2
    if up_to < 0:
        return _reduced([0] * (order + 1), 1)
    terms, den = _walk_terms(spec.rows(up_to), *spec.integer_weight)
    nums = [0] * (order + 1)
    start = spec.power_offset
    nums[start:start + 2 * len(terms):2] = terms
    return _reduced(nums, den)
