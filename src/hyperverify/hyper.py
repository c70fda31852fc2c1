"""Term families with exact rational parameters.

One type, HyperSpec, covers every series here: term n is a Pochhammer
quotient times argument**n, times a polynomial weight in n.  A plain pFq
has the unit weight.  This is the one module that turns parameters into
ratio rows and the one that knows about poles: it finds where a family
terminates, applies the legality rule for its lower parameters
(check_lower) before every walk, sums terminating instances exactly,
and expands a family as a series in its argument or in x.  A sum takes
a head spec and an optional tail spec as the two groups of one family,
the parameters of both together, and runs in one kernel
(_terminating_pair): the legality rule gives it the smaller of the two
stops, it returns the weight's constant term at stop 0 without building
a row, and otherwise walks the head's and the tail's integer ratio rows
in one zip.  A sum keeps one running integer total over one
denominator, and comes back as that unreduced integer pair.  A series
expansion takes the same rule over its whole family, whatever the
order, then steps one group's rows in the series walk
(series._walk_terms), which keeps each term reduced, and comes back as
integer numerators over their least common denominator, with no
`Fraction`.
"""

import itertools
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
    beyond M zero, or None; `first_pole`, its largest nonpositive-integer
    lower parameter, the earliest to vanish, or None; `integer_weight`,
    the weight as (integers, their denominator); and `_rows`, its ratio
    rows by count, built as needed.
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
            first_pole=max((p for p, q in dens if q == 1 and p <= 0),
                           default=None), _rows={})
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


def check_lower(head: HyperSpec, tail: HyperSpec | None = None) -> int | None:
    """The legality rule of the family with the specs' parameters: no
    lower parameter beta may vanish (at term 1 - beta) while terms are
    alive, that is before the family's stop, the smaller of the specs'
    stops (None: never).  Only the earliest pole to vanish, the larger
    of the specs' first poles, can be the first one alive, so it alone
    is compared and named.  Returns the stop."""
    stop, pole = head.stop, head.first_pole
    if tail is not None:
        if tail.stop is not None and (stop is None or tail.stop < stop):
            stop = tail.stop
        if tail.first_pole is not None and (
                pole is None or tail.first_pole > pole):
            pole = tail.first_pole
    if pole is not None and (stop is None or stop > -pole):
        raise DenominatorPoleBeforeTermination(pole, 1 - pole)
    return stop


def ratio_rows(numerators, denominators, argument, count: int) -> tuple:
    """Integer rows (a_n, b_n), n = 0 .. count-1, of one parameter group:
    a_n / b_n is its share of the ratio of term n+1 to term n of
    prod (num_i)_n / prod (den_i)_n * argument**n, n! left to the caller.
    The parameters and the argument are integer pairs (p, q), q > 0.
    Never raises, and ends before the step where the numerators vanish;
    b_n is 0 where a lower parameter vanishes at n, which the legality
    rule (check_lower) keeps every walk from reaching."""
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
        rows.append((a, b))
    return tuple(rows)


def _terminating_pair(head: HyperSpec, tail: HyperSpec | None = None) -> tuple:
    """Exact sum over n = 0..stop of weight(n) / w_den * term_n, the
    terms those of the family with the head's and the tail's parameters,
    n! included, and the head's weight; the legality rule (check_lower)
    gives the stop, so no lower parameter vanishes in the walk.  At stop
    0 no row is built.  Otherwise one loop walks the head's and the
    tail's rows together until a numerator product vanishes: step n
    multiplies the two rows of that step.  The weight's ascending
    coefficients are read by Horner's rule, and the sum is one running
    integer total over one denominator, returned unreduced: (numerator,
    denominator), the denominator nonzero and of either sign.  The loop
    only sums; a series steps its own walk (series._walk_terms)."""
    stop = check_lower(head, tail)
    if stop is None:
        raise NonTerminatingSeries(
            "no numerator parameter is a nonpositive integer")
    weight, w_den = head.integer_weight
    if stop == 0:
        return weight[0], w_den
    horner = weight[::-1]
    tail_rows = _NO_ROWS if tail is None else tail.rows(stop)
    total, num, den = weight[0], 1, 1  # term 0 is 1
    for n, (ha, hb), (ta, tb) in zip(
            range(1, stop + 1), head.rows(stop), tail_rows):
        b = n * hb * tb
        num *= ha * ta
        den *= b
        w = 0
        for c in horner:
            w = w * n + c
        total = total * b + w * num
    return total, den * w_den


# the rows of a missing tail: a unit ratio at every step
_NO_ROWS = itertools.repeat((1, 1))


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
    """The term family rendered as a series in x under the legality
    rule: term n lands on degree 2n + offset, and no term is walked past
    the order."""
    check_lower(spec)
    up_to = (order - spec.power_offset) // 2
    if up_to < 0:
        return _reduced([0] * (order + 1), 1)
    terms, den = _walk_terms(spec.rows(up_to), *spec.integer_weight)
    nums = [0] * (order + 1)
    start = spec.power_offset
    nums[start:start + 2 * len(terms):2] = terms
    return _reduced(nums, den)
