"""The identity family under verification, and exact checkers for each member.

The family has three layers, all over exact rationals:

* A quadratic transformation relating (1-x)**(-2a) * 2F1(2a, b; 2b+j; -2x/(1-x))
  to a pair of even/odd weighted series in x, for shifts j in [-5, 5].  The
  even part carries a tabulated weight A_j(b, n) and a Gamma prefactor; the
  odd part carries B_j(b, n), its own Gamma prefactor and a factor
  2a/(2b+j).  At j = 0 the pair collapses to the classical Kummer form
  2F1(a, a+1/2; b+1/2; x**2).

* Pushing the transformation through the normalized beta moments
  x**p -> (d)_p / (e)_p turns it into a two-sided summation identity: a
  terminating 3F2 at argument 2 with prefactor
  Gamma(e)Gamma(e-2a-d) / (Gamma(e-2a)Gamma(e-d)) on the left, the weighted
  pair decorated with half-shifted d/e Pochhammer ratios on the right.  It
  holds whenever a or d is a nonpositive integer.

* For |j| <= 3 the right side also has closed single-series forms (plain
  4F3/5F4 values at unit argument) obtained by absorbing the weights into
  extra Pochhammer parameters; these give an independent evaluation path.

Every checker returns exact rationals (or exact coefficient tuples) and
compares with zero tolerance.
"""

import functools
import math
import operator
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    InvalidCase,
    UnsupportedJ,
    VerificationError,
)
from .exact import (
    _ratio,
    gamma_ratio,
    is_nonpositive_integer,
    pochhammer_duplication,
)
from .hyper import (
    HyperSpec,
    _terminating_pair,
    series_in_z,
    weighted_series,
)
from .series import TruncatedSeries, _common_denominator
from .value import Value, as_fraction


# Weight table for the even (A) and odd (B) series parts, exactly as
# tabulated; b is rational, n the summation index.  Do not simplify these
# expressions: the whole point of the series check is to audit them.
COEFF_TABLE = {
    5: (
        lambda b, n: -4 * (1 - b - 2 * n) ** 2
        + 2 * (1 - b) * (1 - b - 2 * n)
        + (1 - b) ** 2
        + 22 * (1 - b - 2 * n)
        + 13 * b
        - 33,
        lambda b, n: 4 * (b + 2 * n) ** 2
        - 2 * (1 - b) * (b + 2 * n)
        - (1 - b) ** 2
        + 34 * (b + 2 * n)
        + b
        + 61,
    ),
    4: (
        lambda b, n: 2 * (b + 1 + 2 * n) * (b + 3 + 2 * n) - b * (b + 3),
        lambda b, n: 4 * (b + 3 + 2 * n),
    ),
    3: (lambda b, n: b + 2 + 4 * n, lambda b, n: -(3 * b + 6 + 4 * n)),
    2: (lambda b, n: -(b + 1 + 2 * n), lambda b, n: -2),
    1: (lambda b, n: -1, lambda b, n: 1),
    0: (lambda b, n: 1, lambda b, n: 0),
    -1: (lambda b, n: 1, lambda b, n: 1),
    -2: (lambda b, n: 1 - b - 2 * n, lambda b, n: 2),
    -3: (lambda b, n: 1 - b - 4 * n, lambda b, n: 3 - 3 * b - 4 * n),
    -4: (
        lambda b, n: 2 * (1 - b - 2 * n) * (3 - b - 2 * n) - (1 - b) * (4 - b),
        lambda b, n: 4 * (1 - b - 2 * n),
    ),
    -5: (
        lambda b, n: 4 * (1 - b - 2 * n) ** 2
        - 2 * (1 - b) * (1 - b - 2 * n)
        - (1 - b) ** 2
        + 8 * (1 - b - 2 * n)
        + 7 * b
        - 7,
        lambda b, n: 4 * (b + 2 * n) ** 2
        - 2 * (1 - b) * (b + 2 * n)
        - (1 - b) ** 2
        - 16 * (b + 2 * n)
        + b
        - 1,
    ),
}

# The table holds every shift with |j| <= J_LIMIT; the closed corollary
# forms cover |j| <= COROLLARY_J_LIMIT.
J_LIMIT = max(COEFF_TABLE)
COROLLARY_J_LIMIT = 3


def _table_row(j: int):
    try:
        return COEFF_TABLE[j]
    except KeyError:
        raise UnsupportedJ(j, limit=J_LIMIT) from None


def coeff_A(j: int, b, n: int) -> Fraction:
    """Even-part weight for shift j, evaluated at (b, n)."""
    return Fraction(_table_row(j)[0](as_fraction(b, "b"), n))


def coeff_B(j: int, b, n: int) -> Fraction:
    """Odd-part weight for shift j, evaluated at (b, n)."""
    return Fraction(_table_row(j)[1](as_fraction(b, "b"), n))


def _poly_from_samples(samples) -> tuple:
    """Ascending monomial coefficients of the polynomial through
    (0, samples[0]), (1, samples[1]), ... via Newton forward differences.

    Exact for any polynomial of degree < len(samples).  The differences run
    on integers: the samples over their common denominator, each Newton
    term scaled by (len - 1)! / k! so that one division ends it."""
    level, den = _common_denominator(samples)
    top = len(samples) - 1
    coeffs = [0] * len(samples)
    falling = [1]  # coefficients of n(n-1)...(n-k+1), ascending
    for k in range(len(samples)):
        w = level[0] * (math.factorial(top) // math.factorial(k))
        for i, c in enumerate(falling):
            coeffs[i] += w * c
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
        falling = [0] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    den *= math.factorial(top)
    return tuple(Fraction(c, den) for c in coeffs)


def _memoized(memo, compute, /, *args, **kwargs):
    """compute(*args, **kwargs), kept in the memo dict under (compute,
    *args), each Fraction entered as its integer pair so a lookup hashes
    no Fraction.  Every kept value is a hit, None included.  Only values
    are kept: a compute that raises raises again at its next lookup, and
    each such helper raises before it sums anything."""
    key = (compute, *[x.as_integer_ratio() if type(x) is Fraction else x
                      for x in args])
    try:
        return memo[key]
    except KeyError:
        pass
    value = memo[key] = compute(*args, **kwargs)
    return value


def _weight_poly(j: int, b: Fraction, part: int) -> tuple:
    """The table entry at fixed b as a polynomial in n (degree <= 2;
    six samples keep the interpolation exact with room to spare)."""
    fn = _table_row(j)[part]
    return _poly_from_samples([fn(b, n) for n in range(6)])


def even_prefactor(j: int, b) -> Fraction:
    """Gamma prefactor of the even series part, reduced to a rational:
    Gamma(b) Gamma(1 - b) / (Gamma(b + J) Gamma(1 - b - K)), J = max(j, 0)
    and K = (j+1)//2.  The reflection formula (DLMF 5.5.3) turns it into
    (-1)^J Gamma(1 - b - J) / Gamma(1 - b - K), a rational function of b
    whose arguments all move as -b, so at an integer b the pole pairing
    takes its limit with the right sign."""
    p, q = _ratio(b, "b")
    big_j = max(j, 0)
    return (-1) ** big_j * gamma_ratio(
        ((q - p - big_j * q, q),), ((q - p - (j + 1) // 2 * q, q),))


def odd_prefactor(j: int, b) -> Fraction:
    """Gamma prefactor of the odd series part (without the 2a/(2b+j) factor):
    Gamma(-b) Gamma(1 + b) / (Gamma(-b - j//2) Gamma(b + J)), J = max(j, 0),
    which the reflection formula turns into
    -(-1)^J Gamma(1 - b - J) / Gamma(-b - j//2) (see even_prefactor)."""
    p, q = _ratio(b, "b")
    big_j = max(j, 0)
    return -(-1) ** big_j * gamma_ratio(
        ((q - p - big_j * q, q),), ((-p - j // 2 * q, q),))


def gen_transform_lhs_series(j: int, a, b, order: int) -> TruncatedSeries:
    """(1-x)**(-2a) * 2F1(2a, b; 2b+j; -2x/(1-x)) expanded to the given order.

    The substitution w = -2x/(1-x) is applied in closed form: for k >= 1,
    [x**n] w**k = (-2)**k C(n-1, k-1), so [x**n] F(w) is c_0 at n = 0 and
    sum_{k=1..n} c_k (-2)**k C(n-1, k-1) after, an O(N**2) integer sum over
    the common denominator of the c_k.  The sums come from Pascal's rule
    applied to the c_k themselves: adding neighbours m times turns
    c_1, c_2, ... into sum_i C(m, i) c_{i+1}, ..., whose first entry is
    [x**(m+1)] F(w), so no binomial number is formed.
    """
    _table_row(j)
    (an, ad), (bn, bd) = _ratio(a, "a"), _ratio(b, "b")
    spec = HyperSpec(((2 * an, ad), (bn, bd)), ((2 * bn + j * bd, bd),))
    core = series_in_z(spec, order)
    c = [ck * (-2) ** k for k, ck in enumerate(core.numerators)]
    substituted, level = [c[0]], c[1:]
    while level:
        substituted.append(level[0])
        level = list(map(operator.add, level, level[1:]))
    binomial = series_in_z(HyperSpec(((2 * an, ad),), ()), order)  # (1-x)**(-2a)
    return binomial * TruncatedSeries.over(substituted, core.denominator)


def transform_lhs_recurrence(j: int, a, b, order: int) -> TruncatedSeries:
    """gen_transform_lhs_series(j, a, b, order) by the three-term
    recurrence of its coefficients, from the Gauss equation of the 2F1
    (DLMF 15.10.1) in x: with c = 2b + j,

        (n+1)(c+n) l_{n+1} = (2a+n) [j l_n + (2a+n-1) l_{n-1}],

    l_0 = 1 and l_{-1} = 0, each l_n a reduced integer pair, all over
    their least common denominator at the end.  Where c is a nonpositive
    integer, whatever the order, it is gen_transform_lhs_series itself,
    which sums the substitution and meets that pole as it does.  The
    kummer check keeps gen_transform_lhs_series: at j = 0 this is the
    term ratio of kummer_rhs_series."""
    _table_row(j)
    (an, ad), (bn, bd) = _ratio(a, "a"), _ratio(b, "b")
    cn = 2 * bn + j * bd  # c over bd
    if cn <= 0 and cn % bd == 0:
        return gen_transform_lhs_series(j, a, b, order)
    j_ad, terms = j * ad, [(1, 1)]
    x0, y0, x, y = 0, 1, 1, 1  # l_{n-1} = x0/y0, l_n = x/y, at n = 0
    for n in range(order):
        u = 2 * an + n * ad  # 2a + n over ad
        g = math.gcd(y0, y)
        num = (j_ad * x * (y0 // g) + (u - ad) * x0 * (y // g)) * u * bd
        den = y * (y0 // g) * ad * ad * (n + 1) * (cn + n * bd)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        x0, y0, x, y = x, y, num // g, den // g
        terms.append((x, y))
    # reduced pairs over their least common denominator stay reduced
    den = math.lcm(*(y for _, y in terms))
    return TruncatedSeries.over([x * (den // y) for x, y in terms], den)


def gen_transform_rhs_series(j: int, a, b, order: int) -> TruncatedSeries:
    """Weighted even/odd pair for shift j, expanded to the given order:
    the transform_rhs of a fresh (j, a, b) row (see _Row)."""
    _table_row(j)
    return _Row(j, as_fraction(a, "a"), as_fraction(b, "b")).transform_rhs(order)


def kummer_rhs_series(a, b, order: int) -> TruncatedSeries:
    """2F1(a, a+1/2; b+1/2; x**2) as a series in x.

    It shares only the legality rule, the term walker and the placement
    on x**2 of weighted_series with the shifted right side at j = 0.  It
    has its own parameters, a unit weight in place of the interpolated
    table weight, and no Gamma prefactor, so agreement between the two
    is a real check, not a tautology.
    """
    (an, ad), (bn, bd) = _ratio(a, "a"), _ratio(b, "b")
    spec = HyperSpec(((an, ad), (2 * an + ad, 2 * ad)), ((2 * bn + bd, 2 * bd),))
    return weighted_series(spec, order)


class IdentityCase(Value):
    """One verification instance of the summation identity."""

    _fields = ("j", "a", "b", "d", "e")

    def __init__(self, j: int, a, b, d, e):
        # a float is refused, not read as its binary value
        if type(j) is not int:
            raise TypeError(f"j must be an int, not {type(j).__name__}")
        self.__dict__["j"] = j
        for name, value in zip("abde", (a, b, d, e)):
            self.__dict__[name] = as_fraction(value, name)


def _lhs_tail(a: tuple, d: tuple, e: tuple, argument: tuple) -> tuple:
    """The left side's Gamma prefactor Gamma(e) Gamma(e - 2a - d) /
    (Gamma(e - 2a) Gamma(e - d)), then its 3F2's (a, d, e) spec
    (d; 1 + 2a + d - e) at the argument, all integer pairs."""
    (an, ad), (dn, dd), (en, ed) = a, d, e
    # e, 2a and d over their common denominator den
    den = ad * dd * ed
    e_, a2, d_ = en * ad * dd, 2 * an * dd * ed, dn * ad * ed
    prefactor = gamma_ratio(((en, ed), (e_ - a2 - d_, den)),
                            ((e_ - a2, den), (e_ - d_, den)))
    return prefactor, HyperSpec(((dn, dd),), ((den + a2 + d_ - e_, den),),
                                argument)


class _Column:
    """One (d, e) column of the theorem family, or no column (the
    default), as a kummer or transform case has: d, e, whether d is a
    nonpositive integer, and the (d, e) integer pairs, which key its
    left side in a row.  Its moment tails are built at their first
    read.  Only the two right sides read them, and a sweep keeps its
    columns in one column table (see _columns), so each column's tails
    are built at most once per sweep, and never for the pipeline."""

    def __init__(self, d: Fraction | None = None, e: Fraction | None = None):
        self.d, self.e, self.d_branch, self.pairs = d, e, False, None
        if d is not None:
            self.d_branch = is_nonpositive_integer(d)
            self.pairs = d.as_integer_ratio(), e.as_integer_ratio()

    @functools.cached_property
    def tails(self) -> tuple:
        """The half-shifted beta-moment tails both right sides read: the
        first part's, (d/2, d/2 + 1/2; e/2, e/2 + 1/2), and the second's,
        each parameter 1/2 higher, each a spec, then d/e.  Every check
        that reads them rejects e = 0 first."""
        (dn, dd), (en, ed) = self.pairs
        hd = [(dn + k * dd, 2 * dd) for k in range(3)]  # d/2 + k/2
        he = [(en + k * ed, 2 * ed) for k in range(3)]
        return (HyperSpec(hd[:2], he[:2]), HyperSpec(hd[1:], he[1:]),
                Fraction(dn * ed, dd * en))


_NO_COLUMN = _Column()


def _columns(columns) -> list:
    """The column table of a sweep's (d, e) integer pairs, one _Column
    each; every check of a sweep reads the one table."""
    return [_Column(Fraction(*d), Fraction(*e)) for d, e in columns]


def _two_parts(column, first, first_scale, second, second_scale) -> tuple:
    """first_scale sum(first, first tail) + second_scale() (d/e)
    sum(second, second tail) at a column, each sum _terminating_pair, as
    an unreduced integer pair.  The second part is skipped when it is
    None or d = 0, and its scale is read after the first sum, only where
    a column reaches it."""
    first_tail, second_tail, d_over_e = column.tails
    pn, pd = first_scale.as_integer_ratio()
    sn, sd = _terminating_pair(first, first_tail)
    num, den = pn * sn, pd * sd
    if second is None or column.d == 0:
        return num, den
    (cn, cd), (dn, dd) = second_scale().as_integer_ratio(), d_over_e.as_integer_ratio()
    sn, sd = _terminating_pair(second, second_tail)
    sn, sd = cn * dn * sn, cd * dd * sd
    return num * sd + sn * den, den * sd


class _Row:
    """The (j, a, b) part of the theorem family's cases.  The per-case
    arithmetic of every check lives here: each method takes one column
    (see _Column) and computes one side of one case.  The row caches
    what its cases share: each invariant is a cached_property, read at
    the first column that needs it, and `lefts` keeps each left side
    under its column's (d, e) pairs and the argument's pair.  `memo` is
    the sweep memo, which keeps the row under (j, a, b); a one-case row,
    made with none, keeps a memo of its own."""

    def __init__(self, j: int, a: Fraction, b: Fraction, memo=None):
        self.j, self.a, self.b = j, a, b
        self.memo, self.lefts = {} if memo is None else memo, {}
        self.a_pair, self.b_pair = a.as_integer_ratio(), b.as_integer_ratio()
        self.a_branch = is_nonpositive_integer(a)

    def _check_terminates(self, column) -> None:
        if not (self.a_branch or column.d_branch):
            raise InvalidCase("neither a nor d is a nonpositive integer")
        if column.e == 0:
            raise InvalidCase("e must be nonzero")

    @functools.cached_property
    def lhs_head(self) -> HyperSpec:
        """The left side's 3F2 spec (2a, b; 2b + j), whatever the
        argument, which the tail carries."""
        (an, ad), (bn, bd) = self.a_pair, self.b_pair
        return HyperSpec(((2 * an, ad), (bn, bd)), ((2 * bn + self.j * bd, bd),))

    @functools.cached_property
    def part_heads(self) -> tuple:
        """The even and the odd weighted term family before any tail, each
        a spec; the odd one is None when that part vanishes identically
        (a = 0, or a zero weight as at j = 0), so no Gamma poles are
        touched for it."""
        j, (an, ad), (bn, bd) = self.j, self.a_pair, self.b_pair
        w_even, w_odd = (_memoized(self.memo, _weight_poly, j, self.b, part)
                         for part in (0, 1))
        a_half, a_one = (2 * an + ad, 2 * ad), (an + ad, ad)
        # b + (j + k)/2 over 2 bd
        shift = [(2 * bn + (j + k) * bd, 2 * bd) for k in range(3)]
        even = HyperSpec(((an, ad), a_half, (bn + (j + 1) // 2 * bd, bd)),
                         shift[:2], weight=w_even)
        odd = HyperSpec((a_half, a_one, (bn + (1 + j // 2) * bd, bd)),
                        shift[1:], weight=w_odd, power_offset=1)
        live = an != 0 and w_odd != (0,)
        return even, (odd if live else None)

    @functools.cached_property
    def even_scale(self) -> Fraction:
        return _memoized(self.memo, even_prefactor, self.j, self.b)

    @functools.cached_property
    def odd_scale(self) -> Fraction:
        """2a/(2b+j) times the odd Gamma prefactor."""
        (an, ad), (bn, bd) = self.a_pair, self.b_pair
        lower = 2 * bn + self.j * bd  # 2b + j over bd
        if lower == 0:
            raise DenominatorPoleBeforeTermination(0)
        pn, pd = _memoized(self.memo, odd_prefactor, self.j,
                           self.b).as_integer_ratio()
        return Fraction(2 * an * bd * pn, ad * lower * pd)

    @functools.cached_property
    def corollary_heads(self) -> tuple:
        """The corollaries' (j, a, b) part: the first series' head spec,
        the second's signed scale over d/e (which each case applies), and
        the second series' head spec, or None where the scale is 0."""
        j, (an, ad), (bn, bd) = self.j, self.a_pair, self.b_pair

        def at(x, y, z):  # (x b + y) / z as an integer pair
            return x * bn + y * bd, z * bd

        a0, a_half, a_one = (an, ad), (2 * an + ad, 2 * ad), (an + ad, ad)
        if j == 0:
            return HyperSpec((a0, a_half), (at(2, 1, 2),)), 0, None
        # the first series, c, x, y of the scale c a / (x b + y), the second
        if j == 1:
            first = ((a0, a_half), (at(2, 1, 2),))
            c, x, y, second = 2, 2, 1, ((a_half, a_one), (at(2, 3, 2),))
        elif j == -1:
            first = ((a0, a_half), (at(2, -1, 2),))
            c, x, y, second = -2, 2, -1, ((a_half, a_one), (at(2, 1, 2),))
        elif j == 2:
            first = ((a0, a_half, at(1, 3, 2)), (at(1, 1, 2), at(2, 3, 2)))
            c, x, y, second = 2, 1, 1, ((a_half, a_one), (at(2, 3, 2),))
        elif j == -2:
            first = ((a0, a_half, at(1, 1, 2)), (at(1, -1, 2), at(2, -1, 2)))
            c, x, y, second = -2, 1, -1, ((a_half, a_one), (at(2, -1, 2),))
        elif j == 3:
            first = ((a0, a_half, at(1, 6, 4)), (at(1, 2, 4), at(2, 3, 2)))
            c, x, y = 6, 2, 3
            second = ((a_half, a_one, at(3, 10, 4)), (at(3, 6, 4), at(2, 5, 2)))
        elif j == -3:
            first = ((a0, a_half, at(1, 3, 4)), (at(1, -1, 4), at(2, -3, 2)))
            c, x, y = -6, 2, -3
            second = ((a_one, a_half, at(3, 1, 4)), (at(3, -3, 4), at(2, -1, 2)))
        else:
            raise UnsupportedJ(j, limit=COROLLARY_J_LIMIT)
        if x * bn + y * bd == 0:  # 2b + j = 0
            raise DenominatorPoleBeforeTermination(0)
        scale = Fraction(c * an * bd, ad * (x * bn + y * bd))
        return HyperSpec(*first), scale, HyperSpec(*second) if scale else None

    @functools.cached_property
    def polynomial(self) -> tuple:
        """The transformation's left side at a = -m, an exact polynomial
        of degree at most 2m, and 2m."""
        degree = -2 * int(self.a)
        return transform_lhs_recurrence(self.j, self.a, self.b, degree), degree

    def transform_rhs(self, order: int) -> TruncatedSeries:
        """The transformation's weighted even/odd pair, expanded to the
        given order.  The even part is scaled by its Gamma prefactor; the
        odd part by its Gamma prefactor times 2a/(2b+j).  The odd part is
        skipped outright when it vanishes identically (weight zero, as at
        j = 0, or a = 0), so no Gamma poles are touched for dead terms."""
        even, odd = self.part_heads
        total = weighted_series(even, order).scale(self.even_scale)
        if odd is not None:
            total = total + weighted_series(odd, order).scale(self.odd_scale)
        return total

    def left(self, column, argument=(2, 1)) -> Fraction:
        """theorem_lhs at a column and an argument pair, reduced and kept
        in `lefts`: theorem at argument 2, corollary and pipeline sum it
        once."""
        key = column.pairs, argument
        if key not in self.lefts:
            _table_row(self.j)
            prefactor, tail = _memoized(self.memo, _lhs_tail, self.a_pair,
                                        *column.pairs, argument)
            pn, pd = prefactor.as_integer_ratio()
            sn, sd = _terminating_pair(self.lhs_head, tail)
            self.lefts[key] = Fraction(pn * sn, pd * sd)
        return self.lefts[key]

    def theorem_rhs_pair(self, column) -> tuple:
        """theorem_rhs as an unreduced integer pair (numerator,
        denominator), the denominator nonzero and of either sign: the
        even and odd weighted parts, summed by _two_parts."""
        _table_row(self.j)
        self._check_terminates(column)
        even, odd = self.part_heads
        return _two_parts(column, even, self.even_scale, odd,
                          lambda: self.odd_scale)

    def corollary_rhs_pair(self, column) -> tuple:
        """The closed single-series right side for |j| <= 3, as an
        unreduced integer pair, as theorem_rhs_pair: one 4F3/5F4 at unit
        argument, plus (for j != 0) a second one scaled by a signed
        rational multiple of a*d/e, summed by _two_parts.  The weights and
        prefactors are absorbed into the parameters, so this path shares
        only the sum kernel, the moment tails and _two_parts with the
        weighted sums it cross-checks: its heads and its scales are its
        own, and it reads none of the weighted sums' values."""
        self._check_terminates(column)
        first, scale, second = self.corollary_heads
        return _two_parts(column, first, 1, second, lambda: scale)

    def moment_pair(self, column) -> tuple:
        """The pipeline's replay of the derivation: the moment transform
        of the left-side polynomial, sum c_p (d)_p / (e)_p, as an
        unreduced integer pair, whose equality with `left` is the
        identity itself.  It needs the a branch, where the left side is
        an exact polynomial of degree 2m, and d > 0, e - d > 0, the
        convergence regime of the underlying integrals."""
        _table_row(self.j)
        if not self.a_branch:
            raise InvalidCase("pipeline needs a to be a nonpositive integer")
        d, e = column.d, column.e
        if not 0 < d < e:
            raise InvalidCase("pipeline needs d > 0 and e - d > 0")
        poly, degree = self.polynomial
        moments, m_den = _memoized(self.memo, _moments, degree, d, e)
        return (sum(map(operator.mul, poly.numerators, moments)),
                poly.denominator * m_den)


def theorem_lhs(case: IdentityCase, argument=2) -> Fraction:
    """Prefactor times the terminating 3F2.

    The series argument defaults to 2; passing argument=1 evaluates the
    (wrong) unit-argument variant, kept available as a negative control.
    """
    row = _Row(case.j, case.a, case.b)
    return row.left(_Column(case.d, case.e), _ratio(argument, "the argument"))


def theorem_rhs(case: IdentityCase) -> Fraction:
    """Weighted even/odd pair decorated with the half-shifted d/e ratios.

    Summation bounds come from the first vanishing numerator Pochhammer of
    each part, never from convergence reasoning: on the a branch the even
    part stops at -a and the odd part at -a - 1; on the d branch both stop
    around floor(-d/2), depending on parity.
    """
    row = _Row(case.j, case.a, case.b)
    return Fraction(*row.theorem_rhs_pair(_Column(case.d, case.e)))


def beta_moment(power: int, d, e) -> Fraction:
    """Normalized moment of x**power against x**(d-1) (1-x)**(e-d-1) on [0, 1].

    Equals (d)_p / (e)_p; even and odd powers are routed through the
    half-shift duplication identity so that step is exercised on every
    pipeline case.
    """
    d, e = as_fraction(d, "d"), as_fraction(e, "e")
    n, odd = divmod(power, 2)
    if not odd:
        return pochhammer_duplication(d, n) / pochhammer_duplication(e, n)
    return (d / e) * pochhammer_duplication(d + 1, n) / pochhammer_duplication(e + 1, n)


def _moments(degree: int, d: Fraction, e: Fraction) -> tuple:
    """beta_moment(p, d, e) for p = 0..degree as (integer numerators,
    common denominator)."""
    return _common_denominator([beta_moment(p, d, e)
                                for p in range(degree + 1)])


class VerificationRecord(Value):
    """Outcome of one check on one grid point.

    For scalar checks lhs/rhs are rationals; for the series checks they are
    the full coefficient tuples, so `equal` always means `lhs == rhs`
    literally.  `error` carries the tag of a validation failure (the point
    is then skipped) or an `Unexpected ...` tag for genuine bugs.
    """

    _fields = ("check", "j", "a", "b", "d", "e", "branch", "lhs", "rhs",
               "equal", "error")

    def __init__(self, check: str, j=None, a=None, b=None, d=None, e=None,
                 branch=None, lhs=None, rhs=None, equal=None, error=None):
        self.__dict__.update(check=check, j=j, a=a, b=b, d=d, e=e, branch=branch,
                             lhs=lhs, rhs=rhs, equal=equal, error=error)

    @property
    def status(self) -> str:
        if self.error is not None:
            return "errored" if self.error.startswith("Unexpected") else "skipped"
        return "passed" if self.equal else "failed"


def _error_tag(err: Exception) -> str:
    if isinstance(err, VerificationError):
        return f"{type(err).__name__}: {err}"
    return f"Unexpected {type(err).__name__}: {err}"


def verify_theorem(case: IdentityCase, argument=2) -> VerificationRecord:
    """Evaluate both sides of the summation identity; errors are recorded."""
    return _evaluate_case(("theorem", case.j, case.a, case.b, case.d, case.e,
                           None, argument))


CHECK_NAMES = ("kummer", "transform", "theorem", "corollary", "pipeline")


def _sides(pair: tuple, value: Fraction) -> tuple:
    """(the pair as a Fraction, value, whether they are equal): the
    unreduced integer pair is compared crosswise with the reduced value,
    and the value stands for both when they agree."""
    n, d = pair
    if n * value.denominator == value.numerator * d:
        return value, value, True
    return Fraction(n, d), value, False


def _series_sides(lhs: TruncatedSeries, rhs: TruncatedSeries) -> tuple:
    """The record's (lhs, rhs, equal) of one kummer or transform case."""
    # the reduced integer form is unique, so the series compare as
    # integers; the Fractions are built for the record only, once for
    # both sides when they agree
    equal = lhs == rhs
    lhs = lhs.coefficients
    return lhs, lhs if equal else rhs.coefficients, equal


def _evaluate_row(job, table, order, argument, memo) -> list:
    """Worker for one job (check, j, a, b); top level so process pools
    can import it.

    Every check but kummer reads the (j, a, b) row (see _Row), which it
    takes from the memo, so the row keeps its invariants and left sides
    for every check that reads them.  A theorem, corollary or pipeline
    job runs the row over the sweep's column table (see _columns), whose
    columns keep their moment tails from their first read; its records
    come in column order, each side from a _Row method, and the theorem
    sums its left side at the argument, an integer pair.  A kummer or
    transform job is one case, at the series order.
    """
    check, j, a, b = job
    row = None if check == "kummer" else _memoized(memo, _Row, j, a, b,
                                                   memo=memo)
    series = check in ("kummer", "transform")
    records = []
    for column in (_NO_COLUMN,) if series else table:
        branch = (None if series else "a" if row.a_branch
                  else "d" if column.d_branch else None)
        try:
            if check == "kummer":
                lhs, rhs, equal = _series_sides(
                    gen_transform_lhs_series(0, a, b, order),
                    kummer_rhs_series(a, b, order))
            elif check == "transform":
                lhs, rhs, equal = _series_sides(
                    transform_lhs_recurrence(j, a, b, order),
                    row.transform_rhs(order))
            elif check == "theorem":
                # The weighted side runs the Gamma-prefactor
                # simplification, so it goes first: pole exclusions then
                # surface with the offending argument named instead of as
                # a generic lower-parameter failure.
                rhs = row.theorem_rhs_pair(column)
                rhs, lhs, equal = _sides(rhs, row.left(column, argument))
            elif check == "corollary":
                # no closed form past the bound, and no identity outside
                # the hypotheses: skip both before the 3F2 sum
                if abs(j) > COROLLARY_J_LIMIT:
                    raise UnsupportedJ(j, limit=COROLLARY_J_LIMIT)
                row._check_terminates(column)
                lhs = row.left(column)
                rhs, lhs, equal = _sides(row.corollary_rhs_pair(column), lhs)
            else:  # pipeline
                lhs = row.moment_pair(column)
                lhs, rhs, equal = _sides(lhs, row.left(column))
            error = None
        except Exception as err:  # noqa: BLE001 - embed bugs as errored records
            lhs = rhs = equal = None
            error = _error_tag(err)
        records.append(VerificationRecord(check, j, a, b, column.d, column.e,
                                          branch, lhs, rhs, equal, error))
    return records


def _evaluate_case(job, memo=None) -> VerificationRecord:
    """The record of one grid point (check, j, a, b, d, e, order,
    argument), as its job with a one-column table gives it."""
    check, j, a, b, d, e, order, argument = job
    return _evaluate_row((check, j, a, b), [_Column(d, e)], order,
                         _ratio(argument, "the argument"),
                         {} if memo is None else memo)[0]


def grid_sweep(
    j_set,
    a_set,
    b_set,
    d_set,
    e_set,
    checks,
    series_order: int = 24,
    theorem_argument=2,
    mapper=map,
    memo=None,
) -> list:
    """Run the selected checks over the Cartesian parameter grid.

    Record order is deterministic: checks in canonical order, then the
    product of the sets in their declared element order.  The kummer check
    only depends on (a, b) and the transform check on (j, a, b); those
    sweep the reduced product.  `mapper` may be a pool's order-preserving
    map; per-case errors are embedded in the records, never raised.

    Every job is (check, j, a, b).  The theorem, corollary and pipeline
    checks sweep one (j, a, b) row at a time over the sweep's (d, e)
    columns: the summation identity is the transformation pushed through
    the beta moments, and every case splits into a row part and a column
    part.  The column table, the series order and the argument's pair
    are bound once into the mapped function, the table looked up only
    when a theorem-family check runs.

    Whatever cases share is kept once per memo (see _memoized), values
    only, so every record equals the one its case gives on its own: each
    row (see _Row) under (j, a, b), the helpers scoped to (j, b),
    (a, d, e, argument) or a column's beta moments under (helper,
    *args), and one column table per set of columns, whose columns keep
    their moment tails (see _Column).  `memo` is the dict to keep the
    entries in, a fresh one when None; every entry is a pure function of
    its key, so a memo that earlier sweeps filled leaves the records as
    they are.  Under cli's pool map the jobs are dealt round-robin, the
    caller works its own share with this memo, and each worker process
    works its share with its own copy.
    """
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    # one Fraction per set element, shared by every job that uses it
    a_set, b_set, d_set, e_set = (
        [as_fraction(x, name) for x in s]
        for s, name in zip((a_set, b_set, d_set, e_set), "abde"))
    argument = _ratio(theorem_argument, "theorem_argument")
    # the (d, e) columns, as integer pairs, that every row runs over
    columns = tuple((d.as_integer_ratio(), e.as_integer_ratio())
                    for d in d_set for e in e_set)
    run = [c for c in CHECK_NAMES if c in checks
           and (columns or c in ("kummer", "transform"))]
    jobs = [(check, j, a, b) for check in run
            for j in ((None,) if check == "kummer" else j_set)
            for a in a_set for b in b_set]
    memo = {} if memo is None else memo
    table = (None if set(run) <= {"kummer", "transform"}
             else _memoized(memo, _columns, columns))
    rows = mapper(functools.partial(_evaluate_row, table=table,
                                    order=series_order, argument=argument,
                                    memo=memo), jobs)
    return [record for row in rows for record in row]
