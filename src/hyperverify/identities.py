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
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DenominatorPoleBeforeTermination,
    InvalidCase,
    UnsupportedJ,
    VerificationError,
)
from .exact import (
    GammaProduct,
    gamma_simplify,
    is_nonpositive_integer,
    pochhammer_duplication,
)
from .hyper import (
    HyperSpec,
    eval_terminating,
    eval_weighted_sum,
    series_in_z,
    weighted_series,
)
from .series import TruncatedSeries, _common_denominator, binomial_series

HALF = Fraction(1, 2)
TWO = Fraction(2)


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
    return Fraction(_table_row(j)[0](Fraction(b), n))


def coeff_B(j: int, b, n: int) -> Fraction:
    """Odd-part weight for shift j, evaluated at (b, n)."""
    return Fraction(_table_row(j)[1](Fraction(b), n))


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


_MISSING = object()


def _memoized(memo, compute, /, *args, **kwargs):
    """compute(*args, **kwargs), kept in the memo dict, when one is given,
    under (compute, *args), each Fraction entered as its integer pair so a
    lookup hashes no Fraction.  A VerificationError that compute raises is
    kept too and raised again at every lookup of its key."""
    if memo is None:
        return compute(*args, **kwargs)
    key = (compute, *[x.as_integer_ratio() if type(x) is Fraction else x
                      for x in args])
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        try:
            value = compute(*args, **kwargs)
        except VerificationError as err:
            value = err
        memo[key] = value
    if isinstance(value, VerificationError):
        raise value.with_traceback(None)
    return value


def _weight_poly(j: int, b: Fraction, part: int) -> tuple:
    """The table entry at fixed b as a polynomial in n (degree <= 2;
    six samples keep the interpolation exact with room to spare)."""
    fn = _table_row(j)[part]
    return _poly_from_samples([fn(b, n) for n in range(6)])


def even_prefactor(j: int, b) -> Fraction:
    """Gamma prefactor of the even series part, reduced to a rational."""
    b = Fraction(b)
    return gamma_simplify(
        GammaProduct.ratio(
            (b, 1 - b),
            (
                b + Fraction(j, 2) + Fraction(abs(j), 2),
                1 - b - (j + 1) // 2,
            ),
        )
    )


def odd_prefactor(j: int, b) -> Fraction:
    """Gamma prefactor of the odd series part (without the 2a/(2b+j) factor)."""
    b = Fraction(b)
    return gamma_simplify(
        GammaProduct.ratio(
            (-b, 1 + b),
            (
                -b - j // 2,
                b + Fraction(j, 2) + Fraction(abs(j), 2),
            ),
        )
    )


def _part_heads(j: int, a: Fraction, b: Fraction, *, memo=None) -> tuple:
    """The even and the odd weighted term family before any tail, each a
    spec; the odd one is None when that part vanishes identically (a = 0,
    or a zero weight as at j = 0), so no Gamma poles are touched for it."""
    w_even, w_odd = (_memoized(memo, _weight_poly, j, b, part) for part in (0, 1))
    shift = b + Fraction(j, 2)
    even = HyperSpec((a, a + HALF, b + (j + 1) // 2), (shift, shift + HALF),
                     weight=w_even)
    odd = HyperSpec((a + HALF, a + 1, b + 1 + j // 2), (shift + HALF, shift + 1),
                    weight=w_odd, power_offset=1)
    live = a != 0 and w_odd != (0,)
    return even, (odd if live else None)


def _odd_scale(j: int, a: Fraction, b: Fraction, *, memo=None) -> Fraction:
    """2a/(2b+j) times the odd Gamma prefactor."""
    if 2 * b + j == 0:
        raise DenominatorPoleBeforeTermination(2 * b + j)
    return 2 * a / (2 * b + j) * _memoized(memo, odd_prefactor, j, b)


def _moment_tails(d: Fraction, e: Fraction) -> tuple:
    """The half-shifted beta-moment tails of the even part, (d/2, d/2 +
    1/2; e/2, e/2 + 1/2), and of the odd part, each parameter 1/2 higher,
    each a spec, then d/e."""
    hd, he = d / 2, e / 2
    return (HyperSpec((hd, hd + HALF), (he, he + HALF)),
            HyperSpec((hd + HALF, hd + 1), (he + HALF, he + 1)), d / e)


def gen_transform_lhs_series(j: int, a, b, order: int) -> TruncatedSeries:
    """(1-x)**(-2a) * 2F1(2a, b; 2b+j; -2x/(1-x)) expanded to the given order.

    The substitution w = -2x/(1-x) is applied in closed form: for k >= 1,
    [x**n] w**k = (-2)**k C(n-1, k-1), so [x**n] F(w) is c_0 at n = 0 and
    sum_{k=1..n} c_k (-2)**k C(n-1, k-1) after, an O(N**2) integer sum over
    the common denominator of the c_k.
    """
    _table_row(j)
    a, b = Fraction(a), Fraction(b)
    core = series_in_z(HyperSpec((2 * a, b), (2 * b + j,)), order)
    c, den = _common_denominator(core.coefficients)
    c = [ck * (-2) ** k for k, ck in enumerate(c)]
    substituted = [c[0]] + [
        sum(c[k] * math.comb(n - 1, k - 1) for k in range(1, n + 1))
        for n in range(1, order + 1)
    ]
    return binomial_series(2 * a, order) * TruncatedSeries(
        tuple(Fraction(x, den) for x in substituted)
    )


def gen_transform_rhs_series(j: int, a, b, order: int, memo=None) -> TruncatedSeries:
    """Weighted even/odd pair for shift j, expanded to the given order.

    The even part is scaled by its Gamma prefactor; the odd part by its
    Gamma prefactor times 2a/(2b+j).  The odd part is skipped outright
    when it vanishes identically (weight zero, as at j = 0, or a = 0),
    so no Gamma poles are touched for dead terms.  `memo` is a sweep memo
    dict, or None.
    """
    _table_row(j)
    a, b = Fraction(a), Fraction(b)
    even, odd = _memoized(memo, _part_heads, j, a, b, memo=memo)
    total = weighted_series(even, order).scale(
        _memoized(memo, even_prefactor, j, b))
    if odd is not None:
        c_odd = _memoized(memo, _odd_scale, j, a, b, memo=memo)
        total = total + weighted_series(odd, order).scale(c_odd)
    return total


def kummer_rhs_series(a, b, order: int) -> TruncatedSeries:
    """2F1(a, a+1/2; b+1/2; x**2) as a series in x.

    It shares only the term walker and the placement on x**2 of
    weighted_series with the shifted right side at j = 0.  It has its
    own parameters, a unit weight in place of the interpolated table
    weight, and no Gamma prefactor, so agreement between the two is a
    real check, not a tautology.
    """
    a, b = Fraction(a), Fraction(b)
    return weighted_series(HyperSpec((a, a + HALF), (b + HALF,)), order)


@dataclass(frozen=True)
class IdentityCase:
    """One verification instance of the summation identity."""

    j: int
    a: Fraction
    b: Fraction
    d: Fraction
    e: Fraction

    def __post_init__(self):
        for name in ("a", "b", "d", "e"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))

    @functools.cached_property
    def branch(self) -> str | None:
        """Which hypothesis parameter terminates the identity, if any."""
        if is_nonpositive_integer(self.a):
            return "a"
        if is_nonpositive_integer(self.d):
            return "d"
        return None


def _lhs_tail(a: Fraction, d: Fraction, e: Fraction) -> tuple:
    """The left side's Gamma prefactor, then its 3F2's (a, d, e) spec
    (d; 1 + 2a + d - e)."""
    two_a = 2 * a
    prefactor = gamma_simplify(
        GammaProduct.ratio((e, e - two_a - d), (e - two_a, e - d))
    )
    return prefactor, HyperSpec((d,), (1 + two_a + d - e,))


def _lhs_head(j: int, a: Fraction, b: Fraction, argument) -> HyperSpec:
    """The left side's 3F2's (j, a, b) spec (2a, b; 2b + j) at argument."""
    return HyperSpec((2 * a, b), (2 * b + j,), argument)


def theorem_lhs(case: IdentityCase, argument=TWO, memo=None) -> Fraction:
    """Prefactor times the terminating 3F2.

    The series argument defaults to 2; passing argument=1 evaluates the
    (wrong) unit-argument variant, kept available as a negative control.
    `memo` is a sweep memo dict, or None.
    """
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    _table_row(j)
    prefactor, tail = _memoized(memo, _lhs_tail, a, d, e)
    head = _memoized(memo, _lhs_head, j, a, b, argument)
    return prefactor * eval_terminating(head, tail)


def theorem_rhs(case: IdentityCase, memo=None) -> Fraction:
    """Weighted even/odd pair decorated with the half-shifted d/e ratios.

    Summation bounds come from the first vanishing numerator Pochhammer of
    each part, never from convergence reasoning: on the a branch the even
    part stops at -a and the odd part at -a - 1; on the d branch both stop
    around floor(-d/2), depending on parity.  `memo` is a sweep memo
    dict, or None.
    """
    _table_row(case.j)
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    if case.branch is None:
        raise InvalidCase("neither a nor d is a nonpositive integer")
    if e == 0:
        raise InvalidCase("e must be nonzero")

    even_tail, odd_tail, d_over_e = _memoized(memo, _moment_tails, d, e)
    even, odd = _memoized(memo, _part_heads, j, a, b, memo=memo)
    total = _memoized(memo, even_prefactor, j, b) * eval_weighted_sum(even, even_tail)

    if odd is not None and d != 0:
        c_odd = _memoized(memo, _odd_scale, j, a, b, memo=memo) * d_over_e
        total += c_odd * eval_weighted_sum(odd, odd_tail)
    return total


def _corollary_heads(j: int, a: Fraction, b: Fraction) -> tuple:
    """The (j, a, b) part of corollary_rhs: the first series' head
    spec, the second's signed scale over d/e (which each case applies),
    and the second series' head spec, or None at j = 0."""
    if j != 0 and 2 * b + j == 0:
        raise DenominatorPoleBeforeTermination(2 * b + j)
    if j == 0:
        return HyperSpec((a, a + HALF), (b + HALF,)), 0, None
    if j == 1:
        first = ((a, a + HALF), (b + HALF,))
        scale = 2 * a / (2 * b + 1)
        second = ((a + HALF, a + 1), (b + Fraction(3, 2),))
    elif j == -1:
        first = ((a, a + HALF), (b - HALF,))
        scale = -2 * a / (2 * b - 1)
        second = ((a + HALF, a + 1), (b + HALF,))
    elif j == 2:
        first = (
            (a, a + HALF, b / 2 + Fraction(3, 2)),
            (b / 2 + HALF, b + Fraction(3, 2)),
        )
        scale = 2 * a / (b + 1)
        second = ((a + HALF, a + 1), (b + Fraction(3, 2),))
    elif j == -2:
        first = (
            (a, a + HALF, b / 2 + HALF),
            (b / 2 - HALF, b - HALF),
        )
        scale = -2 * a / (b - 1)
        second = ((a + HALF, a + 1), (b - HALF,))
    elif j == 3:
        first = (
            (a, a + HALF, b / 4 + Fraction(3, 2)),
            (b / 4 + HALF, b + Fraction(3, 2)),
        )
        scale = 6 * a / (2 * b + 3)
        second = (
            (a + HALF, a + 1, 3 * b / 4 + Fraction(5, 2)),
            (3 * b / 4 + Fraction(3, 2), b + Fraction(5, 2)),
        )
    else:  # j == -3
        first = (
            (a, a + HALF, b / 4 + Fraction(3, 4)),
            (b / 4 - Fraction(1, 4), b - Fraction(3, 2)),
        )
        scale = -6 * a / (2 * b - 3)
        second = (
            (a + 1, a + HALF, 3 * b / 4 + Fraction(1, 4)),
            (3 * b / 4 - Fraction(3, 4), b - HALF),
        )
    return HyperSpec(*first), scale, HyperSpec(*second)


def _corollary_tails(d: Fraction, e: Fraction) -> tuple:
    """The d/e specs of corollary_rhs: (d/2, d/2 + 1/2; e/2, e/2 + 1/2)
    for the first series, each parameter 1/2 higher for the second, then
    d/e."""
    hd, he = d / 2, e / 2
    return (HyperSpec((hd, hd + HALF), (he, he + HALF)),
            HyperSpec((hd + HALF, hd + 1), (he + HALF, he + 1)), d / e)


def corollary_rhs(case: IdentityCase, memo=None) -> Fraction:
    """Closed single-series right side for |j| <= 3.

    Each value is one 4F3/5F4 at unit argument, plus (for j != 0) a second
    one scaled by a signed rational multiple of a*d/e; the weights and
    prefactors are absorbed into the parameters, so this path shares only
    the term walker with the weighted sums it cross-checks.  The second
    series is skipped when its scale vanishes, so its parameters are never
    validated for a dead term.  `memo` is a sweep memo dict, or None;
    this path reads none of the weighted sums' entries.
    """
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    if abs(j) > COROLLARY_J_LIMIT:
        raise UnsupportedJ(j, limit=COROLLARY_J_LIMIT)
    if case.branch is None:
        raise InvalidCase("neither a nor d is a nonpositive integer")
    if e == 0:
        raise InvalidCase("e must be nonzero")
    first, scale, second = _memoized(memo, _corollary_heads, j, a, b)
    first_tail, second_tail, d_over_e = _memoized(
        memo, _corollary_tails, d, e)
    value = eval_terminating(first, first_tail)
    scale *= d_over_e
    if scale == 0:
        return value
    return value + scale * eval_terminating(second, second_tail)


def beta_moment(power: int, d, e) -> Fraction:
    """Normalized moment of x**power against x**(d-1) (1-x)**(e-d-1) on [0, 1].

    Equals (d)_p / (e)_p; even and odd powers are routed through the
    half-shift duplication identity so that step is exercised on every
    pipeline case.
    """
    d, e = Fraction(d), Fraction(e)
    n, odd = divmod(power, 2)
    if not odd:
        return pochhammer_duplication(d, n) / pochhammer_duplication(e, n)
    return (d / e) * pochhammer_duplication(d + 1, n) / pochhammer_duplication(e + 1, n)


def _left_polynomial(j: int, a: Fraction, b: Fraction, degree: int) -> tuple:
    """The transformation's left side at a = -m, an exact polynomial of
    degree 2m, as (integer numerators, common denominator)."""
    poly = gen_transform_lhs_series(j, a, b, degree)
    return _common_denominator(poly.coefficients)


def _moments(degree: int, d: Fraction, e: Fraction, *, memo=None) -> tuple:
    """beta_moment(p, d, e) for p = 0..degree as (integer numerators,
    common denominator)."""
    return _common_denominator([
        _memoized(memo, beta_moment, p, d, e)
        for p in range(degree + 1)
    ])


def beta_integral_pipeline(case: IdentityCase, memo=None) -> tuple:
    """Replay the derivation of the summation identity on one case.

    Requires the a branch (so the transformation's left side is an exact
    polynomial of degree 2m) and d > 0, e - d > 0 (the convergence regime
    of the underlying integrals).  Returns the pair

        (moment transform of the left-side polynomial,
         prefactor times the terminating 3F2 at argument 2)

    whose equality is the identity itself.  `memo` is a sweep memo dict,
    or None.
    """
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    _table_row(j)
    if not is_nonpositive_integer(a):
        raise InvalidCase("pipeline needs a to be a nonpositive integer")
    if not (d > 0 and e - d > 0):
        raise InvalidCase("pipeline needs d > 0 and e - d > 0")
    degree = -2 * int(a)
    c, den = _memoized(memo, _left_polynomial, j, a, b, degree)
    moments, m_den = _memoized(memo, _moments, degree, d, e, memo=memo)
    lhs = Fraction(sum(map(operator.mul, c, moments)), den * m_den)
    return lhs, theorem_lhs(case, memo=memo)


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one check on one grid point.

    For scalar checks lhs/rhs are rationals; for the series checks they are
    the full coefficient tuples, so `equal` always means `lhs == rhs`
    literally.  `error` carries the tag of a validation failure (the point
    is then skipped) or an `Unexpected ...` tag for genuine bugs.
    """

    check: str
    j: int | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    d: Fraction | None = None
    e: Fraction | None = None
    branch: str | None = None
    lhs: object = None
    rhs: object = None
    equal: bool | None = None
    error: str | None = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "errored" if self.error.startswith("Unexpected") else "skipped"
        return "passed" if self.equal else "failed"


def _error_tag(err: Exception) -> str:
    if isinstance(err, VerificationError):
        return f"{type(err).__name__}: {err}"
    return f"Unexpected {type(err).__name__}: {err}"


def verify_theorem(case: IdentityCase, argument=TWO, memo=None) -> VerificationRecord:
    """Evaluate both sides of the summation identity; never raises."""
    return _evaluate_case(("theorem", case.j, case.a, case.b, case.d, case.e,
                           None, argument), memo)


CHECK_NAMES = ("kummer", "transform", "theorem", "corollary", "pipeline")


def _evaluate_case(job, memo=None) -> VerificationRecord:
    """Worker for one grid point; top level so process pools can import it."""
    check, j, a, b, d, e, order, argument = job
    base = dict(check=check, j=j, a=a, b=b, d=d, e=e)
    try:
        if check in ("kummer", "transform"):
            lhs = gen_transform_lhs_series(j or 0, a, b, order)
            if check == "kummer":
                rhs = kummer_rhs_series(a, b, order)
            else:
                rhs = gen_transform_rhs_series(j, a, b, order, memo)
            lhs, rhs = lhs.coefficients, rhs.coefficients
        else:
            case = IdentityCase(j, a, b, d, e)
            base["branch"] = case.branch
            if check == "theorem":
                # The weighted side runs the Gamma-prefactor
                # simplification, so it goes first: pole exclusions then
                # surface with the offending argument named instead of as
                # a generic lower-parameter failure.
                rhs = theorem_rhs(case, memo)
                lhs = theorem_lhs(case, argument, memo)
            elif check == "corollary":
                # no closed form past the bound: skip before the 3F2 sum
                if abs(j) > COROLLARY_J_LIMIT:
                    raise UnsupportedJ(j, limit=COROLLARY_J_LIMIT)
                lhs = theorem_lhs(case, memo=memo)
                rhs = corollary_rhs(case, memo)
            else:  # pipeline
                lhs, rhs = beta_integral_pipeline(case, memo)
    except Exception as err:  # noqa: BLE001 - embed bugs as errored records
        return VerificationRecord(error=_error_tag(err), **base)
    return VerificationRecord(lhs=lhs, rhs=rhs, equal=lhs == rhs, **base)


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
) -> list:
    """Run the selected checks over the Cartesian parameter grid.

    Record order is deterministic: checks in canonical order, then the
    product of the sets in their declared element order.  The kummer check
    only depends on (a, b) and the transform check on (j, a, b); those
    sweep the reduced product.  `mapper` may be a pool's order-preserving
    map; per-case errors are embedded in the records, never raised.

    Whatever a case shares with its row is computed once per sweep: the
    memo keeps each helper's value under (helper, *args), at the point
    where the memo-free path computes it.  A VerificationError the helper
    raises is kept too and raised again there, so every record equals the
    one its job gives with no memo.  corollary_rhs reads none of the
    weighted sums' entries, since it is their independent evaluation.
    The memo lives for this sweep only.  A pool's map pickles an empty
    copy of the memo with each chunk of jobs it sends.
    """
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    # one Fraction per set element, shared by every job that uses it
    a_set, b_set, d_set, e_set = (
        [Fraction(x) for x in s] for s in (a_set, b_set, d_set, e_set)
    )
    theorem_argument = Fraction(theorem_argument)
    jobs = []
    for check in (c for c in CHECK_NAMES if c in checks):
        if check == "kummer":
            jobs += [
                (check, None, a, b, None, None,
                 series_order, theorem_argument)
                for a in a_set for b in b_set
            ]
        elif check == "transform":
            jobs += [
                (check, j, a, b, None, None,
                 series_order, theorem_argument)
                for j in j_set for a in a_set for b in b_set
            ]
        else:
            jobs += [
                (check, j, a, b, d, e,
                 series_order, theorem_argument)
                for j in j_set for a in a_set for b in b_set
                for d in d_set for e in e_set
            ]
    return list(mapper(functools.partial(_evaluate_case, memo={}), jobs))
