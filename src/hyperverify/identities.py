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
    WeightedSumSpec,
    eval_terminating,
    eval_weighted_sum,
    series_in_z,
    weighted_series,
    weighted_termination,
)
from .series import TruncatedSeries, _common_denominator, binomial_series

HALF = Fraction(1, 2)


def bracket(x) -> int:
    """Greatest integer not exceeding x (used on half-integer shifts)."""
    return math.floor(Fraction(x))


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


def _table_row(j: int):
    try:
        return COEFF_TABLE[j]
    except KeyError:
        raise UnsupportedJ(j) from None


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


def _memoized(memo, key, compute, *args):
    """compute(*args), kept in memo under key when a memo dict is given.
    Keys other than (row, b) and (part, j, b) lead with a string tag, so
    no two kinds of key can be equal."""
    if memo is None:
        return compute(*args)
    value = memo.get(key)  # one hash per hit: Fraction hashing is not cheap
    if value is None:
        value = memo[key] = compute(*args)
    return value


def _weight_poly(j: int, b: Fraction, part: int, memo=None) -> tuple:
    """The table entry at fixed b as a polynomial in n (degree <= 2;
    six samples keep the interpolation exact with room to spare).  Memoized
    on the row function itself, so a swapped table row is seen."""
    fn = _table_row(j)[part]
    return _memoized(
        memo, (fn, b), lambda: _poly_from_samples([fn(b, n) for n in range(6)])
    )


def even_prefactor(j: int, b) -> Fraction:
    """Gamma prefactor of the even series part, reduced to a rational."""
    b = Fraction(b)
    return gamma_simplify(
        GammaProduct.ratio(
            (b, 1 - b),
            (
                b + Fraction(j, 2) + Fraction(abs(j), 2),
                1 - b - bracket(Fraction(j + 1, 2)),
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
                -b - bracket(Fraction(j, 2)),
                b + Fraction(j, 2) + Fraction(abs(j), 2),
            ),
        )
    )


def _prefactor(part: int, j: int, b: Fraction, memo=None) -> Fraction:
    """even_prefactor (part 0) or odd_prefactor (part 1), memoized on (j, b)."""
    return _memoized(
        memo, (part, j, b), odd_prefactor if part else even_prefactor, j, b
    )


def _part_parameters(part: int, j: int, a: Fraction, b: Fraction) -> tuple:
    """(numerators, denominators) of the even (part 0) or odd (part 1) term
    family, before any tail the caller appends."""
    shift = b + Fraction(j, 2)
    if part:
        return (a + HALF, a + 1, b + 1 + bracket(Fraction(j, 2))), (
            shift + HALF, shift + 1)
    return (a, a + HALF, b + bracket(Fraction(j + 1, 2))), (shift, shift + HALF)


def _part_spec(part, j, a, b, memo=None, extra_num=(), extra_den=()):
    """The even (part 0) or odd (part 1) weighted term family; its (j, a, b)
    parameters are memoized, so a call only appends the tails."""
    nums, dens = _memoized(
        memo, ("part", part, j, a, b), _part_parameters, part, j, a, b
    )
    return WeightedSumSpec(
        weight=_weight_poly(j, b, part, memo),
        numerators=nums + extra_num,
        denominators=dens + extra_den,
        power_stride=2,
        power_offset=part,
    )


def _odd_scale(j: int, a: Fraction, b: Fraction, memo=None) -> Fraction:
    """2a/(2b+j) times the odd Gamma prefactor; callers memoize it on
    (j, a, b)."""
    if 2 * b + j == 0:
        raise DenominatorPoleBeforeTermination(2 * b + j)
    return 2 * a / (2 * b + j) * _prefactor(1, j, b, memo)


def _halves(x: Fraction) -> tuple:
    """(x/2, x/2 + 1/2, x/2 + 1), the half-shifted beta-moment parameters."""
    h = x / 2
    return h, h + HALF, h + 1


def _even_embed(half: TruncatedSeries, order: int) -> TruncatedSeries:
    """Reindex a series in y as a series in x with y = x**2."""
    coeffs = [Fraction(0)] * (order + 1)
    for n, c in enumerate(half.coefficients):
        if 2 * n > order:
            break
        coeffs[2 * n] = c
    return TruncatedSeries(tuple(coeffs))


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


_ZERO_POLY = (Fraction(0),)


def gen_transform_rhs_series(j: int, a, b, order: int, memo=None) -> TruncatedSeries:
    """Weighted even/odd pair for shift j, expanded to the given order.

    The even part is scaled by its Gamma prefactor; the odd part by its
    Gamma prefactor times 2a/(2b+j).  The odd part is skipped outright
    when it vanishes identically (weight zero, as at j = 0, or a = 0),
    so no Gamma poles are touched for dead terms.  `memo`, a dict, keeps
    the (j, b) weights and prefactors for later calls that pass it too.
    """
    _table_row(j)
    a, b = Fraction(a), Fraction(b)
    even = weighted_series(_part_spec(0, j, a, b, memo), order)
    total = even.scale(_prefactor(0, j, b, memo))
    odd = _part_spec(1, j, a, b, memo)
    if a != 0 and odd.weight != _ZERO_POLY:
        c_odd = _memoized(memo, ("odd", j, a, b), _odd_scale, j, a, b, memo)
        total = total + weighted_series(odd, order).scale(c_odd)
    return total


def kummer_rhs_series(a, b, order: int) -> TruncatedSeries:
    """2F1(a, a+1/2; b+1/2; x**2) as a series in x.

    Deliberately a different code path from the shifted right side at
    j = 0: this one goes through the plain series expansion, so agreement
    between the two is a real check, not a tautology.
    """
    a, b = Fraction(a), Fraction(b)
    half = series_in_z(HyperSpec((a, a + HALF), (b + HALF,)), order // 2)
    return _even_embed(half, order)


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


def theorem_lhs(case: IdentityCase, argument=2, memo=None) -> Fraction:
    """Prefactor times the terminating 3F2.

    The series argument defaults to 2; passing argument=1 evaluates the
    (wrong) unit-argument variant, kept available as a negative control.
    `memo`, a dict, keeps the Gamma prefactor of each (a, d, e) for later
    calls that pass it too.
    """
    _table_row(case.j)
    a, b, d, e = case.a, case.b, case.d, case.e
    prefactor = _memoized(
        memo, ("theorem_lhs", a, d, e),
        lambda: gamma_simplify(
            GammaProduct.ratio((e, e - 2 * a - d), (e - 2 * a, e - d))
        ),
    )
    f32 = HyperSpec(
        (2 * a, b, d), (2 * b + case.j, 1 + 2 * a + d - e), Fraction(argument)
    )
    return prefactor * eval_terminating(f32)


def theorem_rhs(case: IdentityCase, memo=None) -> Fraction:
    """Weighted even/odd pair decorated with the half-shifted d/e ratios.

    Summation bounds come from the first vanishing numerator Pochhammer of
    each part, never from convergence reasoning: on the a branch the even
    part stops at -a and the odd part at -a - 1; on the d branch both stop
    around floor(-d/2), depending on parity.  `memo` is as in
    gen_transform_rhs_series.
    """
    _table_row(case.j)
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    if case.branch is None:
        raise InvalidCase("neither a nor d is a nonpositive integer")
    if e == 0:
        raise InvalidCase("e must be nonzero")

    half_d = _memoized(memo, ("halves", d), _halves, d)
    half_e = _memoized(memo, ("halves", e), _halves, e)
    even = _part_spec(0, j, a, b, memo, half_d[:2], half_e[:2])
    stop = weighted_termination(even)
    total = _prefactor(0, j, b, memo) * eval_weighted_sum(even, stop)

    odd = _part_spec(1, j, a, b, memo, half_d[1:], half_e[1:])
    if a != 0 and d != 0 and odd.weight != _ZERO_POLY:
        scale = _memoized(memo, ("odd", j, a, b), _odd_scale, j, a, b, memo)
        c_odd = scale * (d / e)
        total += c_odd * eval_weighted_sum(odd, weighted_termination(odd))
    return total


def _hyper_at_one(numerators, denominators) -> Fraction:
    return eval_terminating(HyperSpec(numerators, denominators, Fraction(1)))


def corollary_rhs(case: IdentityCase) -> Fraction:
    """Closed single-series right side for |j| <= 3.

    Each value is one 4F3/5F4 at unit argument, plus (for j != 0) a second
    one scaled by a signed rational multiple of a*d/e; the weights and
    prefactors are absorbed into the parameters, so this path shares no
    code with the weighted sums it cross-checks.  The second series is
    skipped when its scale vanishes, so its parameters are never even
    validated for a dead term.
    """
    j, a, b, d, e = case.j, case.a, case.b, case.d, case.e
    if abs(j) > 3:
        raise UnsupportedJ(j, limit=3)
    if case.branch is None:
        raise InvalidCase("neither a nor d is a nonpositive integer")
    if e == 0:
        raise InvalidCase("e must be nonzero")
    if j != 0 and 2 * b + j == 0:
        raise DenominatorPoleBeforeTermination(2 * b + j)
    half_d = (d / 2, d / 2 + HALF)
    shift_d = (d / 2 + HALF, d / 2 + 1)
    half_e = (e / 2, e / 2 + HALF)
    shift_e = (e / 2 + HALF, e / 2 + 1)

    # first series parameters, signed scale of the second, second series
    if j == 0:
        return _hyper_at_one((a, a + HALF) + half_d, (b + HALF,) + half_e)
    if j == 1:
        first = ((a, a + HALF) + half_d, (b + HALF,) + half_e)
        scale = 2 * a * d / (e * (2 * b + 1))
        second = ((a + HALF, a + 1) + shift_d, (b + Fraction(3, 2),) + shift_e)
    elif j == -1:
        first = ((a, a + HALF) + half_d, (b - HALF,) + half_e)
        scale = -2 * a * d / (e * (2 * b - 1))
        second = ((a + HALF, a + 1) + shift_d, (b + HALF,) + shift_e)
    elif j == 2:
        first = (
            (a, a + HALF, b / 2 + Fraction(3, 2)) + half_d,
            (b / 2 + HALF, b + Fraction(3, 2)) + half_e,
        )
        scale = 2 * a * d / (e * (b + 1))
        second = ((a + HALF, a + 1) + shift_d, (b + Fraction(3, 2),) + shift_e)
    elif j == -2:
        first = (
            (a, a + HALF, b / 2 + HALF) + half_d,
            (b / 2 - HALF, b - HALF) + half_e,
        )
        scale = -2 * a * d / (e * (b - 1))
        second = ((a + HALF, a + 1) + shift_d, (b - HALF,) + shift_e)
    elif j == 3:
        first = (
            (a, a + HALF, b / 4 + Fraction(3, 2)) + half_d,
            (b / 4 + HALF, b + Fraction(3, 2)) + half_e,
        )
        scale = 6 * a * d / (e * (2 * b + 3))
        second = (
            (a + HALF, a + 1, 3 * b / 4 + Fraction(5, 2)) + shift_d,
            (3 * b / 4 + Fraction(3, 2), b + Fraction(5, 2)) + shift_e,
        )
    else:  # j == -3
        first = (
            (a, a + HALF, b / 4 + Fraction(3, 4)) + half_d,
            (b / 4 - Fraction(1, 4), b - Fraction(3, 2)) + half_e,
        )
        scale = -6 * a * d / (e * (2 * b - 3))
        second = (
            (a + 1, a + HALF, 3 * b / 4 + Fraction(1, 4)) + shift_d,
            (3 * b / 4 - Fraction(3, 4), b - HALF) + shift_e,
        )
    value = _hyper_at_one(*first)
    if scale == 0:
        return value
    return value + scale * _hyper_at_one(*second)


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


def beta_integral_pipeline(case: IdentityCase, memo=None) -> tuple:
    """Replay the derivation of the summation identity on one case.

    Requires the a branch (so the transformation's left side is an exact
    polynomial of degree 2m) and d > 0, e - d > 0 (the convergence regime
    of the underlying integrals).  Returns the pair

        (moment transform of the left-side polynomial,
         prefactor times the terminating 3F2 at argument 2)

    whose equality is the identity itself.  `memo` is as in theorem_lhs.
    """
    _table_row(case.j)
    a, d, e = case.a, case.d, case.e
    if not is_nonpositive_integer(a):
        raise InvalidCase("pipeline needs a to be a nonpositive integer")
    if not (d > 0 and e - d > 0):
        raise InvalidCase("pipeline needs d > 0 and e - d > 0")
    degree = -2 * int(a)
    poly = gen_transform_lhs_series(case.j, a, case.b, degree)
    c, den = _common_denominator(poly.coefficients)
    lhs = sum(c_p * beta_moment(p, d, e) for p, c_p in enumerate(c)) / den
    return lhs, theorem_lhs(case, argument=2, memo=memo)


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


def verify_theorem(case: IdentityCase, argument=2, memo=None) -> VerificationRecord:
    """Evaluate both sides of the summation identity; never raises."""
    base = dict(
        check="theorem", j=case.j, a=case.a, b=case.b, d=case.d, e=case.e,
        branch=case.branch,
    )
    try:
        if case.branch is None:
            raise InvalidCase("neither a nor d is a nonpositive integer")
        # The weighted side runs the Gamma-prefactor simplification, so it
        # goes first: pole exclusions then surface with the offending
        # argument named instead of as a generic lower-parameter failure.
        rhs = theorem_rhs(case, memo)
        lhs = theorem_lhs(case, argument, memo)
    except Exception as err:  # noqa: BLE001 - must embed, never panic
        return VerificationRecord(error=_error_tag(err), **base)
    return VerificationRecord(lhs=lhs, rhs=rhs, equal=lhs == rhs, **base)


CHECK_NAMES = ("kummer", "transform", "theorem", "corollary", "pipeline")


def _evaluate_case(job, memo=None) -> VerificationRecord:
    """Worker for one grid point; top level so process pools can import it."""
    check, j, a, b, d, e, order, argument = job
    base = dict(check=check, j=j, a=a, b=b, d=d, e=e)
    try:
        if check == "kummer":
            lhs = gen_transform_lhs_series(0, a, b, order)
            rhs = kummer_rhs_series(a, b, order)
            return VerificationRecord(
                lhs=lhs.coefficients, rhs=rhs.coefficients,
                equal=lhs == rhs, **base,
            )
        if check == "transform":
            lhs = gen_transform_lhs_series(j, a, b, order)
            rhs = gen_transform_rhs_series(j, a, b, order, memo)
            return VerificationRecord(
                lhs=lhs.coefficients, rhs=rhs.coefficients,
                equal=lhs == rhs, **base,
            )
        case = IdentityCase(j, a, b, d, e)
        base["branch"] = case.branch
        if check == "theorem":
            return verify_theorem(case, argument, memo)
        if check == "corollary":
            lhs = theorem_lhs(case, argument=2, memo=memo)
            rhs = corollary_rhs(case)
        elif check == "pipeline":
            lhs, rhs = beta_integral_pipeline(case, memo)
        else:
            raise ValueError(f"unknown check {check!r}")
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
    The (j, b) weights and prefactors, the (j, a, b) term parameters, the
    half-shifted d and e, and the (a, d, e) left-side prefactors are
    memoized for this sweep only.  A pool's map pickles an empty copy of
    the memo with each chunk of jobs it sends.
    """
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    # one Fraction per set element, shared by every job that uses it
    a_set, b_set, d_set, e_set = (
        [Fraction(x) for x in s] for s in (a_set, b_set, d_set, e_set)
    )
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
