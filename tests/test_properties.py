"""Randomized invariants for the exact kernels."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperverify import hyper, identities
from hyperverify.exact import (
    gamma_ratio,
    is_nonpositive_integer,
    pochhammer,
    pochhammer_duplication,
)
from hyperverify.errors import (
    DenominatorPoleBeforeTermination,
    InvalidCase,
    NonTerminatingSeries,
    UnsupportedJ,
    VerificationError,
)
from hyperverify.hyper import (
    HyperSpec,
    check_lower,
    ratio_rows,
    series_in_z,
    weighted_series,
)
from hyperverify.identities import (
    IdentityCase,
    gen_transform_lhs_series,
    gen_transform_rhs_series,
    grid_sweep,
    kummer_rhs_series,
    transform_lhs_recurrence,
)
from hyperverify.series import TruncatedSeries
from series_oracle import (
    beta_integral_pipeline,
    binomial,
    chain_pair,
    compose,
    corollary_rhs,
    eval_terminating,
    eval_terminating_direct,
    fraction_gamma_simplify,
    fraction_poly_from_samples,
    spec,
    sum_rows,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
safe_bases = rationals.filter(lambda q: not is_nonpositive_integer(q))


def rising(a, n):
    """Plain-Fraction rising factorial, independent of the package."""
    out = F(1)
    for k in range(n):
        out *= a + k
    return out


def series_strategy(max_order=12):
    return st.lists(small_rationals, min_size=1, max_size=max_order + 1).map(
        lambda cs: TruncatedSeries(tuple(cs))
    )


@given(rationals, st.integers(0, 25), st.integers(0, 25))
def test_pochhammer_splitting_law(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


@given(rationals, st.integers(0, 40))
def test_pochhammer_is_the_fraction_product(a, n):
    assert pochhammer(a, n) == rising(a, n)


@given(rationals, st.integers(0, 50))
def test_duplication_matches_plain_pochhammer(d, n):
    assert pochhammer_duplication(d, n) == pochhammer(d, 2 * n)


def pairs(args):
    """The rationals as integer pairs (p, q), q > 0, in lowest terms."""
    return [F(x).as_integer_ratio() for x in args]


@given(safe_bases, st.integers(0, 12))
def test_gamma_ratio_reduces_to_pochhammer(q, k):
    value = gamma_ratio(pairs([q + k]), pairs([q]))
    assert value == pochhammer(q, k)


@given(
    st.lists(st.tuples(safe_bases, st.integers(0, 8)), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_gamma_simplify_permutation_invariance(bases, rng):
    upper, lower = [], []
    expected = F(1)
    for q, k in bases:
        upper.append(q + k)
        lower.append(q)
        expected *= pochhammer(q, k)
    assert gamma_ratio(pairs(upper), pairs(lower)) == expected
    rng.shuffle(upper)
    rng.shuffle(lower)
    assert gamma_ratio(pairs(upper), pairs(lower)) == expected


@given(safe_bases, st.integers(0, 6))
def test_gamma_exponent_split_invariance(q, k):
    # a repeated argument is a squared factor
    doubled = gamma_ratio(pairs([q + k, q + k]), pairs([q, q]))
    assert doubled == gamma_ratio(pairs([q + k]), pairs([q])) ** 2


# Gamma arguments: a few classes mod 1, each at integer shifts around the
# poles, drawn from a small pool so that arguments repeat, pairs vanish,
# poles survive and lone non-integer factors are left over.
gamma_arguments = st.builds(lambda r, k: r + k,
                            st.sampled_from([F(0), F(1, 2), F(1, 3), F(2, 3)]),
                            st.integers(-3, 3))


def integer_pairs(args, rng):
    """The arguments as integer pairs (p, q), q > 0, some not in lowest
    terms, in the given order."""
    out = []
    for arg in args:
        k = rng.randint(1, 3)
        out.append((arg.numerator * k, arg.denominator * k))
    return out


@settings(max_examples=300)
@given(
    st.lists(st.tuples(gamma_arguments, st.sampled_from([1, 2, -1, -2])),
             max_size=6),
    st.randoms(use_true_random=False),
)
# a pole in the integer class beside an irrational residue at 1/2: the
# integer class comes first, so the pole is raised
@example([(F(-2), 1), (F(1, 2), 1)], random.Random(0))
# the integer class vanishes, (-1)_3 = 0 multiplied in, and the lone
# Gamma(1/2) after it still raises
@example([(F(2), 1), (F(-1), -1), (F(1, 2), 1)], random.Random(0))
def test_integer_gamma_core_matches_the_fraction_reduction(factors, rng):
    # gamma_ratio gives the value, or the error type and text, of the
    # Fraction reduction, with the arguments unmerged, in any order and
    # as unreduced pairs.
    upper = [a for a, e in factors if e > 0 for _ in range(e)]
    lower = [a for a, e in factors if e < 0 for _ in range(-e)]
    expected = outcome(lambda: fraction_gamma_simplify(upper, lower))
    assert outcome(lambda: gamma_ratio(pairs(upper), pairs(lower))) == expected
    rng.shuffle(upper)
    rng.shuffle(lower)
    assert outcome(lambda: gamma_ratio(integer_pairs(upper, rng),
                                       integer_pairs(lower, rng))) == expected


@given(st.integers(-5, 5),
       rationals.filter(lambda b: b.denominator > 1))
def test_reflected_prefactors_match_the_four_gamma_forms(j, b):
    # Away from the integers no Gamma argument of either form is a pole,
    # so the four-Gamma quotients the prefactors are defined by are right
    # there, and the reflected one-ratio forms must give their values.
    big_j, k = max(j, 0), (j + 1) // 2
    even = gamma_ratio(pairs([b, 1 - b]), pairs([b + big_j, 1 - b - k]))
    odd = gamma_ratio(pairs([-b, 1 + b]), pairs([-b - j // 2, b + big_j]))
    assert identities.even_prefactor(j, b) == even
    assert identities.odd_prefactor(j, b) == odd


# spec parameters: nonpositive integers (stops and poles) and negative
# rationals among the rest
spec_parameters = st.one_of(st.integers(-4, 0).map(F), small_rationals)


@given(
    st.lists(spec_parameters, max_size=3),
    st.lists(spec_parameters, max_size=3),
    small_rationals,
    st.lists(small_rationals, min_size=1, max_size=3),
    st.integers(0, 1),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_spec_of_unreduced_pairs_is_the_spec_of_reduced_pairs(
        nums, dens, arg, weight, offset, count, rng):
    # Pairs scaled by a factor of either sign, so unreduced and with
    # denominators of either sign, give the spec of their reduced pairs:
    # the same fields, hash, stop, first pole, integer weight, rows and sum.
    def pairs(values):
        scales = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in values]
        return [(v.numerator * k, v.denominator * k)
                for v, k in zip(values, scales)]

    reduced = spec(nums, dens, arg, weight=weight, power_offset=offset)
    scaled = HyperSpec(pairs(nums), pairs(dens), pairs([arg])[0],
                       weight=tuple(weight), power_offset=offset)
    assert scaled == reduced and hash(scaled) == hash(reduced)
    assert (scaled.num_pairs, scaled.den_pairs, scaled.arg_pair) == (
        tuple(x.as_integer_ratio() for x in nums),
        tuple(x.as_integer_ratio() for x in dens), arg.as_integer_ratio())
    assert (scaled.stop, scaled.first_pole, scaled.integer_weight) == (
        reduced.stop, reduced.first_pole, reduced.integer_weight)
    assert scaled.rows(count) == reduced.rows(count)
    assert outcome(lambda: eval_terminating(scaled)) == outcome(
        lambda: eval_terminating(reduced))


@given(series_strategy(), series_strategy(), series_strategy())
def test_series_ring_axioms(f, g, h):
    assert (f * g).coefficients == (g * f).coefficients
    assert ((f * g) * h).coefficients == (f * (g * h)).coefficients
    assert (f * (g + h)).coefficients == (f * g + f * h).coefficients
    assert ((f + g) + h).coefficients == (f + (g + h)).coefficients


# zero, integer and proper-fraction coefficients, so the product's common
# denominators range from 1 up
mixed_coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
)


@given(st.lists(mixed_coefficients, min_size=1, max_size=14),
       st.lists(mixed_coefficients, min_size=1, max_size=14))
def test_series_product_is_the_cauchy_product(f, g):
    n = min(len(f), len(g)) - 1  # unequal orders truncate to the smaller
    cauchy = tuple(
        sum((f[i] * g[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)
    )
    product = TruncatedSeries(tuple(f)) * TruncatedSeries(tuple(g))
    assert product.coefficients == cauchy


coefficient_lists = st.lists(mixed_coefficients, min_size=1, max_size=14)


@given(coefficient_lists,
       st.integers(1, 50) | st.integers(-50, -1))
def test_series_form_is_reduced_and_unique(cs, k):
    f = TruncatedSeries(tuple(cs))
    nums, den = f.numerators, f.denominator
    assert den > 0
    assert math.gcd(den, *nums) == 1
    assert [F(x, den) for x in nums] == cs
    g = TruncatedSeries.over([k * x for x in nums], k * den)
    assert (g.numerators, g.denominator) == (nums, den)


@given(coefficient_lists, coefficient_lists)
def test_series_equality_and_hash_follow_the_coefficients(cs, ds):
    f, g = TruncatedSeries(tuple(cs)), TruncatedSeries(tuple(ds))
    assert (f == g) == (f.coefficients == g.coefficients)
    twin = TruncatedSeries.over(f.numerators, f.denominator)
    assert twin == f and hash(twin) == hash(f)


@given(coefficient_lists, coefficient_lists, mixed_coefficients)
def test_series_operations_match_plain_fractions(cs, ds, c):
    f, g = TruncatedSeries(tuple(cs)), TruncatedSeries(tuple(ds))
    n = min(len(cs), len(ds))
    cauchy = tuple(sum((cs[i] * ds[m - i] for i in range(m + 1)), F(0))
                   for m in range(n))
    for result, expected in ((f * g, cauchy),
                             (f + g, tuple(x + y for x, y in zip(cs, ds))),
                             (f.scale(c), tuple(c * x for x in cs))):
        assert result.coefficients == expected
        # the integer form of each result is the one its coefficients give
        assert result == TruncatedSeries(expected)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=10),
       st.integers(1, 16))
def test_binomial_series_inverse_pair(alpha, order):
    # (1 - x)**(-alpha) is the 1F0 series of the upper parameter alpha
    product = (series_in_z(spec((alpha,), ()), order)
               * series_in_z(spec((-alpha,), ()), order))
    assert product.coefficients == (1,) + (0,) * order


@given(rationals, st.integers(0, 30))
def test_binomial_series_matches_the_fraction_recurrence(alpha, order):
    assert series_in_z(spec((alpha,), ()), order).coefficients == (
        binomial(alpha, order).coefficients)


@given(series_strategy(8), series_strategy(8), series_strategy(8))
def test_compose_associativity(f, g, h):
    g = TruncatedSeries((F(0),) + g.coefficients[1:]) if g.order else g.scale(0)
    h = TruncatedSeries((F(0),) + h.coefficients[1:]) if h.order else h.scale(0)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@st.composite
def terminating_specs(
    draw, arguments=st.fractions(min_value=-3, max_value=3, max_denominator=5)
):
    stop = draw(st.integers(0, 8))
    extra_nums = draw(st.lists(rationals, max_size=2))
    dens = draw(
        st.lists(
            rationals.filter(lambda q: not (is_nonpositive_integer(q) and -q < stop)),
            max_size=2,
        )
    )
    return spec((F(-stop), *extra_nums), tuple(dens), draw(arguments))


@given(terminating_specs())
def test_iterative_and_direct_paths_agree(spec):
    value = eval_terminating(spec)
    assert eval_terminating_direct(spec) == value
    assert eval_terminating_direct(spec, reverse=True) == value


@given(terminating_specs(st.sampled_from([F(1), F(2), F(-1, 3), F(0)])))
def test_terminating_sum_matches_direct_at_the_used_arguments(spec):
    assert eval_terminating(spec) == eval_terminating_direct(spec)


@given(terminating_specs(), st.randoms(use_true_random=False))
def test_parameter_reordering_is_invisible(spec, rng):
    nums, dens = list(spec.num_pairs), list(spec.den_pairs)
    rng.shuffle(nums)
    rng.shuffle(dens)
    shuffled = HyperSpec(nums, dens, spec.arg_pair)
    assert eval_terminating(shuffled) == eval_terminating(spec)
    assert series_in_z(shuffled, 6) == series_in_z(spec, 6)


@given(terminating_specs())
def test_series_coefficients_resum_to_value(spec):
    s = series_in_z(spec, 10)
    arg = F(*spec.arg_pair)
    total = sum(c * arg ** n for n, c in enumerate(s.coefficients))
    assert total == eval_terminating(spec)


@st.composite
def weighted_specs(draw):
    # lower parameters never vanish, so no pole; a nonpositive-integer
    # upper parameter, when drawn, ends the terms early
    return spec(
        weight=tuple(draw(st.lists(rationals, min_size=1, max_size=3))),
        numerators=tuple(draw(st.lists(rationals, max_size=3))),
        denominators=tuple(draw(st.lists(safe_bases, max_size=3))),
        power_offset=draw(st.integers(0, 1)),
    )


def weighted_term(spec, n):
    """Term n of a weighted family, rebuilt from scratch in plain Fractions."""
    term = sum((c * n**k for k, c in enumerate(spec.weight)), F(0))
    term /= math.factorial(n)
    for p in spec.num_pairs:
        term *= rising(F(*p), n)
    for q in spec.den_pairs:
        term /= rising(F(*q), n)
    return term


@given(weighted_specs(), st.integers(0, 8))
def test_weighted_sum_and_series_match_per_term_oracle(spec, up_to):
    terms = [weighted_term(spec, n) for n in range(up_to + 1)]
    total = sum_rows((spec.rows(up_to),), up_to, *spec.integer_weight)
    assert total == sum(terms, F(0))
    if spec.stop is not None and spec.stop <= up_to:
        assert eval_terminating(spec) == total
    order = 2 * up_to + spec.power_offset
    expected = [F(0)] * (order + 1)
    expected[spec.power_offset::2] = terms
    assert weighted_series(spec, order).coefficients == tuple(expected)


@given(weighted_specs(), st.integers(0, 16), rationals)
def test_expansions_come_back_in_reduced_form(spec, order, alpha):
    # each expansion builds its integer form directly; it must be the one
    # that its coefficients give
    binomial_spec = HyperSpec((alpha.as_integer_ratio(),), ())
    for s in (weighted_series(spec, order), series_in_z(spec, order),
              series_in_z(binomial_spec, order)):
        assert s == TruncatedSeries(s.coefficients)


@given(st.lists(spec_parameters, max_size=3),
       st.lists(spec_parameters, max_size=3),
       st.lists(small_rationals, min_size=1, max_size=3),
       st.integers(0, 1), st.integers(0, 12))
# the lower parameter -4 vanishes at term 5, past the order's terms
@example([F(1, 4), F(3, 4)], [-4], [1], 0, 8)
def test_series_expansions_take_the_legality_rule(
        nums, dens, weight, offset, order):
    # Both expansions raise exactly when check_lower raises, with its
    # message, whatever the order: the rule holds for the whole series.
    family = spec(nums, dens, weight=weight, power_offset=offset)
    rule = outcome(lambda: check_lower(family))
    for expand in (weighted_series, series_in_z):
        result = outcome(lambda: expand(family, order))
        if isinstance(rule, str):
            assert result == rule
        else:
            assert isinstance(result, TruncatedSeries)


# Parameters that end the terms early or vanish as lower parameters are
# drawn often: the nonpositive integers, and the rest of the rationals.
walk_parameters = st.one_of(st.integers(-5, 0).map(F), rationals)


@st.composite
def split_families(draw):
    """(numerators, denominators, argument, head sizes): one parameter
    list cut into a head group of the first parameters and a tail group
    of the rest."""
    nums = draw(st.lists(walk_parameters, max_size=4))
    dens = draw(st.lists(walk_parameters, max_size=3))
    cut = (draw(st.integers(0, len(nums))), draw(st.integers(0, len(dens))))
    return nums, dens, draw(st.sampled_from([F(1), F(2), F(-2, 3)])), cut


def outcome(evaluate):
    """The value, or the text of the VerificationError raised."""
    try:
        return evaluate()
    except VerificationError as err:
        return f"{type(err).__name__}: {err}"


@given(split_families(), st.integers(0, 8))
def test_two_group_walk_matches_one_group_and_direct_sums(family, up_to):
    # The head group carries the argument, as the theorem's left side does.
    nums, dens, arg, (cn, cd) = family
    # ratio_rows reads integer pairs
    pn, pd, pa = ([x.as_integer_ratio() for x in xs] for xs in (nums, dens, [arg]))
    head = ratio_rows(pn[:cn], pd[:cd], pa[0], up_to)
    tail = ratio_rows(pn[cn:], pd[cd:], (1, 1), up_to)
    split = outcome(lambda: sum_rows((head, tail), up_to))
    whole = outcome(lambda: sum_rows((ratio_rows(pn, pd, pa[0], up_to),), up_to))
    assert split == whole
    # walked to the family's stop, the package's kernel gives the same sum
    head_spec, tail_spec = spec(nums[:cn], dens[:cd], arg), spec(nums[cn:], dens[cd:])
    stops = [s.stop for s in (head_spec, tail_spec) if s.stop is not None]
    if stops and min(stops) <= up_to:
        assert outcome(lambda: eval_terminating(head_spec, tail_spec)) == split
    # the terms are alive up to the first vanishing numerator Pochhammer
    alive = [n for n in range(up_to + 1)
             if all(rising(p, n) != 0 for p in nums)]
    poles = [(n, q) for n in alive for q in dens if rising(q, n) == 0]
    if poles:
        n = min(n for n, _ in poles)
        q = next(q for m, q in poles if m == n)
        assert split == ("DenominatorPoleBeforeTermination: denominator "
                         f"parameter {q} vanishes at term {n}")
    else:
        assert split == sum(
            (weighted_term(spec(nums, dens), n) * arg ** n
             for n in alive), F(0))


@given(split_families(), st.lists(st.integers(-5, 5), min_size=1, max_size=3),
       st.integers(1, 6), st.integers(0, 8))
def test_weighted_two_group_walk_matches_one_group_and_direct_sums(
        family, weight, w_den, up_to):
    # The theorem's right side walks a head spec that carries an integer
    # weight polynomial (degree <= 2) over w_den with a tail spec: the
    # same value, or the same error, as one group of all the parameters,
    # and the value of the weighted terms summed directly.
    nums, dens, arg, (cn, cd) = family
    weight = tuple(weight)
    fractions = [F(c, w_den) for c in weight]
    head = spec(nums[:cn], dens[:cd], arg, weight=fractions)
    tail = spec(nums[cn:], dens[cd:])
    split = outcome(lambda: sum_rows((head.rows(up_to), tail.rows(up_to)),
                                     up_to, weight, w_den))
    whole = outcome(lambda: sum_rows(
        (spec(nums, dens, arg).rows(up_to),), up_to, weight, w_den))
    assert split == whole
    if not isinstance(split, str):
        alive = [n for n in range(up_to + 1)
                 if all(rising(p, n) != 0 for p in nums)]
        terms = spec(nums, dens, weight=fractions)
        assert split == sum((weighted_term(terms, n) * arg ** n
                             for n in alive), F(0))
    # walked to the family's stop, the specs give the same sum
    stops = [s.stop for s in (head, tail) if s.stop is not None]
    if stops and min(stops) <= up_to:
        assert outcome(lambda: eval_terminating(head, tail)) == split


@given(split_families())
def test_split_terminating_sum_matches_one_spec_and_direct_sum(family):
    # The theorem's left side and the corollaries sum a head and a tail
    # spec under the legality rule: the same value, or the same error, as
    # one spec of all the parameters, and the direct sum's value.
    nums, dens, arg, (cn, cd) = family
    split = outcome(lambda: eval_terminating(
        spec(nums[:cn], dens[:cd], arg), spec(nums[cn:], dens[cd:])))
    whole = outcome(lambda: eval_terminating(spec(nums, dens, arg)))
    assert split == whole
    if not isinstance(whole, str):
        assert whole == eval_terminating_direct(spec(nums, dens, arg))


@st.composite
def kernel_families(draw):
    """(head, tail or None): a head spec with an argument, 0 included so
    that its rows end before the stop, and a weight over an integer
    denominator, and a tail spec of the other parameters or none."""
    nums, dens, _, (cn, cd) = draw(split_families())
    arg = draw(st.sampled_from([F(1), F(2), F(-2, 3), F(0)]))
    weight = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
    w_den = draw(st.integers(1, 6))
    head = spec(nums[:cn], dens[:cd], arg, weight=[F(c, w_den) for c in weight])
    tail = spec(nums[cn:], dens[cd:]) if draw(st.booleans()) else None
    return head, tail


@given(kernel_families())
# stop 0: the constant term alone
@example((spec((0, F(1, 2)), (-3,), 2, weight=(F(5, 2), 1)),
          spec((F(1, 3),), (-1,))))
# the argument 0 ends the head's rows before the stop
@example((spec((-3,), (F(1, 2),), 0, weight=(2,)), spec((F(1, 3),), (2,))))
# the argument 0 with a pole before the stop, which the walk never meets
@example((spec((-3,), (-1,), 0), spec((F(1, 3),), (2,))))
# a head and a tail pole at the same step
@example((spec((-4,), (-2,), 2), spec((F(1, 3),), (-2,))))
# a tail pole before the head's
@example((spec((-4,), (-2,), 2), spec((F(1, 3),), (-1,))))
# a pole and no stop
@example((spec((F(1, 2),), (-1,), 2), None))
def test_kernel_matches_the_reference_loop(family):
    # One and two groups: the kernel gives the unreduced pair of the loop
    # it replaced under the legality rule, or raises the same error with
    # the same message.  Where the family has a stop and a nonzero
    # argument, the loop without the rule, which raises only at the pole
    # it walks, gives the same outcome, so the weighted sums take the
    # rule and lose nothing.
    head, tail = family
    specs = (head,) if tail is None else (head, tail)
    kernel = outcome(lambda: hyper._terminating_pair(head, tail))
    assert kernel == outcome(lambda: chain_pair(specs, legal=True))
    if (any(s.stop is not None for s in specs)
            and head.arg_pair[0] != 0):
        assert kernel == outcome(lambda: chain_pair(specs, legal=False))


def test_kernel_pole_errors_name_the_step():
    head, tail = spec((-4,), (-2,), 2), spec((F(1, 3),), (-2,))
    for specs in ((head, tail), (tail, head)):
        with pytest.raises(DenominatorPoleBeforeTermination,
                           match=r"^denominator parameter -2 vanishes at term 3$"):
            hyper._terminating_pair(*specs)
    with pytest.raises(NonTerminatingSeries):
        hyper._terminating_pair(spec((F(1, 2),), (3,)), spec((), ()))


# pole-free picks for the transform invariants
transform_bs = st.sampled_from(
    [F(1, 3), F(2, 7), F(2, 5), F(3, 8), F(5, 4), F(7, 5)]
)
transform_as = st.sampled_from([F(-2), F(-1), F(1, 4), F(1, 3), F(3, 5)])


@settings(max_examples=30)
@given(transform_as, transform_bs)
def test_shift_zero_collapses_to_kummer(a, b):
    assert gen_transform_rhs_series(0, a, b, 12) == kummer_rhs_series(a, b, 12)


@settings(max_examples=30)
@given(st.integers(-5, 5), transform_as, transform_bs)
def test_transform_parity_split(j, a, b):
    rhs = gen_transform_rhs_series(j, a, b, 11)
    evens = gen_transform_rhs_series(j, F(0), b, 11)  # a = 0 silences the odd part
    assert all(evens[k] == 0 for k in range(1, 12, 2))
    lhs = gen_transform_lhs_series(j, a, b, 11)
    # even coefficients carry the even part only: they must already match
    # the left side even where the tabulated odd weight is defective
    if j != -5:
        assert rhs == lhs
    else:
        assert all(rhs[k] == lhs[k] for k in range(0, 12, 2))


def recurrence_outcome(j, a, b, order):
    """transform_lhs_recurrence's outcome, and how many times it fell back
    on gen_transform_lhs_series."""
    with mock.patch.object(identities, "gen_transform_lhs_series",
                           wraps=gen_transform_lhs_series) as fallback:
        got = outcome(lambda: transform_lhs_recurrence(j, a, b, order))
    return got, fallback.call_count


RECURRENCE_AS = (F(-3), F(0), F(1, 4), F(-2), F(2, 5), F(5))
# b = 0, -1, -3, -5/2 and 1/2 put c = 2b + j on a nonpositive integer at
# some j; b = 2/7 and -1/3 never do
RECURRENCE_BS = (F(2, 7), F(-1, 3), F(0), F(-1), F(-5, 2), F(1, 2), F(-3))


def test_recurrence_matches_its_oracle_on_the_grid():
    # The three-term recurrence against the substitution on 11 x 6 x 7 =
    # 462 points at order 16.  Where c = 2b + j is not a nonpositive
    # integer it sums on its own and equals the substitution; at every
    # other point it is the substitution, a value where 2a or b ends the
    # 2F1 before its pole and the substitution's error where not.
    kinds = {"recurrence": 0, "value": 0, "raises": 0}
    for j in range(-5, 6):
        for a in RECURRENCE_AS:
            for b in RECURRENCE_BS:
                want = outcome(lambda: gen_transform_lhs_series(j, a, b, 16))
                got, fallbacks = recurrence_outcome(j, a, b, 16)
                assert got == want, (j, a, b)
                if not is_nonpositive_integer(2 * b + j):
                    assert fallbacks == 0, (j, a, b)
                    kinds["recurrence"] += 1
                    continue
                assert fallbacks == 1, (j, a, b)
                kinds["raises" if isinstance(want, str) else "value"] += 1
    assert kinds == {"recurrence": 216, "value": 164, "raises": 82}


def test_recurrence_left_side_at_a_nonpositive_integer_a_is_a_polynomial():
    # At a = -m the factor 2a + n stops the recurrence after x**(2m); on
    # the grid's points where it sums on its own, x**(2m) is nonzero.
    for j in range(-5, 6):
        for m in (0, 2, 3):
            for b in RECURRENCE_BS:
                if is_nonpositive_integer(2 * b + j):
                    continue
                lhs = transform_lhs_recurrence(j, F(-m), b, 16)
                degree = max(k for k, c in enumerate(lhs.coefficients) if c)
                assert degree == 2 * m, (j, m, b)


def test_recurrence_falls_back_to_a_value_before_the_pole():
    # c = -3 would divide the recurrence by zero at x**4; b = -1 ends the
    # 2F1 after w**1, so the substitution has a value:
    # (1 - x)**(-1/2) (1 + w/6) = (1 - x)**(-1/2) - (x/3) (1 - x)**(-3/2)
    j, a, b = -1, F(1, 4), F(-1)
    lhs, fallbacks = recurrence_outcome(j, a, b, 6)
    assert fallbacks == 1
    assert lhs == gen_transform_lhs_series(j, a, b, 6)
    assert lhs.coefficients == (1, F(1, 6), F(-1, 8), F(-5, 16), F(-175, 384),
                                F(-147, 256), F(-693, 1024))


@pytest.mark.parametrize("j, a, b, order, message", [
    # c = -1: the pole meets live terms at term 2
    (-2, F(1, 4), F(1, 2), 16, "denominator parameter -1 vanishes at term 2"),
    # c = -31 lies past the order, and the substitution still refuses it
    (-4, F(1, 4), F(-27, 2), 24,
     "denominator parameter -31 vanishes at term 32"),
])
def test_recurrence_falls_back_to_the_pole_error(j, a, b, order, message):
    got, fallbacks = recurrence_outcome(j, a, b, order)
    assert fallbacks == 1
    assert got == f"DenominatorPoleBeforeTermination: {message}"
    assert outcome(lambda: gen_transform_lhs_series(j, a, b, order)) == got


@settings(max_examples=60)
@given(st.integers(-5, 5), small_rationals, small_rationals, st.integers(0, 20))
def test_recurrence_matches_its_oracle(j, a, b, order):
    got, _ = recurrence_outcome(j, a, b, order)
    assert got == outcome(lambda: gen_transform_lhs_series(j, a, b, order))
    if not isinstance(got, str):
        assert math.gcd(got.denominator, *got.numerators) == 1


def test_kummer_never_reads_the_recurrence():
    # At j = 0 the recurrence is kummer_rhs_series's own term ratio, so
    # the kummer check keeps the substitution as its left side.
    def broken(*args):
        raise AssertionError("kummer read the recurrence")

    want = grid_sweep((), RECURRENCE_AS, RECURRENCE_BS, (), (), ("kummer",))
    with mock.patch.object(identities, "transform_lhs_recurrence", broken), \
            mock.patch.object(identities, "gen_transform_lhs_series",
                              wraps=gen_transform_lhs_series) as lhs:
        records = grid_sweep((), RECURRENCE_AS, RECURRENCE_BS, (), (),
                             ("kummer",))
    assert records == want
    assert lhs.call_count == len(records) == 42


def test_seeded_random_grid_for_weight_table_rows():
    # deterministic spot sampling across all rows, independent of hypothesis
    rng = random.Random(1729)
    from hyperverify.identities import coeff_A, coeff_B

    for _ in range(200):
        j = rng.randint(-5, 5)
        b = F(rng.randint(-12, 12), rng.randint(1, 9))
        n = rng.randint(0, 9)
        a_val = coeff_A(j, b, n)
        b_val = coeff_B(j, b, n)
        if j == 0:
            assert (a_val, b_val) == (1, 0)
        if j == 1:
            assert (a_val, b_val) == (-1, 1)
        if j == -1:
            assert (a_val, b_val) == (1, 1)
        assert a_val.denominator >= 1 and b_val.denominator >= 1


@given(st.lists(st.one_of(rationals, st.integers(-6, 6)), min_size=1, max_size=6))
def test_integer_newton_interpolation_matches_fraction_oracle(coeffs):
    # samples of a polynomial of degree <= 5 at n = 0..5, ints mixed in as
    # the table rows return them
    samples = [sum(c * n**k for k, c in enumerate(coeffs)) for n in range(6)]
    poly = identities._poly_from_samples(samples)
    assert poly == fraction_poly_from_samples(samples)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    assert poly == tuple(coeffs)
    assert all(type(c) is F for c in poly)


# b for the weight polynomials: integers, negative values and large
# denominators
weight_bs = st.one_of(
    st.integers(-40, 40).map(F), rationals,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12))


@given(st.sampled_from(sorted(identities.COEFF_TABLE)), st.sampled_from((0, 1)),
       weight_bs)
def test_weight_polynomial_matches_the_table_at_any_b(j, part, b):
    # The polynomial comes from six samples of the entry at b, n = 0..5;
    # it must give the table entry at b for every n, well past the samples.
    entry = identities.coeff_A if part == 0 else identities.coeff_B
    poly = identities._weight_poly(j, b, part)
    assert all(type(c) is F for c in poly)
    for n in range(21):
        assert sum(c * n**k for k, c in enumerate(poly)) == entry(j, b, n)


ints_and_strs = st.one_of(st.integers(-9, 9), rationals.map(str))


def all_fractions(values, inputs):
    return all(type(v) is F for v in values) and list(values) == [
        F(x) for x in inputs
    ]


@given(st.lists(ints_and_strs, min_size=4, max_size=4))
def test_value_constructors_normalise_int_and_str(point):
    assert all_fractions(TruncatedSeries(tuple(point)).coefficients, point)
    case = IdentityCase(0, *point)
    assert all_fractions((case.a, case.b, case.d, case.e), point)
    # a Fraction input is kept as it is, not rebuilt
    q = F(point[0])
    assert TruncatedSeries((q,)).coefficients[0] is q
    assert IdentityCase(0, q, q, q, q).a is q


@settings(max_examples=20)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from([F(-1), F(-2), F(1, 2)]), min_size=1, unique=True),
    st.lists(st.sampled_from([F(1, 3), F(2, 7)]), min_size=1, unique=True),
    st.lists(st.sampled_from([F(1, 2), F(1), F(5, 2), F(-1)]), min_size=1,
             unique=True),
    st.lists(st.sampled_from([F(4), F(13, 3)]), min_size=1, unique=True),
)
def test_pipeline_sweep_reduces_each_left_prefactor_once(js, a_s, b_s, d_s, e_s):
    # Only cases with a a nonpositive integer and 0 < d < e reach the left
    # side's Gamma prefactor; the sweep memo reduces it once per (a, d, e)
    # however many (j, b) share it, builds the left polynomial once per
    # (j, a, b) and the moments (d)_p/(e)_p, p = 0..-2a, once per (a, d, e).
    reached = {
        (a, d, e) for a in a_s for d in d_s for e in e_s
        if is_nonpositive_integer(a) and 0 < d < e
    }
    rows = {(j, a, b) for j in js for a, _, _ in reached for b in b_s}
    with mock.patch.object(
        identities, "gamma_ratio", wraps=identities.gamma_ratio
    ) as counted, mock.patch.object(
        identities, "transform_lhs_recurrence",
        wraps=identities.transform_lhs_recurrence,
    ) as polys, mock.patch.object(
        identities, "beta_moment", wraps=identities.beta_moment
    ) as moment_calls:
        records = grid_sweep(js, a_s, b_s, d_s, e_s, ("pipeline",))
    assert counted.call_count == len(reached)
    assert polys.call_count == len(rows)
    assert moment_calls.call_count == sum(1 - 2 * int(a) for a, _, _ in reached)
    assert sum(r.equal is not None for r in records) == \
        len(reached) * len(js) * len(b_s)


def subsets(values, max_size=2):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size,
                    unique=True)


@settings(max_examples=25)
@given(
    subsets(list(range(-5, 6))),
    subsets([F(0), F(-2), F(1, 4)]),
    subsets([F(-1), F(3), F(2, 7)]),
    subsets([F(-2), F(1, 2), F(3)]),
    subsets([F(-3), F(4), F(13, 3)]),
    subsets(list(identities.CHECK_NAMES), max_size=5),
)
# The odd scale must not be reduced before the even sum: here the even
# prefactor's pole has to win over the odd part's lower-parameter pole.
@example([2], [F(-2)], [F(-1)], [F(-2)], [F(4)], ["theorem"])
# The left side's pole at (a, d, e) = (-3, 1/2, -3) raises again in every
# corollary row; theorem stops at its own right side.
@example([0, 1], [F(-3)], [F(1, 3), F(2, 7)], [F(1, 2)], [F(-3)],
         ["corollary", "theorem"])
# The odd scale's 2b + j = 0 pole raises again at each (d, e) reaching it.
@example([1], [F(-1, 2)], [F(-1, 2)], [F(-1), F(-3)], [F(4)], ["theorem"])
def test_sweep_memo_is_invisible_in_the_records(js, a_s, b_s, d_s, e_s, checks):
    # Degenerate points included (a = 0, integer b, 2b + j = 0 at j = 2,
    # e < 0): every memoized record, error text included, equals the one
    # its job gives on its own, with no memo.
    records = grid_sweep(js, a_s, b_s, d_s, e_s, checks, series_order=6)
    assert records
    for rec in records:
        job = (rec.check, rec.j, rec.a, rec.b, rec.d, rec.e, 6, 2)
        assert vars(rec) == vars(identities._evaluate_case(job))


def public_sides(job):
    """(lhs, rhs, error tag) of a theorem, corollary or pipeline job from
    the one-case functions, each side a Fraction, in the order in which
    the record's evaluation raises."""
    check, j, a, b, d, e, _, argument = job
    case = IdentityCase(j, a, b, d, e)
    try:
        if check == "theorem":
            rhs = identities.theorem_rhs(case)
            lhs = identities.theorem_lhs(case, argument)
        elif check == "corollary":
            if abs(j) > identities.COROLLARY_J_LIMIT:
                raise UnsupportedJ(j, limit=identities.COROLLARY_J_LIMIT)
            # the identity's hypotheses, before the left side
            if not (is_nonpositive_integer(a) or is_nonpositive_integer(d)):
                raise InvalidCase("neither a nor d is a nonpositive integer")
            if e == 0:
                raise InvalidCase("e must be nonzero")
            lhs = identities.theorem_lhs(case)
            rhs = corollary_rhs(case)
        else:
            lhs, rhs = beta_integral_pipeline(case)
    except VerificationError as err:
        return None, None, f"{type(err).__name__}: {err}"
    return lhs, rhs, None


def fraction_sides(check, j, a, b, d, e, argument):
    """Both sides of a job that evaluates, each part a Fraction from
    hyper's public sums and the parts combined in Fraction arithmetic,
    so independent of the integer pairs the package combines."""
    row = identities._Row(j, a, b)

    def left(argument=F(2)):
        prefactor, tail = identities._lhs_tail(
            *(x.as_integer_ratio() for x in (a, d, e, argument)))
        return prefactor * eval_terminating(row.lhs_head, tail)

    if check == "theorem":
        even_tail, odd_tail, d_over_e = identities._Column(d, e).tails
        even, odd = row.part_heads
        rhs = identities.even_prefactor(j, b) * eval_terminating(even, even_tail)
        if odd is not None and d != 0:
            rhs += row.odd_scale * d_over_e * eval_terminating(odd, odd_tail)
        return left(argument), rhs
    if check == "corollary":
        first, scale, second = row.corollary_heads
        first_tail, second_tail, d_over_e = identities._Column(d, e).tails
        rhs = eval_terminating(first, first_tail)
        if scale * d_over_e != 0:
            rhs += scale * d_over_e * eval_terminating(second, second_tail)
        return left(), rhs
    poly = gen_transform_lhs_series(j, a, b, -2 * int(a))
    moments = sum(c * identities.beta_moment(p, d, e)
                  for p, c in enumerate(poly.coefficients))
    return moments, left()


# both branches, with nonpositive-integer values of a and d besides
# generic ones; negative b and e, where the sums' denominators are
# negative
branch_values = st.one_of(st.integers(-4, 0).map(F), small_rationals)


@settings(max_examples=150)
@given(
    st.sampled_from(["theorem", "corollary", "pipeline"]),
    st.integers(-5, 5),
    branch_values,
    st.one_of(st.sampled_from([F(-5, 2), F(-1, 3), F(-1), F(2, 7)]),
              small_rationals),
    branch_values,
    st.one_of(st.sampled_from([F(-3), F(-7, 2), F(13, 3)]), small_rationals),
    st.sampled_from([F(2), F(1)]),
)
# the j = -5 weight defect: both sides finite and unequal
@example("theorem", -5, F(-2), F(2, 7), F(1, 2), F(4), F(2))
# negative b and e on both branches, where the weighted sums'
# denominators are negative, with the odd part live
@example("theorem", -2, F(-2), F(-1, 3), F(1, 2), F(-7, 2), F(2))
@example("theorem", -2, F(1, 4), F(-1, 3), F(-4), F(-7, 2), F(2))
@example("corollary", -3, F(2, 5), F(-1, 3), F(-2), F(-7, 2), F(2))
@example("pipeline", 2, F(-3), F(-1, 3), F(1, 2), F(13, 3), F(2))
# a skip: the even part's lower parameter b + j/2 is -1
@example("theorem", 3, F(1, 4), F(-5, 2), F(-4), F(-3), F(2))
def test_integer_sides_give_the_public_fractions(check, j, a, b, d, e, argument):
    # The records compare each side as an integer pair; what they carry
    # is exactly what the one-case functions return, which is what Fraction
    # arithmetic on the same sums gives, and so is the verdict.  A skip
    # carries the text the one-case functions raise.
    job = (check, j, a, b, d, e, 6, argument)
    rec = identities._evaluate_case(job)
    lhs, rhs, error = public_sides(job)
    assert rec.error == error
    if error is None:
        assert type(rec.lhs) is F and type(rec.rhs) is F
        assert (rec.lhs, rec.rhs) == (lhs, rhs)
        assert (lhs, rhs) == fraction_sides(check, j, a, b, d, e, argument)
        assert rec.equal is (lhs == rhs)


@settings(max_examples=40)
@given(
    subsets(list(range(-5, 6))),
    subsets([F(0), F(-2), F(1, 4)]),
    subsets([F(-1), F(3), F(2, 7), F(-1, 3)]),
    subsets([F(-2), F(0), F(1, 2), F(3)]),
    subsets([F(0), F(-3), F(4), F(13, 3)]),
    st.sampled_from([1, 2]),
)
# corollary and pipeline sum the left side at argument 2 while the theorem
# rows of the same sweep sum theirs at argument 1
@example([0, 1], [F(-2)], [F(2, 7)], [F(1, 2)], [F(4)], 1)
def test_row_sweep_equals_the_public_single_case_functions(
        js, a_s, b_s, d_s, e_s, argument):
    # Both branches, poles (integer b), e = 0, d = 0, negative b and
    # |j| > 3: every row record of theorem, corollary and pipeline, swept
    # together over one memo, is the record the one-case functions give
    # for its case alone, error tag included.
    records = grid_sweep(js, a_s, b_s, d_s, e_s,
                         ("theorem", "corollary", "pipeline"),
                         theorem_argument=argument)
    assert len(records) == 3 * len(js) * len(a_s) * len(b_s) * len(d_s) * len(e_s)
    for rec in records:
        lhs, rhs, error = public_sides(
            (rec.check, rec.j, rec.a, rec.b, rec.d, rec.e, None, F(argument)))
        # the parameter that terminates the identity, a before d
        branch = next((name for name, x in (("a", rec.a), ("d", rec.d))
                       if x.denominator == 1 and x <= 0), None)
        expected = identities.VerificationRecord(
            rec.check, rec.j, rec.a, rec.b, rec.d, rec.e, branch,
            lhs, rhs, None if error else lhs == rhs, error)
        assert rec == expected
