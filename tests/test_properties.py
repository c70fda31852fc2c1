"""Randomized invariants for the exact kernels."""

import math
import random
from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperverify import identities
from hyperverify.exact import (
    GammaProduct,
    gamma_simplify,
    is_nonpositive_integer,
    pochhammer,
    pochhammer_duplication,
)
from hyperverify.errors import VerificationError
from hyperverify.hyper import (
    HyperSpec,
    eval_terminating,
    eval_weighted_sum,
    ratio_rows,
    series_in_z,
    sum_rows,
    weighted_series,
)
from hyperverify.identities import (
    IdentityCase,
    gen_transform_lhs_series,
    gen_transform_rhs_series,
    grid_sweep,
    kummer_rhs_series,
)
from hyperverify.series import TruncatedSeries, binomial_series
from series_oracle import (
    compose,
    eval_terminating_direct,
    fraction_poly_from_samples,
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


@given(safe_bases, st.integers(0, 12))
def test_gamma_ratio_reduces_to_pochhammer(q, k):
    value = gamma_simplify(GammaProduct.ratio((q + k,), (q,)))
    assert value == pochhammer(q, k)


@given(
    st.lists(st.tuples(safe_bases, st.integers(0, 8)), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_gamma_simplify_permutation_invariance(pairs, rng):
    factors = []
    expected = F(1)
    for q, k in pairs:
        factors += [(q + k, 1), (q, -1)]
        expected *= pochhammer(q, k)
    assert gamma_simplify(GammaProduct(tuple(factors))) == expected
    rng.shuffle(factors)
    assert gamma_simplify(GammaProduct(tuple(factors))) == expected


@given(safe_bases, st.integers(0, 6))
def test_gamma_exponent_split_invariance(q, k):
    doubled = GammaProduct(((q + k, 2), (q, -2)))
    split = GammaProduct(((q + k, 1), (q + k, 1), (q, -1), (q, -1)))
    assert gamma_simplify(doubled) == gamma_simplify(split)


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


@given(st.fractions(min_value=-5, max_value=5, max_denominator=10),
       st.integers(1, 16))
def test_binomial_series_inverse_pair(alpha, order):
    product = binomial_series(alpha, order) * binomial_series(-alpha, order)
    assert product.coefficients == (1,) + (0,) * order


@given(rationals, st.integers(0, 30))
def test_binomial_series_matches_the_fraction_recurrence(alpha, order):
    coeffs = [F(1)]
    for n in range(order):
        coeffs.append(coeffs[-1] * (alpha + n) / (n + 1))
    assert binomial_series(alpha, order).coefficients == tuple(coeffs)


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
    return HyperSpec((F(-stop), *extra_nums), tuple(dens), draw(arguments))


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
    nums, dens = list(spec.numerators), list(spec.denominators)
    rng.shuffle(nums)
    rng.shuffle(dens)
    shuffled = HyperSpec(tuple(nums), tuple(dens), spec.argument)
    assert eval_terminating(shuffled) == eval_terminating(spec)
    assert series_in_z(shuffled, 6) == series_in_z(spec, 6)


@given(terminating_specs())
def test_series_coefficients_resum_to_value(spec):
    s = series_in_z(spec, 10)
    total = sum(c * spec.argument ** n for n, c in enumerate(s.coefficients))
    assert total == eval_terminating(spec)


@st.composite
def weighted_specs(draw):
    # lower parameters never vanish, so no pole; a nonpositive-integer
    # upper parameter, when drawn, ends the terms early
    return HyperSpec(
        weight=tuple(draw(st.lists(rationals, min_size=1, max_size=3))),
        numerators=tuple(draw(st.lists(rationals, max_size=3))),
        denominators=tuple(draw(st.lists(safe_bases, max_size=3))),
        power_offset=draw(st.integers(0, 1)),
    )


def weighted_term(spec, n):
    """Term n of a weighted family, rebuilt from scratch in plain Fractions."""
    term = sum((c * n**k for k, c in enumerate(spec.weight)), F(0))
    term /= math.factorial(n)
    for p in spec.numerators:
        term *= rising(p, n)
    for q in spec.denominators:
        term /= rising(q, n)
    return term


@given(weighted_specs(), st.integers(0, 8))
def test_weighted_sum_and_series_match_per_term_oracle(spec, up_to):
    terms = [weighted_term(spec, n) for n in range(up_to + 1)]
    total = sum_rows((spec.rows(up_to),), up_to, *spec.integer_weight)
    assert total == sum(terms, F(0))
    if spec.stop is not None and spec.stop <= up_to:
        assert eval_weighted_sum(spec) == total
    order = 2 * up_to + spec.power_offset
    expected = [F(0)] * (order + 1)
    expected[spec.power_offset::2] = terms
    assert weighted_series(spec, order).coefficients == tuple(expected)


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
    head = ratio_rows(nums[:cn], dens[:cd], arg, up_to)
    tail = ratio_rows(nums[cn:], dens[cd:], F(1), up_to)
    split = outcome(lambda: sum_rows((head, tail), up_to))
    whole = outcome(lambda: sum_rows((ratio_rows(nums, dens, arg, up_to),), up_to))
    assert split == whole
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
            (weighted_term(HyperSpec(nums, dens), n) * arg ** n
             for n in alive), F(0))


@given(split_families())
def test_split_terminating_sum_matches_one_spec_and_direct_sum(family):
    # The theorem's left side and the corollaries sum a head and a tail
    # spec under the legality rule: the same value, or the same error, as
    # one spec of all the parameters, and the direct sum's value.
    nums, dens, arg, (cn, cd) = family
    split = outcome(lambda: eval_terminating(
        HyperSpec(nums[:cn], dens[:cd], arg), HyperSpec(nums[cn:], dens[cd:])))
    whole = outcome(lambda: eval_terminating(HyperSpec(nums, dens, arg)))
    assert split == whole
    if not isinstance(whole, str):
        assert whole == eval_terminating_direct(HyperSpec(nums, dens, arg))


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


ints_and_strs = st.one_of(st.integers(-9, 9), rationals.map(str))
positive_ints_and_strs = st.one_of(
    st.integers(1, 9), st.fractions(min_value=F(1, 12), max_value=6).map(str)
)


def all_fractions(values, inputs):
    return all(type(v) is F for v in values) and list(values) == [
        F(x) for x in inputs
    ]


@given(
    st.lists(ints_and_strs, max_size=4),
    st.lists(positive_ints_and_strs, max_size=3),
    ints_and_strs,
    st.lists(ints_and_strs, min_size=4, max_size=4),
)
def test_spec_constructors_normalise_int_and_str(nums, dens, arg, point):
    spec = HyperSpec(tuple(nums), tuple(dens), arg)
    assert all_fractions(spec.numerators + spec.denominators, nums + dens)
    assert all_fractions((spec.argument,), (arg,))
    weighted = HyperSpec(tuple(nums), tuple(dens), weight=tuple(nums))
    assert all_fractions(weighted.weight, nums)
    assert all_fractions(weighted.numerators + weighted.denominators, nums + dens)
    assert all_fractions(TruncatedSeries(tuple(point)).coefficients, point)
    case = IdentityCase(0, *point)
    assert all_fractions((case.a, case.b, case.d, case.e), point)
    # a Fraction input is kept as it is, not rebuilt
    q = F(point[0])
    assert HyperSpec((q,), ()).numerators[0] is q
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
    # (j, a, b) and each moment (d)_p/(e)_p once per (p, d, e).
    reached = {
        (a, d, e) for a in a_s for d in d_s for e in e_s
        if is_nonpositive_integer(a) and 0 < d < e
    }
    rows = {(j, a, b) for j in js for a, _, _ in reached for b in b_s}
    moments = {(p, d, e) for a, d, e in reached for p in range(1 - 2 * int(a))}
    with mock.patch.object(
        identities, "gamma_simplify", wraps=identities.gamma_simplify
    ) as counted, mock.patch.object(
        identities, "gen_transform_lhs_series",
        wraps=identities.gen_transform_lhs_series,
    ) as polys, mock.patch.object(
        identities, "beta_moment", wraps=identities.beta_moment
    ) as moment_calls:
        records = grid_sweep(js, a_s, b_s, d_s, e_s, ("pipeline",))
    assert counted.call_count == len(reached)
    assert polys.call_count == len(rows)
    assert moment_calls.call_count == len(moments)
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
# A stored error (the left side's pole at (a, d, e) = (-3, 1/2, -3)) is
# replayed across the corollary rows; theorem stops at its own right side.
@example([0, 1], [F(-3)], [F(1, 3), F(2, 7)], [F(1, 2)], [F(-3)],
         ["corollary", "theorem"])
# The odd scale's 2b + j = 0 pole is stored once and replayed across (d, e).
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
