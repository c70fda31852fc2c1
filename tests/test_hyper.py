"""Hypergeometric term machinery: termination, evaluation, weighted sums."""

import math
from fractions import Fraction as F

import pytest

from hyperverify import hyper, identities
from hyperverify.errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from hyperverify.hyper import (
    HyperSpec,
    check_lower,
    ratio_rows,
    series_in_z,
    weighted_series,
    weighted_termination,
)
from hyperverify.suites import KUMMER_SUITE, TRANSFORM_SUITE
from series_oracle import (
    eval_terminating,
    eval_terminating_direct,
    spec,
    sum_rows,
)


class TestTermination:
    def test_single_negative_integer(self):
        assert spec((-3, F(1, 2)), (2,)).stop == 3

    def test_minimum_governs(self):
        assert spec((-2, -5), (2,)).stop == 2

    def test_absent_without_nonpositive_integer(self):
        assert spec((F(1, 2), 2), (3,)).stop is None

    def test_zero_numerator_terminates_immediately(self):
        assert spec((0, 5), (3,)).stop == 0

    def test_rows_are_built_once_per_count(self):
        family = spec((-3, F(1, 2)), (2,), 2)
        assert family.rows(2) is family.rows(2)
        assert family.rows(3) == ratio_rows(
            family.num_pairs, family.den_pairs, family.arg_pair, 3)


class TestSpecContract:
    # stop and first_pole are read off the reduced pairs, and the integer
    # weight is the weight over its least common denominator: ([1], 1)
    # for the unit weight, given or by default.
    @pytest.mark.parametrize("weight, integer_weight", [
        (None, ([1], 1)),
        ((F(1),), ([1], 1)),
        ((F(1, 2), F(-2, 3), F(0)), ([3, -4, 0], 6)),
        ((F(4), F(-6)), ([4, -6], 1)),
    ])
    def test_stop_pole_and_integer_weight(self, weight, integer_weight):
        # unreduced pairs, of either sign: -6/3 = -2 is an upper stop,
        # -4/2 = -2 and 3/-1 = -3 lower poles, -1/2 none
        kwargs = {} if weight is None else {"weight": weight}
        family = HyperSpec(((-6, 3), (5, 2), (-7, 1)),
                           ((-4, 2), (3, -1), (-1, 2)), (4, -2), **kwargs)
        assert (family.num_pairs, family.den_pairs, family.arg_pair) == (
            ((-2, 1), (5, 2), (-7, 1)), ((-2, 1), (-3, 1), (-1, 2)), (-2, 1))
        assert family.weight == (weight or (F(1),))
        assert (family.stop, family.first_pole) == (2, -2)
        assert family.stop == weighted_termination(family)
        assert family.integer_weight == integer_weight
        assert HyperSpec(((1, 2),), ((3, 1),)).first_pole is None
        assert HyperSpec(((1, 2),), ((3, 1),)).stop is None

    @pytest.mark.parametrize("weight", [None, (F(1),), (F(1, 2), F(3))])
    def test_specs_never_share_an_integer_weight(self, weight):
        kwargs = {} if weight is None else {"weight": weight}
        one, two = (HyperSpec(((-2, 1),), ((1, 2),), **kwargs)
                    for _ in range(2))
        assert one.integer_weight == two.integer_weight
        assert one.integer_weight[0] is not two.integer_weight[0]
        one.integer_weight[0].append(7)
        assert len(two.integer_weight[0]) == len(weight or (1,))


def truncated_sum(family, up_to):
    """The family's weighted terms summed for n = 0..up_to, whatever its
    stop, by the reference loop."""
    return sum_rows((family.rows(up_to),), up_to, *family.integer_weight)


class TestLegality:
    # Construction applies no rule; check_lower, eval_terminating and
    # series_in_z do.
    def test_nonpositive_denominator_needs_earlier_termination(self):
        # terminates at 2, denominator -3 first vanishes at term 4: legal
        check_lower(spec((-2, 1, 1), (2, -3), 2))
        illegal = (
            spec((F(1, 2), 1), (-3,)),  # no termination at all
            spec((-4, 1), (-3,)),  # terminates too late
        )
        for family in illegal:
            for check in (check_lower, eval_terminating,
                          lambda s: series_in_z(s, 2)):
                with pytest.raises(
                    DenominatorPoleBeforeTermination,
                    match=r"^denominator parameter -3 vanishes at term 4$",
                ):
                    check(family)

    def test_boundary_case_is_legal(self):
        check_lower(spec((-3, 1), (-3,)))

    def test_rule_before_non_termination(self):
        with pytest.raises(DenominatorPoleBeforeTermination):
            eval_terminating(spec((F(1, 2),), (-1,)))

    def test_groups_take_the_family_stop_and_list_order(self):
        # The head alone never terminates; the tail's -3 stops the family
        # after term 3, before -3 vanishes but after -2 and -1 do.  Of
        # those two, the rule names -1, the earliest to vanish, whatever
        # the list order.
        head = spec((F(1, 2),), (-3, -2))
        tail = spec((-3,), (-1,))
        assert head.first_pole == -2 and tail.first_pole == -1
        check_lower(spec((F(1, 2),), (-3,)), spec((-3,), ()))
        for specs in ((head, tail), (tail, head)):
            with pytest.raises(DenominatorPoleBeforeTermination,
                               match=r"^denominator parameter -1 vanishes at term 2$"):
                check_lower(*specs)
        with pytest.raises(DenominatorPoleBeforeTermination,
                           match=r"^denominator parameter -1 vanishes at term 2$"):
            eval_terminating(tail, head)


class TestEvalTerminating:
    def test_zero_numerator_gives_one(self):
        assert eval_terminating(spec((0, F(7, 3)), (F(1, 5),), 17)) == 1

    def test_two_term_gauss_sum(self):
        # oracle: 1 + (-1)(2)/3 * 2
        assert eval_terminating(spec((-1, 2), (3,), 2)) == 1 - F(4, 3)

    def test_three_term_sum_matches_oracle(self):
        family = spec((-2, 1, 1), (2, -3), 2)
        assert eval_terminating(family) == F(19, 9)
        assert eval_terminating(family) == eval_terminating_direct(family)

    def test_unit_argument_two_term_sum(self):
        family = spec(
            (-1, F(-1, 2), F(1, 2), 1), (F(3, 2), F(3, 2), 2), 1
        )
        assert eval_terminating(family) == F(19, 18)

    def test_nonterminating_rejected(self):
        with pytest.raises(NonTerminatingSeries):
            eval_terminating(spec((F(1, 2),), (3,), 1))

    def test_direct_path_and_reversed_order_agree(self):
        family = spec((-6, F(2, 3), F(-7, 2)), (F(1, 5), 4), F(3, 7))
        value = eval_terminating(family)
        assert eval_terminating_direct(family) == value
        assert eval_terminating_direct(family, reverse=True) == value

    def test_parameter_order_irrelevant(self):
        a = eval_terminating(spec((-3, F(1, 3), 2), (5, F(7, 2)), 2))
        b = eval_terminating(spec((2, -3, F(1, 3)), (F(7, 2), 5), 2))
        assert a == b


class TestSeriesInZ:
    def test_terminating_coefficients(self):
        s = series_in_z(spec((-2, 1), (2,)), 3)
        assert s.coefficients == (1, -1, F(1, 3), 0)

    def test_exponential_series(self):
        s = series_in_z(spec((), ()), 6)
        assert list(s.coefficients) == [F(1, math.factorial(n)) for n in range(7)]

    def test_zero_numerator(self):
        s = series_in_z(spec((0, F(2, 7)), (F(3, 4),)), 4)
        assert s.coefficients == (1, 0, 0, 0, 0)

    def test_sum_of_coefficients_reproduces_terminating_value(self):
        family = spec((-4, F(1, 2)), (F(5, 3),), F(2, 5))
        s = series_in_z(family, 9)
        value = sum(c * F(*family.arg_pair) ** n for n, c in enumerate(s.coefficients))
        assert value == eval_terminating(family)

    def test_zeros_beyond_termination_with_late_denominator_pole(self):
        # denominator -3 would vanish at term 4; termination at 2 keeps all
        # later coefficients exactly zero without touching the pole
        s = series_in_z(spec((-2, 1, 1), (2, -3)), 8)
        assert s.coefficients[3:] == (0,) * 6


class TestWeightedSum:
    def test_unit_weight_reduces_to_plain_series(self):
        a, b, d, e = F(-2), F(1, 3), F(1), F(4)
        family = spec(
            weight=(1,),
            numerators=(a, a + F(1, 2), b, d / 2, d / 2 + F(1, 2)),
            denominators=(b, b + F(1, 2), e / 2, e / 2 + F(1, 2)),
        )
        plain = spec(
            (a, a + F(1, 2), d / 2, d / 2 + F(1, 2)),
            (b + F(1, 2), e / 2, e / 2 + F(1, 2)),
            1,
        )
        assert weighted_termination(family) == family.stop == 2
        assert eval_terminating(family) == eval_terminating(plain)

    def test_zero_weight(self):
        family = spec(weight=(0,), numerators=(-3,), denominators=(2,))
        assert eval_terminating(family) == 0

    def test_polynomial_weight_horner(self):
        # no parameters: term n is weight(n) / n!
        family = spec(weight=(F(1, 2), -3, 2), numerators=(), denominators=())
        assert truncated_sum(family, 0) == F(1, 2)
        assert truncated_sum(family, 3) == (
            F(1, 2) + (F(1, 2) - 3 + 2) + (F(1, 2) - 6 + 8) / 2
            + (F(1, 2) - 9 + 18) / 6
        )
        # with (-3)_n upstairs and argument 2 the package's sum stops at
        # n = 3: term n is weight(n) (-3)_n 2^n / n!
        stopped = spec(weight=(F(1, 2), -3, 2), numerators=(-3,),
                       denominators=(), argument=2)
        expected = (F(1, 2) + (F(1, 2) - 3 + 2) * -3 * 2
                    + (F(1, 2) - 6 + 8) * 6 * 4 / 2
                    + (F(1, 2) - 9 + 18) * -6 * 8 / 6)
        assert eval_terminating(stopped) == truncated_sum(stopped, 3) == expected
        assert expected == F(-85, 2)

    def test_weight_absorption_cross_check(self):
        # (-(b+1+2n)/(b+1)) absorbed as (b/2+3/2)_n / (b/2+1/2)_n: the
        # weighted sum with the tabulated j=2 weight, scaled by its
        # prefactor -1/(b+1), equals the absorbed five-parameter series.
        a, b, d, e = F(-1), F(1), F(1), F(4)
        weighted = spec(
            weight=(-(b + 1), -2),
            numerators=(a, a + F(1, 2), b + 1, d / 2, d / 2 + F(1, 2)),
            denominators=(b + 1, b + F(3, 2), e / 2, e / 2 + F(1, 2)),
        )
        absorbed = spec(
            (a, a + F(1, 2), b / 2 + F(3, 2), d / 2, d / 2 + F(1, 2)),
            (b / 2 + F(1, 2), b + F(3, 2), e / 2, e / 2 + F(1, 2)),
            1,
        )
        lhs = F(-1, b + 1) * eval_terminating(weighted)
        assert lhs == eval_terminating(absorbed) == F(26, 25)

    def test_denominator_pole_before_termination_raises(self):
        family = spec(weight=(1,), numerators=(-5,), denominators=(-2,))
        with pytest.raises(DenominatorPoleBeforeTermination):
            eval_terminating(family)

    def test_numerator_death_shields_denominator(self):
        # numerator dies at the same step the denominator would vanish:
        # the sum is over by then, no pole is hit
        family = spec(weight=(1,), numerators=(-2,), denominators=(-2,))
        assert truncated_sum(family, 4) == eval_terminating(family) == F(5, 2)

    def test_pole_message_and_earlier_numerator_death(self):
        # -2 first vanishes in the factor that builds term 3 while (-5)_n
        # is alive; with -2 upstairs instead the terms die at n = 2 and the
        # pole at -3 is never reached
        live = spec(
            weight=(F(1, 2), 3), numerators=(-5, F(2, 3)),
            denominators=(F(1, 2), -2), power_offset=1,
        )
        for evaluate in (eval_terminating, lambda s: weighted_series(s, 11)):
            with pytest.raises(
                DenominatorPoleBeforeTermination,
                match=r"^denominator parameter -2 vanishes at term 3$",
            ):
                evaluate(live)
        dead = spec(
            weight=(F(1, 2), 3), numerators=(-2, F(2, 3)),
            denominators=(F(1, 2), -3), power_offset=1,
        )
        terms = (F(1, 2), F(28, 9), F(130, 81))
        assert eval_terminating(dead) == truncated_sum(dead, 11) == sum(terms)
        assert sum(terms) == F(845, 162)
        assert weighted_series(dead, 11).coefficients == (
            (0, terms[0], 0, terms[1], 0, terms[2]) + (0,) * 6
        )

    def test_weighted_series_placement(self):
        family = spec(
            weight=(1, 1),
            numerators=(F(1, 2),),
            denominators=(F(3, 2),),
            power_offset=1,
        )
        s = weighted_series(family, 6)
        # term n sits at degree 2n+1 with value (n+1) * (1/2)_n / ((3/2)_n n!)
        assert s[0] == 0 and s[2] == 0 and s[4] == 0 and s[6] == 0
        assert s[1] == 1
        assert s[3] == 2 * F(1, 2) / F(3, 2)
        assert s[5] == 3 * (F(1, 2) * F(3, 2)) / (F(3, 2) * F(5, 2) * 2)

    def test_an_order_below_the_offset_walks_no_term(self):
        # The odd part starts at degree 1, so at order 0 it has no term.
        family = spec((F(1, 2),), (F(3, 2),), weight=(2, 1), power_offset=1)
        assert weighted_series(family, 0).coefficients == (0,)
        assert sum_rows((family.rows(0),), -1, (2, 1)) == 0
        # a sum that stops at n = 0 is the weight's constant term alone
        dead = spec((0,), (F(3, 2),), weight=(2, 1), power_offset=1)
        assert eval_terminating(dead) == eval_terminating(dead, spec((), ())) == 2
        assert weighted_series(dead, 3).coefficients == (0, 2, 0, 0)


def test_the_series_checks_never_reach_the_sum_loop(monkeypatch):
    # A series expansion steps its own walk; only the sums use
    # _terminating_pair.
    expected = [KUMMER_SUITE.run(), TRANSFORM_SUITE.run()]

    def refuse(*args):
        raise AssertionError("a series check reached the sum loop")

    monkeypatch.setattr(hyper, "_terminating_pair", refuse)
    monkeypatch.setattr(identities, "_terminating_pair", refuse)
    assert [KUMMER_SUITE.run(), TRANSFORM_SUITE.run()] == expected
