"""Hypergeometric term machinery: termination, evaluation, weighted sums."""

import math
from fractions import Fraction as F

import pytest

from hyperverify.errors import (
    DenominatorPoleBeforeTermination,
    NonTerminatingSeries,
)
from hyperverify.hyper import (
    HyperSpec,
    check_lower,
    eval_terminating,
    eval_weighted_sum,
    ratio_rows,
    series_in_z,
    sum_rows,
    weighted_series,
    weighted_termination,
)
from series_oracle import eval_terminating_direct


class TestTermination:
    def test_single_negative_integer(self):
        assert HyperSpec((-3, F(1, 2)), (2,)).stop == 3

    def test_minimum_governs(self):
        assert HyperSpec((-2, -5), (2,)).stop == 2

    def test_absent_without_nonpositive_integer(self):
        assert HyperSpec((F(1, 2), 2), (3,)).stop is None

    def test_zero_numerator_terminates_immediately(self):
        assert HyperSpec((0, 5), (3,)).stop == 0

    def test_rows_are_built_once_per_count(self):
        spec = HyperSpec((-3, F(1, 2)), (2,), 2)
        assert spec.rows(2) is spec.rows(2)
        assert spec.rows(3) == ratio_rows(
            spec.numerators, spec.denominators, spec.argument, 3)


def truncated_sum(spec, up_to):
    """The spec's weighted terms summed for n = 0..up_to, whatever its stop."""
    return sum_rows((spec.rows(up_to),), up_to, *spec.integer_weight)


class TestLegality:
    # Construction applies no rule; check_lower, eval_terminating and
    # series_in_z do.
    def test_nonpositive_denominator_needs_earlier_termination(self):
        # terminates at 2, denominator -3 first vanishes at term 4: legal
        check_lower(HyperSpec((-2, 1, 1), (2, -3), 2))
        illegal = (
            HyperSpec((F(1, 2), 1), (-3,)),  # no termination at all
            HyperSpec((-4, 1), (-3,)),  # terminates too late
        )
        for spec in illegal:
            for check in (check_lower, eval_terminating,
                          lambda s: series_in_z(s, 2)):
                with pytest.raises(
                    DenominatorPoleBeforeTermination,
                    match=r"^denominator parameter -3 vanishes at term 4$",
                ):
                    check(spec)

    def test_boundary_case_is_legal(self):
        check_lower(HyperSpec((-3, 1), (-3,)))

    def test_rule_before_non_termination(self):
        with pytest.raises(DenominatorPoleBeforeTermination):
            eval_terminating(HyperSpec((F(1, 2),), (-1,)))

    def test_groups_take_the_family_stop_and_list_order(self):
        # The head alone never terminates; the tail's -3 stops the family
        # after term 3, before -3 vanishes but after -2 and -1 do.  Of
        # those two, the rule names the first in list order.
        head = HyperSpec((F(1, 2),), (-3, -2))
        tail = HyperSpec((-3,), (-1,))
        assert head.poles == (-3, -2) and tail.poles == (-1,)
        check_lower(HyperSpec((F(1, 2),), (-3,)), HyperSpec((-3,), ()))
        with pytest.raises(DenominatorPoleBeforeTermination,
                           match=r"^denominator parameter -2 vanishes at term 3$"):
            check_lower(head, tail)
        with pytest.raises(DenominatorPoleBeforeTermination,
                           match=r"^denominator parameter -1 vanishes at term 2$"):
            eval_terminating(tail, head)


class TestEvalTerminating:
    def test_zero_numerator_gives_one(self):
        assert eval_terminating(HyperSpec((0, F(7, 3)), (F(1, 5),), 17)) == 1

    def test_two_term_gauss_sum(self):
        # oracle: 1 + (-1)(2)/3 * 2
        assert eval_terminating(HyperSpec((-1, 2), (3,), 2)) == 1 - F(4, 3)

    def test_three_term_sum_matches_oracle(self):
        spec = HyperSpec((-2, 1, 1), (2, -3), 2)
        assert eval_terminating(spec) == F(19, 9)
        assert eval_terminating(spec) == eval_terminating_direct(spec)

    def test_unit_argument_two_term_sum(self):
        spec = HyperSpec(
            (-1, F(-1, 2), F(1, 2), 1), (F(3, 2), F(3, 2), 2), 1
        )
        assert eval_terminating(spec) == F(19, 18)

    def test_nonterminating_rejected(self):
        with pytest.raises(NonTerminatingSeries):
            eval_terminating(HyperSpec((F(1, 2),), (3,), 1))

    def test_direct_path_and_reversed_order_agree(self):
        spec = HyperSpec((-6, F(2, 3), F(-7, 2)), (F(1, 5), 4), F(3, 7))
        value = eval_terminating(spec)
        assert eval_terminating_direct(spec) == value
        assert eval_terminating_direct(spec, reverse=True) == value

    def test_parameter_order_irrelevant(self):
        a = eval_terminating(HyperSpec((-3, F(1, 3), 2), (5, F(7, 2)), 2))
        b = eval_terminating(HyperSpec((2, -3, F(1, 3)), (F(7, 2), 5), 2))
        assert a == b


class TestSeriesInZ:
    def test_terminating_coefficients(self):
        s = series_in_z(HyperSpec((-2, 1), (2,)), 3)
        assert s.coefficients == (1, -1, F(1, 3), 0)

    def test_exponential_series(self):
        s = series_in_z(HyperSpec((), ()), 6)
        assert list(s.coefficients) == [F(1, math.factorial(n)) for n in range(7)]

    def test_zero_numerator(self):
        s = series_in_z(HyperSpec((0, F(2, 7)), (F(3, 4),)), 4)
        assert s.coefficients == (1, 0, 0, 0, 0)

    def test_sum_of_coefficients_reproduces_terminating_value(self):
        spec = HyperSpec((-4, F(1, 2)), (F(5, 3),), F(2, 5))
        s = series_in_z(spec, 9)
        value = sum(c * spec.argument ** n for n, c in enumerate(s.coefficients))
        assert value == eval_terminating(spec)

    def test_zeros_beyond_termination_with_late_denominator_pole(self):
        # denominator -3 would vanish at term 4; termination at 2 keeps all
        # later coefficients exactly zero without touching the pole
        s = series_in_z(HyperSpec((-2, 1, 1), (2, -3)), 8)
        assert s.coefficients[3:] == (0,) * 6


class TestWeightedSum:
    def test_unit_weight_reduces_to_plain_series(self):
        a, b, d, e = F(-2), F(1, 3), F(1), F(4)
        spec = HyperSpec(
            weight=(1,),
            numerators=(a, a + F(1, 2), b, d / 2, d / 2 + F(1, 2)),
            denominators=(b, b + F(1, 2), e / 2, e / 2 + F(1, 2)),
        )
        plain = HyperSpec(
            (a, a + F(1, 2), d / 2, d / 2 + F(1, 2)),
            (b + F(1, 2), e / 2, e / 2 + F(1, 2)),
            1,
        )
        assert weighted_termination(spec) == spec.stop == 2
        assert eval_weighted_sum(spec) == eval_terminating(plain)

    def test_zero_weight(self):
        spec = HyperSpec(weight=(0,), numerators=(-3,), denominators=(2,))
        assert eval_weighted_sum(spec) == 0

    def test_polynomial_weight_horner(self):
        # no parameters: term n is weight(n) / n!
        spec = HyperSpec(weight=(F(1, 2), -3, 2), numerators=(), denominators=())
        assert truncated_sum(spec, 0) == F(1, 2)
        assert truncated_sum(spec, 3) == (
            F(1, 2) + (F(1, 2) - 3 + 2) + (F(1, 2) - 6 + 8) / 2
            + (F(1, 2) - 9 + 18) / 6
        )

    def test_weight_absorption_cross_check(self):
        # (-(b+1+2n)/(b+1)) absorbed as (b/2+3/2)_n / (b/2+1/2)_n: the
        # weighted sum with the tabulated j=2 weight, scaled by its
        # prefactor -1/(b+1), equals the absorbed five-parameter series.
        a, b, d, e = F(-1), F(1), F(1), F(4)
        weighted = HyperSpec(
            weight=(-(b + 1), -2),
            numerators=(a, a + F(1, 2), b + 1, d / 2, d / 2 + F(1, 2)),
            denominators=(b + 1, b + F(3, 2), e / 2, e / 2 + F(1, 2)),
        )
        absorbed = HyperSpec(
            (a, a + F(1, 2), b / 2 + F(3, 2), d / 2, d / 2 + F(1, 2)),
            (b / 2 + F(1, 2), b + F(3, 2), e / 2, e / 2 + F(1, 2)),
            1,
        )
        lhs = F(-1, b + 1) * eval_weighted_sum(weighted)
        assert lhs == eval_terminating(absorbed) == F(26, 25)

    def test_denominator_pole_before_termination_raises(self):
        spec = HyperSpec(weight=(1,), numerators=(-5,), denominators=(-2,))
        with pytest.raises(DenominatorPoleBeforeTermination):
            eval_weighted_sum(spec)

    def test_numerator_death_shields_denominator(self):
        # numerator dies at the same step the denominator would vanish:
        # the sum is over by then, no pole is hit
        spec = HyperSpec(weight=(1,), numerators=(-2,), denominators=(-2,))
        assert truncated_sum(spec, 4) == eval_weighted_sum(spec)

    def test_pole_message_and_earlier_numerator_death(self):
        # -2 first vanishes in the factor that builds term 3 while (-5)_n
        # is alive; with -2 upstairs instead the terms die at n = 2 and the
        # pole at -3 is never reached
        live = HyperSpec(
            weight=(F(1, 2), 3), numerators=(-5, F(2, 3)),
            denominators=(F(1, 2), -2), power_offset=1,
        )
        for evaluate in (eval_weighted_sum, lambda s: weighted_series(s, 11)):
            with pytest.raises(
                DenominatorPoleBeforeTermination,
                match=r"^denominator parameter -2 vanishes at term 3$",
            ):
                evaluate(live)
        dead = HyperSpec(
            weight=(F(1, 2), 3), numerators=(-2, F(2, 3)),
            denominators=(F(1, 2), -3), power_offset=1,
        )
        terms = (F(1, 2), F(28, 9), F(130, 81))
        assert eval_weighted_sum(dead) == truncated_sum(dead, 11) == sum(terms)
        assert sum(terms) == F(845, 162)
        assert weighted_series(dead, 11).coefficients == (
            (0, terms[0], 0, terms[1], 0, terms[2]) + (0,) * 6
        )

    def test_weighted_series_placement(self):
        spec = HyperSpec(
            weight=(1, 1),
            numerators=(F(1, 2),),
            denominators=(F(3, 2),),
            power_offset=1,
        )
        s = weighted_series(spec, 6)
        # term n sits at degree 2n+1 with value (n+1) * (1/2)_n / ((3/2)_n n!)
        assert s[0] == 0 and s[2] == 0 and s[4] == 0 and s[6] == 0
        assert s[1] == 1
        assert s[3] == 2 * F(1, 2) / F(3, 2)
        assert s[5] == 3 * (F(1, 2) * F(3, 2)) / (F(3, 2) * F(5, 2) * 2)
