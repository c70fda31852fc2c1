"""Rising factorials and Gamma-ratio reduction."""

from fractions import Fraction as F

import pytest

from hyperverify import PoleError, TranscendentalResidue
from hyperverify.exact import (
    gamma_ratio,
    is_nonpositive_integer,
    pochhammer,
    pochhammer_duplication,
)


def pairs(args):
    return [F(x).as_integer_ratio() for x in args]


def ratio(nums, dens=()):
    """Gamma(nums...) / Gamma(dens...) reduced by gamma_ratio."""
    return gamma_ratio(pairs(nums), pairs(dens))


class TestPochhammer:
    def test_empty_product(self):
        for a in (0, 1, F(-7, 3), F(5, 2), -4):
            assert pochhammer(a, 0) == 1

    def test_rising_factorial_of_one_is_factorial(self):
        assert pochhammer(1, 5) == 120

    def test_half_integer_literal_product(self):
        # oracle: the three factors written out
        assert pochhammer(F(3, 2), 3) == F(3, 2) * F(5, 2) * F(7, 2) == F(105, 8)

    def test_vanishes_past_a_nonpositive_integer(self):
        assert pochhammer(-2, 3) == 0
        assert pochhammer(-2, 2) == (-2) * (-1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)


class TestDuplication:
    def test_empty(self):
        assert pochhammer_duplication(F(7, 5), 0) == 1

    def test_doubled_length_literal(self):
        # oracle: (1)_4 = 24 and the assembled form 16 * (3/4) * 2
        assert pochhammer_duplication(1, 2) == 16 * F(3, 4) * 2 == 24

    def test_third_literal(self):
        assert pochhammer_duplication(F(1, 3), 1) == F(1, 3) * F(4, 3) == F(4, 9)

    @pytest.mark.parametrize("d", [F(1, 3), F(-5, 2), 2, F(7, 4), -3])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    def test_agrees_with_plain_pochhammer(self, d, n):
        assert pochhammer_duplication(d, n) == pochhammer(d, 2 * n)


class TestGammaSimplify:
    def test_identical_cancellation_even_at_poles(self):
        for b in (F(1, 3), 1, -2, F(7, 2)):
            assert ratio((b, 1 - b), (b, 1 - b)) == 1

    def test_integer_shift_pair(self):
        assert ratio((5,), (7,)) == F(1, 30)

    def test_mixed_class_four_factor_product(self):
        # Gamma(-1/3)Gamma(4/3) / (Gamma(2/3)Gamma(1/3)): each class pairs
        # one step apart, giving (1/(-1/3)) * (1/3) = -1.
        b = F(1, 3)
        assert ratio((-b, 1 + b), (1 - b, b)) == -1

    def test_pole_over_pole_is_finite(self):
        assert ratio((-2,), (-5,)) == (-5) * (-4) * (-3)

    def test_lone_half_integer_is_not_rational(self):
        with pytest.raises(TranscendentalResidue):
            ratio((F(1, 2),))

    def test_lone_pole_raises(self):
        with pytest.raises(PoleError):
            ratio((0,))
        with pytest.raises(PoleError):
            ratio((), (-3,))

    def test_finite_over_pole_is_zero(self):
        assert ratio((2,), (0,)) == 0

    def test_pole_over_finite_raises(self):
        with pytest.raises(PoleError) as err:
            ratio((0,), (2,))
        assert err.value.argument == 0

    def test_unpaired_positive_integers_become_factorials(self):
        assert ratio((4,)) == 6
        assert ratio((), (4,)) == F(1, 6)
        assert ratio((1, 4), (3,)) == 3

    def test_pairs_reduce_to_pochhammer(self):
        for q in (F(1, 3), F(-7, 2), 4, F(2, 5)):
            for k in (0, 1, 3, 6):
                assert ratio((q + k,), (q,)) == pochhammer(q, k)

    def test_permutation_invariance(self):
        nums = [F(1, 3), 5, F(-2, 3)]
        dens = [F(7, 3), 2, F(4, 3)]
        value = ratio(nums, dens)
        assert ratio(nums[::-1], dens[::-1]) == value
        assert ratio(nums[1:] + nums[:1], dens[2:] + dens[:2]) == value

    def test_exponent_split_invariance(self):
        # a repeated argument is a squared factor
        squared = ratio((F(1, 5), F(1, 5)), (F(11, 5), F(11, 5)))
        assert squared == ratio((F(1, 5),), (F(11, 5),)) ** 2

    def test_unreduced_pairs_read_as_their_rationals(self):
        # the prefactors pass pairs over a common denominator, not in
        # lowest terms: Gamma(2/6) Gamma(0/4) / (Gamma(-9/9) Gamma(14/6))
        # = (-1)_1 / ((1/3)(4/3)) = -9/4
        assert gamma_ratio([(2, 6), (0, 4)], [(-9, 9), (14, 6)]) == F(-9, 4)

    def test_a_float_pair_is_refused(self):
        # (1.5, 1) would be read at its binary value, not at 3/2
        with pytest.raises(TypeError):
            gamma_ratio([(1.5, 1)], [])
        with pytest.raises(TypeError):
            gamma_ratio([], [(1, 2.0)])

    def test_sorted_pairing_matches_shared_shift_limit(self):
        # Gamma(0)Gamma(2) / (Gamma(-1)Gamma(5)): sorting pairs the poles
        # together, giving (-1)_1 * 1/(2)_3 = -1/24.
        assert ratio((0, 2), (-1, 5)) == F(-1, 24)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0)
    assert is_nonpositive_integer(-4)
    assert not is_nonpositive_integer(3)
    assert not is_nonpositive_integer(F(-1, 2))
