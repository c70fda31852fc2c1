"""Rising factorials and Gamma-product reduction."""

from fractions import Fraction as F

import pytest

from hyperverify import PoleError, TranscendentalResidue
from hyperverify.exact import (
    GammaProduct,
    gamma_simplify,
    is_nonpositive_integer,
    pochhammer,
    pochhammer_duplication,
)


def ratio(nums, dens=()):
    return GammaProduct.ratio(nums, dens)


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


class TestGammaProduct:
    def test_merges_equal_arguments(self):
        p = GammaProduct(((F(1, 3), 1), (F(1, 3), 2), (F(1, 2), -1)))
        assert p.factors == ((F(1, 3), 3), (F(1, 2), -1))

    def test_zero_net_exponent_dropped(self):
        p = GammaProduct(((F(1, 3), 1), (F(1, 3), -1)))
        assert p.factors == ()


class TestGammaSimplify:
    def test_identical_cancellation_even_at_poles(self):
        for b in (F(1, 3), 1, -2, F(7, 2)):
            assert gamma_simplify(ratio((b, 1 - b), (b, 1 - b))) == 1

    def test_integer_shift_pair(self):
        assert gamma_simplify(ratio((5,), (7,))) == F(1, 30)

    def test_mixed_class_four_factor_product(self):
        # Gamma(-1/3)Gamma(4/3) / (Gamma(2/3)Gamma(1/3)): each class pairs
        # one step apart, giving (1/(-1/3)) * (1/3) = -1.
        b = F(1, 3)
        p = ratio((-b, 1 + b), (1 - b, b))
        assert gamma_simplify(p) == -1

    def test_pole_over_pole_is_finite(self):
        assert gamma_simplify(ratio((-2,), (-5,))) == (-5) * (-4) * (-3)

    def test_lone_half_integer_is_not_rational(self):
        with pytest.raises(TranscendentalResidue):
            gamma_simplify(ratio((F(1, 2),)))

    def test_lone_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_simplify(ratio((0,)))
        with pytest.raises(PoleError):
            gamma_simplify(ratio((), (-3,)))

    def test_finite_over_pole_is_zero(self):
        assert gamma_simplify(ratio((2,), (0,))) == 0

    def test_pole_over_finite_raises(self):
        with pytest.raises(PoleError) as err:
            gamma_simplify(ratio((0,), (2,)))
        assert err.value.argument == 0

    def test_unpaired_positive_integers_become_factorials(self):
        assert gamma_simplify(ratio((4,))) == 6
        assert gamma_simplify(ratio((), (4,))) == F(1, 6)
        assert gamma_simplify(ratio((1, 4), (3,))) == 3

    def test_pairs_reduce_to_pochhammer(self):
        for q in (F(1, 3), F(-7, 2), 4, F(2, 5)):
            for k in (0, 1, 3, 6):
                assert gamma_simplify(ratio((q + k,), (q,))) == pochhammer(q, k)

    def test_permutation_invariance(self):
        factors = [(F(1, 3), 1), (F(7, 3), -1), (5, 1), (2, -1), (F(-2, 3), 1),
                   (F(4, 3), -1)]
        value = gamma_simplify(GammaProduct(tuple(factors)))
        assert gamma_simplify(GammaProduct(tuple(reversed(factors)))) == value
        rotated = factors[3:] + factors[:3]
        assert gamma_simplify(GammaProduct(tuple(rotated))) == value

    def test_exponent_split_invariance(self):
        squared = GammaProduct(((F(1, 5), 2), (F(11, 5), -2)))
        split = GammaProduct(
            ((F(1, 5), 1), (F(1, 5), 1), (F(11, 5), -1), (F(11, 5), -1))
        )
        assert gamma_simplify(squared) == gamma_simplify(split)

    def test_sorted_pairing_matches_shared_shift_limit(self):
        # Gamma(0)Gamma(2) / (Gamma(-1)Gamma(5)): sorting pairs the poles
        # together, giving (-1)_1 * 1/(2)_3 = -1/24.
        assert gamma_simplify(ratio((0, 2), (-1, 5))) == F(-1, 24)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0)
    assert is_nonpositive_integer(-4)
    assert not is_nonpositive_integer(3)
    assert not is_nonpositive_integer(F(-1, 2))
