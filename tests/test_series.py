"""Truncated series arithmetic, the stock expansions, and the composition
oracle in series_oracle.py."""

import random
from fractions import Fraction as F

import pytest

from hyperverify import (
    TruncatedSeries,
    binomial_series,
    pochhammer,
)
from series_oracle import NonzeroConstantTerm, compose, mobius_arg


def S(*coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


def convolve(f, g, order):
    """Independent double-loop convolution oracle."""
    out = [F(0)] * (order + 1)
    for i in range(order + 1):
        for k in range(order + 1 - i):
            out[i + k] += f[i] * g[k]
    return tuple(out)


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert (S(1, 1, 0) * S(1, -1, 0)).coefficients == (1, 0, -1)

    def test_difference_with_itself_vanishes(self):
        f = S(3, F(-1, 2), F(2, 7), 9)
        assert (f + f.scale(-1)).coefficients == (0, 0, 0, 0)

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(20240517)
        for _ in range(25):
            order = rng.randrange(0, 13)
            f = S(*[F(rng.randrange(-9, 10), rng.randrange(1, 7))
                    for _ in range(order + 1)])
            g = S(*[F(rng.randrange(-9, 10), rng.randrange(1, 7))
                    for _ in range(order + 1)])
            assert (f * g).coefficients == convolve(f, g, order)

    def test_truncation_to_minimum_order(self):
        f = S(1, 2, 3, 4, 5)
        g = S(1, 1)
        assert (f + g).order == 1
        assert (f * g).order == 1

    def test_scalar_multiplication(self):
        assert S(1, F(1, 3)).scale(3).coefficients == (3, 1)
        # * is the series product only
        with pytest.raises(TypeError):
            3 * S(1, F(1, 3))


class TestBinomialSeries:
    def test_zero_exponent(self):
        assert binomial_series(0, 5).coefficients == (1, 0, 0, 0, 0, 0)

    def test_geometric(self):
        assert binomial_series(1, 6).coefficients == (1,) * 7

    def test_exact_square(self):
        assert binomial_series(-2, 5).coefficients == (1, -2, 1, 0, 0, 0)

    def test_coefficients_are_pochhammer_over_factorial(self):
        alpha = F(-7, 3)
        fact = 1
        for n, c in enumerate(binomial_series(alpha, 9).coefficients):
            assert c == pochhammer(alpha, n) / fact
            fact *= n + 1

    def test_multiplicative_inverse_pair(self):
        alpha = F(5, 7)
        one = binomial_series(alpha, 12) * binomial_series(-alpha, 12)
        assert one.coefficients == (1,) + (0,) * 12


class TestMobiusArg:
    def test_order_zero(self):
        assert mobius_arg(0).coefficients == (0,)

    def test_order_three(self):
        assert mobius_arg(3).coefficients == (0, -2, -2, -2)

    def test_defining_relation(self):
        # (-2x/(1-x)) * (1-x) = -2x exactly
        n = 9
        prod = mobius_arg(n) * S(*([1, -1] + [0] * (n - 1)))
        assert prod.coefficients == (0, -2) + (0,) * (n - 1)


class TestCompose:
    def test_identity_substitution(self):
        f = S(4, F(1, 2), -3, F(2, 9))
        x = S(0, 1, 0, 0)
        assert compose(f, x) == f

    def test_geometric_through_identity(self):
        n = 7
        geom = S(*([1] * (n + 1)))  # 1/(1-y)
        x = S(*([0, 1] + [0] * (n - 1)))
        assert compose(geom, x) == binomial_series(1, n)

    def test_quadratic_transform_left_side_by_hand(self):
        # (1 - y + y^2/3) at y = -2x/(1-x), times (1-x)^2, collapses to 1 + x^2/3.
        f = S(1, -1, F(1, 3), 0, 0)
        inner = compose(f, mobius_arg(4))
        prod = inner * S(1, -2, 1, 0, 0)
        assert prod.coefficients == (1, 0, F(1, 3), 0, 0)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            compose(S(1, 1), S(1, 1))

    def test_associativity_with_vanishing_constants(self):
        rng = random.Random(99)
        for _ in range(10):
            order = rng.randrange(2, 9)
            coeffs = lambda first: [first] + [
                F(rng.randrange(-5, 6), rng.randrange(1, 5))
                for _ in range(order)
            ]
            f = S(*coeffs(F(rng.randrange(-5, 6))))
            g = S(*coeffs(F(0)))
            h = S(*coeffs(F(0)))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
