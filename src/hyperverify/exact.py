"""Exact rational building blocks: rising factorials and Gamma-product reduction.

Everything is exact, Fractions or the integer pairs (p, q) the Gamma
reduction works on, and never floating point.  A simplification either
produces an exact rational or raises; there is deliberately no numeric
fallback, because the whole point of the engine is zero-tolerance
equality checks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, TranscendentalResidue


def is_nonpositive_integer(q) -> bool:
    """True when q is an integer <= 0 (the Gamma poles and series stoppers)."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.denominator == 1 and q.numerator <= 0


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(p + k * q for k in range(n)), q**n)


def pochhammer_duplication(d, n: int) -> Fraction:
    """The rising factorial (d)_{2n} assembled from half-shifted factors.

    Computes 4**n * (d/2)_n * ((d+1)/2)_n, which equals pochhammer(d, 2*n)
    identically.  Kept as a separate code path so the half-shift step used
    by the beta-moment pipeline is exercised on its own.  With d = p/q the
    4**n cancels the 2q denominators: prod (p + 2kq)(p + q + 2kq) / q**(2n).
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    d = Fraction(d)
    p, q = d.numerator, d.denominator
    return Fraction(
        math.prod((p + 2 * k * q) * (p + q + 2 * k * q) for k in range(n)),
        q ** (2 * n),
    )


@dataclass(frozen=True)
class GammaProduct:
    """Formal product of Gamma factors prod Gamma(arg_i)**exp_i awaiting reduction.

    Factors with equal arguments are merged at construction time and zero
    net exponents dropped.  Gamma(x)/Gamma(x) therefore disappears before
    any pole reasoning happens; this matters because legitimate prefactors
    contain such pairs at pole arguments and must still reduce to 1.
    """

    factors: tuple

    def __post_init__(self):
        merged = {}
        for arg, exp in self.factors:
            arg = Fraction(arg)
            merged[arg] = merged.get(arg, 0) + int(exp)
        normalized = tuple(sorted((a, e) for a, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", normalized)

    @classmethod
    def ratio(cls, numerators, denominators=()):
        """Gamma(n1)...Gamma(nk) / (Gamma(d1)...Gamma(dm))."""
        factors = [(a, 1) for a in numerators]
        factors += [(a, -1) for a in denominators]
        return cls(tuple(factors))


def _ratio(x) -> tuple:
    """The rational x as its integer pair, with no copy of a Fraction."""
    return (x if type(x) is Fraction else Fraction(x)).as_integer_ratio()


def _lone_gamma(p: int, q: int) -> int:
    """Value of an unpaired Gamma factor at p/q, when that value is rational."""
    if q != 1:
        raise TranscendentalResidue(Fraction(p, q))
    if p <= 0:
        raise PoleError(p)
    return math.factorial(p - 1)


def gamma_simplify(product: GammaProduct) -> Fraction:
    """Reduce a Gamma product to an exact rational, or raise (see
    _gamma_ratio, which does the work on the product's integer pairs)."""
    upper, lower = [], []
    for arg, exp in product.factors:
        (upper if exp > 0 else lower).extend([arg.as_integer_ratio()] * abs(exp))
    return _gamma_ratio(upper, lower)


def _gamma_ratio(numerators, denominators) -> Fraction:
    """Reduce Gamma(n_1)...Gamma(n_k) / (Gamma(d_1)...Gamma(d_m)), each
    argument an integer pair (p, q), q > 0, to an exact rational, or raise;
    one Fraction is built, at the end.

    Equal arguments cancel first, so Gamma(x)/Gamma(x) disappears before
    any pole reasoning happens: legitimate prefactors contain such pairs
    at pole arguments and must still reduce to 1.  The rest split into
    classes whose arguments differ by integers, keyed (p mod q, q) and
    visited in the order of (p mod q)/q; only within a class can anything
    cancel.  Each class is expanded into a sorted list of numerator
    arguments and a sorted list of denominator arguments, which are
    paired greedily in order.  A pair Gamma(u)/Gamma(v) with u >= v
    contributes the rising factorial (v)_{u-v}; with u < v it divides by
    (u)_{v-u}.  Sorting pairs poles with poles whenever the counts allow,
    which reproduces the finite limit of such ratios.

    Pole handling: a vanished rising factorial multiplied in means a finite
    Gamma was divided by a pole, so the pair (and the whole product) is
    exactly zero; a vanished factor divided by means a pole survives and a
    :class:`PoleError` is raised.  After pairing, an unpaired Gamma(m) with
    m a positive integer reduces to (m-1)!; unpaired nonpositive-integer
    arguments are poles; anything else is irrational and raises
    :class:`TranscendentalResidue`.
    """
    # the net exponent of each argument p/q, by class (p mod q, q)
    classes = {}
    for sign, args in ((1, numerators), (-1, denominators)):
        for p, q in args:
            g = math.gcd(p, q)
            p, q = p // g, q // g
            net = classes.setdefault((p % q, q), {})
            net[p] = net.get(p, 0) + sign
    # (p mod q)/q over the classes' least common denominator
    lcm = math.lcm(*(q for _, q in classes))
    num = den = 1
    for (_, q), net in sorted(
            classes.items(), key=lambda item: item[0][0] * (lcm // item[0][1])):
        upper = sorted(p for p, exp in net.items() for _ in range(exp))
        lower = sorted(p for p, exp in net.items() for _ in range(-exp))
        # the numerators over q of one class differ by multiples of q, and
        # q**k (x/q)_k is the product of x, x + q, ..., x + (k-1)q; a
        # vanished one multiplied in leaves num = 0 to the end
        for u, v in zip(upper, lower):
            if u >= v:
                num *= math.prod(range(v, u, q))
                den *= q ** ((u - v) // q)
            else:
                step = math.prod(range(u, v, q))
                if step == 0:
                    raise PoleError(Fraction(u, q))
                num *= q ** ((v - u) // q)
                den *= step
        for p in upper[len(lower):]:
            num *= _lone_gamma(p, q)
        for p in lower[len(upper):]:
            den *= _lone_gamma(p, q)
    return Fraction(num, den)
