"""Exact rational building blocks: rising factorials and Gamma-product reduction.

Everything works on :class:`fractions.Fraction` and never touches floating
point.  A simplification either produces an exact rational or raises; there
is deliberately no numeric fallback, because the whole point of the engine
is zero-tolerance equality checks.
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


def _lone_gamma(arg: Fraction) -> Fraction:
    """Value of an unpaired Gamma factor, when that value is rational."""
    if arg.denominator != 1:
        raise TranscendentalResidue(arg)
    if arg <= 0:
        raise PoleError(arg)
    return Fraction(math.factorial(arg.numerator - 1))


def gamma_simplify(product: GammaProduct) -> Fraction:
    """Reduce a Gamma product to an exact rational, or raise.

    The factors split into classes whose arguments differ by integers; only
    within a class can anything cancel.  Each class is expanded into a
    sorted list of numerator arguments and a sorted list of denominator
    arguments, which are paired greedily in order.  A pair Gamma(u)/Gamma(v)
    with u >= v contributes the rising factorial (v)_{u-v}; with u < v it
    divides by (u)_{v-u}.  Sorting pairs poles with poles whenever the
    counts allow, which reproduces the finite limit of such ratios.

    Pole handling: a vanished rising factorial multiplied in means a finite
    Gamma was divided by a pole, so the pair (and the whole product) is
    exactly zero; a vanished factor divided by means a pole survives and a
    :class:`PoleError` is raised.  After pairing, an unpaired Gamma(m) with
    m a positive integer reduces to (m-1)!; unpaired nonpositive-integer
    arguments are poles; anything else is irrational and raises
    :class:`TranscendentalResidue`.
    """
    classes = {}
    for arg, exp in product.factors:
        classes.setdefault(arg - math.floor(arg), []).append((arg, exp))

    result = Fraction(1)
    vanished = False
    for _, entries in sorted(classes.items()):
        upper = []
        lower = []
        for arg, exp in entries:
            (upper if exp > 0 else lower).extend([arg] * abs(exp))
        upper.sort()
        lower.sort()
        for u, v in zip(upper, lower):
            if u >= v:
                step = pochhammer(v, int(u - v))
                if step == 0:
                    vanished = True
                else:
                    result *= step
            else:
                step = pochhammer(u, int(v - u))
                if step == 0:
                    raise PoleError(u)
                result /= step
        for arg in upper[len(lower):]:
            result *= _lone_gamma(arg)
        for arg in lower[len(upper):]:
            result /= _lone_gamma(arg)
    return Fraction(0) if vanished else result
