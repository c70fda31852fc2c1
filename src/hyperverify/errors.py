"""Exception types shared across the verification engine.

Everything below :class:`VerificationError` marks a parameter combination
the engine refuses to evaluate (a pole, an illegal series, an unsupported
shift), not a bug.  Batch drivers catch this base class and turn the
instance into a skipped record; anything else escaping a check is a defect.
"""

from fractions import Fraction


class VerificationError(Exception):
    """Base class for expected validation failures."""


class PoleError(VerificationError):
    """A net Gamma factor sits at a nonpositive integer and nothing cancels it."""

    def __init__(self, argument):
        self.argument = Fraction(argument)
        super().__init__(f"Gamma({self.argument}) is a pole")

    def __reduce__(self):
        return type(self), (self.argument,)


class TranscendentalResidue(VerificationError):
    """A lone Gamma factor with non-integer argument survived simplification.

    Its value is irrational, so no exact rational result exists.
    """

    def __init__(self, argument):
        self.argument = Fraction(argument)
        super().__init__(f"Gamma({self.argument}) does not reduce to a rational")

    def __reduce__(self):
        return type(self), (self.argument,)


class DenominatorPoleBeforeTermination(VerificationError):
    """A lower Pochhammer factor vanishes while terms are still nonzero."""

    def __init__(self, parameter, index=None):
        self.parameter = Fraction(parameter)
        self.index = index
        detail = f"denominator parameter {self.parameter}"
        if index is not None:
            detail += f" vanishes at term {index}"
        super().__init__(detail)

    def __reduce__(self):
        return type(self), (self.parameter, self.index)


class NonTerminatingSeries(VerificationError):
    """Exact summation was requested but no numerator parameter terminates it."""


class UnsupportedJ(VerificationError):
    """The shift j lies outside the range covered by the coefficient table."""

    def __init__(self, j, limit):
        self.j, self.limit = j, limit
        super().__init__(f"shift j={j} not supported (|j| must be <= {limit})")

    def __reduce__(self):
        return type(self), (self.j, self.limit)


class InvalidCase(VerificationError):
    """A verification case violates the hypotheses of the identity it targets."""
