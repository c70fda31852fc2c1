"""The base of the engine's value types.  A value is set once, by its
constructor, which writes its fields (named in `_fields`) and anything it
keeps beside them straight into its `__dict__`.  A value may also keep a
read-once cache beside its fields, built from what the constructor wrote
at its first read and kept in its `__dict__`, as
`TruncatedSeries.coefficients` is (see read_once); a field may be read
so too, as the sides of a sweep's `VerificationRecord` are.  Values of
one type are equal when their fields' values are, and equal values hash
alike."""

from fractions import Fraction


def as_fraction(value, name: str) -> Fraction:
    """value as a Fraction, kept as it is when it is one; a float is
    refused, not read as its binary value."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be exact, not a float")
    return value if type(value) is Fraction else Fraction(value)


class Value:
    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return (self._key() == other._key() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class read_once:
    """A read-once cache: the first read of the attribute on an instance
    calls `func` on it and keeps the value in the instance's `__dict__`,
    where every later read finds it without calling this descriptor.  A
    `func` that raises keeps nothing, so the next read calls it again.
    It takes no lock, as the standard library's cached property does on
    Python 3.11: two threads that read it at once may both build it, and
    every value cached so is a pure function of its instance, so either
    value may stay."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
