"""Exact integer helpers: generalized binomials and factorial products.

All values are Python ints, so magnitude is unbounded and nothing ever
rounds. A division that is supposed to be exact but leaves a remainder is
reported as InexactDivisionError; it always indicates a bug upstream,
never bad input. Also home of _Frozen, the one base of the package's
value classes, and of _Memo, its one dict that makes a missing value,
which every module can import from here.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from math import comb, factorial, prod

__all__ = ["InexactDivisionError", "exact_div", "binom", "factorial_superproduct"]


class InexactDivisionError(ArithmeticError):
    """An integer division expected to be exact left a remainder."""


class _Frozen:
    """Base of the package's value classes. The fields are the subclass's
    __slots__, in order; equality, hash, repr and pickling go by type and
    fields, and a field cannot be assigned or deleted once set. Each
    subclass writes its own __init__, setting each field through
    _set_field: a generic one builds values almost twice as slowly."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # Pickle's default for __slots__ restores each field by setattr,
        # which a frozen value refuses, so no copy could be unpickled.
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set_field = object.__setattr__


class _Memo(dict):
    """A dict that makes the value of a key met for the first time by
    make(key), and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _require_int(value, name: str, pos: int | None = None) -> None:
    """The package's one test of an integer input: raise ValueError, naming
    value and its 1-based position when given, unless value is an int and
    not a bool. Floats, bools and strings are rejected, never coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        at = "" if pos is None else f" at position {pos}"
        raise ValueError(f"{name} {value!r}{at} is not an integer")


def _require_ordered(value, name: str) -> tuple:
    """The package's one test of a vector input: raise ValueError for a set
    or a mapping, whose order is its hash table's and not the caller's, and
    otherwise return value as a tuple. Ordered iterables pass."""
    if isinstance(value, (Set, Mapping)):
        raise ValueError(f"{name} must be ordered, got a {type(value).__name__}")
    return tuple(value)


def exact_div(numerator: int, denominator: int) -> int:
    """Divide, insisting on a zero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivisionError(f"{numerator} is not divisible by {denominator}")
    return quotient


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the falling-factorial convention.

    Zero for b < 0. Otherwise a(a-1)...(a-b+1) / b!, an integer for every
    integer a: math.comb for a >= 0 (so binom(a, b) == 0 when a < b), and
    the reflection (-1)^b comb(b - a - 1, b) for negative a.
    """
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b)
    return -comb(b - a - 1, b) if b % 2 else comb(b - a - 1, b)


def factorial_superproduct(d: int) -> int:
    """Product 1! 2! ... (d-1)!, the empty product 1 when d == 1."""
    _require_int(d, "d")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    return _superproduct(d)


def _superproduct(d: int) -> int:
    """factorial_superproduct, performing no validation: d is the length
    of a vector the caller has checked."""
    return prod(map(factorial, range(1, d)))
