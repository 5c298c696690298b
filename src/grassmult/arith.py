"""Exact integer helpers: generalized binomials and factorial products.

All values are Python ints, so magnitude is unbounded and nothing ever
rounds. A division that is supposed to be exact but leaves a remainder is
reported as InexactDivisionError; it always indicates a bug upstream,
never bad input. Also home of _Frozen, the one base of the package's
value classes, which every module can import from here.
"""

from __future__ import annotations

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
        # The default for __slots__ restores each field by setattr, which a
        # frozen value refuses: every pool worker would die unpickling it.
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set_field = object.__setattr__


def _require_int(value, name: str, pos: int | None = None) -> None:
    """The package's one test of an integer input: raise ValueError, naming
    value and its 1-based position when given, unless value is an int and
    not a bool. Floats, bools and strings are rejected, never coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        at = "" if pos is None else f" at position {pos}"
        raise ValueError(f"{name} {value!r}{at} is not an integer")


def exact_div(numerator: int, denominator: int) -> int:
    """Divide, insisting on a zero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivisionError(f"{numerator} is not divisible by {denominator}")
    return quotient


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the falling-factorial convention.

    Zero for b < 0. Otherwise a(a-1)...(a-b+1) / b!, an integer for every
    integer a, negative a included; binom(a, 0) == 1 and binom(a, b) == 0
    when 0 <= a < b.
    """
    if b < 0:
        return 0
    out = 1
    # Multiply then divide one factor at a time: each prefix equals
    # binom(a, k), an integer, so every division is exact and the
    # intermediates stay no larger than the largest prefix value.
    for k in range(b):
        out = exact_div(out * (a - k), k + 1)
        if out == 0:
            break
    return out


def factorial_superproduct(d: int) -> int:
    """Product 1! 2! ... (d-1)!, the empty product 1 when d == 1."""
    _require_int(d, "d")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    out = 1
    fact = 1
    for k in range(1, d):
        fact *= k
        out *= fact
    return out
