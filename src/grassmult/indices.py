"""Strictly increasing index vectors bounded by n, their componentwise
partial order, enumeration, and covering moves downward.

An index 1 <= i_1 < ... < i_d <= n labels a Schubert variety in the
Grassmannian of d-planes in n-space; the componentwise order matches
containment of varieties.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations

from .arith import _Frozen, _require_int, _require_ordered, _set_field

__all__ = [
    "GrassmannIndex",
    "validate",
    "leq",
    "enumerate_indices",
    "lower_neighbors",
]


class GrassmannIndex(_Frozen):
    """Member of the index set: entries strictly increasing within [1, n]."""

    __slots__ = ("entries", "n")

    def __init__(self, entries: tuple[int, ...], n: int) -> None:
        _set_field(self, "entries", entries)
        _set_field(self, "n", n)

    @property
    def d(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "-".join(str(e) for e in self.entries)


def validate(entries: Sequence[int], n: int) -> GrassmannIndex:
    """Build an index after checking every defining constraint.

    Raises ValueError naming the first offending position. Entries must
    be ints already, in order: floats, bools, strings and sets are
    rejected, not coerced.
    """
    tup = _require_ordered(entries, "index vector")
    if not tup:
        raise ValueError("index vector must not be empty")
    _require_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(tup) > n:
        raise ValueError(f"vector length {len(tup)} exceeds n={n}")
    prev = 0
    for pos, e in enumerate(tup, start=1):
        _require_int(e, "entry", pos)
        if e < 1 or e > n:
            raise ValueError(f"entry {e} at position {pos} outside [1, {n}]")
        if pos > 1 and e <= prev:
            raise ValueError(
                f"entries must be strictly increasing; position {pos} has {e} after {prev}"
            )
        prev = e
    return GrassmannIndex(tup, n)


def _require_same_shape(j: GrassmannIndex, i: GrassmannIndex) -> None:
    if j.d != i.d or j.n != i.n:
        raise ValueError(
            f"index shape mismatch: (d={j.d}, n={j.n}) vs (d={i.d}, n={i.n})"
        )


def leq(j: GrassmannIndex, i: GrassmannIndex) -> bool:
    """Componentwise order: every entry of j at most the matching entry of i."""
    _require_same_shape(j, i)
    return all(a <= b for a, b in zip(j.entries, i.entries))


def _require_dims(d: int, n: int) -> None:
    """The one check of a shape (d, n): integers with 1 <= d <= n."""
    _require_int(d, "d")
    _require_int(n, "n")
    if d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")


def enumerate_indices(d: int, n: int) -> Iterator[GrassmannIndex]:
    """All C(n, d) index vectors, in lexicographic order of entries. The
    shape is checked on the call, before the first vector is asked for."""
    _require_dims(d, n)
    return (GrassmannIndex(combo, n) for combo in combinations(range(1, n + 1), d))


def lower_neighbor_entries(
    entries: tuple[int, ...], floor: tuple[int, ...]
) -> list[tuple[int, tuple[int, ...]]]:
    """The covering moves down from entries that stay above floor, the
    rule lower_neighbors and the recurrence's lattice both follow; performs
    no validation.

    Returns (q, entries with position q decremented), in increasing q, for
    every 1-based position q where the decrement keeps the vector strictly
    increasing (the entry before position 1 counts as 0) and does not drop
    below floor: each lowered vector is strictly increasing and >= floor
    componentwise.
    """
    out = []
    prev = 0
    for pos0, e in enumerate(entries):
        dec = e - 1
        if dec > prev and dec >= floor[pos0]:
            out.append((pos0 + 1, entries[:pos0] + (dec,) + entries[pos0 + 1 :]))
        prev = e
    return out


def lower_neighbors(
    i: GrassmannIndex, j: GrassmannIndex
) -> list[tuple[int, GrassmannIndex]]:
    """Covering moves downward from i that stay above j.

    Exactly the indices k with j <= k < i whose entry sum is one less
    than i's: each differs from i in a single coordinate, by one.
    Requires j <= i and i != j.
    """
    if not leq(j, i):
        raise ValueError("lower_neighbors requires j <= i componentwise")
    if j.entries == i.entries:
        raise ValueError("lower_neighbors requires i != j")
    return [
        (q, GrassmannIndex(k, i.n))
        for q, k in lower_neighbor_entries(i.entries, j.entries)
    ]
