"""Dense exact integer matrices, two determinant algorithms, and the
binomial-coefficient matrix builders used by the multiplicity formulas.

A matrix is a plain list of row lists of ints. determinant_bareiss is the
production routine (fraction-free elimination; intermediate divisions are
always exact and entry growth stays polynomial); determinant_cofactor is
an independent cross-check kept deliberately naive, and is guarded to
small orders because its cost is factorial. Both check a matrix that comes
from outside; eval_poly and the weyman route run the elimination,
_bareiss, unchecked on the int matrices they build themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import prod

from .arith import _require_int, _require_ordered, binom, exact_div

__all__ = [
    "determinant_bareiss",
    "determinant_cofactor",
    "build_binomial_matrix",
    "build_shifted_vandermonde_matrix",
    "vandermonde",
]

Matrix = list[list[int]]

COFACTOR_MAX_ORDER = 10


def _require_square(rows: Sequence[Sequence[int]]) -> Matrix:
    """The one check of a matrix: ordered rows of ordered entries, square,
    of order at least 1, and every entry an integer. Returns a fresh copy
    as a list of row lists."""
    rows = _require_ordered(rows, "matrix")
    a = [list(_require_ordered(row, f"row {r}")) for r, row in enumerate(rows)]
    order = len(a)
    if order == 0:
        raise ValueError("matrix order must be >= 1")
    for r, row in enumerate(a):
        if len(row) != order:
            raise ValueError(f"row {r} has {len(row)} entries, expected {order}")
        for pos, entry in enumerate(row, start=1):
            _require_int(entry, f"row {r} entry", pos)
    return a


def determinant_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    On a zero pivot the first lower row with a nonzero entry in the pivot
    column is swapped in (sign tracked); if no such row exists the
    determinant is zero. Each elimination step divides by the previous
    pivot, which the Bareiss identity guarantees to be exact; a remainder
    would mean corrupted arithmetic and raises InexactDivisionError.
    """
    return _bareiss(_require_square(rows))


def _bareiss(a: Matrix) -> int:
    """determinant_bareiss' elimination, performing no validation: a is a
    square int matrix of order >= 1 that the caller has just built, and
    it is overwritten."""
    order = len(a)
    sign = 1
    prev = 1
    for k in range(order - 1):
        if a[k][k] == 0:
            for r in range(k + 1, order):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for p in range(k + 1, order):
            row_p = a[p]
            lead = row_p[k]
            for q in range(k + 1, order):
                num = row_p[q] * pivot - lead * row_k[q]
                row_p[q] = num if prev == 1 else exact_div(num, prev)
            row_p[k] = 0
        prev = pivot
    return sign * a[order - 1][order - 1]


def determinant_cofactor(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by recursive cofactor expansion (test oracle).

    Guarded to order <= 10; the cost is factorial beyond that.
    """
    a = _require_square(rows)
    if len(a) > COFACTOR_MAX_ORDER:
        raise ValueError(
            f"cofactor expansion guarded to order <= {COFACTOR_MAX_ORDER}, got {len(a)}"
        )
    return _cofactor(a)


def _cofactor(a: Matrix) -> int:
    order = len(a)
    if order == 1:
        return a[0][0]
    if order == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    rest = a[1:]
    for col, lead in enumerate(a[0]):
        if lead == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in rest]
        term = lead * _cofactor(minor)
        total += -term if col % 2 else term
    return total


def _require_shifts(shifts: Sequence[int]) -> tuple[int, ...]:
    """The one check of a shift vector: a non-empty vector of integers, none
    negative. Returns it as a tuple."""
    out = _require_ordered(shifts, "shifts")
    if not out:
        raise ValueError("need at least one column")
    for pos, s in enumerate(out, start=1):
        _require_int(s, "shift", pos)
        if s < 0:
            raise ValueError(f"shifts must be nonnegative, got {s} at position {pos}")
    return out


def _require_columns(values: Sequence[int], shifts: Sequence[int]) -> tuple[tuple, tuple]:
    """The one check of a column specification: values and shifts are
    ordered and equally long, the shifts pass _require_shifts, the values
    are integers. Returns both as tuples."""
    values, shifts = _require_ordered(values, "values"), _require_ordered(shifts, "shifts")
    if len(values) != len(shifts):
        raise ValueError(
            f"values and shifts must have equal length, got {len(values)} and {len(shifts)}"
        )
    shifts = _require_shifts(shifts)
    for pos, v in enumerate(values, start=1):
        _require_int(v, "value", pos)
    return values, shifts


def build_binomial_matrix(values: Sequence[int], shifts: Sequence[int]) -> Matrix:
    """Matrix whose column q holds binom(values[q], p - shifts[q]) for rows
    p = 0..d-1; the carrier of the determinant route for multiplicities."""
    return _binomial_matrix(*_require_columns(values, shifts))


def _binomial_matrix(values: Sequence[int], shifts: Sequence[int]) -> Matrix:
    """build_binomial_matrix on checked columns, performing no validation."""
    return [[binom(v, p - s) for v, s in zip(values, shifts)] for p in range(len(values))]


def build_shifted_vandermonde_matrix(
    values: Sequence[int], offsets: Sequence[int]
) -> Matrix:
    """Matrix with entry (p, q) = binom(values[q] + offsets[q], p) for rows
    p = 0..d-1; its determinant times 1! 2! ... (d-1)! equals the
    Vandermonde product of the shifted values."""
    values, offsets = _require_columns(values, offsets)
    shifted = [v + k for v, k in zip(values, offsets)]
    return [[binom(c, p) for c in shifted] for p in range(len(shifted))]


def vandermonde(values: Sequence[int]) -> int:
    """Product of pairwise differences values[p] - values[q] over p > q,
    computed directly as a product (never via a determinant); 1 on empty
    input, 0 when two entries coincide."""
    values = _require_ordered(values, "values")
    for pos, v in enumerate(values, start=1):
        _require_int(v, "value", pos)
    return _vandermonde(values)


def _vandermonde(values: Sequence[int]) -> int:
    """vandermonde's product, performing no validation: values are ints
    that the caller has checked or built."""
    return prod(p - q for q, p in combinations(values, 2))
