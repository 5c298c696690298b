"""Evaluation of the shifted binomial-determinant family on the integer
lattice, plus exhaustive checks of its two difference-operator identities
over finite boxes.

The family extends the determinant route for multiplicities from index
vectors to arbitrary integer points. One point is evaluated through one
determinant (eval_poly). Many points share one engine, _half_minors:
column q of the matrix depends on (value q, shift q) only, so by Laplace
expansion along a column split the value is one dot product of the
memoized signed minor vectors of the two column halves. The box checks
run it over the two sub-boxes of a box, the determinant table over the
halves of its pairs. Box values live in one flat list in lexicographic
order of the points. No symbolic polynomial representation is kept, and
no attempt is made to describe the full solution space of the difference
equation. The checks certify the identities on concrete boxes, exactly,
and report the first counterexample when one exists.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import combinations, product
from operator import mul

from .arith import _Frozen, _require_int, _set_field, binom
from .matrices import _require_columns, _require_shifts, build_binomial_matrix, determinant_bareiss

__all__ = [
    "CheckReport",
    "eval_poly",
    "delta_eval",
    "check_difference_eq",
    "check_shift_identity",
]

EvalFn = Callable[[Sequence[int], Sequence[int]], int]

# Largest box, counted in evaluated points (hi - lo + 2) ** d, that a check
# accepts; the largest box in use is 13 ** 4 = 28 561 points.
MAX_BOX_POINTS = 10**6


class CheckReport(_Frozen):
    """Result of a box sweep; on failure carries the lexicographically
    first counterexample point and the two side values there."""

    __slots__ = ("ok", "points_checked", "witness", "lhs", "rhs")

    def __init__(
        self, ok: bool, points_checked: int, witness: tuple[int, ...] | None = None,
        lhs: int | None = None, rhs: int | None = None,
    ) -> None:
        _set_field(self, "ok", ok)
        _set_field(self, "points_checked", points_checked)
        _set_field(self, "witness", witness)
        _set_field(self, "lhs", lhs)
        _set_field(self, "rhs", rhs)


def eval_poly(shifts: Sequence[int], point: Sequence[int]) -> int:
    """Value of the shift-parameterized binomial determinant at an integer
    point: (-1)**(sum of shifts) times the determinant whose (p, q) entry
    is binom(point[q], p - shifts[q]) for rows p = 0..d-1.

    Integer valued on the whole lattice. At point = i.entries with
    shifts = s_vector(i, j) it equals the multiplicity of the pair.
    """
    matrix = build_binomial_matrix(point, shifts)
    sign = -1 if sum(shifts) % 2 else 1
    return sign * determinant_bareiss(matrix)


def delta_eval(shifts: Sequence[int], q: int, point: Sequence[int]) -> int:
    """Partial difference in direction q (1-based): the value at point
    minus the value at point with coordinate q lowered by one."""
    _require_direction(q, len(shifts))
    t = tuple(point)
    value = eval_poly(shifts, t)
    stepped = t[: q - 1] + (t[q - 1] - 1,) + t[q:]
    return value - eval_poly(shifts, stepped)


def _require_direction(q: int, d: int) -> None:
    _require_int(q, "direction")
    if not 1 <= q <= d:
        raise ValueError(f"direction {q} outside 1..{d}")


def _require_box(box, d: int) -> tuple[int, int]:
    """Bounds of the box, checked before any work: integers, nonempty,
    and at most MAX_BOX_POINTS evaluated points in [lo - 1, hi]^d."""
    try:
        lo, hi = box
    except (TypeError, ValueError) as exc:
        raise ValueError("box must be an integer pair (lo, hi)") from exc
    for pos, bound in enumerate((lo, hi), start=1):
        _require_int(bound, "box bound", pos)
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    points = (hi - lo + 2) ** d
    if points > MAX_BOX_POINTS:
        raise ValueError(
            f"box [{lo - 1}, {hi}]^{d} has {points} points, above MAX_BOX_POINTS={MAX_BOX_POINTS}"
        )
    return lo, hi


def _laplace_split(d: int) -> tuple[int, tuple, tuple]:
    """Laplace expansion along the first h = d // 2 columns, rows and
    columns counted from 0: det is the sum over row sets R of size h of
    (-1)**(sum(R) + 0 + 1 + ... + h-1) times the minor on R of the left
    columns times the minor on the other rows of the right columns.
    Returns h and the aligned (row sets, signs) of the left and the right
    half; the Laplace sign goes with the left."""
    h = d // 2
    row_sets = list(combinations(range(d), h))
    rest = [tuple(p for p in range(d) if p not in rows) for rows in row_sets]
    signs = [-1 if (sum(rows) + h * (h - 1) // 2) % 2 else 1 for rows in row_sets]
    return h, (row_sets, signs), (rest, [1] * len(rest))


def _half_minors(memo: dict, values: tuple, shifts: tuple, row_sets, signs, d: int) -> list[int]:
    """Minors of the column half binom(values[q], p - shifts[q]), p = 0..d-1,
    on each row set, times that row set's sign and (-1)**sum(shifts); a
    minor on no rows is 1. Memoized by (values, shifts), and each column by
    (v, s), in memo: the caller owns it and uses it for one half of one d
    only. A half is checked once, when first computed."""
    out = memo.get((values, shifts))
    if out is None:
        if values:
            _require_columns(values, shifts)
        cols = [
            memo.get((v, s)) or memo.setdefault((v, s), [binom(v, p - s) for p in range(d)])
            for v, s in zip(values, shifts)
        ]
        g = -1 if sum(shifts) % 2 else 1
        out = memo[values, shifts] = [
            g * sign * (determinant_bareiss([[c[p] for c in cols] for p in rows]) if rows else 1)
            for rows, sign in zip(row_sets, signs)
        ]
    return out


def _box_values(
    shifts: tuple[int, ...], lo: int, hi: int, eval_fn: EvalFn | None
) -> list[int]:
    """Values of the family on every point of [lo, hi]^d, as one flat list
    in lexicographic order of the points."""
    d = len(shifts)
    span = range(lo, hi + 1)
    if eval_fn is not None:
        return [eval_fn(shifts, t) for t in product(span, repeat=d)]
    h, *halves = _laplace_split(d)
    left, right = (
        [_half_minors(memo, u, part, *rows, d) for u in product(span, repeat=len(part))]
        for part, rows, memo in zip((shifts[:h], shifts[h:]), halves, ({}, {}))
    )
    return [sum(map(mul, a, b)) for a in left for b in right]


def _inner_box(d: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Strides of the flat layout over [lo - 1, hi]^d, and the flat index
    of every point of [lo, hi]^d in lexicographic order. The neighbour one
    step down in direction q sits strides[q - 1] places earlier."""
    side = hi - lo + 2
    strides = [side ** (d - 1 - q) for q in range(d)]
    inner = [0]
    for stride in strides:
        inner = [i + k * stride for i in inner for k in range(1, side)]
    return strides, inner


def _point(index: int, strides: list[int], lo: int, hi: int) -> tuple[int, ...]:
    """Lattice point at a flat index of the layout over [lo - 1, hi]^d."""
    side = hi - lo + 2
    return tuple(index // stride % side + lo - 1 for stride in strides)


def check_difference_eq(
    shifts: Sequence[int], box, eval_fn: EvalFn | None = None
) -> CheckReport:
    """Verify, on every point of the box, that the coordinate differences
    of the family sum to zero.

    eval_fn substitutes the evaluator (same signature as eval_poly); the
    test harness uses a perturbed one to prove the check can fail.
    """
    shifts = _require_shifts(shifts)
    d = len(shifts)
    lo, hi = _require_box(box, d)
    values = _box_values(shifts, lo - 1, hi, eval_fn)
    strides, inner = _inner_box(d, lo, hi)
    for checked, k in enumerate(inner, start=1):
        total = d * values[k]
        for stride in strides:
            total -= values[k - stride]
        if total != 0:
            witness = _point(k, strides, lo, hi)
            return CheckReport(False, checked, witness=witness, lhs=total, rhs=0)
    return CheckReport(True, len(inner))


def check_shift_identity(
    shifts: Sequence[int], q: int, box, eval_fn: EvalFn | None = None
) -> CheckReport:
    """Verify, on every point of the box, that one difference step in
    direction q equals minus the family member with that shift raised,
    taken at the stepped point."""
    shifts = _require_shifts(shifts)
    d = len(shifts)
    _require_direction(q, d)
    lo, hi = _require_box(box, d)
    raised = shifts[: q - 1] + (shifts[q - 1] + 1,) + shifts[q:]
    base = _box_values(shifts, lo - 1, hi, eval_fn)
    bumped = _box_values(raised, lo - 1, hi, eval_fn)
    strides, inner = _inner_box(d, lo, hi)
    step = strides[q - 1]
    for checked, k in enumerate(inner, start=1):
        lhs = base[k] - base[k - step]
        rhs = -bumped[k - step]
        if lhs != rhs:
            witness = _point(k, strides, lo, hi)
            return CheckReport(False, checked, witness=witness, lhs=lhs, rhs=rhs)
    return CheckReport(True, len(inner))
