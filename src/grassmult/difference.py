"""Evaluation of the shifted binomial-determinant family on the integer
lattice, plus exhaustive checks of its two difference-operator identities
over finite boxes.

The family extends the determinant route for multiplicities from index
vectors to arbitrary integer points. One point is evaluated through one
determinant (eval_poly), the independent reference. Many points share one
engine, _half_minors: column q of the matrix depends on (value q, shift q)
only, so by Laplace expansion along a column split the value is one dot
product of the signed minor vectors of the two column halves, each grown
one Laplace step per column and memoized by column prefix. The box checks
have it as their one evaluator, one row of values per left minor vector;
the determinant table runs it over the halves of its pairs. The checks
certify the identities on concrete boxes, exactly, and report the first
counterexample when one exists.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, product
from operator import add

from .arith import _Frozen, _require_int, _set_field, binom
from .matrices import _require_shifts, build_binomial_matrix, determinant_bareiss

__all__ = [
    "CheckReport",
    "eval_poly",
    "delta_eval",
    "check_difference_eq",
    "check_shift_identity",
]

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
    and at most MAX_BOX_POINTS evaluated points in [lo - 1, hi]^d and
    half-minor entries, counted as up to 2**d row sets for each value
    tuple of the larger half."""
    try:
        lo, hi = box
    except (TypeError, ValueError) as exc:
        raise ValueError("box must be an integer pair (lo, hi)") from exc
    for pos, bound in enumerate((lo, hi), start=1):
        _require_int(bound, "box bound", pos)
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    side = hi - lo + 2
    cost = max(side**d, side ** (d - d // 2) * 2**d)
    if cost > MAX_BOX_POINTS:
        raise ValueError(
            f"box [{lo - 1}, {hi}]^{d} needs {cost} evaluations, "
            f"above MAX_BOX_POINTS={MAX_BOX_POINTS}"
        )
    return lo, hi


def _extension_plan(d: int) -> tuple[int, list, list]:
    """Plans for _half_minors on the d x d matrix split at h = d // 2: det is
    the sum over h-row sets R of (-1)**(sum(R) + h(h-1)/2) times the left
    minor on R times the right minor on the other rows (rows from 0). Per
    column q and row set R of size q, a plan holds the terms (r, index of
    R - {r} among the row sets of size q - 1, sign) of one Laplace step.
    Row sets run in lexicographic order, except on a half's last level: the
    left's carry their Laplace signs, the right's are the complements."""
    h = d // 2
    sets = [list(combinations(range(d), q)) for q in range(d + 1)]
    index = {rows: n for level in sets for n, rows in enumerate(level)}

    def plan(k: int, last: list) -> list:
        return [
            [[(r, index[rows[:pos] + rows[pos + 1:]], sign * (-1) ** (pos + q - 1))
              for pos, r in enumerate(rows)]
             for rows, sign in (last if q == k else [(rows, 1) for rows in sets[q]])]
            for q in range(1, k + 1)
        ]

    left = [(rows, (-1) ** (sum(rows) + h * (h - 1) // 2)) for rows in sets[h]]
    right = [(tuple(p for p in range(d) if p not in rows), 1) for rows in sets[h]]
    return h, plan(h, left), plan(d - h, right)


def _half_minors(memo: dict, values: tuple, shifts: tuple, plan: list, d: int) -> list[int]:
    """Minors of the columns (-1)**s * binom(v, p - s), p = 0..d-1, over
    zip(values, shifts), on the row sets of plan's last level ([1] for no
    columns), grown one Laplace step per column. memo, which the caller owns
    for one half of one d, holds every column prefix (values, shifts) and
    column (v, s). Performs no validation: the box checks and the sweep
    pass integer tuples only."""
    out = memo.get((values, shifts))
    if out is None:
        if not values:
            return [1]
        minors = _half_minors(memo, values[:-1], shifts[:-1], plan, d)
        v, s = values[-1], shifts[-1]
        col = memo.get((v, s)) or memo.setdefault(
            (v, s), [(-1) ** s * binom(v, p - s) for p in range(d)]
        )
        out = memo[values, shifts] = [
            sum([sign * col[r] * minors[k] for r, k, sign in terms])
            for terms in plan[len(values) - 1]
        ]
    return out


def _box_values(shifts: tuple[int, ...], lo: int, hi: int, memos: tuple[dict, dict]) -> list[int]:
    """Values of the family on [lo, hi]^d, one flat list in lexicographic
    order of the points, by the half-minor memos of the left and the right
    half: each left minor vector's nonzero entries times the right minors."""
    d = len(shifts)
    span = range(lo, hi + 1)
    h, *plans = _extension_plan(d)
    left, right = (
        [_half_minors(memo, u, part, plan, d) for u in product(span, repeat=len(part))]
        for part, plan, memo in zip((shifts[:h], shifts[h:]), plans, memos)
    )
    columns = list(zip(*right))
    zero = [0] * len(right)
    values = []
    for a in left:
        row = zero
        for a_k, column in zip(a, columns):
            if a_k:
                term = map(a_k.__mul__, column)
                row = term if row is zero else map(add, row, term)
        values += row
    return values


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


def check_difference_eq(shifts: Sequence[int], box) -> CheckReport:
    """Verify, on every point of the box, that the coordinate differences
    of the family sum to zero."""
    shifts = _require_shifts(shifts)
    d = len(shifts)
    lo, hi = _require_box(box, d)
    values = _box_values(shifts, lo - 1, hi, ({}, {}))
    strides, inner = _inner_box(d, lo, hi)
    for checked, k in enumerate(inner, start=1):
        total = d * values[k]
        for stride in strides:
            total -= values[k - stride]
        if total != 0:
            witness = _point(k, strides, lo, hi)
            return CheckReport(False, checked, witness=witness, lhs=total, rhs=0)
    return CheckReport(True, len(inner))


def check_shift_identity(shifts: Sequence[int], q: int, box) -> CheckReport:
    """Verify, on every point of the box, that one difference step in
    direction q equals minus the family member with that shift raised,
    taken at the stepped point."""
    shifts = _require_shifts(shifts)
    d = len(shifts)
    _require_direction(q, d)
    lo, hi = _require_box(box, d)
    raised = shifts[: q - 1] + (shifts[q - 1] + 1,) + shifts[q:]
    memos = {}, {}
    base = _box_values(shifts, lo - 1, hi, memos)
    bumped = _box_values(raised, lo - 1, hi, memos)
    strides, inner = _inner_box(d, lo, hi)
    step = strides[q - 1]
    for checked, k in enumerate(inner, start=1):
        lhs = base[k] - base[k - step]
        rhs = -bumped[k - step]
        if lhs != rhs:
            witness = _point(k, strides, lo, hi)
            return CheckReport(False, checked, witness=witness, lhs=lhs, rhs=rhs)
    return CheckReport(True, len(inner))
