"""Evaluation of the shifted binomial-determinant family on the integer
lattice, plus exhaustive checks of its two difference-operator identities
over finite boxes.

The family extends the determinant route for multiplicities from index
vectors to arbitrary integer points. One point is evaluated through one
determinant (eval_poly), the independent reference. Many points share one
engine, _half_minors: column q of the matrix depends on (value q, shift q)
only, so by Laplace expansion along a column split the value is one dot
product of the signed minor vectors of the two column halves, each grown
one Laplace step per column and memoized by column prefix. The
determinant table runs it over the halves of its pairs.

The box checks run the same Laplace steps on packed integers (_box_rows).
Each left-half value tuple gets one row: an integer that holds its values
over the right half's sub-box, one signed slot of W bits per right-half
point, W the least signed width that holds a bound on every value and
residue: by Hadamard's inequality, the product of the columns' largest
L1 norms. The right half's minors are grown packed, one step per column;
the left half runs _half_minors up to its last column, whose step is
taken on the packed right minors. No minor vector is formed per point.
A step down in a right-half direction is a shift by whole slots, and one
in a left-half direction is an earlier row, so a check forms one residue
row per inner row with a few big-integer shifts and adds. The row passes
when its residue is zero on a mask of the inner slots. Only a failing row is
decoded. The checks certify the identities on concrete boxes, exactly,
and report the first counterexample when one exists.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, product
from math import prod
from operator import lshift, mul

from .arith import _Frozen, _require_int, _require_ordered, _set_field, binom
from .matrices import _bareiss, _binomial_matrix, _require_columns, _require_shifts

__all__ = [
    "CheckReport",
    "eval_poly",
    "delta_eval",
    "check_difference_eq",
    "check_shift_identity",
]

# Largest box, counted in evaluated points (hi - lo + 2) ** d, that a check
# accepts; the largest box in use is 13 ** 4 = 28 561 points. Its packed
# slots may take MAX_BOX_POINTS * 64 bits in all.
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
    point, shifts = _require_columns(point, shifts)
    return _eval_poly(shifts, point)


def _eval_poly(shifts: Sequence[int], point: Sequence[int]) -> int:
    """eval_poly on checked columns, performing no validation: mult_det
    passes a validated index's entries and their s_vector."""
    return (-1) ** sum(shifts) * _bareiss(_binomial_matrix(point, shifts))


def delta_eval(shifts: Sequence[int], q: int, point: Sequence[int]) -> int:
    """Partial difference in direction q (1-based): the value at point
    minus the value at point with coordinate q lowered by one."""
    shifts = _require_ordered(shifts, "shifts")
    _require_direction(q, len(shifts))
    t, shifts = _require_columns(point, shifts)
    stepped = t[: q - 1] + (t[q - 1] - 1,) + t[q:]
    return _eval_poly(shifts, t) - _eval_poly(shifts, stepped)


def _require_direction(q: int, d: int) -> None:
    _require_int(q, "direction")
    if not 1 <= q <= d:
        raise ValueError(f"direction {q} outside 1..{d}")


def _require_box(box, d: int) -> tuple[int, int]:
    """Bounds of the box, checked before any work: an ordered pair of
    integers, nonempty, and at most MAX_BOX_POINTS evaluated points in
    [lo - 1, hi]^d and packed minor slots (_box_slots). _box_rows bounds
    the bits of those slots."""
    try:
        lo, hi = _require_ordered(box, "box")
    except (TypeError, ValueError) as exc:
        raise ValueError("box must be an integer pair (lo, hi)") from exc
    for pos, bound in enumerate((lo, hi), start=1):
        _require_int(bound, "box bound", pos)
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    cost = _box_slots(d, hi - lo + 2)
    if cost > MAX_BOX_POINTS:
        raise ValueError(
            f"box [{lo - 1}, {hi}]^{d} needs {cost} evaluations, "
            f"above MAX_BOX_POINTS={MAX_BOX_POINTS}"
        )
    return lo, hi


def _box_slots(d: int, side: int) -> int:
    """Evaluated points of a box of side values per coordinate, or its packed
    minor slots, up to 2**d row sets of the right (the larger) half with
    one slot per value tuple of that half, whichever is more."""
    return max(side**d, side ** (d - d // 2) * 2**d)


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


def _column(memo: dict, v: int, s: int, d: int) -> list[int]:
    """Column (v, s) of the family, (-1)**s * binom(v, p - s) for rows
    p = 0..d-1, kept in memo under (v, s)."""
    col = memo.get((v, s))
    if col is None:
        col = memo[v, s] = [(-1) ** s * binom(v, p - s) for p in range(d)]
    return col


def _half_minors(memo: dict, values: tuple, shifts: tuple, plan: list, d: int) -> list[int]:
    """Minors of the columns (v, s) over zip(values, shifts), on the row
    sets of plan's last level ([1] for no columns), grown one Laplace step
    per column. memo, which the caller owns for one d, holds every column
    prefix (values, shifts) of one plan and every column (v, s): the sweep
    keeps one per half, the box checks one for the left half's prefixes.
    Performs no validation: the box checks and the sweep pass integer
    tuples only."""
    out = memo.get((values, shifts))
    if out is None:
        if not values:
            return [1]
        minors = _half_minors(memo, values[:-1], shifts[:-1], plan, d)
        col = _column(memo, values[-1], shifts[-1], d)
        out = memo[values, shifts] = [
            sum([sign * col[r] * minors[k] for r, k, sign in terms])
            for terms in plan[len(values) - 1]
        ]
    return out


def _box_rows(d: int, boxes: list, lo: int, hi: int) -> tuple[int, list[list[int]]]:
    """The row kernel: a slot width of W bits and, for each shift vector
    of boxes, its packed rows over [lo, hi]^d, one per left-half value
    tuple a in lexicographic order. Slot b of row a, the signed W bits at
    bit W b, holds the value at the point (a, b), the right-half points b
    in lexicographic order. Sums and shifts of rows act slot by slot while
    no slot leaves (-2**(W-1), 2**(W-1)).

    A right minor P_R is grown packed, one Laplace step per column: the
    step along right-half coordinate i multiplies each earlier packed minor
    by spread[r], which holds entry r of the column of the c-th value at
    bit W side**(d-h-1-i) c, so the minor is shifted to each value's slots
    and multiplied by the column entry there. The left half runs
    _half_minors on its prefixes, and its last step on packed rows: per
    prefix, H_r sums sign L_k P_R over the last-level terms (r, k, sign)
    whose prefix minor L_k is not zero, and row (prefix, u) is the sum over
    r of column u's entry r times H_r.

    W is the least with (2d + 1) V < 2**(W-1), the least signed width that
    holds (2d + 1) V. Here N(s) is the largest sum of |entries| over the
    columns (v, s) of the box's values v, and V is the product of N(s_q)
    over q, at its largest over boxes. Every value is the determinant of
    its columns (t_q, s_q), so by Hadamard's inequality it is at most the
    product of their L1 norms, at most V; every half minor is at most V
    on the same grounds. The packed integers
    are exact integer sums, so a slot only has to fit where it is decoded or
    tested with _scan's offset: a slot of a value row is at most V, and one
    of a residue row at most 2d V in the difference check and 3 V in the
    shift check. Raising a shift only drops entries from a column, so N(s)
    never grows with s. One memo serves every box; it keeps the left
    prefixes and each column (v, s), built once for the bound and the
    packing.

    W grows with the digits of lo and hi, so a box whose slots, counted as
    in _require_box, take more than MAX_BOX_POINTS * 64 bits is refused
    once W is known, before any packing or minor."""
    memo: dict = {}
    span = range(lo, hi + 1)
    h, left_plan, right_plan = _extension_plan(d)
    columns = {s: [_column(memo, v, s, d) for v in span] for s in set().union(*boxes)}
    norm = {s: max(sum(map(abs, col)) for col in cols) for s, cols in columns.items()}
    bound = (2 * d + 1) * max(prod(map(norm.get, t)) for t in boxes)
    width = bound.bit_length() + 1
    bits = _box_slots(d, len(span)) * width
    if bits > MAX_BOX_POINTS * 64:
        raise ValueError(
            f"box [{lo}, {hi}]^{d} needs {bits} packed bits in slots of {width}, "
            f"above MAX_BOX_POINTS * 64 = {MAX_BOX_POINTS * 64}"
        )
    out = []
    for shifts in boxes:
        packed = [1]
        for i, (s, level) in enumerate(zip(shifts[h:], right_plan)):
            stride = width * len(span) ** (d - h - 1 - i)
            offsets = range(0, stride * len(span), stride)
            spread = [sum(map(lshift, row, offsets)) for row in zip(*columns[s])]
            packed = [sum([sign * spread[r] * packed[k] for r, k, sign in terms]) for terms in level]
        if not h:  # d = 1: the left half's one minor is 1
            out.append(packed)
            continue
        rows = []
        for prefix in product(span, repeat=h - 1):
            minors = _half_minors(memo, prefix, shifts[: h - 1], left_plan, d)
            stack = [0] * d
            for p, terms in zip(packed, left_plan[-1]):
                for r, k, sign in terms:
                    if minors[k]:
                        stack[r] += sign * minors[k] * p
            rows += [sum(map(mul, col, stack)) for col in columns[shifts[h - 1]]]
        out.append(rows)
    return width, out


def _below(d: int, side: int, width: int, q: int):
    """below(rows, a): the packed row one step down in direction q from row
    a of rows, a shift by the direction's slot stride for a right-half
    direction and the row one row stride earlier for a left-half one."""
    h = d // 2
    if q > h:
        shift = width * side ** (d - q)
        return lambda rows, a: rows[a] << shift
    stride = side ** (h - q)
    return lambda rows, a: rows[a - stride]


def _scan(d: int, lo: int, hi: int, width: int, sides) -> CheckReport:
    """Test lhs == rhs on every point of [lo, hi]^d, where sides(a) gives
    the packed lhs and rhs rows of the inner row a. Adding the offset
    2**(W-1) to every slot of the residue lhs - rhs makes each slot
    nonnegative with no carry, and xoring it back out leaves each slot's
    two's complement bits; the row passes when these are zero on the mask
    of the inner slots. Only a failing row is decoded, at its lowest
    failing slot, the first failing point in lexicographic order."""
    side = hi - lo + 2
    h = d // 2
    slot, half = (1 << width) - 1, 1 << width - 1
    offset = ((1 << width * side ** (d - h)) - 1) // slot * half
    mask = slot  # times slots 1 .. side - 1 along each right-half direction
    for p in range(d - h):
        mask *= sum(1 << width * side**p * c for c in range(1, side))
    inner = [0]  # the inner rows, in lexicographic order
    for _ in range(h):
        inner = [a * side + c for a in inner for c in range(1, side)]
    for a in inner:
        lhs, rhs = sides(a)
        fail = ((lhs - rhs + offset) ^ offset) & mask
        if fail:
            b = ((fail & -fail).bit_length() - 1) // width
            k = a * side ** (d - h) + b
            witness = tuple(k // side**p % side + lo - 1 for p in reversed(range(d)))
            checked = 1 + sum((w - lo) * (side - 1) ** (d - 1 - q) for q, w in enumerate(witness))
            lhs, rhs = (((x + offset) >> width * b & slot) - half for x in (lhs, rhs))
            return CheckReport(False, checked, witness=witness, lhs=lhs, rhs=rhs)
    return CheckReport(True, (side - 1) ** d)


def check_difference_eq(shifts: Sequence[int], box) -> CheckReport:
    """Verify, on every point of the box, that the coordinate differences
    of the family sum to zero."""
    shifts = _require_shifts(shifts)
    d = len(shifts)
    lo, hi = _require_box(box, d)
    width, (rows,) = _box_rows(d, [shifts], lo - 1, hi)
    steps = [_below(d, hi - lo + 2, width, q) for q in range(1, d + 1)]
    return _scan(
        d, lo, hi, width, lambda a: (d * rows[a] - sum(step(rows, a) for step in steps), 0)
    )


def check_shift_identity(shifts: Sequence[int], q: int, box) -> CheckReport:
    """Verify, on every point of the box, that one difference step in
    direction q equals minus the family member with that shift raised,
    taken at the stepped point."""
    shifts = _require_shifts(shifts)
    d = len(shifts)
    _require_direction(q, d)
    lo, hi = _require_box(box, d)
    raised = shifts[: q - 1] + (shifts[q - 1] + 1,) + shifts[q:]
    width, (base, bumped) = _box_rows(d, [shifts, raised], lo - 1, hi)
    step = _below(d, hi - lo + 2, width, q)
    return _scan(d, lo, hi, width, lambda a: (base[a] - step(base, a), -step(bumped, a)))
