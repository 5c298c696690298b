from __future__ import annotations

from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmult import difference, matrices
from grassmult.arith import binom
from grassmult.difference import (
    MAX_BOX_POINTS,
    CheckReport,
    _box_minors,
    _extension_plan,
    _half_minors,
    _packed_rows,
    check_difference_eq,
    check_shift_identity,
    delta_eval,
    eval_poly,
)
from grassmult.matrices import determinant_bareiss


small_shifts = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple)
)


class TestEvalPoly:
    def test_matches_known_multiplicity(self):
        assert eval_poly((0, 0), (2, 4)) == 2
        assert eval_poly((1, 0, 0), (2, 4, 6)) == 5

    def test_zero_shift_pair_is_difference(self):
        # with both shifts zero the determinant collapses to t2 - t1
        for t1 in range(-4, 5):
            for t2 in range(-4, 5):
                assert eval_poly((0, 0), (t1, t2)) == t2 - t1

    def test_negative_points(self):
        assert eval_poly((1, 0), (3, 5)) == 1
        assert eval_poly((0,), (-7,)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            eval_poly((0, 0), (1,))


class TestDeltaEval:
    def test_known_value(self):
        assert delta_eval((0, 0), 1, (3, 5)) == -1
        assert delta_eval((0, 0), 2, (3, 5)) == 1

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            delta_eval((0, 0), 3, (3, 5))
        with pytest.raises(ValueError, match="outside 1..2"):
            delta_eval((0, 0), 0, (3, 5))

    @given(small_shifts, st.integers(1, 3), st.data())
    @settings(max_examples=50)
    def test_sum_of_deltas_vanishes(self, shifts, q_seed, data):
        d = len(shifts)
        point = tuple(
            data.draw(st.integers(-5, 5), label=f"t{k}") for k in range(d)
        )
        assert sum(delta_eval(shifts, q, point) for q in range(1, d + 1)) == 0


class TestDifferenceEq:
    def test_passes_on_box(self):
        report = check_difference_eq((1, 0), (-3, 3))
        assert report == CheckReport(True, 49)

    def test_points_counted(self):
        assert check_difference_eq((1, 2), (-2, 2)).points_checked == 25

    def test_single_coordinate(self):
        assert check_difference_eq((2,), (-5, 5)).ok

    def test_detects_perturbation(self, monkeypatch):
        real = difference._box_minors

        def perturbed(shifts, lo, hi, memos):
            # One more minor in each half, 1 at the left value 1 and at the
            # right value 2 and 0 elsewhere, adds 1 to the value at (1, 2).
            span = range(lo, hi + 1)
            left, right = real(shifts, lo, hi, memos)
            return (
                [a + [int(u == 1)] for a, u in zip(left, span)],
                [b + [int(w == 2)] for b, w in zip(right, span)],
            )

        monkeypatch.setattr(difference, "_box_minors", perturbed)
        report = check_difference_eq((0, 0), (-3, 3))
        assert not report.ok
        assert report.witness == (1, 2)
        assert report.lhs == 2
        assert report.rhs == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty box"):
            check_difference_eq((0,), (3, -3))
        with pytest.raises(ValueError, match="nonnegative"):
            check_difference_eq((-1, 0), (-2, 2))
        with pytest.raises(ValueError, match="at least one"):
            check_difference_eq((), (-2, 2))

    @given(small_shifts)
    @settings(max_examples=30)
    def test_holds_for_random_shifts(self, shifts):
        assert check_difference_eq(shifts, (-2, 3)).ok


class TestShiftIdentity:
    def test_passes_on_box(self):
        report = check_shift_identity((0, 0), 1, (-3, 3))
        assert report.ok
        assert report.points_checked == 49

    def test_detects_perturbation(self, monkeypatch):
        real = difference._box_minors

        def perturbed(shifts, lo, hi, memos):
            # One more minor of 1 in both halves adds 1 to every value.
            left, right = real(shifts, lo, hi, memos)
            if sum(shifts) == 1:
                left, right = [a + [1] for a in left], [b + [1] for b in right]
            return left, right

        monkeypatch.setattr(difference, "_box_minors", perturbed)
        report = check_shift_identity((0, 0), 1, (-2, 2))
        assert not report.ok
        assert report.witness == (-2, -2)

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            check_shift_identity((0, 0), 3, (-2, 2))

    @given(small_shifts, st.data())
    @settings(max_examples=30)
    def test_holds_for_random_shifts(self, shifts, data):
        q = data.draw(st.integers(1, len(shifts)), label="q")
        assert check_shift_identity(shifts, q, (-2, 3)).ok


def slots(row: int, width: int, count: int) -> list[int]:
    """The count signed base-2**width digits of row, lowest first; nothing
    may be left above them."""
    digits = []
    for _ in range(count):
        digit = (row + (1 << width - 1)) % (1 << width) - (1 << width - 1)
        digits.append(digit)
        row = (row - digit) >> width
    assert row == 0
    return digits


class TestBoxValues:
    @pytest.mark.parametrize(
        "shifts, lo, hi",
        [
            ((0,), -6, 4),
            ((3,), -4, 2),
            ((0, 0), -5, 3),
            ((2, 1), -3, 4),
            ((0, 5), -4, 1),
            ((0, 0, 0), -3, 2),
            ((1, 3, 0), -4, 1),
            ((2, 0, 4), -2, 3),
            ((0, 0, 0, 0), -3, 2),
            ((0, 1, 0, 3), -4, 1),
            ((4, 2, 5, 1), -2, 2),
            ((0, 0, 0, 0, 0), -2, 1),
            ((1, 0, 2, 0, 3), -3, 0),
            ((0, 6, 1, 5, 2), -2, 1),
            ((0, 0, 0, 0), 10**12, 10**12 + 2),
            ((1, 0, 2, 0), 10**12, 10**12 + 2),
            ((0, 1, 0), -(10**20), -(10**20) + 2),
        ],
    )
    def test_laplace_equals_pointwise_determinant(self, shifts, lo, hi):
        # Row a's slots, decoded here digit by digit, are the values at the
        # points (a, b) in lexicographic order; the far boxes need slots of
        # more than one 64-bit word, the others one.
        d, span = len(shifts), range(lo, hi + 1)
        expected = [eval_poly(shifts, t) for t in product(span, repeat=d)]
        width, (rows,) = _packed_rows(d, [_box_minors(shifts, lo, hi, ({}, {}))])
        assert width > 64 if abs(lo) > 10**6 else width == 64
        count = len(span) ** (d - d // 2)
        assert [v for row in rows for v in slots(row, width, count)] == expected

    def test_minor_count(self, op_calls, spy):
        # No determinant: one memo entry per column (v, s) and per column
        # prefix of a half, 2 * 13 + 13 + 13**2 = 208 per half of [-6, 6]^4.
        # The shift check's boxes share their memos, so raising shift 3 adds
        # 13 + 13 + 13**2 entries to the right half only.
        boxes = spy("_box_minors", difference)
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert check_shift_identity((0, 1, 0, 3), 3, (-5, 6)).ok
        assert op_calls["_bareiss"] == []
        memos = [args["memos"] for args, _ in boxes]
        assert memos[1] is memos[2]
        sizes = [[len(memo) for memo in pair] for pair in memos[:2]]
        assert sizes == [[208, 208], [208, 403]]

    def test_binom_count(self, op_calls):
        # One binom per row of a distinct (value, shift) column of a half and
        # none per point: 2 halves x 2 columns x 13 values x 4 rows for each
        # check's base box, and 13 x 4 for the raised column (v, 2) of the
        # shift check, whose raised box shares the base box's memos.
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert check_shift_identity((0, 1, 0, 3), 2, (-5, 6)).ok
        assert len(op_calls["binom"]) == 208 + 260

    def test_cost_bound_before_any_work(self, op_calls):
        # 13**9 points, or 2**16 points whose larger half alone has 2**8
        # value tuples of up to 2**16 minors each.
        assert min(13**9, 2**8 * 2**16) > MAX_BOX_POINTS
        for d, box in ((9, (-5, 6)), (16, (0, 0))):
            with pytest.raises(ValueError, match="MAX_BOX_POINTS"):
                check_difference_eq((0,) * d, box)
            with pytest.raises(ValueError, match="MAX_BOX_POINTS"):
                check_shift_identity((0,) * d, 1, box)
        assert all(calls == [] for calls in op_calls.values())


def wrong_binom(n: int, k: int) -> int:
    """binom off by one at k = 0 for n = 2 mod 5; scripts/box_reports.py
    patches in the same one."""
    return binom(n, k) + (k == 0 and n % 5 == 2)


def pointwise_report(shifts: tuple, q: int | None, box: tuple[int, int]) -> CheckReport:
    """The report of the difference check (q None) or of the shift check in
    direction q, from eval_poly at single points: the first inner point in
    lexicographic order where the two sides differ."""
    d, (lo, hi) = len(shifts), box
    value = cache(eval_poly)

    def down(t, p):
        return t[: p - 1] + (t[p - 1] - 1,) + t[p:]

    for checked, t in enumerate(product(range(lo, hi + 1), repeat=d), start=1):
        if q is None:
            lhs = sum(value(shifts, t) - value(shifts, down(t, p)) for p in range(1, d + 1))
            rhs = 0
        else:
            lhs = value(shifts, t) - value(shifts, down(t, q))
            rhs = -value(shifts[: q - 1] + (shifts[q - 1] + 1,) + shifts[q:], down(t, q))
        if lhs != rhs:
            return CheckReport(False, checked, witness=t, lhs=lhs, rhs=rhs)
    return CheckReport(True, checked)


class TestFailurePath:
    @pytest.mark.parametrize(
        "shifts, box",
        [
            ((0,), (-5, 6)),
            ((0, 1), (-4, 4)),
            ((1, 0, 0), (-3, 3)),
            ((0, 2, 1, 0), (-2, 2)),
            ((1, 0, 2, 0, 1), (1, 2)),
            ((0, 1, 0), (10**12 + 1, 10**12 + 3)),
            ((1, 0, 0, 0), (-(10**20) - 3, -(10**20) - 1)),
        ],
    )
    def test_reports_equal_the_pointwise_reference(self, monkeypatch, shifts, box):
        # Under a wrong binomial the identities fail; every report, witness,
        # side values and count included, must still be the pointwise one.
        monkeypatch.setattr(difference, "binom", wrong_binom)
        monkeypatch.setattr(matrices, "binom", wrong_binom)
        reports = [check_difference_eq(shifts, box)]
        reports += [check_shift_identity(shifts, q, box) for q in range(1, len(shifts) + 1)]
        expected = [pointwise_report(shifts, q, box) for q in [None, *range(1, len(shifts) + 1)]]
        assert reports == expected
        assert not all(report.ok for report in reports)


class TestHalfMinors:
    @given(
        st.integers(1, 6).flatmap(lambda d: st.tuples(
            st.lists(st.integers(-8, 8), min_size=d, max_size=d).map(tuple),
            st.lists(st.integers(0, 7), min_size=d, max_size=d).map(tuple),
        ))
    )
    @settings(max_examples=60)
    def test_each_minor_is_a_signed_determinant(self, case):
        # The left half's row sets in lexicographic order, with the sign of
        # the Laplace expansion along its h columns; the right half's on
        # the complements, unsigned. A minor on no rows is 1.
        values, shifts = case
        d = len(values)
        h = d // 2
        row_sets = list(combinations(range(d), h))
        halves = (
            (slice(0, h), row_sets, [(-1) ** (sum(rows) + h * (h - 1) // 2) for rows in row_sets]),
            (slice(h, d), [tuple(p for p in range(d) if p not in rows) for rows in row_sets],
             [1] * len(row_sets)),
        )
        for (part, rows_of, signs), plan in zip(halves, _extension_plan(d)[1:]):
            t, s = values[part], shifts[part]
            matrix = [[binom(v, p - k) for v, k in zip(t, s)] for p in range(d)]
            assert _half_minors({}, t, s, plan, d) == [
                sign * (-1) ** sum(s)
                * (determinant_bareiss([matrix[p] for p in rows]) if rows else 1)
                for rows, sign in zip(rows_of, signs)
            ]


class TestRejectsCoercion:
    @pytest.mark.parametrize(
        "shifts, match",
        [
            ((1.9, 0), "shift 1.9 at position 1 is not an integer"),
            ((0, True), "shift True at position 2 is not an integer"),
            ((0, "1"), "shift '1' at position 2 is not an integer"),
        ],
    )
    def test_shifts(self, shifts, match):
        with pytest.raises(ValueError, match=match):
            check_difference_eq(shifts, (-2, 2))
        with pytest.raises(ValueError, match=match):
            check_shift_identity(shifts, 1, (-2, 2))

    @pytest.mark.parametrize(
        "box, match",
        [
            ((-2.5, 2.9), "box bound -2.5 at position 1 is not an integer"),
            ((-2, 2.0), "box bound 2.0 at position 2 is not an integer"),
            ((False, 2), "box bound False at position 1 is not an integer"),
            ((1, 2, 3), "integer pair"),
            (4, "integer pair"),
        ],
    )
    def test_box(self, box, match):
        with pytest.raises(ValueError, match=match):
            check_difference_eq((0, 1), box)
        with pytest.raises(ValueError, match=match):
            check_shift_identity((0, 1), 1, box)

    @pytest.mark.parametrize("q", [True, 1.0, "1"])
    def test_direction(self, q):
        with pytest.raises(ValueError, match="direction .* is not an integer"):
            check_shift_identity((0, 1), q, (-2, 2))
