from __future__ import annotations

import hashlib
import importlib.util
from functools import cache
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grassmult
from grassmult import difference, matrices
from grassmult.arith import binom
from grassmult.difference import (
    MAX_BOX_POINTS,
    CheckReport,
    _box_rows,
    _column,
    _extension_plan,
    _half_minors,
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

    def test_checks_each_input_once(self, spy):
        # The direction and the 3 + 3 column entries are checked once, and
        # both points are evaluated unchecked: 7 int checks, where two
        # checked eval_poly calls made 13.
        expected = eval_poly((0, 1, 0), (1, 4, 6)) - eval_poly((0, 1, 0), (1, 3, 6))
        checks, evals = spy("_require_int"), spy("_eval_poly", difference)
        assert delta_eval((0, 1, 0), 2, (1, 4, 6)) == expected != 0
        assert (len(checks), len(evals)) == (7, 2)

    @pytest.mark.parametrize("args, message", [
        (((0, 0), 1, (2.5, 4)), "value 2.5 at position 1 is not an integer"),
        (((0, -1), 1, (3, 5)), "shifts must be nonnegative, got -1 at position 2"),
        (((0, 0), 1, (3,)), "values and shifts must have equal length, got 1 and 2"),
        (((0, 0), 3, (2.5, 4)), "direction 3 outside 1..2"),
    ])
    def test_refusals_keep_their_messages(self, args, message):
        with pytest.raises(ValueError) as caught:
            delta_eval(*args)
        assert str(caught.value) == message

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
        # One column entry off by one, in either half: the report is the
        # pointwise one of the perturbed family, a failure.
        for target in PERTURBED:
            monkeypatch.setattr(difference, "_column", perturbed_column(target))
            report = check_difference_eq((0, 1, 2, 3), (-2, 2))
            assert not report.ok
            evaluate = column_determinant(difference._column)
            assert report == pointwise_report((0, 1, 2, 3), None, (-2, 2), evaluate)

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
        # As for the difference check. A step in direction q meets only
        # column q, so direction q takes the perturbed column (1, q - 1).
        for q, target in enumerate(PERTURBED, start=1):
            monkeypatch.setattr(difference, "_column", perturbed_column(target))
            report = check_shift_identity((0, 1, 2, 3), q, (-2, 2))
            assert not report.ok
            evaluate = column_determinant(difference._column)
            assert report == pointwise_report((0, 1, 2, 3), q, (-2, 2), evaluate)

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            check_shift_identity((0, 0), 3, (-2, 2))

    @given(small_shifts, st.data())
    @settings(max_examples=30)
    def test_holds_for_random_shifts(self, shifts, data):
        q = data.draw(st.integers(1, len(shifts)), label="q")
        assert check_shift_identity(shifts, q, (-2, 3)).ok


def column_norms(shifts: tuple, span: range) -> dict[int, int]:
    """N(s) for each shift s: the largest sum of |entries| over the columns
    (v, s) of the values v in span, from binom."""
    d = len(shifts)
    return {s: max(sum(abs(binom(v, p - s)) for p in range(d)) for v in span) for s in shifts}


def least_signed_width(bound: int) -> int:
    """The least W >= 1 whose signed slots hold bound, bound < 2**(W-1)."""
    width = 1
    while bound >= 2 ** (width - 1):
        width += 1
    return width


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
        # points (a, b) in lexicographic order. The width is the least
        # signed one that holds (2d + 1) V, V from the column norms.
        d, span = len(shifts), range(lo, hi + 1)
        expected = [eval_poly(shifts, t) for t in product(span, repeat=d)]
        width, (rows,) = _box_rows(d, [shifts], lo, hi)
        bound = prod(map(column_norms(shifts, span).get, shifts))
        assert width == least_signed_width((2 * d + 1) * bound)
        count = len(span) ** (d - d // 2)
        assert [v for row in rows for v in slots(row, width, count)] == expected

    @given(
        st.integers(1, 5).flatmap(lambda d: st.tuples(
            st.lists(st.integers(0, 6), min_size=d, max_size=d).map(tuple),
            st.one_of(st.integers(-6, 6), st.integers(-(10**20), 10**20)),
            st.integers(0, 2 if d == 5 else 3),
        ))
    )
    # V = (2**31 + 1)**2 fits a 64-bit slot, but 5 V does not: W = 66.
    @example(((0, 0), 2**31, 0))
    @settings(max_examples=60, deadline=None)
    def test_rows_decode_and_the_bound_holds(self, case):
        # The packed rows decode to eval_poly, slot by slot. N(s), the
        # largest column L1 norm over the box, bounds them: the product of
        # N over all shifts bounds every value, (2d + 1) times it fits a
        # signed slot and would not fit one a bit narrower (W = 1, the
        # least width, serves a zero column, V = 0), and each half's
        # product bounds every minor that _half_minors gives at the value
        # tuples of that half.
        shifts, lo, extent = case
        d, span = len(shifts), range(lo, lo + extent + 1)
        width, (rows,) = _box_rows(d, [shifts], lo, lo + extent)
        count = len(span) ** (d - d // 2)
        decoded = [v for row in rows for v in slots(row, width, count)]
        assert decoded == [eval_poly(shifts, t) for t in product(span, repeat=d)]
        norm = column_norms(shifts, span)
        bound = prod(map(norm.get, shifts))
        assert max(map(abs, decoded)) <= bound
        assert (2 * d + 1) * bound < 2 ** (width - 1)
        assert width == 1 or 2 ** (width - 2) <= (2 * d + 1) * bound
        h, *plans = _extension_plan(d)
        for part, plan in zip((shifts[:h], shifts[h:]), plans):
            minors = [_half_minors({}, u, part, plan, d) for u in product(span, repeat=len(part))]
            assert max(abs(m) for minor in minors for m in minor) <= prod(map(norm.get, part))

    def test_benchmark_boxes_fit_one_word(self):
        # Raising a shift only drops entries from a column, so N(s) never
        # grows with s, and the all-zero shifts have the largest column
        # norms of every shift vector in {0..4}^4 and of every raised one.
        # So this call's bound is the largest of all 2 500 box_identities
        # cases on [-5, 6]^4 (rows over [-6, 6]), both boxes of each shift
        # check included: (2d + 1) V = 9 * 84**4 has 29 bits, so all of
        # them run on slots of at most 30 bits.
        width, _ = _box_rows(4, [(0, 0, 0, 0), (0, 0, 0, 1)], -6, 6)
        assert width == 30

    def test_benchmark_rows_take_30_bits_a_slot(self):
        # The dearest benchmark box packs 13**2 right-half points per row,
        # each row no longer than its 169 slots of 30 bits.
        width, (rows,) = _box_rows(4, [(0, 0, 0, 0)], -6, 6)
        assert (width, len(rows)) == (30, 169)
        assert max(row.bit_length() for row in rows) <= 169 * 30

    def test_minor_count(self, op_calls, spy):
        # No determinant and no minor vector per point: one memo entry per
        # column (v, s) of a check and per left prefix below the last left
        # column, 3 * 13 + 13 = 52 for shifts (0, 1, 0, 3) on [-6, 6]^4.
        # The shift check's raised box takes the shift 1 that its base box
        # has already and shares the base box's memo, so it adds none.
        kernels, columns = spy("_box_rows", difference), spy("_column", difference)
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert check_shift_identity((0, 1, 0, 3), 3, (-5, 6)).ok
        assert op_calls["_bareiss"] == []
        assert [args["boxes"] for args, _ in kernels] == [
            [(0, 1, 0, 3)], [(0, 1, 0, 3), (0, 1, 1, 3)]
        ]
        memos = {id(args["memo"]): args["memo"] for args, _ in columns}
        assert [len(memo) for memo in memos.values()] == [52, 52]

    def test_binom_count(self, op_calls):
        # One binom per row of a distinct (value, shift) column of a check,
        # shared by both halves, the slot bound and the packing, and none
        # per point: 3 shifts x 13 values x 4 rows for the difference
        # check, and 4 x 13 x 4 for the shift check, whose raised box adds
        # the shift 2.
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert check_shift_identity((0, 1, 0, 3), 2, (-5, 6)).ok
        assert len(op_calls["binom"]) == 156 + 208

    @pytest.mark.parametrize("lo", [10**30, 10**60])
    def test_bit_bound_before_any_minor(self, spy, lo):
        # [lo - 1, lo + 998]^2 has MAX_BOX_POINTS points, so the point
        # bound lets it pass at any lo, but its slots widen with the digits
        # of lo: 203 and 402 bits, above MAX_BOX_POINTS * 64 in all. The
        # kernel refuses it once its width is known, before any minor; at
        # lo = 0 its slots take 24 bits and it runs.
        minors = spy("_half_minors", difference)
        assert check_difference_eq((0, 0), (0, 998)).ok
        assert minors
        minors.clear()
        with pytest.raises(ValueError, match=r"packed bits .* above MAX_BOX_POINTS \* 64"):
            check_difference_eq((0, 0), (lo, lo + 998))
        with pytest.raises(ValueError, match=r"packed bits .* above MAX_BOX_POINTS \* 64"):
            check_shift_identity((0, 0), 1, (lo, lo + 998))
        assert minors == []

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


def pointwise_report(
    shifts: tuple, q: int | None, box: tuple[int, int], evaluate=eval_poly
) -> CheckReport:
    """The report of the difference check (q None) or of the shift check in
    direction q, from evaluate(shifts, point) at single points: the first
    inner point in lexicographic order where the two sides differ."""
    d, (lo, hi) = len(shifts), box
    value = cache(evaluate)

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


# Column (1, s) perturbed, s = 0 and 1 in the left half of shifts (0, 1, 2, 3),
# its prefix and its last column, and s = 2 and 3 in the right half.
PERTURBED = [(1, s) for s in range(4)]


def perturbed_column(target: tuple[int, int]):
    """_column with its first entry one more on column target = (v, s)."""
    real = _column

    def column(memo, v, s, d):
        col = real(memo, v, s, d)
        return [col[0] + 1] + col[1:] if (v, s) == target else col

    return column


def column_determinant(column):
    """evaluate(shifts, point): the determinant of the columns
    column(memo, v, s, d) of the point, which eval_poly is for _column."""
    def evaluate(shifts, point):
        cols = [column({}, v, s, len(point)) for v, s in zip(point, shifts)]
        return determinant_bareiss([list(row) for row in zip(*cols)])

    return evaluate


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


def benchmark_child():
    """perfbench/child.py, loaded as a module for its CASES and BOX."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


class TestBoxReports:
    def test_benchmark_sample_reports_are_golden(self, monkeypatch):
        # Every 25th box_identities case, 100 of 2 500, through both
        # checks, first as they are and then under wrong_binom, one line
        # per case as scripts/box_reports.py prints it. The sha256 of each
        # section pins every report, witnesses and sides included, on the
        # benchmark's own box.
        child = benchmark_child()
        digests, failed = [], []
        for wrong in (False, True):
            if wrong:
                monkeypatch.setattr(difference, "binom", wrong_binom)
                monkeypatch.setattr(matrices, "binom", wrong_binom)
            digest = hashlib.sha256()
            for shifts, q in child.CASES[::25]:
                reports = (
                    check_difference_eq(shifts, child.BOX),
                    check_shift_identity(shifts, q, child.BOX),
                )
                fields = [(r.ok, r.points_checked, r.witness, r.lhs, r.rhs) for r in reports]
                digest.update(f"{shifts} {q} {fields}\n".encode())
                failed += [not r.ok for r in reports]
            digests.append(digest.hexdigest())
        assert digests == [
            "fda9ac037676d6169ff8fcc8a634c1438d13e5c6e1f0c790dc48ceaf0bdf5303",
            "cb9365312e13ad1fb1f7f341b2e7fc44e3aa77029e0716aa96fb9cd96c4c599b",
        ]
        assert sum(failed[:200]) == 0 < sum(failed[200:])


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
            # A set would be unpacked in its hash table's order, {1, -1}
            # as lo = 1 and hi = -1, so it is no (lo, hi) pair.
            ({-5, 6}, "integer pair"),
            ({1, -1}, "integer pair"),
            ({-3, 4}, "integer pair"),
            (frozenset((-2, 2)), "integer pair"),
            ({-2: 0, 2: 0}, "integer pair"),
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

    @pytest.mark.parametrize("name, args, message", [
        pytest.param("eval_poly", ((0, 1), {2, 4}), "values must be ordered, got a set",
                     id="eval_poly-point"),
        pytest.param("eval_poly", ({1, 0}, (2, 4)), "shifts must be ordered, got a set",
                     id="eval_poly-shifts"),
        pytest.param("delta_eval", ((0, 0), 1, {3, 5}), "values must be ordered, got a set",
                     id="delta_eval"),
        pytest.param("check_difference_eq", ({0, 1}, (-2, 2)), "shifts must be ordered",
                     id="check_difference_eq"),
        pytest.param("check_shift_identity", ({0, 1}, 1, (-2, 2)), "shifts must be ordered",
                     id="check_shift_identity"),
        pytest.param("alternating_vandermonde_sum", ({0, 1}, (2, 4)),
                     "shifts must be ordered", id="alternating_vandermonde_sum"),
        pytest.param("build_binomial_matrix", ({2, 4}, (0, 0)), "values must be ordered",
                     id="build_binomial_matrix"),
        pytest.param("build_shifted_vandermonde_matrix", ((2, 4), {0, 1}),
                     "shifts must be ordered", id="build_shifted_vandermonde_matrix"),
        pytest.param("vandermonde", ({3, 1},), "values must be ordered, got a set",
                     id="vandermonde"),
        pytest.param("vandermonde", ({3: 0, 1: 0},), "values must be ordered, got a dict",
                     id="vandermonde-dict"),
        pytest.param("validate", ({4, 2}, 5), "index vector must be ordered, got a set",
                     id="validate"),
        pytest.param("frobenius_coordinates", (frozenset((3, 1)),),
                     "partition must be ordered, got a frozenset", id="frobenius_coordinates"),
        pytest.param("determinant_bareiss", ({(1, 2), (3, 4)},), "matrix must be ordered",
                     id="determinant_bareiss"),
        pytest.param("determinant_bareiss", ([(1, 2), {3, 4}],), "row 1 must be ordered",
                     id="determinant_bareiss-row"),
        pytest.param("determinant_cofactor", ({(1, 2), (3, 4)},), "matrix must be ordered",
                     id="determinant_cofactor"),
    ])
    def test_unordered_vectors(self, name, args, message):
        # A set or a mapping has no order of the caller's, only its hash
        # table's, so every door check that reads a vector refuses it.
        with pytest.raises(ValueError, match=message):
            getattr(grassmult, name)(*args)

    def test_ordered_iterables_pass(self):
        # A door check reads an iterable once and the call works on what it
        # read, so a generator or an iterator gives the tuple's value.
        assert eval_poly([0, 0], iter((2, 4))) == 2
        assert delta_eval((0, 0), 1, (t for t in (3, 5))) == -1
        # Shifts as an iterator too: the direction and the length checks
        # read the checked tuple, not the caller's object.
        assert delta_eval(iter((0, 0)), 1, (3, 5)) == delta_eval((0, 0), 1, (3, 5)) == -1
        assert eval_poly(iter([0, 0]), iter((2, 4))) == 2
        assert grassmult.alternating_vandermonde_sum(iter([0, 0]), (2, 4)) == 2
        assert matrices.build_binomial_matrix((2, 4), iter([0, 1])) == [[1, 0], [2, 1]]
        assert grassmult.vandermonde(t for t in (3, 1)) == -2
        assert str(grassmult.validate(range(2, 5, 2), 5)) == "2-4"
        assert determinant_bareiss(iter([iter((1, 2)), (3, 4)])) == -2
