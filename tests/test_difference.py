from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmult import difference
from grassmult.difference import (
    MAX_BOX_POINTS,
    CheckReport,
    _box_values,
    check_difference_eq,
    check_shift_identity,
    delta_eval,
    eval_poly,
)


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
        real = difference._box_values

        def perturbed(shifts, lo, hi):
            points = product(range(lo, hi + 1), repeat=len(shifts))
            return [v + 1 if t == (1, 2) else v for v, t in zip(real(shifts, lo, hi), points)]

        monkeypatch.setattr(difference, "_box_values", perturbed)
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
        real = difference._box_values

        def perturbed(shifts, lo, hi):
            values = real(shifts, lo, hi)
            return [v + 1 for v in values] if sum(shifts) == 1 else values

        monkeypatch.setattr(difference, "_box_values", perturbed)
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
        ],
    )
    def test_laplace_equals_pointwise_determinant(self, shifts, lo, hi):
        span = range(lo, hi + 1)
        expected = [eval_poly(shifts, t) for t in product(span, repeat=len(shifts))]
        assert _box_values(shifts, lo, hi) == expected

    def test_minor_count(self, op_calls):
        # 2 * C(4, 2) * 13**2 minors per box of [-6, 6]^4, none per point
        orders = op_calls["determinant_bareiss"]
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert len(orders) == 2028
        assert check_shift_identity((0, 1, 0, 3), 3, (-5, 6)).ok
        assert len(orders) == 2028 + 4056
        assert set(orders) == {2}

    def test_binom_count(self, op_calls):
        # 3 boxes x 2 halves x 2 columns x 13 values x 4 rows, one binom per
        # distinct (value, shift) column of a half and none per point
        assert check_difference_eq((0, 1, 0, 3), (-5, 6)).ok
        assert check_shift_identity((0, 1, 0, 3), 2, (-5, 6)).ok
        assert len(op_calls["binom"]) == 624

    def test_cost_bound_before_any_work(self, op_calls):
        assert 13**9 > MAX_BOX_POINTS
        with pytest.raises(ValueError, match="MAX_BOX_POINTS"):
            check_difference_eq((0,) * 9, (-5, 6))
        with pytest.raises(ValueError, match="MAX_BOX_POINTS"):
            check_shift_identity((0,) * 9, 1, (-5, 6))
        assert all(calls == [] for calls in op_calls.values())


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
