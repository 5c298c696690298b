from __future__ import annotations

from itertools import product
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import index_pairs

from grassmult.arith import factorial_superproduct
from grassmult.difference import eval_poly
from grassmult.indices import GrassmannIndex, enumerate_indices, leq, validate
from grassmult.matrices import vandermonde
from grassmult.multiplicity import (
    ROUTES,
    FrobeniusCoordinates,
    RouteInapplicableError,
    _evaluate,
    _refusal,
    _sweep,
    alternating_vandermonde_sum,
    degree,
    frobenius_coordinates,
    mult_det,
    mult_product,
    mult_rec,
    mult_sum,
    mult_weyman,
    s_vector,
)


class TestShiftsAndDegree:
    def test_s_vector_separated_is_zero(self):
        i = validate((2, 4), 4)
        j = validate((1, 2), 4)
        assert s_vector(i, j) == (0, 0)

    def test_s_vector_at_equal_indices(self):
        i = validate((1, 3, 6), 6)
        assert s_vector(i, i) == (2, 1, 0)

    def test_s_vector_mixed(self):
        i = validate((2, 4, 6), 6)
        j = validate((1, 2, 3), 6)
        assert s_vector(i, j) == (1, 0, 0)

    def test_degree(self):
        assert degree(validate((2, 4), 4), validate((1, 2), 4)) == 1
        assert degree(validate((2, 4), 4), validate((1, 3), 4)) == 2
        assert degree(validate((2, 4), 4), validate((2, 4), 4)) == 0

    def test_requires_containment(self):
        with pytest.raises(ValueError, match="cell not contained in variety"):
            s_vector(validate((1, 2), 4), validate((2, 4), 4))

    def test_s_vector_equals_brute_count(self):
        pairs = 0
        for n in range(1, 10):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for i in cells:
                    for j in cells:
                        if all(a <= b for a, b in zip(j.entries, i.entries)):
                            pairs += 1
                            assert s_vector(i, j) == tuple(
                                sum(1 for jp in j.entries if jp > iq) for iq in i.entries
                            )
        assert pairs == 23703


class TestRoutesOnFrozenPairs:
    def test_small_separated_pair(self):
        i = validate((2, 4), 4)
        j = validate((1, 2), 4)
        assert mult_det(i, j) == 2
        assert mult_rec(i, j) == 2
        assert mult_sum(i, j) == 2
        assert mult_product(i, j) == 2
        assert mult_weyman(i) == 2

    def test_two_row_pair(self):
        i = validate((3, 5), 5)
        j = validate((1, 3), 5)
        assert mult_det(i, j) == 2
        assert mult_rec(i, j) == 2
        assert mult_sum(i, j) == 2

    def test_three_row_base_cell(self):
        i = validate((2, 4, 6), 6)
        j = validate((1, 2, 3), 6)
        assert mult_det(i, j) == 5
        assert mult_rec(i, j) == 5
        assert mult_sum(i, j) == 5
        assert mult_weyman(i) == 5

    def test_separated_product_value(self):
        i = validate((3, 6), 6)
        j = validate((1, 2), 6)
        assert mult_product(i, j) == 3
        assert mult_det(i, j) == 3
        assert mult_weyman(i) == 3

    def test_equal_indices_give_one(self):
        for entries, n in [((1,), 1), ((2, 5), 6), ((1, 4, 5), 5)]:
            i = validate(entries, n)
            assert mult_det(i, i) == 1
            assert mult_rec(i, i) == 1
            assert mult_sum(i, i) == 1

    def test_product_inapplicable(self):
        i = validate((2, 4), 4)
        j = validate((1, 3), 4)
        with pytest.raises(RouteInapplicableError, match="j_d <= i_1"):
            mult_product(i, j)


class TestDeterminantSweep:
    def test_equals_mult_det(self):
        # d = 1 has an empty left half; even d has halves of one key shape
        for n in range(1, 10):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ups, rows) in zip(cells, _sweep(cells, ("determinant",))):
                    assert rows == [(mult_det(GrassmannIndex(t, n), j),) for t in ups]

    def test_up_sets_are_brute_force_up_sets(self):
        # Why the sweep may skip the containment check on each pair.
        for n in range(1, 9):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ups, _) in zip(cells, _sweep(cells, ())):
                    assert ups == [i.entries for i in cells if leq(j, i)]

    def test_every_column_equals_its_route(self):
        for n in range(1, 8):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ups, rows) in zip(cells, _sweep(cells, ROUTES)):
                    for t, row in zip(ups, rows):
                        i = GrassmannIndex(t, n)
                        assert row == tuple(
                            None if _refusal(r, i, j) else _evaluate(r, i, j) for r in ROUTES
                        )


class TestSumSweep:
    def test_equals_mult_sum(self):
        for n in range(1, 10):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ups, rows) in zip(cells, _sweep(cells, ("sum",))):
                    assert rows == [(mult_sum(GrassmannIndex(t, n), j),) for t in ups]


class TestRecurrence:
    def test_cache_reuse_matches_fresh(self):
        n, d = 6, 2
        j = validate((1, 2), n)
        shared: dict = {}
        for i in enumerate_indices(d, n):
            assert mult_rec(i, j, shared) == mult_rec(i, j)

    def test_cache_keys_stay_in_interval(self):
        i = validate((3, 5), 5)
        j = validate((2, 3), 5)
        cache: dict = {}
        mult_rec(i, j, cache)
        for k in cache:
            assert all(a <= b <= c for a, b, c in zip(j.entries, k, i.entries))

    @given(index_pairs())
    @settings(max_examples=60)
    def test_matches_determinant(self, pair):
        i, j = pair
        assert mult_rec(i, j) == mult_det(i, j)


class TestSumRoute:
    def test_direct_small_case(self):
        assert alternating_vandermonde_sum((0, 0), (2, 4)) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            alternating_vandermonde_sum((0,), (1, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            alternating_vandermonde_sum((-1,), (3,))
        with pytest.raises(ValueError, match="at least one"):
            alternating_vandermonde_sum((), ())

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
                st.lists(st.integers(-6, 6), min_size=d, max_size=d),
            )
        )
    )
    @settings(max_examples=80)
    def test_equals_determinant_family_everywhere(self, args):
        shifts, point = args
        assert alternating_vandermonde_sum(shifts, point) == eval_poly(shifts, point)

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(0, 4), min_size=d, max_size=d),
                st.lists(st.integers(-6, 6), min_size=d, max_size=d),
            )
        )
    )
    @example(([2, 1, 3], [4, 4, -1]))
    @settings(max_examples=80, deadline=None)
    def test_equals_term_by_term_sum(self, args):
        # The route's own formula: every offset vector k <= shifts gives the
        # term (-1)^|k| prod binom(s_q, k_q) times the Vandermonde product
        # of point + k.
        shifts, point = args
        total = 0
        for offsets in product(*(range(s + 1) for s in shifts)):
            weight = prod(comb(s, k) for s, k in zip(shifts, offsets))
            term = weight * vandermonde([t + k for t, k in zip(point, offsets)])
            total += -term if sum(offsets) % 2 else term
        value = alternating_vandermonde_sum(shifts, point)
        assert value * factorial_superproduct(len(point)) == total

    @given(index_pairs())
    @settings(max_examples=40)
    def test_matches_determinant(self, pair):
        i, j = pair
        assert mult_sum(i, j) == mult_det(i, j)


class TestFrobenius:
    def test_examples(self):
        assert frobenius_coordinates((2, 1)) == FrobeniusCoordinates((1,), (1,))
        assert frobenius_coordinates((3, 3, 1)) == FrobeniusCoordinates((2, 1), (2, 0))
        assert frobenius_coordinates((5, 4, 4, 2, 1)) == FrobeniusCoordinates(
            (4, 2, 1), (4, 2, 0)
        )

    def test_empty_partition(self):
        assert frobenius_coordinates(()).rank == 0
        assert frobenius_coordinates((0, 0)).rank == 0

    def test_strictly_decreasing_coordinates(self):
        coords = frobenius_coordinates((6, 5, 5, 3, 2, 1))
        assert list(coords.alpha) == sorted(coords.alpha, reverse=True)
        assert list(coords.beta) == sorted(coords.beta, reverse=True)
        assert len(set(coords.alpha)) == coords.rank
        assert len(set(coords.beta)) == coords.rank

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            frobenius_coordinates((2, -1))
        with pytest.raises(ValueError, match="weakly decreasing"):
            frobenius_coordinates((1, 2))

    def test_self_conjugate_symmetry(self):
        # staircase partitions are self conjugate, so alpha == beta
        coords = frobenius_coordinates((4, 3, 2, 1))
        assert coords.alpha == coords.beta


class TestWeyman:
    def test_base_cell_itself(self):
        assert mult_weyman(validate((1, 2, 3), 5)) == 1

    def test_matches_determinant_at_base_cell(self):
        for n in range(2, 8):
            for d in range(1, min(n, 4) + 1):
                j = validate(tuple(range(1, d + 1)), n)
                for i in enumerate_indices(d, n):
                    assert mult_weyman(i) == mult_det(i, j)


class TestAgreement:
    @given(index_pairs())
    @settings(max_examples=60)
    def test_all_applicable_routes_agree(self, pair):
        i, j = pair
        value = mult_det(i, j)
        assert value >= 1
        assert mult_rec(i, j) == value
        assert mult_sum(i, j) == value
        if j.entries[-1] <= i.entries[0]:
            assert mult_product(i, j) == value
        if j.entries == tuple(range(1, j.d + 1)):
            assert mult_weyman(i) == value

    @given(index_pairs(max_n=16, max_d=6))
    @settings(max_examples=25, deadline=None)
    def test_determinant_equals_recurrence_beyond_the_gate(self, pair):
        i, j = pair
        assert mult_det(i, j) == mult_rec(i, j)
