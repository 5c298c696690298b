from __future__ import annotations

from itertools import combinations, product
from math import comb, prod
from operator import le
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import index_pairs, sweep_values

from grassmult.arith import factorial_superproduct
from grassmult.difference import eval_poly
from grassmult.indices import GrassmannIndex, enumerate_indices, leq, validate
from grassmult import multiplicity
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

    def test_mult_det_checks_each_input_once(self, spy):
        # A validated index was checked at the door, so mult_det passes its
        # entries and their s_vector to eval_poly's unchecked core, and
        # eliminates the matrix unchecked: none of the 4 + 4 entries or the
        # 16 matrix entries passes the int rule again.
        i, j = validate((2, 4, 6, 8), 8), validate((1, 2, 3, 4), 8)
        checks, eliminations = spy("_require_int"), spy("_bareiss")
        assert mult_det(i, j) == 24
        assert (len(checks), len(eliminations)) == (0, 1)

    def test_mult_sum_checks_each_input_once(self, spy):
        # mult_sum runs the sum's engine on a validated index's entries and
        # their s_vector: no entry passes the int rule again.
        i, j = validate((2, 4, 6, 8), 8), validate((1, 2, 3, 4), 8)
        checks, sums = spy("_require_int"), spy("_vandermonde_sum", multiplicity)
        assert mult_sum(i, j) == 24
        assert (len(checks), len(sums)) == (0, 1)

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

    def test_scope_is_the_readme_table(self):
        # The sweep and _refusal both read _floor, so a column compared
        # with _refusal cannot show a wrong floor. This states the scope
        # as README's table does, pair by pair: product j_d <= i_1,
        # weyman j = (1..d), the other routes every pair.
        pairs = 0
        for n in range(1, 10):
            for d in range(1, n + 1):
                cells = [GrassmannIndex(t, n) for t in combinations(range(1, n + 1), d)]
                base = tuple(range(1, d + 1))
                for j in cells:
                    for i in cells:
                        if all(a <= b for a, b in zip(j.entries, i.entries)):
                            pairs += 1
                            scope = {
                                "product": j.entries[-1] <= i.entries[0],
                                "weyman": j.entries == base,
                            }
                            for route in ROUTES:
                                assert (_refusal(route, i, j) is None) == scope.get(route, True)
        assert pairs == 23703

    def test_product_inapplicable(self):
        i = validate((2, 4), 4)
        j = validate((1, 3), 4)
        with pytest.raises(RouteInapplicableError, match="j_d <= i_1"):
            mult_product(i, j)


class TestDeterminantSweep:
    def test_up_sets_are_brute_force_up_sets(self):
        # Why the sweep may skip the containment check on each pair. The
        # ranks number I(d, n) in the order enumerate_indices yields.
        for n in range(1, 9):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ranks, _) in zip(cells, _sweep(d, n, range(len(cells)), ("recurrence",))):
                    assert all(a < b for a, b in zip(ranks, ranks[1:]))
                    assert [cells[r] for r in ranks] == [i for i in cells if leq(j, i)]

    def test_walk_keys_decode_to_brute_force_up_sets(self):
        # The sweep's codec: a key is rank * d**d plus the base-d digits of
        # the shift vector above the walk's floor, or the bare rank when
        # unkeyed. Every route's floor at every cell is walked, product
        # floors past n included, whose up-sets are empty.
        for n in range(1, 9):
            for d in range(1, n + 1):
                cells = [j.entries for j in enumerate_indices(d, n)]
                weights = multiplicity._weights(d, n)
                floors = {multiplicity._floor(route, j) for route in ROUTES for j in cells}
                for floor in floors - {None}:
                    ups = [r for r, t in enumerate(cells) if all(map(le, floor, t))]
                    keys = multiplicity._walk(weights, floor, True)
                    assert [key // d**d for key in keys] == ups
                    assert multiplicity._walk(weights, floor, False) == ups
                    for key in keys:
                        shifts = tuple(key // d**q % d for q in range(d))
                        assert shifts == s_vector(validate(cells[key // d**d], n), validate(floor, n))
                assert any(floor and floor[-1] > n for floor in floors) == (d > 1)

    def test_evaluate_refuses_an_unknown_route(self):
        i = validate((1,), 1)
        with pytest.raises(ValueError, match="unknown route 'nope'"):
            _evaluate("nope", i, i)

    @pytest.mark.parametrize(
        "routes, max_n",
        [(ROUTES, 7), (("determinant",), 9), (("sum",), 9)],
        ids=["all", "determinant", "sum"],
    )
    def test_every_column_equals_its_route(self, routes, max_n):
        # A column holds its route's values on the tail of the ranks that
        # the route covers, and the pairs before that tail are refused.
        # d = 1 has an empty left half; even d has halves of one key shape
        for n in range(1, max_n + 1):
            for d in range(1, n + 1):
                cells = list(enumerate_indices(d, n))
                for j, (ranks, columns) in zip(cells, _sweep(d, n, range(len(cells)), routes)):
                    above = [cells[r] for r in ranks]
                    assert len(columns) == len(routes)
                    for route, column in zip(routes, columns):
                        skip = len(above) - len(column)
                        covers = [_refusal(route, i, j) is None for i in above]
                        assert covers == [False] * skip + [True] * len(column)
                        assert column == [_evaluate(route, i, j) for i in above[skip:]]


def dual(entries: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The index of Gr(n - d, n) dual to an index of Gr(d, n): x* =
    sorted(n + 1 - y for y not in x)."""
    return tuple(sorted(n + 1 - y for y in range(1, n + 1) if y not in entries))


class TestDuality:
    def test_dual_pairs_agree_across_dimensions(self):
        # The routes check one another within one (d, n). Duality
        # Gr(d, n) = Gr(n - d, n) keeps the multiplicity of a pair (i, j) at
        # (i*, j*), so it tests the index conventions across dimensions.
        routes = ("determinant", "recurrence", "sum")
        for n in range(2, 10):
            sweeps = {d: sweep_values(d, n, routes)[1] for d in range(1, n)}
            for d, here in sweeps.items():
                there = sweeps[n - d]
                assert len(here["determinant"]) == len(there["determinant"])
                for (i, j), det in here["determinant"].items():
                    duals = dual(i, n), dual(j, n)
                    assert det == there["recurrence"][duals]
                    assert here["sum"][i, j] == there["determinant"][duals]

    @given(index_pairs(max_n=14, max_d=13).filter(lambda pair: pair[0].d < pair[0].n))
    @settings(max_examples=100, deadline=None)
    def test_single_dual_pairs_agree(self, pair):
        # The library's routes one pair at a time, beyond the sweep's n <= 9.
        i, j = pair
        i_dual, j_dual = (GrassmannIndex(dual(x.entries, x.n), x.n) for x in pair)
        assert mult_det(i, j) == mult_rec(i_dual, j_dual)
        assert mult_rec(i, j) == mult_det(i_dual, j_dual)


class TestRecurrence:
    @pytest.mark.parametrize(
        "i, j, interval",
        [
            # I(2, 10**6) has about 5 * 10**11 members; [j, i] has three.
            (
                (999_999, 10**6), (999_998, 999_999),
                [(999_998, 999_999), (999_998, 10**6), (999_999, 10**6)],
            ),
            # The entries span nearly all of 1..n, yet [j, i] has four
            # members, so no table of the engine may grow with n either.
            (
                (2, 10**6), (1, 999_999),
                [(1, 999_999), (1, 10**6), (2, 999_999), (2, 10**6)],
            ),
            # Every built tuple lies between j and i componentwise, though
            # (2, 5) and (3, 4) are not comparable with each other.
            ((3, 5), (2, 3), [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
        ],
        ids=["adjacent", "wide", "small"],
    )
    def test_one_pair_builds_its_interval_only(self, spy, i, j, interval):
        i, j = validate(i, 10**6), validate(j, 10**6)
        lattices = spy("_lattice", multiplicity)
        tracemalloc.start()
        try:
            value = mult_rec(i, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == mult_det(i, j)
        assert [t for _, lattice in lattices for t, _ in lattice] == interval
        assert peak < 100_000  # a table as long as n would take megabytes

    def test_lattice_is_the_interval_with_its_covering_moves(self):
        # Read against the poset alone: the interval is every increasing
        # tuple between j and i, in lexicographic order, and the covers
        # of t are the tuples below it whose entry sum is one less.
        for n in range(1, 8):
            for d in range(1, n + 1):
                tuples = list(combinations(range(1, n + 1), d))
                for i, j in product(tuples, repeat=2):
                    if not all(map(le, j, i)):
                        continue
                    lattice = multiplicity._lattice(j, i)
                    interval = [t for t in tuples if all(map(le, j, t)) and all(map(le, t, i))]
                    assert [t for t, _ in lattice] == interval
                    for t, lower in lattice:
                        covers = [u for u in interval if all(map(le, u, t)) and sum(u) == sum(t) - 1]
                        assert sorted(lattice[k][0] for _, _, k in lower) == covers
                        assert [q for q, _, _ in lower] == sorted({q for q, _, _ in lower})
                        for q, dec, k in lower:
                            assert lattice[k][0] == t[:q] + (dec,) + t[q + 1:]

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

    def test_holds_one_level_of_terms(self):
        # i = (2, 4, ..., 16), j = (1, 3, ..., 15) has shifts (7, 6, ..., 0).
        # Summed from the last coordinate, each level carries the smaller
        # shifts and the first coordinate is only summed: the peak is about
        # 0.3 MB, where stored prefix terms of the largest shifts took 3.3 MB.
        i, j = validate(tuple(range(2, 17, 2)), 16), validate(tuple(range(1, 16, 2)), 16)
        tracemalloc.start()
        try:
            value = mult_sum(i, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s_vector(i, j), value) == ((7, 6, 5, 4, 3, 2, 1, 0), 1)
        assert peak < 1_000_000


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
