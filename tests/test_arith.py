from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassmult import (
    alternating_vandermonde_sum,
    build_binomial_matrix,
    build_shifted_vandermonde_matrix,
    delta_eval,
    enumerate_indices,
    eval_poly,
    frobenius_coordinates,
    validate,
)
from grassmult.arith import InexactDivisionError, binom, exact_div, factorial_superproduct
from grassmult.matrices import determinant_bareiss, determinant_cofactor, vandermonde


class TestExactDiv:
    def test_exact(self):
        assert exact_div(12, 3) == 4
        assert exact_div(-12, 3) == -4
        assert exact_div(12, -3) == -4
        assert exact_div(0, 5) == 0

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_div(7, 2)

    @given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3).filter(lambda v: v != 0))
    def test_roundtrip(self, q, b):
        assert exact_div(q * b, b) == q


class TestBinom:
    def test_matches_comb_on_nonnegative(self):
        for a in range(0, 12):
            for b in range(0, 12):
                assert binom(a, b) == math.comb(a, b)

    def test_negative_lower_index_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(-3, -2) == 0

    def test_negative_upper_index(self):
        # falling-factorial convention: binom(-a, b) = (-1)^b binom(a+b-1, b)
        assert binom(-1, 3) == -1
        assert binom(-2, 2) == 3
        assert binom(-5, 0) == 1
        assert binom(-4, 3) == -20

    def test_between_zero_and_b(self):
        assert binom(2, 5) == 0
        assert binom(0, 1) == 0

    def test_matches_falling_factorial(self):
        # A reference that shares no code with binom: the falling factorial
        # a(a-1)...(a-b+1) by a plain loop, divided exactly by b!.
        for a in range(-25, 26):
            for b in range(-3, 16):
                falling = 1
                for k in range(b):
                    falling *= a - k
                expected, remainder = divmod(falling, math.factorial(b)) if b >= 0 else (0, 0)
                assert remainder == 0
                assert binom(a, b) == expected
        running = 1
        for d in range(1, 13):
            assert factorial_superproduct(d) == running
            running *= math.factorial(d)

    @given(st.integers(-40, 40), st.integers(-5, 40))
    def test_pascal_rule(self, a, b):
        if b >= 1:
            assert binom(a, b) == binom(a - 1, b) + binom(a - 1, b - 1)

    @given(st.integers(-30, 30), st.integers(0, 30))
    def test_negation_symmetry(self, a, b):
        assert binom(-a, b) == (-1) ** b * binom(a + b - 1, b)


class TestFactorialSuperproduct:
    def test_small_values(self):
        assert factorial_superproduct(1) == 1
        assert factorial_superproduct(2) == 1
        assert factorial_superproduct(3) == 2
        assert factorial_superproduct(4) == 12
        assert factorial_superproduct(5) == 288

    def test_recursive_structure(self):
        for d in range(2, 9):
            assert factorial_superproduct(d) == factorial_superproduct(d - 1) * math.factorial(d - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorial_superproduct(0)


# Each public entry point that takes integer vectors or integers, called with
# one float and one bool in a single argument; the error names the offending
# value and, in a vector, its position.
NON_INT_CALLS = [
    (eval_poly, ((0, 0), (2.5, 4)), "value 2.5 at position 1"),
    (eval_poly, ((0, 0), (3, True)), "value True at position 2"),
    (eval_poly, ((0, 1.0), (3, 5)), "shift 1.0 at position 2"),
    (eval_poly, ((True, 0), (3, 5)), "shift True at position 1"),
    (delta_eval, ((0, 0), 1, (3, 5.0)), "value 5.0 at position 2"),
    (delta_eval, ((0, 0), 1, (False, 5)), "value False at position 1"),
    (delta_eval, ((0, 0), 1.0, (3, 5)), "direction 1.0 is not"),
    (delta_eval, ((0, 0), True, (3, 5)), "direction True is not"),
    (build_binomial_matrix, ((2, 4.0), (0, 0)), "value 4.0 at position 2"),
    (build_binomial_matrix, ((2, 4), (0, True)), "shift True at position 2"),
    (build_shifted_vandermonde_matrix, ((1.5, 3), (0, 1)), "value 1.5 at position 1"),
    (build_shifted_vandermonde_matrix, ((1, 3), (True, 1)), "shift True at position 1"),
    (alternating_vandermonde_sum, ((0, 0.0), (2, 4)), "shift 0.0 at position 2"),
    (alternating_vandermonde_sum, ((0, 0), (True, 4)), "value True at position 1"),
    (frobenius_coordinates, ((2.0, 1),), "partition entry 2.0 at position 1"),
    (frobenius_coordinates, ((2, True),), "partition entry True at position 2"),
    (validate, ((2, 4), 4.0), "n 4.0 is not an integer"),
    (validate, ((1,), True), "n True is not an integer"),
    (enumerate_indices, (2, 4.0), "n 4.0 is not an integer"),
    (enumerate_indices, (True, 3), "d True is not an integer"),
    (factorial_superproduct, (True,), "d True is not an integer"),
    (factorial_superproduct, (3.0,), "d 3.0 is not an integer"),
    # Rows count from 0, as in the row-length error, and entries from 1.
    (determinant_bareiss, ([[2, 3, 1], [4, 1.5, 2], [1, 2, 3]],), "row 1 entry 1.5 at position 2"),
    (determinant_bareiss, ([[1.5]],), "row 0 entry 1.5 at position 1"),
    (determinant_bareiss, ([["a"]],), "row 0 entry 'a' at position 1"),
    (determinant_bareiss, ([[1, 0], [0, True]],), "row 1 entry True at position 2"),
    (determinant_cofactor, ([[1.5]],), "row 0 entry 1.5 at position 1"),
    (determinant_cofactor, ([[False, 1], [1, 0]],), "row 0 entry False at position 1"),
    (vandermonde, ([1.5, 2],), "value 1.5 at position 1"),
    (vandermonde, ([1, True],), "value True at position 2"),
]


@pytest.mark.parametrize(
    "fn, args, match", NON_INT_CALLS,
    ids=[f"{fn.__name__}-{k}" for k, (fn, _, _) in enumerate(NON_INT_CALLS)],
)
def test_entry_points_reject_non_int(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
