from __future__ import annotations

import math

import pytest
from hypothesis import given
from strategies import index_pairs

from grassmult.indices import enumerate_indices, leq, lower_neighbors, validate


class TestValidate:
    def test_accepts_valid(self):
        idx = validate((1, 3, 4), 5)
        assert idx.entries == (1, 3, 4)
        assert idx.d == 3
        assert str(idx) == "1-3-4"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            validate((), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"entry 0 at position 1"):
            validate((0, 2), 4)
        with pytest.raises(ValueError, match=r"entry 5 at position 2"):
            validate((1, 5), 4)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="position 2 has 2 after 2"):
            validate((2, 2, 3), 5)
        with pytest.raises(ValueError, match="position 3 has 1 after 4"):
            validate((2, 4, 1), 5)

    def test_rejects_too_long(self):
        with pytest.raises(ValueError, match="length 4 exceeds n=3"):
            validate((1, 2, 3, 3), 3)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            validate((1,), 0)

    @pytest.mark.parametrize("entries", [(2.7, 4), (True, 4), ("2", 4)])
    def test_rejects_non_int_entries(self, entries):
        with pytest.raises(ValueError, match="at position 1 is not an integer"):
            validate(entries, 4)


class TestOrder:
    def test_leq_basic(self):
        a = validate((1, 2), 4)
        b = validate((2, 4), 4)
        assert leq(a, b)
        assert not leq(b, a)
        assert leq(a, a)

    def test_leq_incomparable(self):
        a = validate((1, 4), 4)
        b = validate((2, 3), 4)
        assert not leq(a, b)
        assert not leq(b, a)

    def test_leq_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            leq(validate((1,), 3), validate((1, 2), 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            leq(validate((1, 2), 3), validate((1, 2), 4))


class TestEnumerate:
    def test_counts(self):
        for n in range(1, 8):
            for d in range(1, n + 1):
                assert sum(1 for _ in enumerate_indices(d, n)) == math.comb(n, d)

    def test_lexicographic_order(self):
        got = [idx.entries for idx in enumerate_indices(2, 4)]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert got == sorted(got)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="need 1 <= d <= n"):
            list(enumerate_indices(0, 3))
        with pytest.raises(ValueError, match="need 1 <= d <= n"):
            list(enumerate_indices(4, 3))


class TestLowerNeighbors:
    def test_frozen_example(self):
        i = validate((2, 4), 4)
        j = validate((1, 2), 4)
        got = [(q, k.entries) for q, k in lower_neighbors(i, j)]
        assert got == [(1, (1, 4)), (2, (2, 3))]

    def test_blocked_position(self):
        # lowering the first entry of (1, 3) would hit 0, so only the
        # second position moves
        i = validate((1, 3), 3)
        j = validate((1, 2), 3)
        got = [(q, k.entries) for q, k in lower_neighbors(i, j)]
        assert got == [(2, (1, 2))]

    def test_floor_blocks_move(self):
        i = validate((2, 3), 4)
        j = validate((2, 3), 4)
        with pytest.raises(ValueError, match="i != j"):
            lower_neighbors(i, j)

    def test_requires_containment(self):
        with pytest.raises(ValueError, match="j <= i"):
            lower_neighbors(validate((1, 2), 4), validate((2, 4), 4))

    @given(index_pairs())
    def test_neighbor_properties(self, pair):
        i, j = pair
        if i.entries == j.entries:
            return
        for q, k in lower_neighbors(i, j):
            assert sum(k.entries) == sum(i.entries) - 1
            assert leq(j, k)
            assert leq(k, i)
            diffs = [
                (pos + 1, a - b) for pos, (a, b) in enumerate(zip(i.entries, k.entries)) if a != b
            ]
            assert diffs == [(q, 1)]

    @given(index_pairs())
    def test_neighbor_completeness(self, pair):
        i, j = pair
        if i.entries == j.entries:
            return
        got = {k.entries for _, k in lower_neighbors(i, j)}
        expected = {
            k.entries
            for k in enumerate_indices(i.d, i.n)
            if sum(k.entries) == sum(i.entries) - 1 and leq(j, k) and leq(k, i)
        }
        assert got == expected
