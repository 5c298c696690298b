"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from grassmult.indices import GrassmannIndex


@st.composite
def index_pairs(draw, max_n=8, max_d=4):
    """A variety index i and a cell index j <= i sharing (d, n), with
    2 <= n <= max_n and 1 <= d <= min(max_d, n)."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, min(max_d, n)))
    i_entries = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=d, max_size=d))))
    j_entries = []
    prev = 0
    for pos in range(d):
        val = draw(st.integers(prev + 1, i_entries[pos]))
        j_entries.append(val)
        prev = val
    return GrassmannIndex(i_entries, n), GrassmannIndex(tuple(j_entries), n)
