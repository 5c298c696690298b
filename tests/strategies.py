"""Hypothesis strategies, and a reader of whole sweeps, shared by the test
modules."""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from grassmult.indices import GrassmannIndex
from grassmult.multiplicity import _sweep


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


def sweep_values(d: int, n: int, routes: tuple[str, ...]) -> tuple[list, dict]:
    """The cells of I(d, n), listed by itertools in the lexicographic order
    that the sweep's ranks number, and per route its value on each pair
    (i, j) of entry tuples that it covers, read off one sweep."""
    cells = list(combinations(range(1, n + 1), d))
    values: dict = {route: {} for route in routes}
    for j, (ranks, columns) in zip(cells, _sweep(d, n, range(len(cells)), routes)):
        for route, column in zip(routes, columns):
            covered = ranks[len(ranks) - len(column):]
            values[route].update(((cells[r], j), v) for r, v in zip(covered, column))
    return cells, values
