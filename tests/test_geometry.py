"""The determinant and recurrence values, of the sweep and of single pairs,
against two facts of geometry, which share no arithmetic with any route.

* Smooth points. A Schubert variety is Cohen-Macaulay, so a point has
  multiplicity 1 exactly when it is smooth. The Zariski tangent space of
  X_i at the fixed point of the cell j has dimension #{(a, b): a in j,
  b not in j, sorted(j - {a} + {b}) <= i} (Lakshmibai-Seshadri 1984), and
  X_i has dimension sum over q of (i_q - q).
* Upper semicontinuity. The cell of j lies in the closure of the cell of
  j' when j <= j', so mult(i, j) >= mult(i, j') for j <= j' <= i. Each
  covering move up from j that stays <= i is checked.

I(d, n) is listed by itertools, in strategies.sweep_values, in the
lexicographic order that the sweep's ranks number. No helper of the package
is used but the values under test: the sweep for every pair with n <= 8,
and mult_det and mult_rec on GrassmannIndex pairs for single pairs with
n <= 14.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from strategies import index_pairs, sweep_values

from grassmult.indices import GrassmannIndex
from grassmult.multiplicity import mult_det, mult_rec

ROUTES = ("determinant", "recurrence")


def leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(x, y))


def tangent_moves(j: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Every sorted(j - {a} + {b}) with a in j and b not in j."""
    return [
        tuple(sorted(set(j) - {a} | {b}))
        for a in j for b in range(1, n + 1) if b not in j
    ]


def smooth(i: tuple[int, ...], tangents: list[tuple[int, ...]]) -> bool:
    """Whether the tangent count, from the tangent moves of j, is dim X_i."""
    return sum(leq(t, i) for t in tangents) == sum(i) - len(i) * (len(i) + 1) // 2


def covering_moves_up(j: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Each j' that raises one entry of j by one and stays increasing."""
    bounds = j[1:] + (n + 1,)
    return [j[:q] + (j[q] + 1,) + j[q + 1:] for q in range(len(j)) if j[q] + 1 < bounds[q]]


@pytest.mark.parametrize("n", range(1, 9))
def test_values_obey_geometry(n):
    for d in range(1, n + 1):
        cells, values = sweep_values(d, n, ROUTES)
        for j in cells:
            tangents, ups = tangent_moves(j, n), covering_moves_up(j, n)
            for i in cells:
                if not leq(j, i):
                    continue
                at_smooth_point = smooth(i, tangents)
                for route in ROUTES:
                    value = values[route][i, j]
                    assert (value == 1) == at_smooth_point, (route, i, j, value)
                    for up in ups:
                        if leq(up, i):
                            assert value >= values[route][i, up], (route, i, j, up)


@given(index_pairs(max_n=14, max_d=13))
@settings(max_examples=100, deadline=None)
def test_single_pairs_obey_geometry(pair):
    i, j = pair
    n = i.n
    values = mult_det(i, j), mult_rec(i, j)
    if smooth(i.entries, tangent_moves(j.entries, n)):
        assert values == (1, 1), (i, j, values)
    else:
        assert min(values) > 1, (i, j, values)
    for up in covering_moves_up(j.entries, n):
        if leq(up, i.entries):
            above = GrassmannIndex(up, n)
            assert values[0] >= mult_det(i, above) and values[1] >= mult_rec(i, above), (i, j, up)
