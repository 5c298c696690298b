"""The multiplicity of a point on a Schubert variety, by five independent
computation routes that must agree.

Indices come in pairs j <= i: the variety is labelled i, the point sits in
the open cell labelled j, and the multiplicity of that point is a positive
integer, computed here in exact integer arithmetic throughout.

Routes:

* ``mult_det``      signed determinant of a matrix of binomial
                    coefficients whose column shifts come from
                    ``s_vector``. Production route: one pair by one
                    Bareiss, a table by memoized half minors.
* ``mult_rec``      the defining recurrence, summing over downward
                    covering moves and dividing by ``degree``; memoized
                    and filled in lexicographic order. This is the
                    authoritative oracle the other routes are checked
                    against.
* ``mult_sum``      alternating, binomially weighted sum of Vandermonde
                    products over a box of offsets, built one coordinate
                    at a time from memoized prefix terms that are dropped
                    once two shifted values collide; a table keeps one
                    memo per cell.
* ``mult_product``  closed product form, applicable only to separated
                    pairs (j_d <= i_1).
* ``mult_weyman``   determinant in the Frobenius coordinates of the
                    partition cut out by i; defined at the base cell
                    j = (1, ..., d) only.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from operator import mul

from .arith import _Frozen, _require_int, _set_field, binom, exact_div, factorial_superproduct
from .difference import _half_minors, _laplace_split, eval_poly
from .indices import GrassmannIndex, leq, lower_neighbor_entries
from .matrices import _require_columns, determinant_bareiss, vandermonde

__all__ = [
    "ROUTE_DETERMINANT",
    "ROUTE_RECURRENCE",
    "ROUTE_SUM",
    "ROUTE_PRODUCT",
    "ROUTE_WEYMAN",
    "ROUTES",
    "RouteInapplicableError",
    "InvariantError",
    "FrobeniusCoordinates",
    "s_vector",
    "degree",
    "mult_det",
    "mult_rec",
    "mult_sum",
    "mult_product",
    "mult_weyman",
    "frobenius_coordinates",
    "alternating_vandermonde_sum",
]

ROUTE_DETERMINANT = "determinant"
ROUTE_RECURRENCE = "recurrence"
ROUTE_SUM = "sum"
ROUTE_PRODUCT = "product"
ROUTE_WEYMAN = "weyman"
ROUTES = (ROUTE_DETERMINANT, ROUTE_RECURRENCE, ROUTE_SUM, ROUTE_PRODUCT, ROUTE_WEYMAN)


class RouteInapplicableError(ValueError):
    """The requested formula does not cover the given pair of indices."""


class InvariantError(RuntimeError):
    """A computed result broke an invariant of the package: a bug, never
    bad input."""


class FrobeniusCoordinates(_Frozen):
    """Partition in Frobenius notation: arm and leg lengths of the diagonal
    hooks, each strictly decreasing; rank 0 encodes the empty partition."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)

    @property
    def rank(self) -> int:
        return len(self.alpha)


def _require_multiplicity(value: int) -> None:
    """The one check of a computed value: a multiplicity is >= 1."""
    if value < 1:
        raise InvariantError(f"multiplicity must be >= 1, got {value}")


def _require_pair(i: GrassmannIndex, j: GrassmannIndex) -> None:
    if not leq(j, i):
        raise ValueError(
            "cell not contained in variety (requires j <= i componentwise)"
        )


def s_vector(i: GrassmannIndex, j: GrassmannIndex) -> tuple[int, ...]:
    """Column shifts of the determinant route: position q counts the
    entries of j strictly larger than i_q.

    Equals (d-1, ..., 1, 0) at i == j and the zero vector exactly when the
    pair is separated (j_d <= i_1).
    """
    _require_pair(i, j)
    return _shifts(i.entries, j.entries)


def _shifts(entries: tuple[int, ...], js: tuple[int, ...]) -> tuple[int, ...]:
    """s_vector's count on entry tuples, for a pair already known to have
    js <= entries; performs no validation."""
    return tuple(len(js) - bisect_right(js, iq) for iq in entries)


def degree(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """d minus the number of entries of i that also occur in j; the divisor
    of the recurrence. Zero exactly when i == j."""
    _require_pair(i, j)
    shared = set(j.entries)
    return i.d - sum(1 for e in i.entries if e in shared)


def mult_det(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity as a signed binomial determinant (production route):
    the determinant family eval_poly at point i with shifts s_vector(i, j)."""
    return eval_poly(s_vector(i, j), i.entries)


def mult_rec(
    i: GrassmannIndex, j: GrassmannIndex, cache: dict[tuple[int, ...], int] | None = None
) -> int:
    """Multiplicity by the defining recurrence, memoized.

    Value 1 at i == j; otherwise the sum over downward covering moves that
    stay above j, divided (exactly) by degree. The table is filled in
    lexicographic order of the interval [j, i]: a covering move lowers one
    coordinate, so it always lands on an entry filled earlier, and no
    recursion depth limit applies.

    The cache maps entry tuples to values and is only meaningful for a
    fixed j and n. Reuse it across calls with the same j to share work;
    when fanning out over processes or threads, keep one cache per worker
    or guard it externally. Table sweeps run its fill loop directly.
    """
    _require_pair(i, j)
    if cache is None:
        cache = {}
    if i.entries not in cache:
        _fill_recurrence(j.entries, _interval_entries(j.entries, i.entries), cache)
    return cache[i.entries]


def _fill_recurrence(floor: tuple[int, ...], interval: list, cache: dict) -> None:
    """mult_rec's fill loop: enter every tuple of interval, a lexicographic
    run of entry tuples k >= floor that is closed under covering moves down
    to floor, into the cache of floor; performs no validation."""
    cache.setdefault(floor, 1)
    d = len(floor)
    floor_set = set(floor)
    for k in interval:
        if k in cache:
            continue
        total = 0
        for _, neighbor in lower_neighbor_entries(k, floor):
            total += cache[neighbor]
        deg = d - sum(1 for e in k if e in floor_set)
        cache[k] = exact_div(total, deg)


def _interval_entries(
    floor: tuple[int, ...], ceil: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Strictly increasing tuples k with floor <= k <= ceil componentwise,
    in lexicographic order."""
    d = len(floor)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], pos: int, prev: int) -> None:
        if pos == d:
            out.append(tuple(prefix))
            return
        for e in range(max(floor[pos], prev + 1), ceil[pos] + 1):
            prefix.append(e)
            extend(prefix, pos + 1, e)
            prefix.pop()

    extend([], 0, 0)
    return out


def alternating_vandermonde_sum(shifts: Sequence[int], point: Sequence[int]) -> int:
    """Alternating, binomially weighted sum of Vandermonde products over
    all offset vectors below shifts, divided exactly by 1! 2! ... (d-1)!.

    At an index pair's shifts and entries this is the multiplicity; the
    expression itself is defined for every integer point.
    """
    _require_columns(point, shifts)
    return _vandermonde_sum({}, tuple(shifts), tuple(point))


def _vandermonde_sum(memo: dict, shifts: tuple[int, ...], point: tuple[int, ...]) -> int:
    """The sum route's engine: alternating_vandermonde_sum on checked
    tuples, performing no validation.

    A term is the tuple of shifted values t_q + k_q so far with its signed
    weight times their Vandermonde product. The terms of each proper prefix
    are built from those of the prefix one shorter and kept in memo, keyed
    by (point prefix, shifts prefix); the last coordinate is only summed.
    """
    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for q in range(1, len(point)):
        key = (point[:q], shifts[:q])
        prefix = memo.get(key)
        if prefix is None:
            prefix = memo[key] = [
                (values + (y,), c) for values, y, c in _extend(terms, point[q - 1], shifts[q - 1])
            ]
        terms = prefix
    total = sum(c for _, _, c in _extend(terms, point[-1], shifts[-1]))
    return exact_div(total, factorial_superproduct(len(point)))


def _extend(terms: list, t: int, s: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each term (values, c) extended by y = t + k for k = 0..s, as
    (values, y, c'): c' is c times (-1)^k binom(s, k) times y - x for every
    x of values. A term with y among its values has product zero and is
    dropped."""
    for k in range(s + 1):
        y = t + k
        w = -binom(s, k) if k % 2 else binom(s, k)
        for values, c in terms:
            c *= w
            for x in values:
                if x == y:
                    break
                c *= y - x
            else:
                yield values, y, c


def mult_sum(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity as the alternating Vandermonde sum."""
    return alternating_vandermonde_sum(s_vector(i, j), i.entries)


def mult_product(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity for separated pairs: the Vandermonde product of i
    divided by 1! 2! ... (d-1)!.

    Raises RouteInapplicableError unless j_d <= i_1.
    """
    _require_pair(i, j)
    if refusal := _refusal(ROUTE_PRODUCT, i, j):
        raise RouteInapplicableError(refusal)
    return _product(i.entries)


def _product(entries: tuple[int, ...]) -> int:
    """The product route's engine: mult_product on the entries of i for a
    covered pair, performing no validation."""
    return exact_div(vandermonde(entries), factorial_superproduct(len(entries)))


def frobenius_coordinates(partition: Sequence[int]) -> FrobeniusCoordinates:
    """Frobenius notation of a partition given as a weakly decreasing
    sequence of nonnegative integers (trailing zeros allowed).

    The rank is the number of diagonal cells of the diagram, alpha the arm
    lengths and beta the leg lengths of the diagonal hooks, the latter
    read off the conjugate partition.
    """
    parts = tuple(partition)
    for pos, part in enumerate(parts):
        _require_int(part, "partition entry", pos + 1)
        if part < 0:
            raise ValueError(f"partition entries must be nonnegative, got {part}")
        if pos and part > parts[pos - 1]:
            raise ValueError("partition entries must be weakly decreasing")
    rank = sum(1 for pos, part in enumerate(parts, start=1) if part >= pos)
    alpha = tuple(parts[pos - 1] - pos for pos in range(1, rank + 1))
    beta = tuple(
        sum(1 for part in parts if part >= pos) - pos for pos in range(1, rank + 1)
    )
    return FrobeniusCoordinates(alpha, beta)


def mult_weyman(i: GrassmannIndex) -> int:
    """Multiplicity at the base cell j = (1, ..., d), as the determinant of
    binom(alpha_p + beta_q, alpha_p) over the Frobenius coordinates of the
    partition (i_d - d, ..., i_2 - 2, i_1 - 1). The empty partition (that
    is, i equal to the base cell) gives 1."""
    return _weyman(i.entries)


def _weyman(entries: tuple[int, ...]) -> int:
    """The weyman route's engine: mult_weyman on the entries of i."""
    lam = [entries[pos] - (pos + 1) for pos in range(len(entries))][::-1]
    coords = frobenius_coordinates(lam)
    if coords.rank == 0:
        return 1
    rows = [[binom(a + b, a) for b in coords.beta] for a in coords.alpha]
    return determinant_bareiss(rows)


# ---------------------------------------------------------------------------
# route table: the scope and the call of every route, and the sweep over
# all pairs, stated once for all callers (the CLI commands and
# mult_product's guard)


def _covers(route: str, i_entries: tuple[int, ...], j_entries: tuple[int, ...]) -> bool:
    """Whether route covers the pair j <= i, given by entry tuples."""
    if route == ROUTE_PRODUCT:
        return j_entries[-1] <= i_entries[0]
    if route == ROUTE_WEYMAN:
        return j_entries == tuple(range(1, len(j_entries) + 1))
    return True


def _refusal(route: str, i: GrassmannIndex, j: GrassmannIndex) -> str | None:
    """Why route does not cover the pair j <= i, or None when it does."""
    if _covers(route, i.entries, j.entries):
        return None
    if route == ROUTE_PRODUCT:
        return (
            f"route 'product' needs j_d <= i_1, "
            f"got j_d={j.entries[-1]} > i_1={i.entries[0]}"
        )
    return f"route 'weyman' is defined only for j = (1..d), got j={j}"


def _evaluate(route: str, i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Value of route on a pair it covers. Route functions are looked up
    by module name at each call, never held, so a wrapper set on this
    module sees every call."""
    if route == ROUTE_DETERMINANT:
        return mult_det(i, j)
    if route == ROUTE_RECURRENCE:
        return mult_rec(i, j)
    if route == ROUTE_SUM:
        return mult_sum(i, j)
    if route == ROUTE_PRODUCT:
        return mult_product(i, j)
    if route == ROUTE_WEYMAN:
        return mult_weyman(i)
    raise ValueError(f"unknown route {route!r}")


def _sweep(
    cells: Sequence[GrassmannIndex], routes: Sequence[str]
) -> Iterator[tuple[list[tuple[int, ...]], list[tuple[int | None, ...]]]]:
    """For each cell j of cells (all of one d): the entry tuples of its
    up-set {i >= j} in lexicographic order, walked once as the interval
    from j to the top index, and one tuple of route values per pair, None
    where a route does not cover the pair. Each route fills its own column
    over the up-set: the determinant by mult_det's column split, with one
    half-minor memo per half for this call only; the recurrence by
    mult_rec's fill loop, with a cache dropped with the cell; the sum by
    its prefix-term engine, with a memo dropped with the cell; product and
    weyman by their engines on the pairs _covers admits. Every i is >= j by
    construction, so no route checks containment per pair and none builds
    an index; the determinant and the sum share the cell's shift vectors,
    counted once.
    """
    d = cells[0].d if cells else 0
    h, left_rows, right_rows = _laplace_split(d)
    left_memo: dict = {}
    right_memo: dict = {}
    for j in cells:
        js = j.entries
        ups = _interval_entries(js, tuple(range(j.n - d + 1, j.n + 1)))
        shifts = None
        columns = []
        for route in routes:
            if route in (ROUTE_DETERMINANT, ROUTE_SUM):
                shifts = shifts or [_shifts(t, js) for t in ups]
            if route == ROUTE_DETERMINANT:
                column = []
                for t, s in zip(ups, shifts):
                    left = _half_minors(left_memo, t[:h], s[:h], *left_rows, d)
                    right = _half_minors(right_memo, t[h:], s[h:], *right_rows, d)
                    column.append(sum(map(mul, left, right)))
            elif route == ROUTE_RECURRENCE:
                cache: dict = {}
                _fill_recurrence(js, ups, cache)
                column = [cache[t] for t in ups]
            elif route == ROUTE_SUM:
                memo: dict = {}
                column = [_vandermonde_sum(memo, s, t) for t, s in zip(ups, shifts)]
            elif route == ROUTE_PRODUCT:
                column = [_product(t) if _covers(route, t, js) else None for t in ups]
            elif route == ROUTE_WEYMAN:  # its scope depends on j alone
                column = [_weyman(t) for t in ups] if _covers(route, js, js) else [None] * len(ups)
            else:
                raise ValueError(f"unknown route {route!r}")
            columns.append(column)
        yield ups, list(zip(*columns))
